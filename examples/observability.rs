//! Observability walkthrough: watch a run from both ends of the API.
//!
//! 1. The returned [`RunResult`] carries the per-increment numbers — the
//!    accuracy-matrix rows, wall time and mean training loss — printed
//!    here as a progress report.
//! 2. The process-global `edsr-obs` sink captures the cross-layer metric
//!    stream (per-term losses, selection entropy, kNN noise scales, span
//!    timings) — here into an in-memory ring, summarized at the end.
//!
//! ```bash
//! cargo run --release --example observability
//! ```
//!
//! To stream the same events to a file instead, run the `edsr` CLI or
//! any `edsr-bench` binary with `EDSR_OBS=jsonl EDSR_OBS_PATH=metrics.jsonl`,
//! then inspect it with `cargo run --bin edsr -- metrics metrics.jsonl`.

use edsr::cl::{ContinualModel, ModelConfig, RunBuilder, RunResult, TrainConfig};
use edsr::core::{Edsr, Error};
use edsr::data::test_sim;
use edsr::obs::{self, EventKind, RingSink};
use edsr::tensor::rng::seeded;

fn main() -> Result<(), Error> {
    // Capture the global metric stream into a ring buffer for this demo.
    // (`EnvConfig::apply` installs a JSONL file sink from `EDSR_OBS=jsonl`.)
    let ring = RingSink::with_capacity(obs::DEFAULT_RING_CAPACITY);
    obs::install(Box::new(ring.clone()));

    let preset = test_sim();
    let mut data_rng = seeded(7);
    let (sequence, augmenters) = preset.build_with_augmenters(&mut data_rng);
    let mut model = ContinualModel::new(&ModelConfig::image(preset.grid.dim()), &mut seeded(8));
    let mut edsr = Edsr::paper_default(preset.per_task_budget(), 8, preset.noise_neighbors);

    let mut cfg = TrainConfig::image();
    cfg.epochs_per_task = 5; // quick demo
    let result = RunBuilder::new(&cfg).run(
        &mut edsr,
        &mut model,
        &mut &sequence,
        &augmenters,
        &mut seeded(9),
    )?;
    print_progress(&result);
    println!(
        "\nfinal: Acc = {:.1}%  Fgt = {:.1}%",
        result.final_acc_pct(),
        result.final_fgt_pct()
    );

    // Summarize the captured stream: the same numbers a JSONL file would
    // hold, straight from the ring.
    obs::flush();
    let events = ring.events();
    println!("\ncaptured {} events; per-metric summaries:", events.len());
    println!(
        "{:<22} {:>7} {:>12} {:>12} {:>12}",
        "metric", "count", "min", "mean", "max"
    );
    for name in [
        "loss/css",
        "loss/dis",
        "loss/rpl",
        "grad/norm",
        "select/entropy",
        "noise/r",
        "eval/mean_acc",
    ] {
        if let Some(s) = obs::summarize(&events, name) {
            println!(
                "{name:<22} {:>7} {:>12.4} {:>12.4} {:>12.4}",
                s.count, s.min, s.mean, s.max
            );
        }
    }
    let spans = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanExit)
        .count();
    println!("plus {spans} closed spans (run > task > epoch > step timings)");
    obs::uninstall();
    Ok(())
}

/// One line per increment: its evaluation row `A_{i,j}, j ≤ i`, wall time
/// and mean training loss.
fn print_progress(result: &RunResult) {
    println!(
        "[obs] {} on {}: {} increments",
        result.method,
        result.benchmark,
        result.matrix.num_increments()
    );
    let per_task = result.task_seconds.iter().zip(&result.task_losses);
    for (i, (row, (seconds, loss))) in result.matrix.rows().iter().zip(per_task).enumerate() {
        let accs: Vec<String> = row.iter().map(|a| format!("{:.1}%", a * 100.0)).collect();
        println!(
            "[obs] increment {i}: done in {seconds:.2}s, mean step loss {loss:.4}, eval row [{}]",
            accs.join(", ")
        );
    }
}
