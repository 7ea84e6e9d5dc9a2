//! **Fig. 10** — efficiency-effectiveness within EDSR: sweep of the
//! replayed-data batch size (memory budget fixed at the benchmark's
//! Fig.-8-style enlarged value). Reports time and Acc per size.
//!
//! Paper shapes: time grows monotonically with replay size; Acc rises
//! then falls (too much replay crowds out new-data learning); a middle
//! size is the sweet spot.

use edsr_bench::{run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{Method, TrainConfig};
use edsr_core::Edsr;
use edsr_data::cifar100_sim;

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("fig10");
    // Larger memory so replay size is the binding factor (paper: 640).
    let preset = cifar100_sim().with_memory_total(160);
    let budget = preset.per_task_budget();

    report.line("Fig. 10 — number of replayed data per batch vs time and Acc");
    report.line(format!(
        "benchmark {}, memory {}",
        preset.name, preset.memory_total
    ));
    report.line(format!(
        "{:<8} | {:>10} | {:>16} | {:>16}",
        "replay", "time (s)", "Acc", "Fgt"
    ));
    // Paper sweeps 32..512 with batch 256; scaled to our batch 64.
    for replay in [4usize, 8, 16, 32, 64] {
        let mut cfg = TrainConfig::image();
        cfg.replay_batch = replay;
        let sweep = run_method_over_seeds(&preset, &cfg, &seeds, || {
            Box::new(Edsr::paper_default(budget, replay, preset.noise_neighbors)) as Box<dyn Method>
        });
        sweep.report_failures(&mut report, &format!("replay {replay}"));
        let agg = sweep.aggregate();
        report.line(format!(
            "{:<8} | {:>10.1} | {:>16} | {:>16}",
            replay,
            agg.seconds,
            agg.acc_cell(),
            agg.fgt_cell()
        ));
    }
    report.finish();
}
