//! **Extension ablations** (beyond the paper's tables; DESIGN.md §7):
//! 1. Eq. 15 readings: PCA-leverage (`HighEntropy`) vs literal trace
//!    maximization (`TraceGreedy`).
//! 2. §IV-F's "potential way": similarity-weighted replay sampling vs
//!    uniform.
//! 3. The role of the CaSSLe-style distillation on new data inside EDSR
//!    (`distill_new` off = replay-only EDSR).
//! 4. Lin et al. \[61\] as a full method (k-means storage + representation-
//!    distance preservation) — the related-work memory-based UCL approach
//!    whose Min-Var selector appears in Table V.

use edsr_bench::{paper_method, run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{Method, TrainConfig};
use edsr_core::{Edsr, EdsrConfig, ReplaySampling, SelectionStrategy};
use edsr_data::cifar100_sim;

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("ablation");
    let cfg = TrainConfig::image();
    let preset = cifar100_sim();
    let budget = preset.per_task_budget();

    report.line("Extension ablations on cifar100-sim (Acc / Fgt)");
    type ConfigFactory<'a> = (&'a str, Box<dyn Fn() -> EdsrConfig + Sync>);
    let variants: Vec<ConfigFactory> = vec![
        (
            "EDSR (paper default)",
            Box::new(|| EdsrConfig::paper_default(4, 16, 5)),
        ),
        (
            "TraceGreedy selection",
            Box::new(|| {
                let mut c = EdsrConfig::paper_default(4, 16, 5);
                c.selection = SelectionStrategy::TraceGreedy;
                c
            }),
        ),
        (
            "Similarity-weighted replay",
            Box::new(|| {
                let mut c = EdsrConfig::paper_default(4, 16, 5);
                c.replay_sampling = ReplaySampling::SimilarityWeighted;
                c
            }),
        ),
        (
            "No new-data distillation",
            Box::new(|| {
                let mut c = EdsrConfig::paper_default(4, 16, 5);
                c.distill_new = false;
                c
            }),
        ),
    ];
    // The full Lin et al. method (its Min-Var storage rule appears in
    // Table V; the distance-preservation replay is exercised here).
    {
        let sweep =
            run_method_over_seeds(&preset, &cfg, &seeds, || paper_method("Lin", &preset, &cfg));
        sweep.report_failures(&mut report, "Lin et al. [61]");
        let agg = sweep.aggregate();
        report.line(format!(
            "{:<28} | Acc {} | Fgt {}",
            "Lin et al. [61]",
            agg.acc_cell(),
            agg.fgt_cell()
        ));
    }

    for (name, make_cfg) in &variants {
        let sweep = run_method_over_seeds(&preset, &cfg, &seeds, || {
            let mut c = make_cfg();
            c.per_task_budget = budget;
            c.replay_batch = cfg.replay_batch;
            c.noise_neighbors = preset.noise_neighbors;
            Box::new(Edsr::new(c)) as Box<dyn Method>
        });
        sweep.report_failures(&mut report, name);
        let agg = sweep.aggregate();
        report.line(format!(
            "{:<28} | Acc {} | Fgt {}",
            name,
            agg.acc_cell(),
            agg.fgt_cell()
        ));
    }
    report.finish();
}
