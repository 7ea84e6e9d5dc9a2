//! **Table V** — selection strategy × replay loss grid: {Random, K-means,
//! Min-Var, Distant, High-Entropy} each replayed with `L_dis` and `L_rpl`.
//!
//! Paper shapes: any selection + replay beats no replay; high-entropy is
//! the best / most consistent selector; `L_rpl` generally improves Acc and
//! Fgt over `L_dis` across selectors.

use edsr_bench::{paper_method, run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{Method, TrainConfig};
use edsr_core::{table5_strategies, Edsr, EdsrConfig, ReplayLoss};
use edsr_data::{cifar100_sim, cifar10_sim, tiny_imagenet_sim, Preset};

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("table5");
    let cfg = TrainConfig::image();
    let presets: Vec<Preset> = vec![cifar10_sim(), cifar100_sim(), tiny_imagenet_sim()];

    report.line("Table V — storage methods x replay loss (Acc / Fgt)");
    for preset in &presets {
        let budget = preset.per_task_budget();
        report.line(format!(
            "\n== {} (per-task budget {budget}) ==",
            preset.name
        ));

        // No-replay reference (CaSSLe).
        let sweep = run_method_over_seeds(preset, &cfg, &seeds, || {
            paper_method("CaSSLe", preset, &cfg)
        });
        sweep.report_failures(&mut report, "No Replay (CaSSLe)");
        let agg = sweep.aggregate();
        report.line(format!(
            "{:<24} | Acc {} | Fgt {}",
            "No Replay (CaSSLe)",
            agg.acc_cell(),
            agg.fgt_cell()
        ));

        for replay in [ReplayLoss::Dis, ReplayLoss::Rpl] {
            report.line(format!("-- replay with {} --", replay.name()));
            for strategy in table5_strategies() {
                let sweep = run_method_over_seeds(preset, &cfg, &seeds, || {
                    let mut c =
                        EdsrConfig::paper_default(budget, cfg.replay_batch, preset.noise_neighbors);
                    c.selection = strategy;
                    c.replay_loss = replay;
                    Box::new(Edsr::new(c)) as Box<dyn Method>
                });
                sweep.report_failures(&mut report, strategy.name());
                let agg = sweep.aggregate();
                report.line(format!(
                    "{:<24} | Acc {} | Fgt {}",
                    strategy.name(),
                    agg.acc_cell(),
                    agg.fgt_cell()
                ));
            }
        }
    }
    report.finish();
}
