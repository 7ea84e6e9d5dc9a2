//! **Fig. 8** — memory-budget sweep: Acc for Random vs High-Entropy
//! selection (noise disabled, isolating selection quality) at increasing
//! total memory on CIFAR-100 and Tiny-ImageNet simulations.
//!
//! Paper shapes: more memory helps both; the High-Entropy − Random gap
//! first grows then shrinks with budget (tiny memories can't hold much
//! either way; huge memories make random selection representative too);
//! high-entropy runs have smaller stds.

use edsr_bench::{run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{Method, TrainConfig};
use edsr_core::{Edsr, EdsrConfig, ReplayLoss, SelectionStrategy};
use edsr_data::{cifar100_sim, tiny_imagenet_sim};

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("fig8");
    let cfg = TrainConfig::image();
    // Paper sweeps 320/640/1280 on 20-task benchmarks (16/32/64 per task);
    // scaled: total 20/40/80/160 (1/2/4/8 per task).
    let budgets = [20usize, 40, 80, 160];

    report.line("Fig. 8 — amount of stored data vs Acc (no replay noise)");
    for base in [cifar100_sim(), tiny_imagenet_sim()] {
        report.line(format!("\n== {} ==", base.name));
        report.line(format!(
            "{:<8} | {:>16} | {:>16} | {:>6}",
            "memory", "Random", "High Entropy", "gap"
        ));
        for &total in &budgets {
            let preset = base.with_memory_total(total);
            let budget = preset.per_task_budget();
            let mut cells = Vec::new();
            for strategy in [SelectionStrategy::Random, SelectionStrategy::HighEntropy] {
                let sweep = run_method_over_seeds(&preset, &cfg, &seeds, || {
                    let mut c = EdsrConfig::paper_default(budget, cfg.replay_batch, 0);
                    c.selection = strategy;
                    c.replay_loss = ReplayLoss::Dis; // noise omitted, per the figure
                    Box::new(Edsr::new(c)) as Box<dyn Method>
                });
                sweep.report_failures(&mut report, &format!("mem {total} {strategy:?}"));
                cells.push(sweep.aggregate());
            }
            report.line(format!(
                "{:<8} | {:>16} | {:>16} | {:>6.2}",
                total,
                cells[0].acc_cell(),
                cells[1].acc_cell(),
                cells[1].acc - cells[0].acc
            ));
        }
    }
    report.finish();
}
