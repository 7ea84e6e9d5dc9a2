//! **Table IV** — replay-loss ablation with high-entropy memory:
//! No-replay (CaSSLe) vs replaying the stored data through `L_css`,
//! `L_dis`, or `L_rpl`.
//!
//! Paper shapes: `L_css` replay *hurts* (over-fitting on few unlabeled
//! samples — worse than no replay); `L_dis` and `L_rpl` both help; the
//! noise advantage of `L_rpl` grows with benchmark difficulty.

use edsr_bench::{run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{Method, TrainConfig};
use edsr_core::{Edsr, EdsrConfig, ReplayLoss};
use edsr_data::{cifar100_sim, cifar10_sim, tiny_imagenet_sim, Preset};

/// Paper Acc values per (dataset row, replay column).
const PAPER: [[f32; 4]; 3] = [
    [92.28, 91.38, 93.17, 93.14], // CIFAR-10
    [83.67, 73.63, 85.23, 85.42], // CIFAR-100
    [78.76, 62.15, 80.27, 81.19], // Tiny-ImageNet
];

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("table4");
    let cfg = TrainConfig::image();
    let presets: Vec<Preset> = vec![cifar10_sim(), cifar100_sim(), tiny_imagenet_sim()];
    let losses = [
        ReplayLoss::None,
        ReplayLoss::Css,
        ReplayLoss::Dis,
        ReplayLoss::Rpl,
    ];

    report.line("Table IV — replaying methods (high-entropy memory), average accuracy Acc");
    report.line(format!(
        "{:<18} | {:>16} {:>16} {:>16} {:>16}",
        "Dataset", "No Replay", "L_css", "L_dis", "L_rpl"
    ));

    for (row, preset) in presets.iter().enumerate() {
        let budget = preset.per_task_budget();
        let mut cells = Vec::new();
        for (col, &loss) in losses.iter().enumerate() {
            let sweep = run_method_over_seeds(preset, &cfg, &seeds, || {
                let mut c =
                    EdsrConfig::paper_default(budget, cfg.replay_batch, preset.noise_neighbors);
                c.replay_loss = loss;
                Box::new(Edsr::new(c)) as Box<dyn Method>
            });
            sweep.report_failures(&mut report, &format!("{} {}", preset.name, loss.name()));
            let agg = sweep.aggregate();
            cells.push(format!("{} ({:.2})", agg.acc_cell(), PAPER[row][col]));
        }
        report.line(format!(
            "{:<18} | {:>16} | {:>16} | {:>16} | {:>16}",
            preset.name, cells[0], cells[1], cells[2], cells[3]
        ));
    }
    report.line("\n(paper values in parentheses)");
    report.finish();
}
