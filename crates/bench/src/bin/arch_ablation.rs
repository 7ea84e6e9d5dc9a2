//! **Architecture ablation** (extension beyond the paper's tables): the
//! paper's encoder is a CNN (ResNet-18); the simulation default is an MLP
//! stem (DESIGN.md §2). This harness runs Finetune / CaSSLe / EDSR with
//! both stems on the CIFAR-100 simulation so the substitution's effect is
//! measurable rather than assumed.

use edsr_bench::{continual_run, paper_method, start, sweep, Report, IMAGE_SEEDS};
use edsr_cl::{ModelConfig, TrainConfig};
use edsr_data::cifar100_sim;
use edsr_nn::ConvShape;

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("arch_ablation");
    let cfg = TrainConfig::image();
    let preset = cifar100_sim();
    let shape = ConvShape {
        channels: preset.grid.channels,
        height: preset.grid.height,
        width: preset.grid.width,
    };

    report.line("Architecture ablation on cifar100-sim (Acc / Fgt)");
    for (arch, model_cfg) in [
        ("MLP stem", ModelConfig::image(preset.grid.dim())),
        ("Conv stem", ModelConfig::conv_image(shape, 8)),
    ] {
        report.line(format!("\n== {arch} =="));
        for name in ["Finetune", "CaSSLe", "EDSR"] {
            let sweep = sweep(&seeds, |seed| {
                let method = paper_method(name, &preset, &cfg);
                continual_run(&preset, &model_cfg, &cfg, method, seed)
            });
            sweep.report_failures(&mut report, name);
            let agg = sweep.aggregate();
            report.line(format!(
                "{:<10} | Acc {} | Fgt {} | {:.0}s/run",
                name,
                agg.acc_cell(),
                agg.fgt_cell(),
                agg.seconds
            ));
        }
    }
    report.finish();
}
