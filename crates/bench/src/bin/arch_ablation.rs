//! **Architecture ablation** (extension beyond the paper's tables): the
//! paper's encoder is a CNN (ResNet-18); the simulation default is an MLP
//! stem (DESIGN.md §2). This harness runs Finetune / CaSSLe / EDSR with
//! both stems on the CIFAR-100 simulation so the substitution's effect is
//! measurable rather than assumed.

use edsr_bench::{run_method_over_seeds_with_model, start, Report, IMAGE_SEEDS};
use edsr_cl::{Cassle, Finetune, ModelConfig, TrainConfig};
use edsr_core::Edsr;
use edsr_data::cifar100_sim;
use edsr_nn::ConvShape;

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("arch_ablation");
    let cfg = TrainConfig::image();
    let preset = cifar100_sim();
    let budget = preset.per_task_budget();
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
        let replay_batch = cfg.replay_batch;
        let noise_k = preset.noise_neighbors;
        let methods: Vec<edsr_bench::MethodFactory> = vec![
            ("Finetune", Box::new(|| Box::new(Finetune::new()))),
            ("CaSSLe", Box::new(|| Box::new(Cassle::new()))),
            (
                "EDSR",
                Box::new(move || Box::new(Edsr::paper_default(budget, replay_batch, noise_k))),
            ),
        ];
        for (name, make) in &methods {
            let sweep =
                run_method_over_seeds_with_model(&preset, &cfg, &seeds, &model_cfg, &|| make());
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
