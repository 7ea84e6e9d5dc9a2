//! **Fig. 9** — efficiency-effectiveness trade-off: training time vs Acc
//! scatter for SI, DER, LUMP, CaSSLe, EDSR on CIFAR-100 and Tiny-ImageNet
//! simulations.
//!
//! Paper shapes: UCL methods (LUMP, CaSSLe, EDSR) spend more time and get
//! more accuracy than the SCL baselines; within UCL, memory users (LUMP,
//! EDSR) are the slowest; EDSR's extra time buys the largest Acc gain.

use edsr_bench::{run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{Cassle, Der, Finetune, Lump, Si, TrainConfig};
use edsr_core::Edsr;
use edsr_data::{cifar100_sim, tiny_imagenet_sim};

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("fig9");
    let cfg = TrainConfig::image();

    report.line("Fig. 9 — training time (s) vs Acc scatter data");
    for preset in [cifar100_sim(), tiny_imagenet_sim()] {
        let budget = preset.per_task_budget();
        let replay_batch = cfg.replay_batch;
        let noise_k = preset.noise_neighbors;
        report.line(format!("\n== {} ==", preset.name));
        report.line(format!(
            "{:<10} | {:>10} | {:>16}",
            "Method", "time (s)", "Acc"
        ));
        let methods: Vec<edsr_bench::MethodFactory> = vec![
            ("Finetune", Box::new(|| Box::new(Finetune::new()))),
            ("SI", Box::new(|| Box::new(Si::new(0.1)))),
            (
                "DER",
                Box::new(move || Box::new(Der::new(budget, replay_batch, 0.5))),
            ),
            ("LUMP", Box::new(move || Box::new(Lump::new(budget)))),
            ("CaSSLe", Box::new(|| Box::new(Cassle::new()))),
            (
                "EDSR",
                Box::new(move || Box::new(Edsr::paper_default(budget, replay_batch, noise_k))),
            ),
        ];
        for (name, make) in &methods {
            let sweep = run_method_over_seeds(&preset, &cfg, &seeds, || make());
            sweep.report_failures(&mut report, name);
            let agg = sweep.aggregate();
            report.line(format!(
                "{:<10} | {:>10.1} | {:>16}",
                name,
                agg.seconds,
                agg.acc_cell()
            ));
        }
    }
    report.finish();
}
