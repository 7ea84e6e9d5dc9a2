//! **Fig. 5** — plasticity: new-task accuracy `A_{i,i}` at each increment
//! for Finetune, LUMP, CaSSLe, EDSR on CIFAR-100 and Tiny-ImageNet
//! simulations.
//!
//! Paper shapes: curves fluctuate with task difficulty; EDSR/CaSSLe's new
//! accuracies are *not* the highest (stability is bought with plasticity);
//! replay methods (LUMP, EDSR) have smaller variance than memory-free
//! ones.

use edsr_bench::{run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{mean_std, Cassle, Finetune, Lump, TrainConfig};
use edsr_core::Edsr;
use edsr_data::{cifar100_sim, tiny_imagenet_sim};

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("fig5");
    let cfg = TrainConfig::image();

    report.line("Fig. 5 — new data set accuracy A_{i,i} per increment (mean ± std over seeds)");
    for preset in [cifar100_sim(), tiny_imagenet_sim()] {
        let budget = preset.per_task_budget();
        let replay_batch = cfg.replay_batch;
        let noise_k = preset.noise_neighbors;
        report.line(format!("\n== {} ==", preset.name));
        let methods: Vec<edsr_bench::MethodFactory> = vec![
            ("Finetune", Box::new(|| Box::new(Finetune::new()))),
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
            let runs = &sweep.runs;
            let Some(first) = runs.first() else {
                report.line(format!("{name:<9}: all seeds failed"));
                continue;
            };
            let num_tasks = first.matrix.num_increments();
            let series: Vec<String> = (0..num_tasks)
                .map(|i| {
                    let vals: Vec<f32> = runs
                        .iter()
                        .map(|r| r.matrix.new_task_accuracies()[i] * 100.0)
                        .collect();
                    let (m, s) = mean_std(&vals);
                    format!("{m:5.1}±{s:4.1}")
                })
                .collect();
            report.line(format!("{name:<9}: {}", series.join(" ")));
            // Mean std across increments — the paper's variance argument.
            let stds: Vec<f32> = (0..num_tasks)
                .map(|i| {
                    let vals: Vec<f32> = runs
                        .iter()
                        .map(|r| r.matrix.new_task_accuracies()[i] * 100.0)
                        .collect();
                    mean_std(&vals).1
                })
                .collect();
            let (ms, _) = mean_std(&stds);
            report.line(format!(
                "{:<9}  mean new-task std over increments: {ms:.2}",
                ""
            ));
        }
    }
    report.finish();
}
