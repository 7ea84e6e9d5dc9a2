//! **Fig. 7** — alternative task granularity: CIFAR-100 and Tiny-ImageNet
//! resplit into 10 increments of 10 classes (vs the original 20×5), with
//! 32-per-subset-scaled memory; `Acc_i` curves per increment.
//!
//! Paper shapes: early `Acc_i` *rises* with the first increments (early
//! small datasets are under-learned until the representation matures);
//! EDSR stays on top across both settings and the whole stream.

use edsr_bench::{paper_method, run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{mean_std, TrainConfig};
use edsr_data::{cifar100_sim, tiny_imagenet_sim, Preset};

fn acc_series(preset: &Preset, cfg: &TrainConfig, seeds: &[u64], report: &mut Report) {
    for name in ["Finetune", "LUMP", "CaSSLe", "EDSR"] {
        let sweep = run_method_over_seeds(preset, cfg, seeds, || paper_method(name, preset, cfg));
        sweep.report_failures(report, name);
        let runs = &sweep.runs;
        let Some(first) = runs.first() else {
            report.line(format!("{name:<9}: all seeds failed"));
            continue;
        };
        let n = first.matrix.num_increments();
        let series: Vec<String> = (0..n)
            .map(|i| {
                let vals: Vec<f32> = runs.iter().map(|r| r.matrix.acc_at(i) * 100.0).collect();
                let (m, _) = mean_std(&vals);
                format!("{m:5.1}")
            })
            .collect();
        report.line(format!("{name:<9} Acc_i: {}", series.join(" ")));
    }
}

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("fig7");
    let cfg = TrainConfig::image();

    report.line("Fig. 7 — Acc_i per increment under two task splits");
    for base in [cifar100_sim(), tiny_imagenet_sim()] {
        // Original split: 20 tasks x 5 classes.
        report.line(format!(
            "\n== {} original split ({}x{} classes, memory {}) ==",
            base.name,
            base.num_tasks(),
            base.classes_per_task,
            base.memory_total
        ));
        acc_series(&base, &cfg, &seeds, &mut report);

        // Resplit: 10 tasks x 10 classes; memory scales with per-subset
        // budget held constant (paper: "32 samples are stored for each
        // data subset, thus 640 original / 320 new").
        let per_subset = base.per_task_budget();
        let resplit = base
            .with_classes_per_task(10)
            .with_memory_total(per_subset * 10);
        report.line(format!(
            "\n== {} resplit ({}x{} classes, memory {}) ==",
            resplit.name,
            resplit.num_tasks(),
            resplit.classes_per_task,
            resplit.memory_total
        ));
        acc_series(&resplit, &cfg, &seeds, &mut report);
    }
    report.finish();
}
