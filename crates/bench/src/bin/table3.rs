//! **Table III** — main comparison on the four image benchmarks:
//! Acc↑ / Fgt↓ for Multitask, Finetune, SI, DER, LUMP, CaSSLe, EDSR.
//!
//! Paper shapes to reproduce: EDSR best Acc and lowest Fgt on every
//! benchmark; CaSSLe second; memory-free/UCL methods (CaSSLe, EDSR, LUMP)
//! forget less than the adapted SCL methods (SI, DER); Multitask is the
//! upper bound.

use edsr_bench::{run_method_over_seeds, run_multitask_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{Cassle, Der, Finetune, Lump, Si, TrainConfig};
use edsr_core::Edsr;
use edsr_data::all_image_presets;

/// Paper reference values (Acc, Fgt) per benchmark, Table III order.
const PAPER: &[(&str, [(f32, f32); 4])] = &[
    (
        "Multitask",
        [
            (95.76, f32::NAN),
            (86.31, f32::NAN),
            (85.09, f32::NAN),
            (75.37, f32::NAN),
        ],
    ),
    (
        "Finetune",
        [(89.02, 5.79), (75.88, 5.23), (71.03, 10.01), (68.46, 7.10)],
    ),
    (
        "SI",
        [(91.06, 3.79), (78.93, 8.37), (71.37, 9.99), (68.81, 6.57)],
    ),
    (
        "DER",
        [(90.17, 5.15), (76.70, 9.21), (72.78, 8.58), (68.96, 6.79)],
    ),
    (
        "LUMP",
        [(91.05, 2.11), (83.41, 4.12), (77.58, 4.24), (66.54, 6.11)],
    ),
    (
        "CaSSLe",
        [(92.28, 0.62), (83.67, 1.33), (78.76, 2.48), (70.78, 0.55)],
    ),
    (
        "EDSR",
        [(93.14, 0.12), (85.42, 0.57), (81.19, 1.77), (71.58, 0.24)],
    ),
];

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("table3");
    let cfg = TrainConfig::image();

    report.line("Table III — model comparison on four benchmark image simulations");
    report.line(format!(
        "{} seeds per cell; paper values in parentheses\n",
        seeds.len()
    ));

    for (bench_idx, preset) in all_image_presets().into_iter().enumerate() {
        let budget = preset.per_task_budget();
        report.line(format!(
            "== {} ({} tasks x {} classes, memory {}) ==",
            preset.name,
            preset.num_tasks(),
            preset.classes_per_task,
            preset.memory_total
        ));
        report.line(format!(
            "{:<10} | {:>14} {:>9} | {:>14} {:>9}",
            "Model", "Acc", "(paper)", "Fgt", "(paper)"
        ));

        // Multitask upper bound.
        let (mt_acc, mt_std, _, mt_failures) = run_multitask_over_seeds(&preset, &cfg, &seeds);
        for f in &mt_failures {
            report.line(format!("  !! Multitask seed {}: {}", f.seed, f.error));
        }
        let paper_mt = PAPER[0].1[bench_idx].0;
        report.line(format!(
            "{:<10} | {:>6.2} ± {:4.2} {:>9} | {:>14} {:>9}",
            "Multitask",
            mt_acc,
            mt_std,
            format!("({paper_mt:.2})"),
            "-",
            "-"
        ));

        let replay_batch = cfg.replay_batch;
        let noise_k = preset.noise_neighbors;
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

        for (row, (name, make)) in methods.iter().enumerate() {
            let sweep = run_method_over_seeds(&preset, &cfg, &seeds, || make());
            sweep.report_failures(&mut report, name);
            let agg = sweep.aggregate();
            let (paper_acc, paper_fgt) = PAPER[row + 1].1[bench_idx];
            report.line(format!(
                "{:<10} | {} {:>9} | {} {:>9}",
                name,
                agg.acc_cell(),
                format!("({paper_acc:.2})"),
                agg.fgt_cell(),
                format!("({paper_fgt:.2})")
            ));
        }
        report.line("");
    }
    report.finish();
}
