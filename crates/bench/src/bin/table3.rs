//! **Table III** — main comparison on the four image benchmarks:
//! Acc↑ / Fgt↓ for Multitask, Finetune, SI, DER, LUMP, CaSSLe, EDSR.
//!
//! Paper shapes to reproduce: EDSR best Acc and lowest Fgt on every
//! benchmark; CaSSLe second; memory-free/UCL methods (CaSSLe, EDSR, LUMP)
//! forget less than the adapted SCL methods (SI, DER); Multitask is the
//! upper bound.
//!
//! Figs. 4, 5 and 9 are views of these runs, so this binary writes them
//! too (`results/fig4.txt`, `fig5.txt`, `fig9.txt`):
//!
//! - **Fig. 4** — forgetting matrices `F` (log-scaled heat data) of every
//!   method on every benchmark, from the first seed's run (the paper also
//!   shows single-run heatmaps). Paper shapes: Finetune/SI/DER show dark
//!   (large-forgetting) lower triangles; LUMP lighter; CaSSLe lighter
//!   still; EDSR lightest.
//! - **Fig. 5** — plasticity: new-task accuracy `A_{i,i}` per increment
//!   for Finetune, LUMP, CaSSLe, EDSR on CIFAR-100 and Tiny-ImageNet.
//!   Paper shapes: curves fluctuate with task difficulty; EDSR/CaSSLe's
//!   new accuracies are *not* the highest (stability is bought with
//!   plasticity); replay methods (LUMP, EDSR) have smaller variance than
//!   memory-free ones.
//! - **Fig. 9** — training time vs Acc for every method on CIFAR-100 and
//!   Tiny-ImageNet. Paper shapes: UCL methods (LUMP, CaSSLe, EDSR) spend
//!   more time and get more accuracy than the SCL baselines; within UCL,
//!   memory users (LUMP, EDSR) are the slowest; EDSR's extra time buys
//!   the largest Acc gain.

use edsr_bench::{
    fig4_lines, fig5_lines, fig9_line, image_model_config, multitask_run, paper_method,
    run_method_over_seeds, start, sweep, Report, Sweep, IMAGE_SEEDS,
};
use edsr_cl::TrainConfig;
use edsr_data::all_image_presets;

/// Table III's continual methods, in row order (Multitask comes first).
const METHODS: [&str; 6] = ["Finetune", "SI", "DER", "LUMP", "CaSSLe", "EDSR"];

/// The benchmarks Figs. 5 and 9 plot.
const FIG59_PRESETS: [&str; 2] = ["cifar100-sim", "tiny-imagenet-sim"];

/// The methods Fig. 5 plots.
const FIG5_METHODS: [&str; 4] = ["Finetune", "LUMP", "CaSSLe", "EDSR"];

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
    // Every (preset, method) sweep, kept for the figures.
    let mut grid: Vec<(&str, Vec<(&str, Sweep)>)> = Vec::new();

    report.line("Table III — model comparison on four benchmark image simulations");
    report.line(format!(
        "{} seeds per cell; paper values in parentheses\n",
        seeds.len()
    ));

    for (bench_idx, preset) in all_image_presets().into_iter().enumerate() {
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
        let model_cfg = image_model_config(&preset);
        let mt = sweep(&seeds, |seed| {
            multitask_run(&preset, &model_cfg, &cfg, seed)
        });
        mt.report_failures(&mut report, "Multitask");
        let mt = mt.aggregate();
        let mt_cell = if mt.acc.is_nan() {
            mt.acc_cell()
        } else {
            format!("{:>6.2} ± {:4.2}", mt.acc, mt.acc_std)
        };
        let paper_mt = PAPER[0].1[bench_idx].0;
        report.line(format!(
            "{:<10} | {} {:>9} | {:>14} {:>9}",
            "Multitask",
            mt_cell,
            format!("({paper_mt:.2})"),
            "-",
            "-"
        ));

        let mut sweeps = Vec::new();
        for (row, name) in METHODS.into_iter().enumerate() {
            let sweep =
                run_method_over_seeds(&preset, &cfg, &seeds, || paper_method(name, &preset, &cfg));
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
            sweeps.push((name, sweep));
        }
        report.line("");
        grid.push((preset.name, sweeps));
    }
    report.finish();

    let mut fig4 = Report::new("fig4");
    fig4.line("Fig. 4 — forgetting matrices F (values are log10 of percent forgetting)");
    for (preset, sweeps) in &grid {
        fig4.line(format!("\n==== {preset} ===="));
        for (name, sweep) in sweeps {
            sweep.report_failures(&mut fig4, name);
            fig4_lines(name, &sweep.runs)
                .into_iter()
                .for_each(|l| fig4.line(l));
        }
    }
    fig4.finish();

    let fig59_grid = || grid.iter().filter(|(p, _)| FIG59_PRESETS.contains(p));
    let mut fig5 = Report::new("fig5");
    fig5.line("Fig. 5 — new data set accuracy A_{i,i} per increment (mean ± std over seeds)");
    for (preset, sweeps) in fig59_grid() {
        fig5.line(format!("\n== {preset} =="));
        for (name, sweep) in sweeps.iter().filter(|(n, _)| FIG5_METHODS.contains(n)) {
            sweep.report_failures(&mut fig5, name);
            fig5_lines(name, &sweep.runs)
                .into_iter()
                .for_each(|l| fig5.line(l));
        }
    }
    fig5.finish();

    let mut fig9 = Report::new("fig9");
    fig9.line("Fig. 9 — training time (s) vs Acc scatter data");
    for (preset, sweeps) in fig59_grid() {
        fig9.line(format!("\n== {preset} =="));
        fig9.line(format!(
            "{:<10} | {:>10} | {:>16}",
            "Method", "time (s)", "Acc"
        ));
        for (name, sweep) in sweeps {
            sweep.report_failures(&mut fig9, name);
            fig9.line(fig9_line(name, &sweep.runs));
        }
    }
    fig9.finish();
}
