//! **Table VII** — the tabular stream (§IV-E): Multitask, Finetune,
//! CaSSLe, EDSR over the five heterogeneous-dimension tabular datasets,
//! memory = 1% of each increment, 10 seeds.
//!
//! Paper shapes: Multitask is *worse* than the continual methods (the
//! size-imbalanced joint mixture under-trains small datasets); EDSR best
//! Acc and lowest Fgt. LUMP is excluded (mixup cannot span heterogeneous
//! input dims).

use edsr_bench::{aggregate, start, Report, SeedFailure, TABULAR_SEEDS};
use edsr_cl::{
    run_multitask, tabular_augmenters, Cassle, ContinualModel, Finetune, Method, ModelConfig,
    RunBuilder, TrainConfig,
};
use edsr_core::prelude::seeded;
use edsr_core::Edsr;
use edsr_data::{tabular_sequence, TabularConfig, TABULAR_SPECS};

/// Paper row: (name, acc, fgt or NaN).
const PAPER: &[(&str, f32, f32)] = &[
    ("Multitask", 80.38, f32::NAN),
    ("Finetune", 80.82, 0.79),
    ("CaSSLe", 81.09, 0.69),
    ("EDSR", 81.27, 0.52),
];

fn main() {
    let seeds = start().seeds(&TABULAR_SEEDS);
    let mut report = Report::new("table7");
    let cfg = TrainConfig::tabular();
    let data_cfg = TabularConfig::default();
    let input_dims: Vec<usize> = TABULAR_SPECS.iter().map(|s| s.input_dim).collect();

    report.line("Table VII — learning the tabular stream (Acc / Fgt, 1% memory)");
    report.line(format!(
        "{} seeds; paper values in parentheses\n",
        seeds.len()
    ));

    let mut rows: Vec<(String, String, String)> = Vec::new();

    // Multitask; failed seeds are reported and excluded from the mean.
    let mut mt = Vec::new();
    for &seed in &seeds {
        let mut data_rng = seeded(seed);
        let seq = tabular_sequence(&data_cfg, &mut data_rng);
        let augs = tabular_augmenters(&mut &seq, 0.4).expect("tabular augmenters");
        let model_cfg = ModelConfig::tabular(input_dims.clone());
        let mut model = ContinualModel::new(&model_cfg, &mut seeded(seed + 1000));
        let mut run_rng = seeded(seed + 2000);
        match run_multitask(&mut model, &mut &seq, &augs, &cfg, &mut run_rng) {
            Ok(r) => mt.push(r.acc_pct()),
            Err(e) => report.line(format!("  !! Multitask seed {seed}: {e}")),
        }
    }
    let (m, s) = edsr_cl::mean_std(&mt);
    rows.push(("Multitask".into(), format!("{m:5.2} ± {s:.2}"), "-".into()));

    for name in ["Finetune", "CaSSLe", "EDSR"] {
        let mut runs: Vec<edsr_cl::RunResult> = Vec::new();
        let mut failures: Vec<SeedFailure> = Vec::new();
        for &seed in &seeds {
            let mut data_rng = seeded(seed);
            let seq = tabular_sequence(&data_cfg, &mut data_rng);
            let augs = tabular_augmenters(&mut &seq, 0.4).expect("tabular augmenters");
            let model_cfg = ModelConfig::tabular(input_dims.clone());
            let mut model = ContinualModel::new(&model_cfg, &mut seeded(seed + 1000));
            let mut run_rng = seeded(seed + 2000);
            let mut method: Box<dyn Method> = match name {
                "Finetune" => Box::new(Finetune::new()),
                "CaSSLe" => Box::new(Cassle::new()),
                _ => {
                    // 1% memory per increment: use the largest train
                    // split to size the budget; end_task clamps.
                    let budget =
                        (seq.tasks.iter().map(|t| t.train.len()).max().unwrap_or(100) / 100).max(2);
                    Box::new(Edsr::paper_default(budget, cfg.replay_batch, 10))
                }
            };
            match RunBuilder::new(&cfg).run(
                method.as_mut(),
                &mut model,
                &mut &seq,
                &augs,
                &mut run_rng,
            ) {
                Ok(run) => runs.push(run),
                Err(error) => failures.push(SeedFailure { seed, error }),
            }
        }
        for f in &failures {
            report.line(format!("  !! {name} seed {}: {}", f.seed, f.error));
        }
        let agg = aggregate(&runs);
        rows.push((name.into(), agg.acc_cell(), agg.fgt_cell()));
    }

    report.line(format!(
        "{:<10} | {:>14} {:>9} | {:>14} {:>9}",
        "Method", "Acc", "(paper)", "Fgt", "(paper)"
    ));
    for (row, (name, acc, fgt)) in rows.iter().enumerate() {
        let (_, pa, pf) = PAPER[row];
        let pf_cell = if pf.is_nan() {
            "-".to_string()
        } else {
            format!("({pf:.2})")
        };
        report.line(format!(
            "{:<10} | {:>14} {:>9} | {:>14} {:>9}",
            name,
            acc,
            format!("({pa:.2})"),
            fgt,
            pf_cell
        ));
    }
    report.finish();
}
