//! **Table VII** — the tabular stream (§IV-E): Multitask, Finetune,
//! CaSSLe, EDSR over the five heterogeneous-dimension tabular datasets,
//! memory = 1% of each increment, 10 seeds.
//!
//! Paper shapes: Multitask is *worse* than the continual methods (the
//! size-imbalanced joint mixture under-trains small datasets); EDSR best
//! Acc and lowest Fgt. LUMP is excluded (mixup cannot span heterogeneous
//! input dims).

use edsr_bench::{start, sweep, Report, TABULAR_SEEDS};
use edsr_cl::{
    run_multitask, tabular_augmenters, ModelConfig, RunBuilder, TrainConfig, TrainError,
};
use edsr_core::prelude::seeded;
use edsr_core::{seeded_run, tabular_method_by_name};
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

    // One seed's stream, augmenters, model and run RNG.
    let model_cfg = ModelConfig::tabular(input_dims);
    let seeded_stream = |seed| {
        let seq = tabular_sequence(&data_cfg, &mut seeded(seed));
        let augs = tabular_augmenters(&mut &seq)?;
        let (model, run_rng) = seeded_run(&model_cfg, seed);
        Ok::<_, TrainError>((seq, augs, model, run_rng))
    };

    // Multitask; failed seeds are reported and excluded from the mean.
    let mt = sweep(&seeds, |seed| {
        let (seq, augs, mut model, mut run_rng) = seeded_stream(seed)?;
        run_multitask(&mut model, &mut &seq, &augs, &cfg, &mut run_rng)
    });
    mt.report_failures(&mut report, "Multitask");
    rows.push(("Multitask".into(), mt.aggregate().acc_cell(), "-".into()));

    for name in ["Finetune", "CaSSLe", "EDSR"] {
        let sweep = sweep(&seeds, |seed| {
            let (seq, augs, mut model, mut run_rng) = seeded_stream(seed)?;
            let mut method =
                tabular_method_by_name(&name.to_ascii_lowercase(), &seq, cfg.replay_batch)
                    .expect("Table VII names registered methods");
            RunBuilder::new(&cfg).run(method.as_mut(), &mut model, &mut &seq, &augs, &mut run_rng)
        });
        sweep.report_failures(&mut report, name);
        let agg = sweep.aggregate();
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
