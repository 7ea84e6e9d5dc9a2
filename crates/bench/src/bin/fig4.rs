//! **Fig. 4** — forgetting matrices `F` (log-scaled heat data) for
//! Finetune, SI, DER, LUMP, CaSSLe, EDSR on each image benchmark.
//!
//! Paper shapes: Finetune/SI/DER show dark (large-forgetting) lower
//! triangles; LUMP lighter; CaSSLe lighter still; EDSR lightest. The
//! printed matrices use the paper's `log(F)` color scale as numbers
//! (`--` marks F ≤ 0.1%, the paper's lightest shade).

use edsr_bench::{run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{Cassle, Der, Finetune, Lump, Si, TrainConfig};
use edsr_core::Edsr;
use edsr_data::all_image_presets;

fn main() {
    // One seed per matrix (the paper also shows single-run heatmaps).
    let seeds = [start().seeds(&IMAGE_SEEDS)[0]];
    let mut report = Report::new("fig4");
    let cfg = TrainConfig::image();

    report.line("Fig. 4 — forgetting matrices F (values are log10 of percent forgetting)");
    for preset in all_image_presets() {
        let budget = preset.per_task_budget();
        report.line(format!("\n==== {} ====", preset.name));
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
        for (name, make) in &methods {
            let sweep = run_method_over_seeds(&preset, &cfg, &seeds, || make());
            sweep.report_failures(&mut report, name);
            let Some(first) = sweep.runs.first() else {
                report.line(format!("-- {name}: all seeds failed --"));
                continue;
            };
            let f = first.matrix.forgetting_matrix();
            let mean_f: f32 = {
                let vals: Vec<f32> = f
                    .iter()
                    .enumerate()
                    .flat_map(|(i, row)| row[..i].to_vec())
                    .collect();
                if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f32>() / vals.len() as f32
                }
            };
            report.line(format!(
                "-- {name} (mean off-diagonal F {:.2}%) --",
                mean_f * 100.0
            ));
            for (i, row) in f.iter().enumerate() {
                let cells: Vec<String> = row
                    .iter()
                    .map(|&v| {
                        let pct = v * 100.0;
                        if pct <= 0.1 {
                            "  --".into()
                        } else {
                            format!("{:4.1}", pct.log10())
                        }
                    })
                    .collect();
                report.line(format!("  i={:2} | {}", i, cells.join(" ")));
            }
        }
    }
    report.finish();
}
