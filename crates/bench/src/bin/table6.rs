//! **Table VI** — swapping the CSSL objective: SimSiam vs BarlowTwins for
//! Multitask, Finetune, LUMP, CaSSLe, EDSR on CIFAR-100 and Tiny-ImageNet
//! simulations.
//!
//! Paper shape: distillation-based methods (CaSSLe, EDSR) lose more than
//! LUMP when moving to BarlowTwins (batch-coupled loss confuses the
//! distillation), but EDSR stays ahead of CaSSLe thanks to its use of old
//! data. NOTE the simulation's default objective is BarlowTwins (DESIGN.md
//! §2): at MLP scale SimSiam's implicit anti-collapse is weak, so here the
//! *SimSiam* column is the degraded variant — the comparison direction
//! inverts while the within-column method ordering is what we check.

use edsr_bench::{run_method_over_seeds_with_model, start, Report, IMAGE_SEEDS};
use edsr_cl::{run_multitask, Cassle, ContinualModel, Finetune, Lump, TrainConfig};
use edsr_core::prelude::seeded;
use edsr_core::Edsr;
use edsr_data::{cifar100_sim, tiny_imagenet_sim, Preset};
use edsr_ssl::SslVariant;

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("table6");
    let cfg = TrainConfig::image();
    let presets: Vec<Preset> = vec![cifar100_sim(), tiny_imagenet_sim()];
    let variants = [
        ("BarlowTwins", SslVariant::BarlowTwins { lambda: 0.02 }),
        ("SimSiam", SslVariant::SimSiam),
    ];

    report.line("Table VI — different CSSL losses (Acc)");
    for preset in &presets {
        let budget = preset.per_task_budget();
        for (vname, variant) in variants {
            report.line(format!("\n== {} / {} ==", preset.name, vname));
            let model_cfg = edsr_bench::image_model_config(preset).with_variant(variant);

            // Multitask under this variant; failed seeds are reported
            // and excluded from the mean.
            let mut mt = Vec::new();
            for &seed in &seeds {
                let mut data_rng = seeded(seed);
                let (seq, augs) = preset.build_with_augmenters(&mut data_rng);
                let mut model = ContinualModel::new(&model_cfg, &mut seeded(seed + 1000));
                let mut run_rng = seeded(seed + 2000);
                match run_multitask(&mut model, &mut &seq, &augs, &cfg, &mut run_rng) {
                    Ok(r) => mt.push(r.acc_pct()),
                    Err(e) => report.line(format!("  !! Multitask seed {seed}: {e}")),
                }
            }
            let (m, s) = edsr_cl::mean_std(&mt);
            report.line(format!("{:<10} | Acc {:5.2} ± {:.2}", "Multitask", m, s));

            let replay_batch = cfg.replay_batch;
            let noise_k = preset.noise_neighbors;
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
                let sweep =
                    run_method_over_seeds_with_model(preset, &cfg, &seeds, &model_cfg, &|| make());
                sweep.report_failures(&mut report, name);
                let agg = sweep.aggregate();
                report.line(format!(
                    "{:<10} | Acc {} | Fgt {}",
                    name,
                    agg.acc_cell(),
                    agg.fgt_cell()
                ));
            }
        }
    }
    report.finish();
}
