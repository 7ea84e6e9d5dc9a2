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

use edsr_bench::{continual_run, multitask_run, paper_method, start, sweep, Report, IMAGE_SEEDS};
use edsr_cl::TrainConfig;
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
        for (vname, variant) in variants {
            report.line(format!("\n== {} / {} ==", preset.name, vname));
            let model_cfg = edsr_bench::image_model_config(preset).with_variant(variant);

            // Multitask under this variant; failed seeds are reported
            // and excluded from the mean.
            let mt = sweep(&seeds, |seed| multitask_run(preset, &model_cfg, &cfg, seed));
            mt.report_failures(&mut report, "Multitask");
            report.line(format!(
                "{:<10} | Acc {}",
                "Multitask",
                mt.aggregate().acc_cell()
            ));

            for name in ["Finetune", "LUMP", "CaSSLe", "EDSR"] {
                let sweep = sweep(&seeds, |seed| {
                    let method = paper_method(name, preset, &cfg);
                    continual_run(preset, &model_cfg, &cfg, method, seed)
                });
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
