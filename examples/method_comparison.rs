//! Method comparison: the paper's Table-III scenario in miniature — run
//! Finetune, SI, DER, LUMP, CaSSLe and EDSR on the same CIFAR-10-style
//! stream and compare accuracy, forgetting, and wall-clock cost. Each
//! method comes from `edsr::core::method_by_name` with the same paper
//! defaults Table III uses.
//!
//! ```bash
//! cargo run --release --example method_comparison
//! ```

use edsr::cl::{run_multitask, ContinualModel, ModelConfig, RunBuilder, TrainConfig};
use edsr::core::{method_by_name, Error};
use edsr::data::cifar10_sim;
use edsr::tensor::rng::seeded;

fn main() -> Result<(), Error> {
    let preset = cifar10_sim();
    let cfg = TrainConfig::image();
    let budget = preset.per_task_budget();
    let seed = 42u64;

    println!(
        "{} | {} increments x {} classes | memory {} | {} epochs/task\n",
        preset.name,
        preset.num_tasks(),
        preset.classes_per_task,
        preset.memory_total,
        cfg.epochs_per_task
    );
    println!(
        "{:<10} | {:>7} | {:>7} | {:>8}",
        "method", "Acc %", "Fgt %", "time (s)"
    );

    for name in ["finetune", "si", "der", "lump", "cassle", "edsr"] {
        let mut method = method_by_name(name, budget, cfg.replay_batch, preset.noise_neighbors)
            .expect("a registered method");
        // Same data, same init, same batch order for every method.
        let mut data_rng = seeded(seed);
        let (sequence, augmenters) = preset.build_with_augmenters(&mut data_rng);
        let mut model = ContinualModel::new(
            &ModelConfig::image(preset.grid.dim()),
            &mut seeded(seed + 1),
        );
        let mut run_rng = seeded(seed + 2);
        // A diverged method is reported on its row; the others still run.
        match RunBuilder::new(&cfg).run(
            method.as_mut(),
            &mut model,
            &mut &sequence,
            &augmenters,
            &mut run_rng,
        ) {
            Ok(result) => println!(
                "{:<10} | {:>7.2} | {:>7.2} | {:>8.1}",
                result.method,
                result.final_acc_pct(),
                result.final_fgt_pct(),
                result.total_seconds()
            ),
            Err(e) => println!("{:<10} | failed: {e}", "-"),
        }
    }

    // The joint-training upper bound.
    let mut data_rng = seeded(seed);
    let (sequence, augmenters) = preset.build_with_augmenters(&mut data_rng);
    let mut model = ContinualModel::new(
        &ModelConfig::image(preset.grid.dim()),
        &mut seeded(seed + 1),
    );
    let mut run_rng = seeded(seed + 2);
    let mt = run_multitask(&mut model, &mut &sequence, &augmenters, &cfg, &mut run_rng)?;
    println!(
        "{:<10} | {:>7.2} | {:>7} | {:>8.1}",
        "Multitask",
        mt.acc_pct(),
        "-",
        mt.seconds
    );
    Ok(())
}
