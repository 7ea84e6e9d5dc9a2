//! Tabular continual learning (the paper's §IV-E scenario): a stream of
//! five binary-classification tabular datasets with *heterogeneous input
//! dimensionality* (16/17/14/20/10 features), learned without labels via
//! SCARF-style feature-corruption views and data-specific input adapters.
//!
//! ```bash
//! cargo run --release --example tabular_stream
//! ```

use edsr::cl::{tabular_augmenters, ContinualModel, ModelConfig, RunBuilder, TrainConfig};
use edsr::core::{Edsr, Error};
use edsr::data::{tabular_sequence, TabularConfig, TABULAR_SPECS};
use edsr::tensor::rng::seeded;

fn main() -> Result<(), Error> {
    // Five increments mirroring Table II's shapes (sizes scaled down).
    let data_cfg = TabularConfig::default();
    let mut data_rng = seeded(11);
    let sequence = tabular_sequence(&data_cfg, &mut data_rng);
    for (spec, task) in TABULAR_SPECS.iter().zip(&sequence.tasks) {
        let pos =
            task.train.labels.iter().filter(|&&l| l == 1).count() as f32 / task.train.len() as f32;
        println!(
            "{:<10} {:>5} train rows, {:>2} features, {:>4.1}% positive (paper {:>4.1}%)",
            spec.name,
            task.train.len(),
            task.train.dim(),
            pos * 100.0,
            spec.positive_ratio * 100.0
        );
    }

    // SCARF corruption referencing each increment's own train split.
    let augmenters = tabular_augmenters(&mut &sequence)?;

    // Encoder with one input adapter per increment (paper: "the first
    // layer of f(·) is data-specific").
    let input_dims: Vec<usize> = TABULAR_SPECS.iter().map(|s| s.input_dim).collect();
    let mut model = ContinualModel::new(&ModelConfig::tabular(input_dims), &mut seeded(12));

    // EDSR with 1%-of-increment memory.
    let budget = (sequence
        .tasks
        .iter()
        .map(|t| t.train.len())
        .max()
        .unwrap_or(100)
        / 100)
        .max(2);
    let mut edsr = Edsr::paper_default(budget, 8, 10);

    let mut cfg = TrainConfig::tabular();
    cfg.epochs_per_task = 20; // quick demo
    let mut run_rng = seeded(13);
    let result = RunBuilder::new(&cfg).run(
        &mut edsr,
        &mut model,
        &mut &sequence,
        &augmenters,
        &mut run_rng,
    )?;

    println!("\nper-increment kNN accuracy after the full stream:");
    let last = result.matrix.num_increments() - 1;
    for (j, spec) in TABULAR_SPECS.iter().enumerate() {
        println!(
            "  {:<10} {:5.1}%",
            spec.name,
            result.matrix.get(last, j) * 100.0
        );
    }
    println!(
        "\nfinal: Acc = {:.1}%  Fgt = {:.1}%  (memory holds {} rows)",
        result.final_acc_pct(),
        result.final_fgt_pct(),
        edsr.memory_len()
    );
    Ok(())
}
