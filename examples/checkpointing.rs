//! Checkpointing at both granularities:
//!
//! 1. **Model checkpoints** — save the weights after a run, damage them,
//!    restore, and confirm the representations roll back exactly.
//! 2. **Run-state snapshots** — train with per-increment snapshots, then
//!    resume from disk with fresh objects and confirm the resumed run
//!    reproduces the uninterrupted accuracy matrix bit-for-bit (weights,
//!    optimizer moments, memory buffer, and RNG position all round-trip).
//!
//! ```bash
//! cargo run --release --example checkpointing
//! ```

use edsr::cl::{CheckpointConfig, ContinualModel, ModelConfig, RunBuilder, TrainConfig};
use edsr::core::{Edsr, Error};
use edsr::data::test_sim;
use edsr::tensor::rng::seeded;

fn main() -> Result<(), Error> {
    let preset = test_sim();
    let (sequence, augmenters) = preset.build_with_augmenters(&mut seeded(31));
    let mut cfg = TrainConfig::image();
    cfg.epochs_per_task = 15;

    let mut model = ContinualModel::new(&ModelConfig::image(preset.grid.dim()), &mut seeded(32));
    let mut edsr = Edsr::paper_default(preset.per_task_budget(), 8, preset.noise_neighbors);

    // Train over the whole stream once.
    let result = RunBuilder::new(&cfg).run(
        &mut edsr,
        &mut model,
        &mut &sequence,
        &augmenters,
        &mut seeded(33),
    )?;
    println!(
        "trained: Acc {:.1}%  Fgt {:.1}%",
        result.final_acc_pct(),
        result.final_fgt_pct()
    );

    // Save, perturb, restore.
    let path = std::env::temp_dir().join("edsr-demo.ckpt");
    model.save(&path)?;
    let probe = sequence.tasks[0].test.inputs.clone();
    let reference = model.represent(&probe, 0);

    for id in model.params.ids().collect::<Vec<_>>() {
        model.params.value_mut(id).scale_inplace(0.5); // simulated damage
    }
    let damaged = model.represent(&probe, 0);
    println!(
        "after damage, representation drift = {:.4}",
        damaged.sub(&reference).frobenius_norm()
    );

    model.load(&path)?;
    let restored = model.represent(&probe, 0);
    println!(
        "after restore, representation drift = {:.4} (exact rollback)",
        restored.sub(&reference).frobenius_norm()
    );
    assert_eq!(restored.max_abs_diff(&reference), 0.0);
    let _ = std::fs::remove_file(path);
    println!("checkpoint file roundtrip verified");

    // ---- Run-state snapshots: interrupt after increment 1, resume. ----
    let dir = std::env::temp_dir().join("edsr-demo-runstate");
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = CheckpointConfig::new(&dir, "demo");

    // Interrupted run: stop after the first increment, snapshot on disk.
    let mut partial_model =
        ContinualModel::new(&ModelConfig::image(preset.grid.dim()), &mut seeded(32));
    let mut partial_edsr = Edsr::paper_default(preset.per_task_budget(), 8, preset.noise_neighbors);
    let partial = RunBuilder::new(&cfg)
        .checkpoint(ckpt.clone())
        .stop_after(1)
        .run(
            &mut partial_edsr,
            &mut partial_model,
            &mut &sequence,
            &augmenters,
            &mut seeded(33),
        )?;
    println!(
        "\ninterrupted after increment {} (snapshot in {})",
        partial.matrix.num_increments(),
        dir.display()
    );

    // Resume with completely fresh objects; the snapshot restores the
    // weights, optimizer moments, memory buffer, and RNG position.
    let mut resumed_model =
        ContinualModel::new(&ModelConfig::image(preset.grid.dim()), &mut seeded(32));
    let mut resumed_edsr = Edsr::paper_default(preset.per_task_budget(), 8, preset.noise_neighbors);
    let resumed = RunBuilder::new(&cfg).checkpoint(ckpt).resume().run(
        &mut resumed_edsr,
        &mut resumed_model,
        &mut &sequence,
        &augmenters,
        &mut seeded(999), // ignored: the snapshot carries the RNG state
    )?;
    println!(
        "resumed: Acc {:.1}%  Fgt {:.1}%",
        resumed.final_acc_pct(),
        resumed.final_fgt_pct()
    );
    assert_eq!(
        resumed.matrix.rows(),
        result.matrix.rows(),
        "resumed run must match the uninterrupted one exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("resume reproduced the uninterrupted accuracy matrix bit-for-bit");
    Ok(())
}
