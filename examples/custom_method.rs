//! Implementing your own continual-learning method against the `Method`
//! trait — the library's main extension point.
//!
//! The example builds **FeatureAnchor**, a minimal replay method: store a
//! few random samples per increment and, on later increments, pull the
//! current representations of stored samples toward the representations
//! they had when stored (plain MSE anchoring — simpler than EDSR's
//! distillation, no frozen model needed). It then compares FeatureAnchor
//! against Finetune and EDSR on the same stream.
//!
//! ```bash
//! cargo run --release --example custom_method
//! ```

use edsr::cl::{
    apply_step, ContinualModel, MemoryBatch, MemoryBuffer, MemoryItem, Method, ModelConfig,
    RunBuilder, TrainConfig,
};
use edsr::core::{Edsr, Error};
use edsr::data::{test_sim, Augmenter, Dataset};
use edsr::nn::{Optimizer, Workspace};
use edsr::tensor::rng::{sample_indices, seeded};
use edsr::tensor::Matrix;
use rand::rngs::StdRng;

/// Store random samples with their storage-time representations; replay
/// by anchoring current representations to the stored ones with MSE.
struct FeatureAnchor {
    memory: MemoryBuffer,
    per_task_budget: usize,
    replay_batch: usize,
    weight: f32,
}

impl FeatureAnchor {
    fn new(per_task_budget: usize, replay_batch: usize, weight: f32) -> Self {
        Self {
            memory: MemoryBuffer::new(),
            per_task_budget,
            replay_batch,
            weight,
        }
    }
}

impl Method for FeatureAnchor {
    fn name(&self) -> String {
        "FeatureAnchor".into()
    }

    fn train_step(
        &mut self,
        model: &mut ContinualModel,
        opt: &mut dyn Optimizer,
        augs: &[Augmenter],
        batch: &Matrix,
        task_idx: usize,
        ws: &mut Workspace,
        rng: &mut StdRng,
    ) -> f32 {
        let aug = &augs[task_idx.min(augs.len() - 1)];
        // Reclaim last step's tape buffers, then record the usual
        // contrastive term on the new data.
        ws.reset();
        let (_, _, mut loss) =
            model.css_on_batch(&mut ws.tape, &mut ws.binder, aug, batch, task_idx, rng);

        // Anchor stored samples to their storage-time representations.
        for group in self.memory.sample_grouped(self.replay_batch, rng) {
            let MemoryBatch {
                task,
                inputs,
                stored_features,
                ..
            } = group;
            let Some(anchor) = stored_features else {
                continue;
            };
            let tape = &mut ws.tape;
            let z = model.repr_var(tape, &mut ws.binder, &inputs, task);
            let target = tape.constant_copy(&anchor);
            let mse = tape.mse(z, target);
            let weighted = tape.scale(mse, self.weight);
            loss = tape.add(loss, weighted);
        }
        apply_step(model, opt, &mut ws.tape, &ws.binder, loss)
    }

    fn end_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        _aug: &Augmenter,
        rng: &mut StdRng,
    ) {
        let k = self.per_task_budget.min(train.len());
        let chosen = sample_indices(rng, train.len(), k);
        let inputs = train.inputs.select_rows(&chosen);
        let reps = model.represent(&inputs, task_idx);
        self.memory.extend((0..k).map(|r| MemoryItem {
            input: inputs.row(r).to_vec(),
            task: task_idx,
            noise_scale: 0.0,
            stored_features: Some(reps.row(r).to_vec()),
        }));
    }
}

fn main() -> Result<(), Error> {
    let preset = test_sim();
    let mut cfg = TrainConfig::image();
    cfg.epochs_per_task = 20;
    let budget = preset.per_task_budget();

    println!("{:<14} | {:>7} | {:>7}", "method", "Acc %", "Fgt %");
    let methods: Vec<Box<dyn Method>> = vec![
        Box::new(edsr::cl::Finetune::new()),
        Box::new(FeatureAnchor::new(budget, 8, 2.0)),
        Box::new(Edsr::paper_default(budget, 8, preset.noise_neighbors)),
    ];
    for mut method in methods {
        let (sequence, augmenters) = preset.build_with_augmenters(&mut seeded(61));
        let mut model =
            ContinualModel::new(&ModelConfig::image(preset.grid.dim()), &mut seeded(62));
        let result = RunBuilder::new(&cfg).run(
            method.as_mut(),
            &mut model,
            &mut &sequence,
            &augmenters,
            &mut seeded(63),
        )?;
        println!(
            "{:<14} | {:>7.2} | {:>7.2}",
            result.method,
            result.final_acc_pct(),
            result.final_fgt_pct()
        );
    }
    Ok(())
}
