//! LUMP (Madaan et al. \[24\]).
//!
//! Memory baseline: random storage, replay by *mixup* — each new sample is
//! interpolated with a stored one (`x̄ = ω x^n + (1−ω) x^m`, ω ~ U(0,1))
//! and `L_css` is optimized on augmented views of the mixture. Requires a
//! uniform input dimensionality, which is why the paper omits LUMP from
//! the tabular stream.

use edsr_data::{Augmenter, Dataset};
use edsr_nn::{Optimizer, Workspace};
use edsr_tensor::rng::{index, sample_indices, uniform};
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

use crate::memory::{MemoryBuffer, MemoryItem};
use crate::model::ContinualModel;
use crate::trainer::{apply_step, Method};

/// LUMP with uniform mixup coefficients.
pub struct Lump {
    memory: MemoryBuffer,
    per_task_budget: usize,
}

impl Lump {
    /// Creates LUMP with the per-increment storage budget.
    pub fn new(per_task_budget: usize) -> Self {
        Self {
            memory: MemoryBuffer::new(),
            per_task_budget,
        }
    }

    /// Stored sample count.
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }

    /// Mixes each batch row with a random memory item.
    fn mix_batch(&self, batch: &Matrix, rng: &mut StdRng) -> Matrix {
        let items = self.memory.items();
        if items.is_empty() {
            return batch.clone();
        }
        let mut mixed = batch.clone();
        for r in 0..mixed.rows() {
            let m = &items[index(rng, items.len())];
            assert_eq!(
                m.input.len(),
                batch.cols(),
                "LUMP mixup requires uniform input dimensionality"
            );
            let w = uniform(rng, 0.0, 1.0);
            for (out, &mem) in mixed.row_mut(r).iter_mut().zip(&m.input) {
                *out = w * *out + (1.0 - w) * mem;
            }
        }
        mixed
    }
}

impl Method for Lump {
    fn name(&self) -> String {
        "LUMP".into()
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
        let mixed = self.mix_batch(batch, rng);
        ws.reset();
        let (_, _, loss) =
            model.css_on_batch(&mut ws.tape, &mut ws.binder, aug, &mixed, task_idx, rng);
        apply_step(model, opt, &mut ws.tape, &ws.binder, loss)
    }

    fn end_task(
        &mut self,
        _model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        _aug: &Augmenter,
        rng: &mut StdRng,
    ) {
        let k = self.per_task_budget.min(train.len());
        if k == 0 {
            return;
        }
        let chosen = sample_indices(rng, train.len(), k);
        self.memory.extend(chosen.into_iter().map(|i| MemoryItem {
            input: train.inputs.row(i).to_vec(),
            task: task_idx,
            noise_scale: 0.0,
            stored_features: None,
        }));
    }

    // The episodic memory is the only state.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.memory.to_bytes())
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.memory = MemoryBuffer::from_bytes(state).map_err(|e| e.to_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use edsr_data::GridSpec;
    use edsr_tensor::rng::seeded;

    #[test]
    fn mix_without_memory_is_identity() {
        let mut rng = seeded(360);
        let lump = Lump::new(4);
        let batch = Matrix::randn(3, 8, 1.0, &mut rng);
        let mixed = lump.mix_batch(&batch, &mut rng);
        assert_eq!(mixed.max_abs_diff(&batch), 0.0);
    }

    #[test]
    fn mix_interpolates_between_new_and_memory() {
        let mut rng = seeded(361);
        let mut lump = Lump::new(1);
        // One memory item: all 10s. New batch: all 0s. Mixture must be in
        // [0, 10] strictly inside for almost all draws.
        let train = Dataset::new("d", Matrix::filled(2, 4, 10.0), vec![0, 0]);
        let mut model = ContinualModel::new(&ModelConfig::image(4), &mut seeded(362));
        lump.end_task(&mut model, 0, &train, &Augmenter::Identity, &mut rng);
        let batch = Matrix::zeros(8, 4);
        let mixed = lump.mix_batch(&batch, &mut rng);
        assert!(mixed.data().iter().all(|&v| (0.0..=10.0).contains(&v)));
        assert!(
            mixed.data().iter().any(|&v| v > 0.5),
            "no interpolation happened"
        );
    }

    #[test]
    fn full_step_runs() {
        let mut rng = seeded(363);
        let mut model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let mut opt = edsr_nn::Adam::new(3e-3, 0.0);
        let aug = Augmenter::standard_image(GridSpec::new(4, 4, 1));
        let mut lump = Lump::new(4);
        let train = Dataset::new("d", Matrix::randn(12, 16, 1.0, &mut rng), vec![0; 12]);
        lump.end_task(&mut model, 0, &train, &Augmenter::Identity, &mut rng);
        assert_eq!(lump.memory_len(), 4);
        let batch = Matrix::randn(8, 16, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let loss = lump.train_step(
            &mut model,
            &mut opt,
            std::slice::from_ref(&aug),
            &batch,
            1,
            &mut ws,
            &mut rng,
        );
        assert!(loss.is_finite());
    }
}
