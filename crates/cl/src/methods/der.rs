//! DER — Dark Experience Replay (Buzzega et al. \[60\]).
//!
//! Memory baseline: stores randomly selected old samples together with the
//! *backbone output* recorded at storage time, and replays them with an
//! MSE logit-matching term `α‖f_feat(x^m) − stored‖²`. The paper singles
//! out DER's use of backbone features (rather than representations) as the
//! reason it underuses the CSSL structure — reproduced faithfully here.

use edsr_data::{Augmenter, Dataset};
use edsr_nn::{Optimizer, Workspace};
use edsr_tensor::rng::sample_indices;
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

use crate::memory::{MemoryBuffer, MemoryItem};
use crate::model::ContinualModel;
use crate::trainer::{apply_step, Method};

/// Dark Experience Replay.
pub struct Der {
    memory: MemoryBuffer,
    per_task_budget: usize,
    replay_batch: usize,
    /// Weight α of the logit-matching term.
    alpha: f32,
}

impl Der {
    /// Creates DER with the given per-increment storage budget and replay
    /// batch size.
    pub fn new(per_task_budget: usize, replay_batch: usize, alpha: f32) -> Self {
        Self {
            memory: MemoryBuffer::new(),
            per_task_budget,
            replay_batch,
            alpha,
        }
    }

    /// Stored sample count (for tests/diagnostics).
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }
}

impl Method for Der {
    fn name(&self) -> String {
        "DER".into()
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
        ws.reset();
        let tape = &mut ws.tape;
        let binder = &mut ws.binder;
        let (_, _, mut loss) = model.css_on_batch(tape, binder, aug, batch, task_idx, rng);

        for group in self.memory.draw(self.replay_batch, None, false, rng) {
            // end_task always stores features; a group without them (e.g.
            // a hand-built buffer) is skipped rather than panicking
            // mid-step.
            let Some(stored) = group.stored_features.as_ref() else {
                continue;
            };
            let x = tape.constant_copy(&group.inputs);
            let (features, _) = model
                .encoder
                .forward(tape, binder, &model.params, x, group.task);
            let target = tape.constant_copy(stored);
            let match_loss = tape.mse(features, target);
            let weighted = tape.scale(match_loss, self.alpha);
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
        if k == 0 {
            return;
        }
        let chosen = sample_indices(rng, train.len(), k);
        let inputs = train.inputs.select_rows(&chosen);
        let features = model.features(&inputs, task_idx);
        self.memory.extend((0..k).map(|r| MemoryItem {
            input: inputs.row(r).to_vec(),
            task: task_idx,
            noise_scale: 0.0,
            stored_features: Some(features.row(r).to_vec()),
        }));
    }

    // The episodic memory (inputs + stored features) is the only state.
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
    fn stores_budget_per_task_with_features() {
        let mut rng = seeded(350);
        let mut model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let mut der = Der::new(5, 4, 0.5);
        let train = Dataset::new("d", Matrix::randn(20, 16, 1.0, &mut rng), vec![0; 20]);
        der.end_task(&mut model, 0, &train, &Augmenter::Identity, &mut rng);
        assert_eq!(der.memory_len(), 5);
        der.end_task(&mut model, 1, &train, &Augmenter::Identity, &mut rng);
        assert_eq!(der.memory_len(), 10);
    }

    #[test]
    fn replay_term_pulls_features_toward_stored() {
        let mut rng = seeded(351);
        let mut model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let mut opt = edsr_nn::Sgd::new(0.05, 0.9, 0.0);
        let aug = Augmenter::standard_image(GridSpec::new(4, 4, 1));
        let old_batch = Matrix::randn(10, 16, 1.0, &mut rng);
        let train = Dataset::new("d", old_batch.clone(), vec![0; 10]);
        let mut der = Der::new(10, 8, 5.0);
        der.end_task(&mut model, 0, &train, &Augmenter::Identity, &mut rng);
        let stored = model.features(&old_batch, 0);

        // Train on a different distribution; features of old data should
        // stay closer with DER than with plain finetuning.
        let new_batch = Matrix::randn(16, 16, 1.0, &mut rng).scale(2.0);
        let mut ft_model = ContinualModel::new(&ModelConfig::image(16), &mut seeded(351));
        let mut ft_opt = edsr_nn::Sgd::new(0.05, 0.9, 0.0);
        let mut ft = crate::methods::finetune::Finetune::new();
        let mut rng_a = seeded(352);
        let mut rng_b = seeded(352);
        let mut ws_a = Workspace::new();
        let mut ws_b = Workspace::new();
        for _ in 0..30 {
            der.train_step(
                &mut model,
                &mut opt,
                std::slice::from_ref(&aug),
                &new_batch,
                1,
                &mut ws_a,
                &mut rng_a,
            );
            ft.train_step(
                &mut ft_model,
                &mut ft_opt,
                std::slice::from_ref(&aug),
                &new_batch,
                1,
                &mut ws_b,
                &mut rng_b,
            );
        }
        let drift_der = model.features(&old_batch, 0).max_abs_diff(&stored);
        let drift_ft = ft_model.features(&old_batch, 0).max_abs_diff(&stored);
        assert!(
            drift_der < drift_ft,
            "DER drift {drift_der} not smaller than finetune drift {drift_ft}"
        );
    }
}
