//! CaSSLe (Fini et al. \[33\]).
//!
//! Regularization baseline: no memory; at each new increment the previous
//! model is frozen and the current model's (projected) representations of
//! the *new* data are aligned with the frozen model's — `L_css + ½(L_dis(x_1)
//! + L_dis(x_2))` (Eq. 9 applied to both views).

use edsr_data::{Augmenter, Dataset};
use edsr_nn::{Optimizer, Workspace};
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

use crate::model::{ContinualModel, FrozenModel};
use crate::trainer::{apply_step, Method};

/// CaSSLe: pure knowledge distillation from the frozen previous model.
#[derive(Default)]
pub struct Cassle {
    frozen: Option<FrozenModel>,
}

impl Cassle {
    /// Creates the method.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a frozen model is currently held (for tests).
    pub fn has_frozen(&self) -> bool {
        self.frozen.is_some()
    }
}

impl Method for Cassle {
    fn name(&self) -> String {
        "CaSSLe".into()
    }

    fn begin_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        _train: &Dataset,
        _rng: &mut StdRng,
    ) {
        if task_idx > 0 {
            self.frozen = Some(model.freeze());
        }
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
        let (x1, x2) = aug.two_views(batch, rng);
        ws.reset();
        let (z1, z2, mut loss) =
            model.css_on_views(&mut ws.tape, &mut ws.binder, &x1, &x2, task_idx);
        if edsr_obs::enabled() {
            edsr_obs::gauge_at(
                "loss/css",
                task_idx as u64,
                f64::from(ws.tape.value(loss).get(0, 0)),
            );
        }

        if let Some(frozen) = &self.frozen {
            let d = frozen.distill_views(model, ws, [&x1, &x2], [z1, z2], task_idx);
            loss = ws.tape.add(loss, d);
        }
        apply_step(model, opt, &mut ws.tape, &ws.binder, loss)
    }

    // No state beyond the frozen model, which `begin_task` refreshes
    // from the (restored) live weights at every increment boundary —
    // exactly where resume re-enters the loop.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn load_state(&mut self, _state: &[u8]) -> Result<(), String> {
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
    fn no_frozen_model_on_first_task() {
        let mut rng = seeded(370);
        let mut model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let train = Dataset::new("d", Matrix::zeros(4, 16), vec![0; 4]);
        let mut c = Cassle::new();
        c.begin_task(&mut model, 0, &train, &mut rng);
        assert!(!c.has_frozen());
        c.begin_task(&mut model, 1, &train, &mut rng);
        assert!(c.has_frozen());
    }

    /// During increment 1, the distillation term should drive the
    /// projected current representations into alignment with the frozen
    /// model (loss component → −1 for SimSiam), demonstrating knowledge
    /// transfer; the full forgetting-ordering claim is exercised by the
    /// integration tests on class-incremental streams.
    #[test]
    fn distillation_aligns_with_frozen_model() {
        let mut rng = seeded(371);
        let cfg = ModelConfig::image(16);
        let mut model = ContinualModel::new(&cfg, &mut rng);
        let mut ft_model = ContinualModel::new(&cfg, &mut seeded(371));
        let aug = Augmenter::standard_image(GridSpec::new(4, 4, 1));
        let old_batch = Matrix::randn(12, 16, 1.0, &mut rng);
        let train = Dataset::new("d", old_batch.clone(), vec![0; 12]);

        let mut cassle = Cassle::new();
        let mut ft = crate::methods::finetune::Finetune::new();
        let mut opt_a = edsr_nn::Sgd::new(0.05, 0.9, 0.0);
        let mut opt_b = edsr_nn::Sgd::new(0.05, 0.9, 0.0);

        // Properly learn task 0 first (identical trajectories: CaSSLe has
        // no distillation term on the first increment).
        let mut rng_a = seeded(372);
        let mut rng_b = seeded(372);
        let mut ws_a = Workspace::new();
        let mut ws_b = Workspace::new();
        cassle.begin_task(&mut model, 0, &train, &mut rng_a);
        for _ in 0..40 {
            cassle.train_step(
                &mut model,
                &mut opt_a,
                std::slice::from_ref(&aug),
                &old_batch,
                0,
                &mut ws_a,
                &mut rng_a,
            );
            ft.train_step(
                &mut ft_model,
                &mut opt_b,
                std::slice::from_ref(&aug),
                &old_batch,
                0,
                &mut ws_b,
                &mut rng_b,
            );
        }
        let anchor = model.represent(&old_batch, 0);

        let _ = (&ft, &mut ft_model, &mut opt_b, &mut rng_b, anchor);

        cassle.begin_task(&mut model, 1, &train, &mut rng_a);
        let frozen_reps_before = cassle
            .frozen
            .as_ref()
            .expect("frozen after task 1 begins")
            .represent(&old_batch, 0);
        let new_batch = Matrix::randn(16, 16, 1.0, &mut rng).scale(1.5);
        let mut losses = Vec::new();
        for _ in 0..80 {
            losses.push(cassle.train_step(
                &mut model,
                &mut opt_a,
                std::slice::from_ref(&aug),
                &new_batch,
                1,
                &mut ws_a,
                &mut rng_a,
            ));
        }
        // Total loss = L_css (≥ −1) + L_dis (≥ −1): alignment success shows
        // as a clear drop toward the −2 floor.
        let early: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let late: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(
            late < early - 0.2,
            "distillation never aligned: {early} -> {late}"
        );

        // The frozen model must not move while the live model trains.
        let frozen_reps_after = cassle.frozen.as_ref().unwrap().represent(&old_batch, 0);
        assert_eq!(frozen_reps_before.max_abs_diff(&frozen_reps_after), 0.0);
    }
}
