//! SI — Synaptic Intelligence (Zenke et al. \[54\]).
//!
//! Regularization baseline: per-parameter importances `Ω` accumulate a
//! path integral of loss sensitivity during each increment; subsequent
//! increments pay a quadratic penalty `λ Σ Ω (θ − θ*)²` for moving
//! important parameters. Adapted to the unsupervised setting by driving
//! the path integral with the `L_css` gradient (the paper notes this is
//! why SI transfers to UCL).

// Multi-array parallel indexing is clearer with explicit loops here.
#![allow(clippy::needless_range_loop)]

use edsr_data::{Augmenter, Dataset};
use edsr_nn::io::{put_matrix, read_matrices};
use edsr_nn::{Optimizer, Workspace};
use edsr_tensor::Matrix;
use edsr_wire::{put_u32, put_u64, DecodeError, Reader};
use rand::rngs::StdRng;

use crate::model::ContinualModel;
use crate::trainer::{guarded_backward, Method};

/// Synaptic Intelligence state.
pub struct Si {
    /// Penalty strength λ.
    lambda: f32,
    /// Damping ξ in the importance normalization.
    xi: f32,
    /// Consolidated importances Ω (one matrix per parameter).
    omega: Vec<Matrix>,
    /// Path-integral accumulator for the current increment.
    omega_acc: Vec<Matrix>,
    /// Reference weights θ* (end of previous increment).
    theta_star: Vec<Matrix>,
    /// Weights at the start of the current increment.
    theta_task_start: Vec<Matrix>,
    initialized: bool,
}

impl Si {
    /// Creates SI with the given penalty strength (paper setups follow
    /// LUMP's hyper-parameters; the tables and the CLI use λ = 0.1, the
    /// default of `edsr-core`'s method registry).
    pub fn new(lambda: f32) -> Self {
        Self {
            lambda,
            xi: 0.1,
            omega: Vec::new(),
            omega_acc: Vec::new(),
            theta_star: Vec::new(),
            theta_task_start: Vec::new(),
            initialized: false,
        }
    }

    fn ensure_init(&mut self, model: &ContinualModel) {
        if self.initialized {
            return;
        }
        let zeros: Vec<Matrix> = model
            .params
            .ids()
            .map(|id| {
                let v = model.params.value(id);
                Matrix::zeros(v.rows(), v.cols())
            })
            .collect();
        self.omega = zeros.clone();
        self.omega_acc = zeros;
        self.theta_star = model.params.snapshot();
        self.theta_task_start = model.params.snapshot();
        self.initialized = true;
    }

    /// Current consolidated importance Ω (read-only, for tests).
    pub fn omega(&self) -> &[Matrix] {
        &self.omega
    }
}

impl Method for Si {
    fn name(&self) -> String {
        "SI".into()
    }

    fn begin_task(
        &mut self,
        model: &mut ContinualModel,
        _task_idx: usize,
        _train: &Dataset,
        _rng: &mut StdRng,
    ) {
        self.ensure_init(model);
        self.theta_task_start = model.params.snapshot();
        for acc in &mut self.omega_acc {
            acc.fill_zero();
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
        self.ensure_init(model);
        ws.reset();
        let (_, _, loss) =
            model.css_on_batch(&mut ws.tape, &mut ws.binder, aug, batch, task_idx, rng);
        let value = guarded_backward(model, &mut ws.tape, &ws.binder, loss);
        if !value.is_finite() {
            // Divergent step: leave weights, moments, and the path
            // integral untouched; the runner's divergence guard recovers.
            return value;
        }

        // Capture the unregularized gradient for the path integral.
        let g_css: Vec<Matrix> = model
            .params
            .ids()
            .map(|id| model.params.grad(id).clone())
            .collect();

        // Add the SI penalty gradient 2λ Ω (θ − θ*).
        if task_idx > 0 {
            let ids: Vec<_> = model.params.ids().collect();
            for (i, id) in ids.iter().enumerate() {
                let theta = model.params.value(*id).clone();
                let pull = theta
                    .sub(&self.theta_star[i])
                    .mul_elem(&self.omega[i])
                    .scale(2.0 * self.lambda);
                model.params.accumulate_grad(*id, &pull);
            }
        }

        let theta_before = model.params.snapshot();
        opt.step(&mut model.params);
        let theta_after = model.params.snapshot();

        // ω ← ω − g ⊙ Δθ (loss decreasing along the trajectory increases
        // importance).
        for (i, g) in g_css.iter().enumerate() {
            let delta = theta_after[i].sub(&theta_before[i]);
            let contrib = g.mul_elem(&delta).scale(-1.0);
            self.omega_acc[i].add_assign(&contrib);
        }
        value
    }

    fn end_task(
        &mut self,
        model: &mut ContinualModel,
        _task_idx: usize,
        _train: &Dataset,
        _aug: &Augmenter,
        _rng: &mut StdRng,
    ) {
        let theta_end = model.params.snapshot();
        for i in 0..self.omega.len() {
            let drift = theta_end[i].sub(&self.theta_task_start[i]);
            let denom = drift.mul_elem(&drift).map(|v| v + self.xi);
            let update = self.omega_acc[i].zip_map(&denom, |acc, d| (acc / d).max(0.0));
            self.omega[i].add_assign(&update);
            self.omega_acc[i].fill_zero();
        }
        self.theta_star = theta_end;
    }

    // SI's state is the importance accumulators and reference weights.
    fn save_state(&self) -> Option<Vec<u8>> {
        let mut buf = Vec::new();
        put_u32(&mut buf, self.initialized as u32);
        for group in [
            &self.omega,
            &self.omega_acc,
            &self.theta_star,
            &self.theta_task_start,
        ] {
            put_u64(&mut buf, group.len() as u64);
            for m in group {
                put_matrix(&mut buf, m);
            }
        }
        Some(buf)
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(state);
        let mut read = || -> Result<_, DecodeError> {
            let initialized = r.u32()? != 0;
            let mut groups: [Vec<Matrix>; 4] = Default::default();
            for group in &mut groups {
                let count = r.u64()?;
                *group = read_matrices(&mut r, count)?;
            }
            r.finish()?;
            Ok((initialized, groups))
        };
        let (initialized, [omega, omega_acc, theta_star, theta_task_start]) =
            read().map_err(|e| format!("SI state: {e}"))?;
        self.omega = omega;
        self.omega_acc = omega_acc;
        self.theta_star = theta_star;
        self.theta_task_start = theta_task_start;
        self.initialized = initialized;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use edsr_data::GridSpec;
    use edsr_tensor::rng::seeded;

    fn setup(seed: u64) -> (ContinualModel, edsr_nn::Adam, Augmenter, Matrix) {
        let mut rng = seeded(seed);
        let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let opt = edsr_nn::Adam::new(3e-3, 0.0);
        let aug = Augmenter::standard_image(GridSpec::new(4, 4, 1));
        let batch = Matrix::randn(16, 16, 1.0, &mut rng);
        (model, opt, aug, batch)
    }

    #[test]
    fn importances_become_positive_after_training() {
        let (mut model, mut opt, aug, batch) = setup(340);
        let mut rng = seeded(341);
        let mut ws = Workspace::new();
        let mut si = Si::new(1.0);
        let train = Dataset::new("d", batch.clone(), vec![0; batch.rows()]);
        si.begin_task(&mut model, 0, &train, &mut rng);
        for _ in 0..20 {
            si.train_step(
                &mut model,
                &mut opt,
                std::slice::from_ref(&aug),
                &batch,
                0,
                &mut ws,
                &mut rng,
            );
        }
        si.end_task(&mut model, 0, &train, &Augmenter::Identity, &mut rng);
        let total: f32 = si.omega().iter().map(|o| o.sum()).sum();
        assert!(total > 0.0, "no importance accumulated: {total}");
    }

    #[test]
    fn penalty_restrains_parameter_drift_on_second_task() {
        let mut rng = seeded(342);
        let (mut weak_model, mut opt_w, aug, batch1) = setup(343);
        let batch2 = Matrix::randn(16, 16, 1.0, &mut rng);
        // Copy the starting point for a strong-λ run.
        let mut strong_model = ContinualModel::new(&ModelConfig::image(16), &mut seeded(343));
        let mut opt_s = edsr_nn::Adam::new(3e-3, 0.0);
        let train = Dataset::new("d", batch1.clone(), vec![0; batch1.rows()]);

        let run = |si: &mut Si, model: &mut ContinualModel, opt: &mut edsr_nn::Adam| {
            let mut rng = seeded(344);
            let mut ws = Workspace::new();
            si.begin_task(model, 0, &train, &mut rng);
            for _ in 0..25 {
                si.train_step(
                    model,
                    opt,
                    std::slice::from_ref(&aug),
                    &batch1,
                    0,
                    &mut ws,
                    &mut rng,
                );
            }
            si.end_task(model, 0, &train, &Augmenter::Identity, &mut rng);
            let anchor = model.params.snapshot();
            si.begin_task(model, 1, &train, &mut rng);
            for _ in 0..25 {
                si.train_step(
                    model,
                    opt,
                    std::slice::from_ref(&aug),
                    &batch2,
                    1,
                    &mut ws,
                    &mut rng,
                );
            }
            si.end_task(model, 1, &train, &Augmenter::Identity, &mut rng);
            // Parameter movement during task 2.
            let moved: f32 = model
                .params
                .snapshot()
                .iter()
                .zip(&anchor)
                .map(|(a, b)| a.sub(b).frobenius_norm())
                .sum();
            moved
        };

        let mut si_weak = Si::new(0.0);
        let moved_weak = run(&mut si_weak, &mut weak_model, &mut opt_w);
        let mut si_strong = Si::new(10.0);
        let moved_strong = run(&mut si_strong, &mut strong_model, &mut opt_s);
        assert!(
            moved_strong < moved_weak,
            "strong SI moved more ({moved_strong}) than no SI ({moved_weak})"
        );
    }
}
