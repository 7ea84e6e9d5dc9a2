//! Optimizers: SGD with momentum (images, per the paper) and Adam
//! (tabular, per the paper), plus a cosine learning-rate schedule.

use edsr_tensor::Matrix;

use crate::params::ParamSet;

/// Exported optimizer moments, persisted inside run-state checkpoints so
/// a resumed sweep continues with identical update dynamics.
#[derive(Debug, Clone)]
pub enum OptimState {
    /// SGD momentum buffers.
    Sgd {
        /// Learning rate at export time (schedules mutate it).
        lr: f32,
        /// Velocity per parameter (empty until the first step).
        velocity: Vec<Matrix>,
    },
    /// Adam first/second moments and step counter.
    Adam {
        /// Learning rate at export time.
        lr: f32,
        /// Bias-correction step counter.
        t: u64,
        /// First moments per parameter.
        m: Vec<Matrix>,
        /// Second moments per parameter.
        v: Vec<Matrix>,
    },
}

/// Gradient-descent optimizer interface over a [`ParamSet`].
pub trait Optimizer {
    /// Applies one update from the accumulated gradients, then leaves the
    /// gradient buffers untouched (call [`ParamSet::zero_grads`] yourself —
    /// the trainer owns the zeroing so losses can be accumulated).
    fn step(&mut self, params: &mut ParamSet);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_lr(&mut self, lr: f32);

    /// Exports the full mutable state (moments + step counters) for
    /// run-state checkpoints.
    fn export_state(&self) -> OptimState;

    /// Restores state exported by [`export_state`](Self::export_state).
    /// Fails when the state kind or buffer count doesn't match.
    fn import_state(&mut self, state: OptimState) -> Result<(), String>;
}

/// Stochastic gradient descent with classical momentum and decoupled L2
/// weight decay.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    fn ensure_state(&mut self, params: &ParamSet) {
        if self.velocity.len() != params.len() {
            self.velocity = params
                .ids()
                .map(|id| {
                    let v = params.value(id);
                    Matrix::zeros(v.rows(), v.cols())
                })
                .collect();
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet) {
        self.ensure_state(params);
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        params.for_each_mut(|i, value, grad| {
            let vel = &mut velocity[i];
            // v <- mu·v + g + wd·w through the dispatched elementwise
            // kernels (DESIGN.md §15). Each element sees the same
            // mul/add/mul/add rounding chain as the fused scalar loop
            // this replaces, so checkpoints are bit-unchanged.
            edsr_tensor::simd::scale(vel.data_mut(), mu);
            edsr_tensor::simd::add_assign(vel.data_mut(), grad.data());
            edsr_tensor::simd::axpy(vel.data_mut(), value.data(), wd);
            value.add_scaled(vel, -lr);
        });
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimState {
        OptimState::Sgd {
            lr: self.lr,
            velocity: self.velocity.clone(),
        }
    }

    fn import_state(&mut self, state: OptimState) -> Result<(), String> {
        match state {
            OptimState::Sgd { lr, velocity } => {
                self.lr = lr;
                self.velocity = velocity;
                Ok(())
            }
            OptimState::Adam { .. } => Err("cannot import Adam state into an SGD optimizer".into()),
        }
    }
}

/// Adam (Kingma & Ba, 2015) with optional L2 weight decay.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates Adam with the standard β defaults.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, params: &ParamSet) {
        if self.m.len() != params.len() {
            let zeros: Vec<Matrix> = params
                .ids()
                .map(|id| {
                    let v = params.value(id);
                    Matrix::zeros(v.rows(), v.cols())
                })
                .collect();
            self.m = zeros.clone();
            self.v = zeros;
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet) {
        self.ensure_state(params);
        self.t += 1;
        let (b1, b2, eps, lr, wd) = (self.beta1, self.beta2, self.eps, self.lr, self.weight_decay);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (ms, vs) = (&mut self.m, &mut self.v);
        params.for_each_mut(|i, value, grad| {
            let m = &mut ms[i];
            let v = &mut vs[i];
            for (((w, &g0), mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut())
                .zip(v.data_mut())
            {
                let g = g0 + wd * *w;
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimState {
        OptimState::Adam {
            lr: self.lr,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    fn import_state(&mut self, state: OptimState) -> Result<(), String> {
        match state {
            OptimState::Adam { lr, t, m, v } => {
                if m.len() != v.len() {
                    return Err(format!(
                        "Adam state has {} first moments but {} second moments",
                        m.len(),
                        v.len()
                    ));
                }
                self.lr = lr;
                self.t = t;
                self.m = m;
                self.v = v;
                Ok(())
            }
            OptimState::Sgd { .. } => Err("cannot import SGD state into an Adam optimizer".into()),
        }
    }
}

/// Cosine learning-rate decay from `base_lr` to `min_lr` over
/// `total_steps`, with optional linear warmup.
#[derive(Debug, Clone)]
pub struct CosineSchedule {
    base_lr: f32,
    min_lr: f32,
    warmup_steps: usize,
    total_steps: usize,
}

impl CosineSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    /// Panics if `total_steps == 0`.
    pub fn new(base_lr: f32, min_lr: f32, warmup_steps: usize, total_steps: usize) -> Self {
        assert!(
            total_steps > 0,
            "CosineSchedule: total_steps must be positive"
        );
        Self {
            base_lr,
            min_lr,
            warmup_steps,
            total_steps,
        }
    }

    /// Learning rate at a given step (clamped past `total_steps`).
    pub fn lr_at(&self, step: usize) -> f32 {
        if step < self.warmup_steps {
            return self.base_lr * (step + 1) as f32 / self.warmup_steps as f32;
        }
        let progress = ((step - self.warmup_steps) as f32
            / (self.total_steps.saturating_sub(self.warmup_steps)).max(1) as f32)
            .min(1.0);
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        self.min_lr + (self.base_lr - self.min_lr) * cos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Init, Mlp};
    use crate::params::{Binder, ParamSet};
    use edsr_tensor::rng::seeded;
    use edsr_tensor::{Matrix, Tape};

    /// One regression step; returns the loss value.
    fn regression_step<O: Optimizer>(
        mlp: &Mlp,
        ps: &mut ParamSet,
        opt: &mut O,
        x: &Matrix,
        y: &Matrix,
    ) -> f32 {
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let xin = tape.leaf(x.clone());
        let target = tape.leaf(y.clone());
        let out = mlp.forward(&mut tape, &mut binder, ps, xin);
        let loss = tape.mse(out, target);
        let val = tape.value(loss).get(0, 0);
        let grads = tape.backward(loss);
        ps.zero_grads();
        binder.accumulate_into(&grads, ps);
        opt.step(ps);
        val
    }

    fn toy_problem(seed: u64) -> (Matrix, Matrix) {
        let mut rng = seeded(seed);
        let x = Matrix::randn(64, 4, 1.0, &mut rng);
        // Target: a fixed linear map plus nonlinearity.
        let y = Matrix::from_vec(
            64,
            2,
            (0..64)
                .flat_map(|r| {
                    let row = x.row(r);
                    [row[0] - 0.5 * row[1], (row[2] * row[3]).tanh()]
                })
                .collect(),
        );
        (x, y)
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut rng = seeded(120);
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(
            &mut ps,
            "m",
            &[4, 16, 2],
            Activation::Tanh,
            Init::Xavier,
            &mut rng,
        );
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let (x, y) = toy_problem(121);
        let first = regression_step(&mlp, &mut ps, &mut opt, &x, &y);
        let mut last = first;
        for _ in 0..200 {
            last = regression_step(&mlp, &mut ps, &mut opt, &x, &y);
        }
        assert!(last < first * 0.2, "SGD failed to learn: {first} -> {last}");
    }

    #[test]
    fn adam_reduces_loss() {
        let mut rng = seeded(122);
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(
            &mut ps,
            "m",
            &[4, 16, 2],
            Activation::Tanh,
            Init::Xavier,
            &mut rng,
        );
        let mut opt = Adam::new(0.01, 0.0);
        let (x, y) = toy_problem(123);
        let first = regression_step(&mlp, &mut ps, &mut opt, &x, &y);
        let mut last = first;
        for _ in 0..200 {
            last = regression_step(&mlp, &mut ps, &mut opt, &x, &y);
        }
        assert!(
            last < first * 0.2,
            "Adam failed to learn: {first} -> {last}"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradients() {
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::filled(2, 2, 1.0));
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        ps.zero_grads();
        opt.step(&mut ps);
        // w <- w - lr * wd * w = 1 - 0.05 = 0.95
        assert!((ps.value(id).get(0, 0) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates() {
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::zeros(1, 1));
        let mut opt = Sgd::new(1.0, 0.5, 0.0);
        // Constant gradient of 1.
        ps.accumulate_grad(id, &Matrix::filled(1, 1, 1.0));
        opt.step(&mut ps); // v=1, w=-1
        opt.step(&mut ps); // v=1.5, w=-2.5 (grad buffer still holds 1)
        assert!((ps.value(id).get(0, 0) + 2.5).abs() < 1e-6);
    }

    #[test]
    fn cosine_schedule_boundaries() {
        let s = CosineSchedule::new(1.0, 0.1, 0, 100);
        assert!((s.lr_at(0) - 1.0).abs() < 1e-5);
        assert!((s.lr_at(100) - 0.1).abs() < 1e-5);
        assert!((s.lr_at(1000) - 0.1).abs() < 1e-5);
        let mid = s.lr_at(50);
        assert!((mid - 0.55).abs() < 0.01, "mid {mid}");
    }

    #[test]
    fn cosine_schedule_warmup_ramps() {
        let s = CosineSchedule::new(1.0, 0.0, 10, 100);
        assert!(s.lr_at(0) < s.lr_at(5));
        assert!(s.lr_at(5) < s.lr_at(9));
        assert!((s.lr_at(9) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn schedule_monotone_after_warmup() {
        let s = CosineSchedule::new(0.5, 0.0, 0, 50);
        let mut prev = f32::INFINITY;
        for step in 0..=50 {
            let lr = s.lr_at(step);
            assert!(lr <= prev + 1e-6, "lr increased at {step}");
            prev = lr;
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::params::ParamSet;
    use edsr_tensor::Matrix;
    use proptest::prelude::*;

    /// One optimizer step along the gradient of f(w) = ½‖w‖² (grad = w)
    /// with a small lr must not increase the loss, for any starting point.
    fn quadratic_descends(opt: &mut dyn Optimizer, start: Vec<f32>) -> (f32, f32) {
        let n = start.len();
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::from_vec(1, n, start));
        let before: f32 = ps.value(id).data().iter().map(|v| v * v).sum();
        let grad = ps.value(id).clone();
        ps.zero_grads();
        ps.accumulate_grad(id, &grad);
        opt.step(&mut ps);
        let after: f32 = ps.value(id).data().iter().map(|v| v * v).sum();
        (before, after)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sgd_step_descends_quadratic(start in proptest::collection::vec(-5.0f32..5.0, 1..8)) {
            let mut opt = Sgd::new(0.01, 0.0, 0.0);
            let (before, after) = quadratic_descends(&mut opt, start);
            prop_assert!(after <= before + 1e-6, "{before} -> {after}");
        }

        #[test]
        fn adam_step_descends_quadratic(start in proptest::collection::vec(-5.0f32..5.0, 1..8)) {
            prop_assume!(start.iter().all(|v| v.abs() > 0.1));
            let mut opt = Adam::new(0.01, 0.0);
            let (before, after) = quadratic_descends(&mut opt, start);
            prop_assert!(after <= before + 1e-6, "{before} -> {after}");
        }

        #[test]
        fn cosine_schedule_within_bounds(
            base in 0.01f32..1.0,
            floor_frac in 0.0f32..1.0,
            steps in 1usize..200,
            probe in 0usize..400,
        ) {
            let min_lr = base * floor_frac;
            let s = CosineSchedule::new(base, min_lr, 0, steps);
            let lr = s.lr_at(probe);
            prop_assert!(lr >= min_lr - 1e-6 && lr <= base + 1e-6, "lr {} outside [{}, {}]", lr, min_lr, base);
        }
    }
}
