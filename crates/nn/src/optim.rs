//! The optimizer: Adam, behind the [`Optimizer`] trait the training loop
//! drives (DESIGN.md §2).

use edsr_tensor::Matrix;

use crate::params::ParamSet;

/// Adam's exported moments, persisted inside run-state checkpoints so a
/// resumed sweep continues with identical update dynamics.
#[derive(Debug, Clone)]
pub struct OptimState {
    /// Learning rate at export time.
    pub lr: f32,
    /// Bias-correction step counter.
    pub t: u64,
    /// First moments per parameter (empty until the first step).
    pub m: Vec<Matrix>,
    /// Second moments per parameter.
    pub v: Vec<Matrix>,
}

/// Gradient-descent optimizer interface over a [`ParamSet`]. [`Adam`] is
/// the one implementation; methods take `&mut dyn Optimizer` so a caller
/// can wrap it (a benchmark times `step` this way).
pub trait Optimizer {
    /// Applies one update from the accumulated gradients, then leaves the
    /// gradient buffers untouched (call [`ParamSet::zero_grads`] yourself —
    /// the trainer owns the zeroing so losses can be accumulated).
    fn step(&mut self, params: &mut ParamSet);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Overrides the learning rate (the runner sets it every epoch).
    fn set_lr(&mut self, lr: f32);

    /// Exports the full mutable state (moments + step counter) for
    /// run-state checkpoints.
    fn export_state(&self) -> OptimState;

    /// Restores state exported by [`export_state`](Self::export_state).
    /// Fails when the moment buffer counts don't match.
    fn import_state(&mut self, state: OptimState) -> Result<(), String>;
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
        OptimState {
            lr: self.lr,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    fn import_state(&mut self, state: OptimState) -> Result<(), String> {
        let OptimState { lr, t, m, v } = state;
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
        let mut opt = Adam::new(0.1, 0.5);
        ps.zero_grads();
        opt.step(&mut ps);
        // g = wd·w = 0.5; Adam's first bias-corrected step is
        // m̂/√v̂ = g/|g| = 1, so w <- 1 - lr = 0.9.
        assert!((ps.value(id).get(0, 0) - 0.9).abs() < 1e-6);
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
        fn adam_step_descends_quadratic(start in proptest::collection::vec(-5.0f32..5.0, 1..8)) {
            prop_assume!(start.iter().all(|v| v.abs() > 0.1));
            let mut opt = Adam::new(0.01, 0.0);
            let (before, after) = quadratic_descends(&mut opt, start);
            prop_assert!(after <= before + 1e-6, "{before} -> {after}");
        }
    }
}
