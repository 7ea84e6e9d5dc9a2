//! The distillation projector `p_dis(·)` and the losses built on it:
//! `L_dis` (Eq. 9, CaSSLe/PFR-style) and the building block EDSR's
//! noise-enhanced replay `L_rpl` (Eq. 16) extends.
//!
//! Mechanism: for the same input, project the *current* model's
//! representation into the old representation space with `p_dis`, then
//! align it with the *frozen* model's representation using the SSL
//! variant's alignment form. Gradients flow only through the current
//! branch.

use edsr_nn::{Activation, Binder, Init, Mlp, ParamSet};
use edsr_tensor::{Matrix, Tape, Var};
use rand::rngs::StdRng;

use crate::losses::SslHead;

/// Owns `p_dis`, the 2-layer MLP projector of Eq. 9.
#[derive(Debug, Clone)]
pub struct DistillHead {
    projector: Mlp,
}

impl DistillHead {
    /// Creates the projector with the representation's dimensionality on
    /// both ends (paper §IV-A5: "a 2-layer MLP with the same dimension as
    /// the representation").
    pub fn new(params: &mut ParamSet, repr_dim: usize, rng: &mut StdRng) -> Self {
        let projector = Mlp::new(
            params,
            "distill.p_dis",
            &[repr_dim, repr_dim, repr_dim],
            Activation::Relu,
            Init::He,
            rng,
        );
        Self { projector }
    }

    /// Records `p_dis(z)` on the tape.
    pub fn project(&self, tape: &mut Tape, binder: &mut Binder, params: &ParamSet, z: Var) -> Var {
        self.projector.forward(tape, binder, params, z)
    }

    /// `L_dis(x_1, x̃_1)` (Eq. 9): align `p_dis(z)` with the frozen
    /// representation `z̃` (provided as a value from the old model).
    pub fn distill_loss(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        params: &ParamSet,
        ssl: &SslHead,
        z: Var,
        frozen_repr: &Matrix,
    ) -> Var {
        let projected = self.project(tape, binder, params, z);
        let target = tape.constant_copy(frozen_repr);
        ssl.align(tape, projected, target)
    }

    /// EDSR's noise-enhanced replay `L_rpl` (Eq. 16): identical to
    /// [`distill_loss`](Self::distill_loss) except the target is
    /// `z̃ + r(x)·σ`, with `σ ~ N(0, I)` sampled per call and `r(x)` the
    /// per-sample kNN-std magnitudes (one scalar per row of `frozen_repr`).
    ///
    /// # Panics
    /// Panics if `noise_scales.len() != frozen_repr.rows()`.
    #[allow(clippy::too_many_arguments)] // mirrors the Eq. 16 signature
    pub fn replay_loss(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        params: &ParamSet,
        ssl: &SslHead,
        z: Var,
        frozen_repr: &Matrix,
        noise_scales: &[f32],
        rng: &mut StdRng,
    ) -> Var {
        assert_eq!(
            noise_scales.len(),
            frozen_repr.rows(),
            "replay_loss: one noise scale per memory sample required"
        );
        // Perturb the pool-backed constant in place (fresh, nothing
        // downstream has read it yet) instead of cloning `frozen_repr`.
        let target = tape.constant_copy(frozen_repr);
        let noisy = tape.value_mut(target);
        for (r, &scale) in noise_scales.iter().enumerate() {
            for v in noisy.row_mut(r) {
                *v += scale * edsr_tensor::rng::gaussian(rng);
            }
        }
        let projected = self.project(tape, binder, params, z);
        ssl.align(tape, projected, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::losses::SslVariant;
    use edsr_tensor::rng::seeded;

    fn setup(seed: u64) -> (DistillHead, SslHead, ParamSet) {
        let mut rng = seeded(seed);
        let mut ps = ParamSet::new();
        let ssl = SslHead::new(&mut ps, SslVariant::SimSiam, 6, &mut rng);
        let dis = DistillHead::new(&mut ps, 6, &mut rng);
        (dis, ssl, ps)
    }

    #[test]
    fn distill_loss_runs_and_is_scalar() {
        let (dis, ssl, ps) = setup(230);
        let mut rng = seeded(231);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let z = tape.leaf(Matrix::randn(4, 6, 1.0, &mut rng));
        let frozen = Matrix::randn(4, 6, 1.0, &mut rng);
        let l = dis.distill_loss(&mut tape, &mut binder, &ps, &ssl, z, &frozen);
        assert_eq!(tape.value(l).shape(), (1, 1));
        assert!(tape.value(l).get(0, 0).is_finite());
    }

    #[test]
    fn gradient_flows_into_projector_and_input() {
        let (dis, ssl, mut ps) = setup(232);
        let mut rng = seeded(233);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let z = tape.leaf(Matrix::randn(4, 6, 1.0, &mut rng));
        let frozen = Matrix::randn(4, 6, 1.0, &mut rng);
        let l = dis.distill_loss(&mut tape, &mut binder, &ps, &ssl, z, &frozen);
        let grads = tape.backward(l);
        assert!(grads.get(z).is_some(), "no gradient to the current branch");
        ps.zero_grads();
        binder.accumulate_into(&grads, &mut ps);
        let proj_grad: f32 = ps
            .ids()
            .filter(|&id| ps.name(id).starts_with("distill"))
            .map(|id| ps.grad(id).frobenius_norm())
            .sum();
        assert!(proj_grad > 0.0, "projector received no gradient");
    }

    #[test]
    fn replay_loss_with_zero_noise_matches_distill() {
        let (dis, ssl, ps) = setup(234);
        let mut rng = seeded(235);
        let zm = Matrix::randn(4, 6, 1.0, &mut rng);
        let frozen = Matrix::randn(4, 6, 1.0, &mut rng);

        let mut t1 = Tape::new();
        let mut b1 = Binder::new();
        let z1 = t1.leaf(zm.clone());
        let l1 = dis.distill_loss(&mut t1, &mut b1, &ps, &ssl, z1, &frozen);

        let mut noise_rng = seeded(236);
        let mut t2 = Tape::new();
        let mut b2 = Binder::new();
        let z2 = t2.leaf(zm);
        let l2 = dis.replay_loss(
            &mut t2,
            &mut b2,
            &ps,
            &ssl,
            z2,
            &frozen,
            &[0.0; 4],
            &mut noise_rng,
        );
        assert!((t1.value(l1).get(0, 0) - t2.value(l2).get(0, 0)).abs() < 1e-6);
    }

    #[test]
    fn replay_noise_perturbs_target() {
        let (dis, ssl, ps) = setup(237);
        let mut rng = seeded(238);
        let zm = Matrix::randn(4, 6, 1.0, &mut rng);
        let frozen = Matrix::randn(4, 6, 1.0, &mut rng);
        let eval = |scales: &[f32], seed: u64| {
            let mut nrng = seeded(seed);
            let mut t = Tape::new();
            let mut b = Binder::new();
            let z = t.leaf(zm.clone());
            let l = dis.replay_loss(&mut t, &mut b, &ps, &ssl, z, &frozen, scales, &mut nrng);
            t.value(l).get(0, 0)
        };
        let quiet = eval(&[0.0; 4], 1);
        let noisy = eval(&[2.0; 4], 1);
        assert!((quiet - noisy).abs() > 1e-4, "noise had no effect");
    }

    #[test]
    fn barlowtwins_distill_path_runs_and_flows() {
        let mut rng = seeded(242);
        let mut ps = ParamSet::new();
        let ssl = SslHead::new(
            &mut ps,
            SslVariant::BarlowTwins { lambda: 0.02 },
            6,
            &mut rng,
        );
        let dis = DistillHead::new(&mut ps, 6, &mut rng);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let z = tape.leaf(Matrix::randn(8, 6, 1.0, &mut rng));
        let frozen = Matrix::randn(8, 6, 1.0, &mut rng);
        let l = dis.distill_loss(&mut tape, &mut binder, &ps, &ssl, z, &frozen);
        assert!(tape.value(l).get(0, 0).is_finite());
        let grads = tape.backward(l);
        assert!(
            grads.get(z).is_some(),
            "no gradient through BT distillation"
        );
    }

    #[test]
    fn replay_noise_scales_with_magnitude() {
        // Larger r(x) must move the BT distillation target further from
        // the clean one on average (sanity of the noise injection).
        let (dis, ssl, ps) = setup(243);
        let mut rng = seeded(244);
        let zm = Matrix::randn(6, 6, 1.0, &mut rng);
        let frozen = Matrix::randn(6, 6, 1.0, &mut rng);
        let spread = |scale: f32| -> f32 {
            let mut acc = 0.0;
            for seed in 0..10u64 {
                let mut nrng = seeded(300 + seed);
                let mut t = Tape::new();
                let mut b = Binder::new();
                let z = t.leaf(zm.clone());
                let l = dis.replay_loss(
                    &mut t,
                    &mut b,
                    &ps,
                    &ssl,
                    z,
                    &frozen,
                    &[scale; 6],
                    &mut nrng,
                );
                acc += t.value(l).get(0, 0);
            }
            acc / 10.0
        };
        let clean = spread(0.0);
        let noisy = spread(3.0);
        assert!(
            (noisy - clean).abs() > 1e-3,
            "noise magnitude had no average effect"
        );
    }

    #[test]
    #[should_panic(expected = "one noise scale per memory sample")]
    fn replay_scale_count_mismatch_panics() {
        let (dis, ssl, ps) = setup(239);
        let mut rng = seeded(240);
        let mut t = Tape::new();
        let mut b = Binder::new();
        let z = t.leaf(Matrix::randn(4, 6, 1.0, &mut rng));
        let frozen = Matrix::randn(4, 6, 1.0, &mut rng);
        let mut nrng = seeded(241);
        let _ = dis.replay_loss(&mut t, &mut b, &ps, &ssl, z, &frozen, &[0.0; 2], &mut nrng);
    }
}
