//! # edsr-nn
//!
//! Neural-network building blocks for the EDSR reproduction: parameter
//! storage ([`ParamSet`]) with tape binding, linear layers and MLPs, and
//! the optimizer every run trains with: [`Adam`] at a flat learning rate
//! (DESIGN.md §2).

pub mod conv;
pub mod io;
pub mod layers;
pub mod optim;
pub mod params;
pub mod workspace;

pub use conv::{Conv2d, ConvShape};
pub use io::{load_params, save_params, CheckpointError};
pub use layers::{Activation, Init, Linear, Mlp};
pub use optim::{Adam, OptimState, Optimizer};
pub use params::{Binder, ParamId, ParamSet};
pub use workspace::Workspace;

#[cfg(test)]
mod gradcheck_tests {
    use super::*;
    use edsr_tensor::gradcheck::check_gradients;
    use edsr_tensor::rng::seeded;
    use edsr_tensor::Matrix;

    /// Full-network finite-difference check: perturb the *weights* of a
    /// small MLP (exposed as leaf inputs) and verify the analytic
    /// parameter gradients.
    #[test]
    fn mlp_parameter_gradients_match_finite_differences() {
        let mut rng = seeded(130);
        let x = Matrix::randn(3, 2, 1.0, &mut rng);
        let w1 = Matrix::randn(2, 4, 0.7, &mut rng);
        let b1 = Matrix::randn(1, 4, 0.1, &mut rng);
        let w2 = Matrix::randn(4, 2, 0.7, &mut rng);
        let b2 = Matrix::randn(1, 2, 0.1, &mut rng);
        let target = Matrix::randn(3, 2, 1.0, &mut rng);
        check_gradients(&[w1, b1, w2, b2], 1e-3, 3e-2, |t, vars| {
            let xin = t.leaf(x.clone());
            let tgt = t.leaf(target.clone());
            let h = t.matmul(xin, vars[0]);
            let h = t.add_row(h, vars[1]);
            let h = t.tanh(h);
            let o = t.matmul(h, vars[2]);
            let o = t.add_row(o, vars[3]);
            t.mse(o, tgt)
        });
    }

    /// The Binder + Mlp path must produce the same gradients as the
    /// hand-rolled graph above.
    #[test]
    fn binder_gradients_match_manual_graph() {
        use edsr_tensor::Tape;
        let mut rng = seeded(131);
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(
            &mut ps,
            "m",
            &[2, 4, 2],
            Activation::Tanh,
            Init::Xavier,
            &mut rng,
        );
        let x = Matrix::randn(3, 2, 1.0, &mut rng);
        let y = Matrix::randn(3, 2, 1.0, &mut rng);

        // Path A: binder.
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let xin = tape.leaf(x.clone());
        let tgt = tape.leaf(y.clone());
        let out = mlp.forward(&mut tape, &mut binder, &ps, xin);
        let loss = tape.mse(out, tgt);
        let grads = tape.backward(loss);
        ps.zero_grads();
        binder.accumulate_into(&grads, &mut ps);

        // Path B: manual graph with the same weights.
        let ids = mlp.param_ids();
        let mut tape2 = Tape::new();
        let w1 = tape2.leaf(ps.value(ids[0]).clone());
        let b1 = tape2.leaf(ps.value(ids[1]).clone());
        let w2 = tape2.leaf(ps.value(ids[2]).clone());
        let b2 = tape2.leaf(ps.value(ids[3]).clone());
        let xin2 = tape2.leaf(x);
        let tgt2 = tape2.leaf(y);
        let h = tape2.matmul(xin2, w1);
        let h = tape2.add_row(h, b1);
        let h = tape2.tanh(h);
        let o = tape2.matmul(h, w2);
        let o = tape2.add_row(o, b2);
        let loss2 = tape2.mse(o, tgt2);
        let grads2 = tape2.backward(loss2);

        for (&id, var) in ids.iter().zip([w1, b1, w2, b2]) {
            let manual = grads2.get(var).expect("gradient exists");
            assert!(
                ps.grad(id).max_abs_diff(manual) < 1e-5,
                "gradient mismatch for {}",
                ps.name(id)
            );
        }
    }
}
