//! Parameter storage shared by all models.
//!
//! A [`ParamSet`] owns every trainable matrix of a model together with a
//! same-shape gradient buffer. Layers hold lightweight [`ParamId`] handles.
//! During a training step, a [`Binder`] lends parameter values to a
//! [`Tape`] as leaf nodes (memoized, so a parameter used twice shares one
//! node and its gradients accumulate correctly) and routes gradients back
//! after the backward pass.

use edsr_tensor::{Grads, Matrix, Tape, Var};

/// Handle to one parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// Owns parameter values and gradient accumulators.
///
/// `Clone` gives a deep copy — this is how the frozen old model `f̃` is
/// kept: same architecture object, cloned parameter set.
#[derive(Default, Clone)]
pub struct ParamSet {
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Matrix::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of registered parameters (matrices).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value of a parameter.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Adds `g` into the gradient buffer of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        self.grads[id.0].add_assign(g);
    }

    /// Clears all gradient buffers (keeps allocations).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Applies `f(value, grad)` to every parameter/gradient pair — the
    /// low-level hook optimizers use.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut Matrix, &Matrix)) {
        for (i, (v, g)) in self.values.iter_mut().zip(&self.grads).enumerate() {
            f(i, v, g);
        }
    }

    /// Deep copy of all values (the frozen "old model" `f̃` snapshot).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.values.clone()
    }

    /// Restores values from a [`snapshot`](Self::snapshot).
    ///
    /// # Panics
    /// Panics if the snapshot does not match this set's shapes.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(
            snapshot.len(),
            self.values.len(),
            "restore: parameter count mismatch"
        );
        for (dst, src) in self.values.iter_mut().zip(snapshot) {
            assert_eq!(dst.shape(), src.shape(), "restore: shape mismatch");
            *dst = src.clone();
        }
    }
}

/// Per-step memoized binding of parameters onto a tape.
#[derive(Default)]
pub struct Binder {
    bound: Vec<Option<Var>>,
}

impl Binder {
    /// Creates an empty binder (for one tape / one step).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all bindings (keeping the slot allocation) so the binder can
    /// serve the next step's tape. Pairs with [`Tape::reset`].
    pub fn reset(&mut self) {
        self.bound.iter_mut().for_each(|slot| *slot = None);
    }

    /// Returns the tape node holding `id`'s current value, creating it on
    /// first use within this binder.
    pub fn bind(&mut self, tape: &mut Tape, params: &ParamSet, id: ParamId) -> Var {
        if self.bound.len() <= id.0 {
            self.bound.resize(id.0 + 1, None);
        }
        if let Some(v) = self.bound[id.0] {
            return v;
        }
        let var = tape.leaf_copy(params.value(id));
        self.bound[id.0] = Some(var);
        var
    }

    /// Routes tape gradients back into the parameter set's buffers.
    pub fn accumulate_into(&self, grads: &Grads, params: &mut ParamSet) {
        for (raw, bound) in self.bound.iter().enumerate() {
            if let Some(var) = bound {
                if let Some(g) = grads.get(*var) {
                    params.accumulate_grad(ParamId(raw), g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;

    #[test]
    fn register_and_lookup() {
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::filled(2, 3, 1.5));
        assert_eq!(ps.value(id).shape(), (2, 3));
        assert_eq!(ps.name(id), "w");
        assert_eq!(ps.num_scalars(), 6);
    }

    #[test]
    fn zero_grads_clears() {
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::zeros(2, 2));
        ps.accumulate_grad(id, &Matrix::filled(2, 2, 3.0));
        assert_eq!(ps.grad(id).sum(), 12.0);
        ps.zero_grads();
        assert_eq!(ps.grad(id).sum(), 0.0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut rng = seeded(100);
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::randn(3, 3, 1.0, &mut rng));
        let snap = ps.snapshot();
        let original = ps.value(id).clone();
        ps.value_mut(id).scale_inplace(5.0);
        assert!(ps.value(id).max_abs_diff(&original) > 0.1);
        ps.restore(&snap);
        assert_eq!(ps.value(id), &original);
    }

    #[test]
    fn binder_memoizes_shared_parameter() {
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::filled(1, 2, 2.0));
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let a = binder.bind(&mut tape, &ps, id);
        let b = binder.bind(&mut tape, &ps, id);
        assert_eq!(a, b, "parameter bound twice got two nodes");
    }

    #[test]
    fn binder_routes_gradients_back() {
        // L = sum(w ⊙ w) → dL/dw = 2w.
        let mut ps = ParamSet::new();
        let id = ps.register("w", Matrix::from_vec(1, 2, vec![3.0, -1.0]));
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let w = binder.bind(&mut tape, &ps, id);
        let sq = tape.square(w);
        let loss = tape.sum(sq);
        let grads = tape.backward(loss);
        binder.accumulate_into(&grads, &mut ps);
        assert_eq!(ps.grad(id).data(), &[6.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn restore_wrong_snapshot_panics() {
        let mut ps = ParamSet::new();
        ps.register("w", Matrix::zeros(1, 1));
        ps.restore(&[]);
    }
}
