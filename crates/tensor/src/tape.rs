//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Tape`] records a forward computation as a sequence of nodes; calling
//! [`Tape::backward`] on a scalar loss walks the tape in reverse and
//! accumulates gradients for every node. The op set is exactly what the
//! EDSR training objectives need (SimSiam, BarlowTwins, CaSSLe-style
//! distillation, DER logit matching, SI penalties).
//!
//! One tape corresponds to one training step. The tape owns a [`Scratch`]
//! arena: every node value and every gradient matrix is served from the
//! pool, and [`Tape::reset`] / [`Tape::recycle`] return them, so after a
//! warmup step the steady-state training loop performs zero heap
//! allocations in the forward/backward hot path (DESIGN.md §10).

use crate::matrix::Matrix;
use crate::scratch::Scratch;

/// Numerical floor used when normalizing rows, preventing division by zero.
const NORM_EPS: f32 = 1e-12;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Raw tape index (mostly useful for debugging).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Recorded operation; parents are earlier tape nodes.
enum Op {
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    AddRow(Var, Var),
    Scale(Var, f32),
    AddConst(Var),
    Relu(Var),
    Tanh(Var),
    Square(Var),
    Sum(Var),
    Mean(Var),
    RowNormalize(Var),
    ColStandardize(Var, f32),
    /// Stop-gradient: the parent var is recorded for debugging/inspection
    /// but the backward pass intentionally never reads it.
    Detach(#[allow(dead_code)] Var),
    Transpose(Var),
    MseLoss(Var, Var),
    /// Pure index gather: `out.data[i] = in.data[map[i]]`. Duplicated
    /// source indices are allowed (backward accumulates), which makes this
    /// one op sufficient for im2col-style convolution lowering and layout
    /// permutations.
    Gather(Var, std::sync::Arc<Vec<usize>>),
}

struct Node {
    op: Op,
    value: Matrix,
}

/// Gradients produced by [`Tape::backward`].
///
/// Hand the whole set back to [`Tape::recycle`] once the optimizer has
/// consumed it, so the gradient matrices return to the tape's scratch pool.
pub struct Grads {
    grads: Vec<Option<Matrix>>,
}

impl Grads {
    /// Gradient of the loss w.r.t. `var`, if any gradient flowed to it.
    pub fn get(&self, var: Var) -> Option<&Matrix> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Gradient of the loss w.r.t. `var`, or a zero matrix of its shape.
    pub fn get_or_zeros(&self, var: Var, rows: usize, cols: usize) -> Matrix {
        match self.get(var) {
            Some(g) => g.clone(),
            None => Matrix::zeros(rows, cols),
        }
    }
}

/// A recording of one forward computation.
///
/// ```
/// use edsr_tensor::{Matrix, Tape};
/// // L = sum((2x)^2) → dL/dx = 8x
/// let mut t = Tape::new();
/// let x = t.leaf(Matrix::from_vec(1, 2, vec![1.0, -3.0]));
/// let y = t.scale(x, 2.0);
/// let sq = t.square(y);
/// let loss = t.sum(sq);
/// let grads = t.backward(loss);
/// assert_eq!(grads.get(x).unwrap().data(), &[8.0, -24.0]);
/// ```
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    scratch: Scratch,
    /// Recycled `Grads` vector (kept empty between backward passes so its
    /// capacity is reused instead of reallocated).
    grads_pool: Vec<Option<Matrix>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears all recorded nodes, returning their value buffers to the
    /// scratch pool. Call once per training step before re-recording; the
    /// second and later steps then serve every node from the pool.
    pub fn reset(&mut self) {
        let Self { nodes, scratch, .. } = self;
        for node in nodes.drain(..) {
            scratch.give_matrix(node.value);
        }
    }

    /// Returns a consumed gradient set's matrices to the scratch pool and
    /// keeps its vector for the next [`backward`](Self::backward).
    pub fn recycle(&mut self, mut grads: Grads) {
        for slot in grads.grads.iter_mut() {
            if let Some(g) = slot.take() {
                self.scratch.give_matrix(g);
            }
        }
        grads.grads.clear();
        self.grads_pool = grads.grads;
    }

    /// The tape's scratch arena (pool diagnostics for allocation tests).
    pub fn scratch(&self) -> &Scratch {
        &self.scratch
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Records an input (leaf) node. Gradients accumulate on leaves but do
    /// not flow past them.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Records a leaf whose value is a pool-backed copy of `value` — the
    /// allocation-free counterpart of `leaf(value.clone())`.
    pub fn leaf_copy(&mut self, value: &Matrix) -> Var {
        let m = self.scratch.take_copy(value);
        self.push(Op::Leaf, m)
    }

    /// Records a constant leaf filled with `v` — the allocation-free
    /// counterpart of `leaf(Matrix::filled(rows, cols, v))`.
    pub fn leaf_filled(&mut self, rows: usize, cols: usize, v: f32) -> Var {
        let mut m = self.scratch.take_matrix(rows, cols);
        m.data_mut().fill(v);
        self.push(Op::Leaf, m)
    }

    /// Value of a node.
    pub fn value(&self, var: Var) -> &Matrix {
        &self.nodes[var.0].value
    }

    /// Mutable value of a node. Intended for initializing freshly recorded
    /// *leaves* in place (e.g. perturbing a [`leaf_copy`](Self::leaf_copy)
    /// with noise) — mutating a node after downstream ops have read it
    /// desynchronizes forward values from the recorded graph.
    pub fn value_mut(&mut self, var: Var) -> &mut Matrix {
        &mut self.nodes[var.0].value
    }

    /// `a (n x k) @ b (k x m)`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut out = scratch.take_matrix(va.rows(), vb.cols());
        va.matmul_into(vb, &mut out);
        self.push(Op::MatMul(a, b), out)
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut out = scratch.take_matrix(va.rows(), va.cols());
        va.zip_map_into(vb, &mut out, |x, y| x + y);
        self.push(Op::Add(a, b), out)
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut out = scratch.take_matrix(va.rows(), va.cols());
        va.zip_map_into(vb, &mut out, |x, y| x - y);
        self.push(Op::Sub(a, b), out)
    }

    /// Hadamard product `a ⊙ b`.
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut out = scratch.take_matrix(va.rows(), va.cols());
        va.zip_map_into(vb, &mut out, |x, y| x * y);
        self.push(Op::MulElem(a, b), out)
    }

    /// Adds a `1 x c` bias row to every row of `a`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let (va, vb) = (&nodes[a.0].value, &nodes[bias.0].value);
        let mut out = scratch.take_matrix(va.rows(), va.cols());
        va.add_row_broadcast_into(vb, &mut out);
        self.push(Op::AddRow(a, bias), out)
    }

    /// Scalar multiply `c * a`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let Self { nodes, scratch, .. } = self;
        let va = &nodes[a.0].value;
        let mut out = scratch.take_matrix(va.rows(), va.cols());
        va.scale_into(&mut out, c);
        self.push(Op::Scale(a, c), out)
    }

    /// Adds a constant matrix (no gradient into the constant). Used for the
    /// noise term `r(x^m)·σ` of the replay loss.
    pub fn add_const(&mut self, a: Var, constant: &Matrix) -> Var {
        let Self { nodes, scratch, .. } = self;
        let va = &nodes[a.0].value;
        let mut out = scratch.take_matrix(va.rows(), va.cols());
        va.zip_map_into(constant, &mut out, |x, y| x + y);
        self.push(Op::AddConst(a), out)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let va = &nodes[a.0].value;
        let mut out = scratch.take_matrix(va.rows(), va.cols());
        va.map_into(&mut out, |v| v.max(0.0));
        self.push(Op::Relu(a), out)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let va = &nodes[a.0].value;
        let mut out = scratch.take_matrix(va.rows(), va.cols());
        va.map_into(&mut out, f32::tanh);
        self.push(Op::Tanh(a), out)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let va = &nodes[a.0].value;
        let mut out = scratch.take_matrix(va.rows(), va.cols());
        va.map_into(&mut out, |v| v * v);
        self.push(Op::Square(a), out)
    }

    /// Sum of all elements, as a `1 x 1` matrix.
    pub fn sum(&mut self, a: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let total = nodes[a.0].value.sum();
        let mut out = scratch.take_matrix(1, 1);
        out.set(0, 0, total);
        self.push(Op::Sum(a), out)
    }

    /// Mean of all elements, as a `1 x 1` matrix.
    pub fn mean(&mut self, a: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let m = nodes[a.0].value.mean();
        let mut out = scratch.take_matrix(1, 1);
        out.set(0, 0, m);
        self.push(Op::Mean(a), out)
    }

    /// L2-normalizes each row (`y_i = x_i / max(‖x_i‖, ε)`).
    pub fn row_normalize(&mut self, a: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let x = &nodes[a.0].value;
        let (rows, cols) = x.shape();
        let mut out = scratch.take_copy(x);
        let kernel = |range: std::ops::Range<usize>, out_chunk: &mut [f32]| {
            // SIMD-dispatched: the norm is the canonical 8-lane-tree
            // self-dot (crate::simd), the division elementwise — both
            // bit-identical at every ISA level and thread count.
            for (local, r) in range.enumerate() {
                let row = x.row(r);
                let norm = crate::simd::dot(row, row).sqrt().max(NORM_EPS);
                crate::simd::div_scalar(&mut out_chunk[local * cols..(local + 1) * cols], norm);
            }
        };
        edsr_par::par_for_rows(out.data_mut(), rows, rows * cols, kernel);
        self.push(Op::RowNormalize(a), out)
    }

    /// Standardizes each column to zero mean / unit variance over the batch
    /// (the normalization BarlowTwins applies before the cross-correlation).
    pub fn col_standardize(&mut self, a: Var, eps: f32) -> Var {
        let Self { nodes, scratch, .. } = self;
        let x = &nodes[a.0].value;
        let (rows, cols) = x.shape();
        let mut out = scratch.take_matrix(rows, cols);
        for c in 0..cols {
            let mut mean = 0.0;
            for r in 0..rows {
                mean += x.get(r, c);
            }
            mean /= rows as f32;
            let mut var = 0.0;
            for r in 0..rows {
                let d = x.get(r, c) - mean;
                var += d * d;
            }
            var /= rows as f32;
            let s = (var + eps).sqrt();
            for r in 0..rows {
                out.set(r, c, (x.get(r, c) - mean) / s);
            }
        }
        self.push(Op::ColStandardize(a, eps), out)
    }

    /// Stop-gradient: copies the value, blocks the backward pass (the
    /// `sg(·)` operation of SimSiam, Eq. 3).
    pub fn detach(&mut self, a: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let value = scratch.take_copy(&nodes[a.0].value);
        self.push(Op::Detach(a), value)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let va = &nodes[a.0].value;
        let mut out = scratch.take_matrix(va.cols(), va.rows());
        va.transpose_into(&mut out);
        self.push(Op::Transpose(a), out)
    }

    /// Pure index gather: builds an `out_rows x out_cols` node whose
    /// element `i` (row-major) is `a`'s element `map[i]` (row-major).
    /// Source indices may repeat; gradients accumulate into repeated
    /// sources. This is the lowering primitive for im2col convolution and
    /// layout permutations.
    ///
    /// # Panics
    /// Panics if `map.len() != out_rows * out_cols` or any index is out of
    /// range for `a`.
    pub fn gather(
        &mut self,
        a: Var,
        map: std::sync::Arc<Vec<usize>>,
        out_rows: usize,
        out_cols: usize,
    ) -> Var {
        assert_eq!(
            map.len(),
            out_rows * out_cols,
            "gather: map length mismatch"
        );
        let Self { nodes, scratch, .. } = self;
        let src = &nodes[a.0].value;
        let src_data = src.data();
        let mut out = scratch.take_matrix(out_rows, out_cols);
        // Capture the index slice, not the `Rc` (an `Rc` is not `Sync`).
        let map_slice: &[usize] = &map;
        let fill = |range: std::ops::Range<usize>, out_chunk: &mut [f32]| {
            let start = range.start * out_cols;
            let idxs = &map_slice[start..start + out_chunk.len()];
            for (o, &idx) in out_chunk.iter_mut().zip(idxs) {
                assert!(idx < src_data.len(), "gather: index {idx} out of range");
                *o = src_data[idx];
            }
        };
        edsr_par::par_for_rows(out.data_mut(), out_rows, out_rows * out_cols, fill);
        self.push(Op::Gather(a, map), out)
    }

    /// Mean squared error between two same-shape matrices, as `1 x 1`.
    pub fn mse(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, scratch, .. } = self;
        let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "mse: shape mismatch");
        // Same accumulation order as `sub` + `map` + `mean`, without the
        // intermediate difference matrix.
        let mut total = 0.0f32;
        for (&x, &y) in va.data().iter().zip(vb.data()) {
            let d = x - y;
            total += d * d;
        }
        let value = total / va.len().max(1) as f32;
        let mut out = scratch.take_matrix(1, 1);
        out.set(0, 0, value);
        self.push(Op::MseLoss(a, b), out)
    }

    /// Mean cosine similarity between corresponding rows of `a` and `b`,
    /// as a `1 x 1` node. This is the `Sim(·,·)` used throughout the paper.
    pub fn cosine_rows_mean(&mut self, a: Var, b: Var) -> Var {
        let rows = self.value(a).rows();
        assert_eq!(rows, self.value(b).rows(), "cosine_rows_mean: row mismatch");
        let na = self.row_normalize(a);
        let nb = self.row_normalize(b);
        let prod = self.mul_elem(na, nb);
        let total = self.sum(prod);
        self.scale(total, 1.0 / rows.max(1) as f32)
    }

    /// Runs the backward pass from a scalar (`1 x 1`) loss node. Every
    /// gradient matrix is pool-backed; return the set with
    /// [`recycle`](Self::recycle) once consumed.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&mut self, loss: Var) -> Grads {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a 1x1 scalar node"
        );
        let Self {
            nodes,
            scratch,
            grads_pool,
        } = self;
        let mut grads = std::mem::take(grads_pool);
        grads.clear();
        grads.resize_with(nodes.len(), || None);
        let mut seed = scratch.take_matrix(1, 1);
        seed.set(0, 0, 1.0);
        grads[loss.0] = Some(seed);

        for idx in (0..=loss.0).rev() {
            let Some(g) = grads[idx].take() else { continue };
            // Re-insert so callers can read gradients of interior nodes too.
            let node = &nodes[idx];
            match &node.op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
                    let mut ga = scratch.take_matrix(g.rows(), vb.rows());
                    g.matmul_transpose_into(vb, &mut ga);
                    let mut gb = scratch.take_matrix(va.cols(), g.cols());
                    va.transpose_matmul_into(&g, &mut gb);
                    accumulate(&mut grads, scratch, *a, ga);
                    accumulate(&mut grads, scratch, *b, gb);
                }
                Op::Add(a, b) => {
                    let ga = scratch.take_copy(&g);
                    accumulate(&mut grads, scratch, *a, ga);
                    let gb = scratch.take_copy(&g);
                    accumulate(&mut grads, scratch, *b, gb);
                }
                Op::Sub(a, b) => {
                    let ga = scratch.take_copy(&g);
                    accumulate(&mut grads, scratch, *a, ga);
                    let mut gb = scratch.take_matrix(g.rows(), g.cols());
                    g.map_into(&mut gb, |v| -v);
                    accumulate(&mut grads, scratch, *b, gb);
                }
                Op::MulElem(a, b) => {
                    let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
                    let mut ga = scratch.take_matrix(g.rows(), g.cols());
                    g.zip_map_into(vb, &mut ga, |gv, bv| gv * bv);
                    let mut gb = scratch.take_matrix(g.rows(), g.cols());
                    g.zip_map_into(va, &mut gb, |gv, av| gv * av);
                    accumulate(&mut grads, scratch, *a, ga);
                    accumulate(&mut grads, scratch, *b, gb);
                }
                Op::AddRow(a, bias) => {
                    let ga = scratch.take_copy(&g);
                    accumulate(&mut grads, scratch, *a, ga);
                    // Column sums in ascending-row order (matches
                    // `Matrix::col_sums`), written without allocating.
                    let mut gbias = scratch.take_matrix(1, g.cols());
                    for r in 0..g.rows() {
                        for (o, &v) in gbias.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    accumulate(&mut grads, scratch, *bias, gbias);
                }
                Op::Scale(a, c) => {
                    let mut ga = scratch.take_matrix(g.rows(), g.cols());
                    g.scale_into(&mut ga, *c);
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::AddConst(a) => {
                    let ga = scratch.take_copy(&g);
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::Relu(a) => {
                    let x = &nodes[a.0].value;
                    let mut ga = scratch.take_matrix(g.rows(), g.cols());
                    g.zip_map_into(x, &mut ga, |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::Tanh(a) => {
                    let y = &node.value;
                    let mut ga = scratch.take_matrix(g.rows(), g.cols());
                    g.zip_map_into(y, &mut ga, |gv, yv| gv * (1.0 - yv * yv));
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::Square(a) => {
                    let x = &nodes[a.0].value;
                    let mut ga = scratch.take_matrix(g.rows(), g.cols());
                    g.zip_map_into(x, &mut ga, |gv, xv| 2.0 * gv * xv);
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::Sum(a) => {
                    let x = &nodes[a.0].value;
                    let mut ga = scratch.take_matrix(x.rows(), x.cols());
                    ga.data_mut().fill(g.get(0, 0));
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::Mean(a) => {
                    let x = &nodes[a.0].value;
                    let scale = g.get(0, 0) / x.len().max(1) as f32;
                    let mut ga = scratch.take_matrix(x.rows(), x.cols());
                    ga.data_mut().fill(scale);
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::RowNormalize(a) => {
                    let x = &nodes[a.0].value;
                    let y = &node.value;
                    let mut ga = scratch.take_matrix(x.rows(), x.cols());
                    for r in 0..x.rows() {
                        // Same canonical reductions as the forward pass, so
                        // the backward norm matches its bits exactly.
                        let xr = x.row(r);
                        let norm = crate::simd::dot(xr, xr).sqrt().max(NORM_EPS);
                        let dot = crate::simd::dot(g.row(r), y.row(r));
                        for (c, out) in ga.row_mut(r).iter_mut().enumerate() {
                            *out = (g.get(r, c) - y.get(r, c) * dot) / norm;
                        }
                    }
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::ColStandardize(a, eps) => {
                    let x = &nodes[a.0].value;
                    let y = &node.value;
                    let (rows, cols) = x.shape();
                    let n = rows as f32;
                    let mut ga = scratch.take_matrix(rows, cols);
                    for c in 0..cols {
                        let mut mean = 0.0;
                        for r in 0..rows {
                            mean += x.get(r, c);
                        }
                        mean /= n;
                        let mut var = 0.0;
                        for r in 0..rows {
                            let d = x.get(r, c) - mean;
                            var += d * d;
                        }
                        var /= n;
                        let s = (var + eps).sqrt();
                        let mut g_mean = 0.0;
                        let mut gy_mean = 0.0;
                        for r in 0..rows {
                            g_mean += g.get(r, c);
                            gy_mean += g.get(r, c) * y.get(r, c);
                        }
                        g_mean /= n;
                        gy_mean /= n;
                        for r in 0..rows {
                            let v = (g.get(r, c) - g_mean - y.get(r, c) * gy_mean) / s;
                            ga.set(r, c, v);
                        }
                    }
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::Detach(_) => {}
                Op::Transpose(a) => {
                    let mut ga = scratch.take_matrix(g.cols(), g.rows());
                    g.transpose_into(&mut ga);
                    accumulate(&mut grads, scratch, *a, ga);
                }
                Op::MseLoss(a, b) => {
                    let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
                    let scale = 2.0 * g.get(0, 0) / va.len().max(1) as f32;
                    let mut ga = scratch.take_matrix(va.rows(), va.cols());
                    va.zip_map_into(vb, &mut ga, |x, y| (x - y) * scale);
                    let mut gb = scratch.take_matrix(va.rows(), va.cols());
                    va.zip_map_into(vb, &mut gb, |x, y| (x - y) * -scale);
                    accumulate(&mut grads, scratch, *a, ga);
                    accumulate(&mut grads, scratch, *b, gb);
                }
                Op::Gather(a, map) => {
                    let src = &nodes[a.0].value;
                    // `take_matrix` zero-fills, which the scatter-add needs.
                    let mut ga = scratch.take_matrix(src.rows(), src.cols());
                    for (i, &idx) in map.iter().enumerate() {
                        ga.data_mut()[idx] += g.data()[i];
                    }
                    accumulate(&mut grads, scratch, *a, ga);
                }
            }
            grads[idx] = Some(g);
        }
        Grads { grads }
    }
}

/// Adds `g` into the slot for `var`, returning `g`'s buffer to the pool
/// when the slot already holds a gradient.
fn accumulate(grads: &mut [Option<Matrix>], scratch: &mut Scratch, var: Var, g: Matrix) {
    match &mut grads[var.0] {
        Some(existing) => {
            existing.add_assign(&g);
            scratch.give_matrix(g);
        }
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::rng::seeded;

    #[test]
    fn tape_bookkeeping() {
        let mut t = Tape::new();
        assert!(t.is_empty());
        let a = t.leaf(Matrix::zeros(1, 1));
        assert_eq!(t.len(), 1);
        assert_eq!(a.index(), 0);
        assert_eq!(t.value(a).shape(), (1, 1));
    }

    #[test]
    fn grads_get_or_zeros_shapes() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::filled(2, 3, 1.0));
        let d = t.detach(a);
        let sq = t.square(d);
        let loss = t.sum(sq);
        let g = t.backward(loss);
        // `a` got no gradient (behind detach) → zeros of requested shape.
        let z = g.get_or_zeros(a, 2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.sum(), 0.0);
    }

    #[test]
    fn forward_matmul_add() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c).get(0, 0), 11.0);
    }

    #[test]
    fn backward_requires_scalar() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        let r = t.relu(a);
        let s = t.sum(r);
        let _ = t.backward(s); // scalar: fine
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_on_matrix_panics() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        let r = t.relu(a);
        let _ = t.backward(r);
    }

    #[test]
    fn simple_chain_gradient() {
        // L = sum((2x)^2) = 4 * sum(x^2); dL/dx = 8x
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]));
        let sx = t.scale(x, 2.0);
        let sq = t.square(sx);
        let loss = t.sum(sq);
        let g = t.backward(loss);
        let gx = g.get(x).unwrap();
        assert_eq!(gx.data(), &[8.0, -16.0, 24.0]);
    }

    #[test]
    fn detach_blocks_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::filled(1, 2, 3.0));
        let d = t.detach(x);
        let sq = t.square(d);
        let loss = t.sum(sq);
        let g = t.backward(loss);
        assert!(g.get(x).is_none(), "gradient leaked through detach");
        assert!(g.get(d).is_some());
    }

    #[test]
    fn gradient_accumulates_over_reuse() {
        // L = sum(x ⊙ x') where both operands are the same node: dL/dx = 2x.
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 2, vec![3.0, -1.0]));
        let p = t.mul_elem(x, x);
        let loss = t.sum(p);
        let g = t.backward(loss);
        assert_eq!(g.get(x).unwrap().data(), &[6.0, -2.0]);
    }

    #[test]
    fn reset_recycles_node_buffers() {
        let mut t = Tape::new();
        let run = |t: &mut Tape| {
            let x = t.leaf_copy(&Matrix::filled(8, 8, 2.0));
            let y = t.square(x);
            let s = t.sum(y);
            let grads = t.backward(s);
            assert_eq!(grads.get(x).unwrap().get(0, 0), 4.0);
            t.recycle(grads);
            t.reset();
        };
        run(&mut t); // warmup populates the pool
        let misses = t.scratch().misses();
        run(&mut t);
        run(&mut t);
        assert_eq!(t.scratch().misses(), misses, "steady-state tape allocated");
    }

    #[test]
    fn leaf_copy_matches_leaf() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut t = Tape::new();
        let a = t.leaf_copy(&m);
        assert_eq!(t.value(a), &m);
        // The copy is independent of the source.
        t.value_mut(a).set(0, 0, 9.0);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn gradcheck_matmul() {
        let mut rng = seeded(21);
        let a = Matrix::randn(3, 4, 1.0, &mut rng);
        let b = Matrix::randn(4, 2, 1.0, &mut rng);
        check_gradients(&[a, b], 1e-2, 2e-2, |t, vars| {
            let m = t.matmul(vars[0], vars[1]);
            let s = t.square(m);
            t.sum(s)
        });
    }

    #[test]
    fn gradcheck_add_sub_mul() {
        let mut rng = seeded(22);
        let a = Matrix::randn(2, 3, 1.0, &mut rng);
        let b = Matrix::randn(2, 3, 1.0, &mut rng);
        check_gradients(&[a, b], 1e-2, 2e-2, |t, vars| {
            let s = t.add(vars[0], vars[1]);
            let d = t.sub(s, vars[1]);
            let m = t.mul_elem(d, vars[1]);
            t.sum(m)
        });
    }

    #[test]
    fn gradcheck_add_row_bias() {
        let mut rng = seeded(23);
        let a = Matrix::randn(4, 3, 1.0, &mut rng);
        let bias = Matrix::randn(1, 3, 1.0, &mut rng);
        check_gradients(&[a, bias], 1e-2, 2e-2, |t, vars| {
            let y = t.add_row(vars[0], vars[1]);
            let sq = t.square(y);
            t.sum(sq)
        });
    }

    #[test]
    fn gradcheck_relu_tanh() {
        let mut rng = seeded(24);
        // Keep values away from the ReLU kink for a stable finite-difference.
        let a = Matrix::randn(3, 3, 1.0, &mut rng).map(|v| if v.abs() < 0.2 { v + 0.5 } else { v });
        check_gradients(&[a], 1e-3, 2e-2, |t, vars| {
            let r = t.relu(vars[0]);
            let h = t.tanh(r);
            let s = t.square(h);
            t.sum(s)
        });
    }

    #[test]
    fn gradcheck_mean() {
        let mut rng = seeded(25);
        let a = Matrix::randn(3, 5, 1.0, &mut rng);
        check_gradients(&[a], 1e-2, 2e-2, |t, vars| {
            let sq = t.square(vars[0]);
            t.mean(sq)
        });
    }

    #[test]
    fn gradcheck_row_normalize() {
        let mut rng = seeded(26);
        let a = Matrix::randn(3, 4, 1.0, &mut rng).map(|v| v + 0.1);
        let w = Matrix::randn(3, 4, 1.0, &mut rng);
        check_gradients(&[a, w], 1e-3, 3e-2, |t, vars| {
            let n = t.row_normalize(vars[0]);
            let p = t.mul_elem(n, vars[1]);
            t.sum(p)
        });
    }

    #[test]
    fn gradcheck_col_standardize() {
        let mut rng = seeded(27);
        let a = Matrix::randn(5, 3, 1.0, &mut rng);
        let w = Matrix::randn(5, 3, 1.0, &mut rng);
        check_gradients(&[a, w], 1e-3, 5e-2, |t, vars| {
            let n = t.col_standardize(vars[0], 1e-4);
            let p = t.mul_elem(n, vars[1]);
            t.sum(p)
        });
    }

    #[test]
    fn gradcheck_mse() {
        let mut rng = seeded(28);
        let a = Matrix::randn(3, 4, 1.0, &mut rng);
        let b = Matrix::randn(3, 4, 1.0, &mut rng);
        check_gradients(&[a, b], 1e-2, 2e-2, |t, vars| t.mse(vars[0], vars[1]));
    }

    #[test]
    fn gradcheck_transpose() {
        let mut rng = seeded(29);
        let a = Matrix::randn(2, 3, 1.0, &mut rng);
        let b = Matrix::randn(3, 2, 1.0, &mut rng);
        check_gradients(&[a, b], 1e-2, 2e-2, |t, vars| {
            let at = t.transpose(vars[0]);
            let p = t.mul_elem(at, vars[1]);
            t.sum(p)
        });
    }

    #[test]
    fn gradcheck_cosine_rows_mean() {
        let mut rng = seeded(30);
        let a = Matrix::randn(4, 6, 1.0, &mut rng);
        let b = Matrix::randn(4, 6, 1.0, &mut rng);
        check_gradients(&[a, b], 1e-3, 3e-2, |t, vars| {
            t.cosine_rows_mean(vars[0], vars[1])
        });
    }

    #[test]
    fn cosine_identical_rows_is_one() {
        let mut rng = seeded(31);
        let a = Matrix::randn(5, 8, 1.0, &mut rng);
        let mut t = Tape::new();
        let v = t.leaf(a);
        let c = t.cosine_rows_mean(v, v);
        assert!((t.value(c).get(0, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_opposite_rows_is_minus_one() {
        let mut rng = seeded(32);
        let a = Matrix::randn(5, 8, 1.0, &mut rng);
        let neg = a.scale(-1.0);
        let mut t = Tape::new();
        let va = t.leaf(a);
        let vb = t.leaf(neg);
        let c = t.cosine_rows_mean(va, vb);
        assert!((t.value(c).get(0, 0) + 1.0).abs() < 1e-5);
    }

    #[test]
    fn col_standardize_output_stats() {
        let mut rng = seeded(33);
        let a = Matrix::randn(64, 5, 3.0, &mut rng).map(|v| v + 10.0);
        let mut t = Tape::new();
        let v = t.leaf(a);
        let s = t.col_standardize(v, 1e-5);
        let out = t.value(s);
        let means = out.col_means();
        assert!(
            means.data().iter().all(|m| m.abs() < 1e-4),
            "nonzero means {means:?}"
        );
        for c in 0..out.cols() {
            let var: f32 =
                (0..out.rows()).map(|r| out.get(r, c).powi(2)).sum::<f32>() / out.rows() as f32;
            assert!((var - 1.0).abs() < 1e-3, "column variance {var}");
        }
    }

    #[test]
    fn gather_forward_and_backward() {
        use std::sync::Arc;
        let mut t = Tape::new();
        // input 1x3: [10, 20, 30]; gather with duplicates into 2x2.
        let x = t.leaf(Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]));
        let map = Arc::new(vec![0usize, 2, 2, 1]);
        let y = t.gather(x, map, 2, 2);
        assert_eq!(t.value(y).data(), &[10.0, 30.0, 30.0, 20.0]);
        let sq = t.square(y);
        let loss = t.sum(sq);
        let g = t.backward(loss);
        // dL/dx_k = sum over outputs drawing from k of 2*value:
        // x0 once (2*10), x1 once (2*20), x2 twice (2*30 + 2*30).
        assert_eq!(g.get(x).unwrap().data(), &[20.0, 40.0, 120.0]);
    }

    #[test]
    fn gradcheck_gather_with_duplicates() {
        use std::sync::Arc;
        let mut rng = seeded(34);
        let a = Matrix::randn(2, 3, 1.0, &mut rng);
        let map = Arc::new(vec![0usize, 5, 1, 1, 4, 2, 3, 0]);
        check_gradients(&[a], 1e-2, 2e-2, |t, vars| {
            let y = t.gather(vars[0], Arc::clone(&map), 2, 4);
            let sq = t.square(y);
            t.sum(sq)
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_bad_index_panics() {
        use std::sync::Arc;
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(1, 2));
        let _ = t.gather(x, Arc::new(vec![5usize]), 1, 1);
    }

    #[test]
    fn add_const_passes_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::filled(1, 2, 1.0));
        let noise = Matrix::filled(1, 2, 0.5);
        let y = t.add_const(x, &noise);
        let sq = t.square(y);
        let loss = t.sum(sq);
        assert_eq!(t.value(y).data(), &[1.5, 1.5]);
        let g = t.backward(loss);
        assert_eq!(g.get(x).unwrap().data(), &[3.0, 3.0]);
    }
}
