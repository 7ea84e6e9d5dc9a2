//! Principal Component Analysis and the lossy-coding-length entropy
//! estimate (paper §III-A).
//!
//! PCA here serves two roles in the reproduction:
//! 1. the *practical* reading of Eq. 15 — "maximize the sum of singular
//!    values of M̂ via PCA" — used by the high-entropy selector, and
//! 2. the entropy estimate `H(M)` itself (lossy coding length, after
//!    Ma et al. and Liu et al. \[66\], \[67\]).

use edsr_tensor::{Matrix, Scratch};

use crate::eigen::sym_eigen;

/// Fixed sample-chunk height of the parallel covariance reduction in
/// [`Pca::fit`]. Chunk boundaries depend only on the sample count and this
/// constant — never on the thread count — and the per-chunk partial
/// covariances are folded in ascending chunk order, so the float summation
/// tree (and therefore every bit of the result) is the same at any
/// `EDSR_THREADS` (DESIGN.md §9).
const COV_CHUNK_ROWS: usize = 64;

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Column means of the training data (`1 x d`).
    pub mean: Matrix,
    /// Principal directions as **columns** (`d x k`), descending variance.
    pub components: Matrix,
    /// Variance captured by each component, descending.
    pub explained_variance: Vec<f32>,
}

impl Pca {
    /// Fits PCA on `x` (rows = samples), keeping at most `k` components.
    ///
    /// `k` is clamped to `min(d, requested)`. Components with numerically
    /// negative variance (Jacobi noise) are clamped to zero variance.
    pub fn fit(x: &Matrix, k: usize) -> Pca {
        Self::fit_with_scratch(x, k, &mut Scratch::new())
    }

    /// [`fit`](Self::fit) with the centered-data and covariance working
    /// buffers drawn from a caller-provided [`Scratch`] pool, so repeated
    /// fits (e.g. a greedy selection loop) reuse them instead of
    /// reallocating. Bit-identical to [`fit`](Self::fit).
    pub fn fit_with_scratch(x: &Matrix, k: usize, scratch: &mut Scratch) -> Pca {
        let d = x.cols();
        let k = k.min(d);
        let n = x.rows();
        let mean = x.col_means();
        let mut centered = scratch.take_copy(x);
        for r in 0..n {
            for (v, &m) in centered.row_mut(r).iter_mut().zip(mean.row(0)) {
                *v -= m;
            }
        }
        // Scatter matrix Σ xᵢᵀxᵢ as a chunked parallel reduction: partial
        // sums over fixed `COV_CHUNK_ROWS`-sample chunks, folded serially
        // in chunk order (see `COV_CHUNK_ROWS` for the determinism
        // argument). All chunk accumulators live in one pooled matrix
        // (row `ci` = chunk `ci`'s `d x d` partial) hoisted out of the
        // chunk loop, so repeated fits reuse a single buffer instead of
        // allocating per chunk; the inner row update is the dispatched
        // SIMD axpy (elementwise — order-preserving).
        let mut cov = scratch.take_matrix(d, d);
        if n > 0 && d > 0 {
            let n_chunks = n.div_ceil(COV_CHUNK_ROWS);
            let mut partials = scratch.take_matrix(n_chunks, d * d);
            let centered_ref = &centered;
            edsr_par::par_for_rows(partials.data_mut(), n_chunks, n * d * d, |chunks, out| {
                for (local, ci) in chunks.enumerate() {
                    let acc = &mut out[local * d * d..(local + 1) * d * d];
                    let lo = ci * COV_CHUNK_ROWS;
                    let hi = n.min(lo + COV_CHUNK_ROWS);
                    for i in lo..hi {
                        let xi = centered_ref.row(i);
                        for (p, &a) in xi.iter().enumerate() {
                            edsr_tensor::simd::axpy(&mut acc[p * d..(p + 1) * d], xi, a);
                        }
                    }
                }
            });
            for ci in 0..n_chunks {
                edsr_tensor::simd::add_assign(cov.data_mut(), partials.row(ci));
            }
            scratch.give_matrix(partials);
        }
        if n > 1 {
            cov.scale_inplace(1.0 / (n as f32 - 1.0));
        }
        let eig = sym_eigen(&cov);
        scratch.give_matrix(centered);
        scratch.give_matrix(cov);
        let mut components = Matrix::zeros(d, k);
        let mut explained = Vec::with_capacity(k);
        for j in 0..k {
            for r in 0..d {
                components.set(r, j, eig.vectors.get(r, j));
            }
            explained.push(eig.values[j].max(0.0));
        }
        Pca {
            mean,
            components,
            explained_variance: explained,
        }
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.cols()
    }

    /// Projects samples into the component space (`n x k` scores).
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.mean.cols(), "transform: dimension mismatch");
        let mut centered = x.clone();
        for r in 0..centered.rows() {
            for c in 0..centered.cols() {
                let v = centered.get(r, c) - self.mean.get(0, c);
                centered.set(r, c, v);
            }
        }
        centered.matmul(&self.components)
    }

    /// Fraction of total variance captured by the retained components.
    pub fn explained_variance_ratio(&self, total_variance: f32) -> f32 {
        if total_variance <= 0.0 {
            return 0.0;
        }
        self.explained_variance.iter().sum::<f32>() / total_variance
    }
}

/// Lossy-coding-length entropy of a representation set `M̂` (paper Eq.
/// before (14)):
///
/// `H(M) = (|M| + d)/2 · log det(I_d + d/(|M| ε²) · M̂ᵀM̂)`
///
/// The determinant over the `|M| x |M|` Gram matrix in the paper equals the
/// determinant over the `d x d` Gram by Sylvester's identity; we use the
/// `d x d` form, which is cheaper whenever `|M| > d`.
pub fn coding_length_entropy(reps: &Matrix, eps: f32) -> f32 {
    let n = reps.rows();
    let d = reps.cols();
    if n == 0 || d == 0 {
        return 0.0;
    }
    let scale = d as f32 / (n as f32 * eps * eps);
    let mut gram = reps.transpose_matmul(reps);
    gram.scale_inplace(scale);
    for i in 0..d {
        gram.add_at(i, i, 1.0);
    }
    let eig = sym_eigen(&gram);
    let log_det: f32 = eig.values.iter().map(|&v| v.max(1e-12).ln()).sum();
    0.5 * (n + d) as f32 * log_det
}

/// The trace surrogate of Eq. 15: `Tr(Cov(M̂)) = Tr(M̂ᵀM̂) = Σ ‖row‖²`.
pub fn trace_surrogate(reps: &Matrix) -> f32 {
    reps.data().iter().map(|v| v * v).sum()
}

/// Reference implementation of [`coding_length_entropy`] using the
/// paper's literal `|M| x |M|` Gram form
/// (`H = (|M|+d)/2 · log det(I_{|M|} + d/(|M|ε²)·M̂M̂ᵀ)`).
///
/// `O(n³)` — used to validate the `d x d` fast path (equal by Sylvester's
/// determinant identity); prefer [`coding_length_entropy`].
pub fn coding_length_entropy_reference(reps: &Matrix, eps: f32) -> f32 {
    let n = reps.rows();
    let d = reps.cols();
    if n == 0 || d == 0 {
        return 0.0;
    }
    let scale = d as f32 / (n as f32 * eps * eps);
    let mut gram = reps.matmul_transpose(reps);
    gram.scale_inplace(scale);
    for i in 0..n {
        gram.add_at(i, i, 1.0);
    }
    let eig = sym_eigen(&gram);
    let log_det: f32 = eig.values.iter().map(|&v| v.max(1e-12).ln()).sum();
    0.5 * (n + d) as f32 * log_det
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;

    /// Builds data stretched along a known direction.
    fn anisotropic_data(n: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        let mut x = Matrix::zeros(n, 3);
        for r in 0..n {
            let t = edsr_tensor::rng::gaussian(&mut rng) * 5.0; // dominant axis
            let u = edsr_tensor::rng::gaussian(&mut rng) * 0.5;
            let w = edsr_tensor::rng::gaussian(&mut rng) * 0.1;
            // dominant direction = (1, 1, 0)/√2
            x.set(r, 0, t / 2f32.sqrt() + w);
            x.set(r, 1, t / 2f32.sqrt() - w);
            x.set(r, 2, u);
        }
        x
    }

    #[test]
    fn first_component_finds_dominant_direction() {
        let x = anisotropic_data(500, 60);
        let pca = Pca::fit(&x, 2);
        let c0 = (
            pca.components.get(0, 0),
            pca.components.get(1, 0),
            pca.components.get(2, 0),
        );
        let expected = std::f32::consts::FRAC_1_SQRT_2;
        assert!((c0.0.abs() - expected).abs() < 0.05, "{c0:?}");
        assert!((c0.1.abs() - expected).abs() < 0.05, "{c0:?}");
        assert!(c0.2.abs() < 0.1, "{c0:?}");
    }

    #[test]
    fn explained_variance_descending_and_positive() {
        let x = anisotropic_data(300, 61);
        let pca = Pca::fit(&x, 3);
        for w in pca.explained_variance.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(pca.explained_variance[0] > pca.explained_variance[2] * 10.0);
    }

    #[test]
    fn transform_shape_and_variance() {
        let x = anisotropic_data(200, 62);
        let pca = Pca::fit(&x, 2);
        let scores = pca.transform(&x);
        assert_eq!(scores.shape(), (200, 2));
        // Score columns should be zero-mean.
        assert!(scores.col_means().data().iter().all(|m| m.abs() < 0.2));
    }

    #[test]
    fn k_clamped_to_dimension() {
        let x = anisotropic_data(50, 63);
        let pca = Pca::fit(&x, 99);
        assert_eq!(pca.n_components(), 3);
    }

    #[test]
    fn components_orthonormal() {
        let x = anisotropic_data(100, 64);
        let pca = Pca::fit(&x, 3);
        let gram = pca.components.transpose_matmul(&pca.components);
        assert!(gram.max_abs_diff(&Matrix::identity(3)) < 1e-3);
    }

    #[test]
    fn fit_with_scratch_matches_fit_and_reuses_buffers() {
        let x = anisotropic_data(128, 69);
        let plain = Pca::fit(&x, 3);
        let mut scratch = Scratch::new();
        let pooled = Pca::fit_with_scratch(&x, 3, &mut scratch);
        assert_eq!(plain.mean.max_abs_diff(&pooled.mean), 0.0);
        assert_eq!(plain.components.max_abs_diff(&pooled.components), 0.0);
        assert_eq!(plain.explained_variance, pooled.explained_variance);
        // Warm pool: further fits take every working buffer from it.
        let misses = scratch.misses();
        let _ = Pca::fit_with_scratch(&x, 3, &mut scratch);
        let _ = Pca::fit_with_scratch(&x, 3, &mut scratch);
        assert_eq!(scratch.misses(), misses, "warm fit hit the allocator");
    }

    #[test]
    fn entropy_monotone_in_subset() {
        let mut rng = seeded(65);
        let x = Matrix::randn(30, 6, 1.0, &mut rng);
        let sub = x.select_rows(&(0..10).collect::<Vec<_>>());
        let h_all = coding_length_entropy(&x, 0.5);
        let h_sub = coding_length_entropy(&sub, 0.5);
        assert!(h_all > h_sub, "H(all)={h_all} H(sub)={h_sub}");
    }

    #[test]
    fn entropy_prefers_diverse_sets() {
        let mut rng = seeded(66);
        // Diverse: isotropic Gaussian; Clumped: same norm, single direction.
        let diverse = Matrix::randn(20, 5, 1.0, &mut rng);
        let mut clumped = Matrix::zeros(20, 5);
        for r in 0..20 {
            clumped.set(
                r,
                0,
                diverse.row(r).iter().map(|v| v * v).sum::<f32>().sqrt(),
            );
        }
        let h_div = coding_length_entropy(&diverse, 0.5);
        let h_clu = coding_length_entropy(&clumped, 0.5);
        assert!(h_div > h_clu, "H(diverse)={h_div} H(clumped)={h_clu}");
    }

    #[test]
    fn entropy_of_empty_is_zero() {
        assert_eq!(coding_length_entropy(&Matrix::zeros(0, 4), 0.5), 0.0);
    }

    #[test]
    fn fast_entropy_matches_gram_reference() {
        // Sylvester's identity: det(I_d + AᵀA·s) == det(I_n + AAᵀ·s).
        let mut rng = seeded(68);
        for (n, d) in [(12usize, 5usize), (4, 9), (7, 7)] {
            let x = Matrix::randn(n, d, 1.0, &mut rng);
            let fast = coding_length_entropy(&x, 0.5);
            let reference = coding_length_entropy_reference(&x, 0.5);
            let denom = 1.0f32.max(reference.abs());
            assert!(
                ((fast - reference).abs() / denom) < 1e-2,
                "{n}x{d}: fast {fast} vs reference {reference}"
            );
        }
    }

    #[test]
    fn trace_surrogate_equals_sum_row_norms_sq() {
        let mut rng = seeded(67);
        let x = Matrix::randn(10, 4, 1.0, &mut rng);
        let expected: f32 = (0..10)
            .map(|r| x.row(r).iter().map(|v| v * v).sum::<f32>())
            .sum();
        assert!((trace_surrogate(&x) - expected).abs() < 1e-4);
    }
}
