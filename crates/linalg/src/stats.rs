//! Descriptive statistics and distance computations over row-sample
//! matrices (rows = samples, columns = features).

use edsr_tensor::Matrix;

/// Per-column standard deviation (population) as a `1 x d` row vector.
pub fn col_std(x: &Matrix) -> Matrix {
    let mean = x.col_means();
    let mut acc = Matrix::zeros(1, x.cols());
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            let d = x.get(r, c) - mean.get(0, c);
            acc.add_at(0, c, d * d);
        }
    }
    if x.rows() > 0 {
        acc.scale_inplace(1.0 / x.rows() as f32);
    }
    acc.map(f32::sqrt)
}

/// Mean of the per-column standard deviations: the scalar `Std(·)` used for
/// the paper's noise magnitude `r(x^m)` (a single scale for a set of
/// representations).
pub fn scalar_std(x: &Matrix) -> f32 {
    if x.rows() <= 1 {
        return 0.0;
    }
    col_std(x).mean()
}

/// Gram covariance `Cov(A) = AᵀA` as used by the paper's entropy estimate
/// (Eq. 14 context; note: *not* mean-centered).
pub fn gram_covariance(x: &Matrix) -> Matrix {
    x.transpose_matmul(x)
}

/// Squared Euclidean distance between two equal-length slices.
///
/// Runs through [`edsr_tensor::simd`]: the accumulation order is the
/// canonical 8-lane interleaved tree in every build (DESIGN.md §15) — kNN
/// neighbor lists therefore never depend on the host.
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    edsr_tensor::simd::sq_euclidean(a, b)
}

/// Cosine similarity between two equal-length slices (0 when either is ~0).
///
/// Built from three canonical 8-lane-tree dot products (see
/// [`sq_euclidean`]), so it is likewise bit-identical in every build.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    cosine_from_parts(edsr_tensor::simd::dot(a, b), norm(a), norm(b))
}

/// Euclidean norm of a slice, from the canonical-tree [`edsr_tensor::simd::dot`].
pub(crate) fn norm(a: &[f32]) -> f32 {
    edsr_tensor::simd::dot(a, a).sqrt()
}

/// Cosine similarity from a dot product and the two norms (0 when either
/// norm is ~0). [`cosine_similarity`] is this over [`norm`]s, so callers
/// that compute norms once and reuse them get the same bits.
pub(crate) fn cosine_from_parts(dot: f32, norm_a: f32, norm_b: f32) -> f32 {
    let denom = norm_a * norm_b;
    if denom < 1e-12 {
        0.0
    } else {
        dot / denom
    }
}

/// All pairwise squared Euclidean distances between rows of `a` and `b`
/// (`a.rows() x b.rows()`).
pub fn pairwise_sq_euclidean(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "pairwise distances need equal widths");
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            out.set(i, j, sq_euclidean(a.row(i), b.row(j)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;

    #[test]
    fn col_mean_and_std_known() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 10.0, 3.0, 20.0]);
        assert_eq!(x.col_means().data(), &[2.0, 15.0]);
        let s = col_std(&x);
        assert!((s.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((s.get(0, 1) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn scalar_std_single_row_is_zero() {
        let x = Matrix::from_vec(1, 3, vec![5.0, -1.0, 2.0]);
        assert_eq!(scalar_std(&x), 0.0);
    }

    #[test]
    fn gram_covariance_is_symmetric_psd_diagonal() {
        let mut rng = seeded(42);
        let x = Matrix::randn(10, 5, 1.0, &mut rng);
        let g = gram_covariance(&x);
        assert_eq!(g.shape(), (5, 5));
        for i in 0..5 {
            assert!(g.get(i, i) >= 0.0);
            for j in 0..5 {
                assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gram_trace_monotone_under_subset() {
        // Tr(Cov(M')) <= Tr(Cov(M'')) for M' ⊂ M'' — the paper's entropy
        // monotonicity argument under Cov(A)=AᵀA.
        let mut rng = seeded(43);
        let x = Matrix::randn(12, 4, 1.0, &mut rng);
        let sub = x.select_rows(&[0, 2, 5]);
        assert!(gram_covariance(&sub).trace() <= gram_covariance(&x).trace() + 1e-5);
    }

    #[test]
    fn cosine_similarity_bounds_and_degenerate() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn pairwise_distances_diagonal_zero() {
        let mut rng = seeded(44);
        let x = Matrix::randn(6, 3, 1.0, &mut rng);
        let d = pairwise_sq_euclidean(&x, &x);
        for i in 0..6 {
            assert!(d.get(i, i).abs() < 1e-6);
        }
        assert!((d.get(0, 1) - d.get(1, 0)).abs() < 1e-5);
    }
}
