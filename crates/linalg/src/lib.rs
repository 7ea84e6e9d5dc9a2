//! # edsr-linalg
//!
//! Classical linear algebra and clustering substrate for the EDSR
//! reproduction: symmetric eigendecomposition (Jacobi), PCA and the
//! lossy-coding-length entropy estimate driving the paper's data selection
//! (§III-A), k-means / k-means++ (baseline selectors of Table V), exact
//! kNN search (evaluation protocol and the replay-noise magnitude of
//! §III-B), and sample statistics.

pub mod eigen;
pub mod kmeans;
pub mod knn;
pub mod pca;
pub mod stats;

pub use eigen::{sym_eigen, SymEigen};
pub use kmeans::{kmeans, kmeanspp_indices, nearest_to_centers, KMeansResult};
pub use knn::{top_k_into, KnnQuery, Metric, Neighbor};
pub use pca::{coding_length_entropy, coding_length_entropy_reference, trace_surrogate, Pca};

#[cfg(test)]
mod proptests {
    use super::*;
    use edsr_tensor::Matrix;
    use proptest::prelude::*;

    fn sample_matrix() -> impl Strategy<Value = Matrix> {
        (2usize..12, 2usize..6).prop_flat_map(|(n, d)| {
            proptest::collection::vec(-5.0f32..5.0, n * d)
                .prop_map(move |data| Matrix::from_vec(n, d, data))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pca_spectrum_descending(x in sample_matrix()) {
            let pca = Pca::fit(&x, x.cols());
            for w in pca.explained_variance.windows(2) {
                prop_assert!(w[0] >= w[1] - 1e-4);
            }
            prop_assert!(pca.explained_variance.iter().all(|&v| v >= 0.0));
        }

        #[test]
        fn pca_components_orthonormal(x in sample_matrix()) {
            let pca = Pca::fit(&x, x.cols());
            let k = pca.n_components();
            let gram = pca.components.transpose_matmul(&pca.components);
            prop_assert!(gram.max_abs_diff(&Matrix::identity(k)) < 1e-2);
        }

        #[test]
        fn entropy_monotone_under_row_removal(x in sample_matrix()) {
            prop_assume!(x.rows() >= 3);
            let sub = x.select_rows(&(0..x.rows() - 1).collect::<Vec<_>>());
            let h_full = coding_length_entropy(&x, 0.5);
            let h_sub = coding_length_entropy(&sub, 0.5);
            prop_assert!(h_full >= h_sub - 1e-2, "H shrank: {} vs {}", h_full, h_sub);
        }

        #[test]
        fn trace_surrogate_additive(x in sample_matrix()) {
            let total = trace_surrogate(&x);
            let split: f32 = (0..x.rows())
                .map(|r| trace_surrogate(&x.select_rows(&[r])))
                .sum();
            let denom = 1.0f32.max(total.abs());
            prop_assert!(((total - split).abs() / denom) < 1e-3);
        }

        #[test]
        fn kmeans_centers_within_data_bounds(x in sample_matrix()) {
            let mut rng = edsr_tensor::rng::seeded(7);
            let k = 2.min(x.rows());
            let res = kmeans(&x, k, 20, &mut rng);
            // Means of subsets cannot escape the per-coordinate data range.
            for c in 0..res.centers.rows() {
                for j in 0..x.cols() {
                    let lo = (0..x.rows()).map(|r| x.get(r, j)).fold(f32::INFINITY, f32::min);
                    let hi = (0..x.rows()).map(|r| x.get(r, j)).fold(f32::NEG_INFINITY, f32::max);
                    let v = res.centers.get(c, j);
                    prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
                }
            }
        }

        #[test]
        fn knn_first_neighbor_is_self_when_included(x in sample_matrix()) {
            let row0: Vec<f32> = x.row(0).to_vec();
            let got = KnnQuery::new(&x, 1).search(&row0);
            prop_assert!(got[0].score <= 1e-6);
        }
    }

    /// Runs `f` at `threads`; with more than one thread and a pool that
    /// has workers, fails unless `f` handed work to the pool.
    fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> Result<R, TestCaseError> {
        let before = edsr_par::handoffs();
        let out = edsr_par::with_threads(threads, f);
        prop_assert!(
            edsr_par::pool_workers() == 0 || edsr_par::handoffs() > before,
            "never reached the pool at {} threads",
            threads
        );
        Ok(out)
    }

    /// A standard-normal `n x d` matrix from `seed`.
    fn randn(n: usize, d: usize, seed: u64) -> Matrix {
        Matrix::randn(n, d, 1.0, &mut edsr_tensor::rng::seeded(seed))
    }

    /// Rows that give `per_row` work units each past three
    /// `edsr_par::CUT`s: two threads split the call in two, seven in three.
    fn rows_past_the_cut(per_row: usize) -> usize {
        (3 * edsr_par::CUT).div_ceil(per_row)
    }

    proptest! {
        // Sized past the `edsr-par` cut-off, so fewer cases.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Determinism contract (DESIGN.md §9): batched kNN returns
        /// identical neighbours (indices and score bits) at every thread
        /// count. A self-search of `n` rows scores `n * n * d`
        /// multiply-adds.
        #[test]
        fn knn_batch_bit_identical_across_thread_counts(
            d in 16usize..=48, extra in 0usize..16, seed in 0u64..=u64::MAX,
        ) {
            let n = (3 * edsr_par::CUT / d).isqrt() + 1 + extra;
            let x = randn(n, d, seed);
            let query = KnnQuery::new(&x, 3);
            let serial = edsr_par::with_threads(1, || query.search_batch(&x));
            for threads in [2usize, 7] {
                let par = on_pool(threads, || query.search_batch(&x))?;
                prop_assert_eq!(serial.len(), par.len());
                for (s_row, p_row) in serial.iter().zip(&par) {
                    prop_assert_eq!(s_row.len(), p_row.len());
                    for (s, p) in s_row.iter().zip(p_row) {
                        prop_assert_eq!(s.index, p.index);
                        prop_assert_eq!(s.score.to_bits(), p.score.to_bits());
                    }
                }
            }
        }

        /// Determinism contract (DESIGN.md §9): the chunked covariance
        /// reduction in `Pca::fit` (`n * d * d` multiply-adds) is
        /// bit-identical at every thread count.
        #[test]
        fn pca_fit_bit_identical_across_thread_counts(
            d in 24usize..=48, extra in 0usize..100, seed in 0u64..=u64::MAX,
        ) {
            let x = randn(rows_past_the_cut(d * d) + extra, d, seed);
            let serial = edsr_par::with_threads(1, || Pca::fit(&x, x.cols()));
            for threads in [2usize, 7] {
                let par = on_pool(threads, || Pca::fit(&x, x.cols()))?;
                let same = serial
                    .components
                    .data()
                    .iter()
                    .zip(par.components.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                prop_assert!(same, "components differ at {} threads", threads);
                for (a, b) in serial.explained_variance.iter().zip(&par.explained_variance) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
