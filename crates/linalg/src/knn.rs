//! Exact k-nearest-neighbour search.
//!
//! Two users in the reproduction:
//! - the **kNN classifier** over representations (the paper's evaluation
//!   protocol, after Wu et al. \[78\]) — see `edsr-cl::eval`;
//! - the **noise magnitude** `r(x^m)` (paper §III-B), the std of the
//!   representations of `x^m`'s k nearest neighbours in its source set.
//!
//! All searches go through the [`KnnQuery`] builder.
//!
//! # Ordering contract
//!
//! Results are ordered by score (ascending squared Euclidean distance,
//! descending cosine similarity), then by ascending row index. Scores tie
//! when they compare `==`, so `-0.0` ties `0.0`; NaN scores rank after
//! every number. This is exactly the order a stable full sort of all
//! candidates would give; [`top_k_into`] reaches it by bounded insertion,
//! keeping at most `k` candidates instead of sorting every reference row.
//! The int8 backend (`edsr-quant`) selects through the same routine.
//!
//! # Scores
//!
//! Distance accumulation runs through `edsr_tensor::simd` (via
//! [`crate::stats`]): its portable and AVX2 bodies compute the same
//! canonical 8-lane-tree reduction, so neighbor lists are bit-identical
//! whatever the build targets and at any thread count (DESIGN.md §15). Cosine norms are computed
//! once — the query's once per search, the reference rows' once per
//! [`KnnQuery::search_batch_into`] call — with the same kernels and the
//! same formula as [`crate::stats::cosine_similarity`], so every score
//! keeps its bits.

use edsr_tensor::Matrix;

use crate::stats::{cosine_from_parts, norm, sq_euclidean};

/// Distance/similarity metric for neighbour search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Squared Euclidean distance (smaller = closer).
    Euclidean,
    /// Cosine similarity (larger = closer).
    Cosine,
}

impl Metric {
    /// Whether score `a` ranks strictly before score `b`: closer under the
    /// metric, with NaN after every number and equal (`==`) scores tied.
    fn beats(self, a: f32, b: f32) -> bool {
        match self {
            _ if a.is_nan() => false,
            _ if b.is_nan() => true,
            Metric::Euclidean => a < b,
            Metric::Cosine => a > b,
        }
    }
}

/// One retrieved neighbour.
#[derive(Debug, Clone, Copy)]
pub struct Neighbor {
    /// Row index into the reference matrix.
    pub index: usize,
    /// Cosine similarity or squared Euclidean distance, per the metric.
    pub score: f32,
}

/// Keeps the `k` best of `candidates` in `out` (cleared first), closest
/// first, in the module's ordering contract. `candidates` must arrive in
/// ascending `index` order: a candidate enters only if it strictly beats
/// the current `k`-th, so ties keep ascending index. `k = 0` consumes
/// nothing. Makes no allocation once `out` has capacity `k`.
pub fn top_k_into(
    candidates: impl IntoIterator<Item = Neighbor>,
    k: usize,
    metric: Metric,
    out: &mut Vec<Neighbor>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    for cand in candidates {
        if out.len() == k {
            if !metric.beats(cand.score, out[k - 1].score) {
                continue;
            }
            out.pop();
        }
        let at = out.partition_point(|n| !metric.beats(cand.score, n.score));
        out.insert(at, cand);
    }
}

/// A configured kNN search over a reference matrix. Defaults:
/// [`Metric::Euclidean`], no excluded row.
///
/// `k` is clamped to the number of eligible reference rows; results are
/// ordered from closest to farthest (see the module's ordering contract).
///
/// ```
/// use edsr_linalg::{KnnQuery, Metric};
/// use edsr_tensor::Matrix;
/// let reference = Matrix::from_rows(&[&[0.0], &[1.0], &[5.0]]);
/// let got = KnnQuery::new(&reference, 2).search(&[0.9]);
/// assert_eq!(got[0].index, 1);
/// assert_eq!(got[1].index, 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KnnQuery<'a> {
    reference: &'a Matrix,
    k: usize,
    metric: Metric,
    exclude: Option<usize>,
}

impl<'a> KnnQuery<'a> {
    /// Starts a query for the `k` nearest rows of `reference`.
    pub fn new(reference: &'a Matrix, k: usize) -> Self {
        Self {
            reference,
            k,
            metric: Metric::Euclidean,
            exclude: None,
        }
    }

    /// Sets the metric (default [`Metric::Euclidean`]).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Skips one reference row — used when the query itself is a member
    /// of the reference set.
    pub fn exclude(mut self, row: usize) -> Self {
        self.exclude = Some(row);
        self
    }

    /// Searches for the neighbours of a single query row.
    pub fn search(&self, query: &[f32]) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.search_into(query, &mut out);
        out
    }

    /// [`search`](Self::search) writing the result into `out` (cleared
    /// first) so steady-state repeated searches make no heap allocations.
    pub fn search_into(&self, query: &[f32], out: &mut Vec<Neighbor>) {
        self.select_into(query, None, out);
    }

    /// Scores every eligible reference row against `query` and keeps the
    /// top `k`. `row_norms`, when given, holds every reference row's
    /// cosine norm; otherwise each norm is computed as its row is scored.
    fn select_into(&self, query: &[f32], row_norms: Option<&[f32]>, out: &mut Vec<Neighbor>) {
        assert_eq!(
            self.reference.cols(),
            query.len(),
            "knn search: dimension mismatch"
        );
        let query_norm = match self.metric {
            Metric::Cosine => norm(query),
            Metric::Euclidean => 0.0,
        };
        let candidates = (0..self.reference.rows())
            .filter(|&i| Some(i) != self.exclude)
            .map(|i| {
                let row = self.reference.row(i);
                let score = match self.metric {
                    Metric::Euclidean => sq_euclidean(row, query),
                    Metric::Cosine => {
                        let row_norm = row_norms.map_or_else(|| norm(row), |n| n[i]);
                        cosine_from_parts(edsr_tensor::simd::dot(row, query), row_norm, query_norm)
                    }
                };
                Neighbor { index: i, score }
            });
        top_k_into(candidates, self.k, self.metric, out);
    }

    /// Batched search over every row of `queries`.
    ///
    /// Queries are data-parallel over the `edsr-par` pool. Results are
    /// identical to the serial loop at every thread count.
    pub fn search_batch(&self, queries: &Matrix) -> Vec<Vec<Neighbor>> {
        let mut out = Vec::new();
        self.search_batch_into(queries, &mut out);
        out
    }

    /// [`search_batch`](Self::search_batch) writing into a caller-owned
    /// result buffer: the outer vector and every per-query inner vector
    /// keep their capacity from the previous call, so repeated batches
    /// (the evaluation loop) allocate only the cosine row norms, which are
    /// computed once per call and shared by every query.
    pub fn search_batch_into(&self, queries: &Matrix, out: &mut Vec<Vec<Neighbor>>) {
        let n = queries.rows();
        out.resize_with(n, Vec::new);
        let row_norms: Option<Vec<f32>> = (self.metric == Metric::Cosine).then(|| {
            (0..self.reference.rows())
                .map(|i| norm(self.reference.row(i)))
                .collect()
        });
        let kernel = |range: std::ops::Range<usize>, chunk: &mut [Vec<Neighbor>]| {
            for (local, q) in range.enumerate() {
                self.select_into(queries.row(q), row_norms.as_deref(), &mut chunk[local]);
            }
        };
        let work = n * self.reference.rows() * self.reference.cols();
        edsr_par::par_for_rows(out, n, work, kernel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::cosine_similarity;
    use edsr_tensor::rng::seeded;
    use proptest::prelude::*;

    fn line_points() -> Matrix {
        // Points at x = 0, 1, 2, ..., 9 on a line.
        Matrix::from_vec(10, 2, (0..10).flat_map(|i| [i as f32, 0.0]).collect())
    }

    fn ids(ns: &[Neighbor]) -> Vec<usize> {
        ns.iter().map(|n| n.index).collect()
    }

    /// Reference search: every eligible row scored with the pairwise
    /// `stats` functions, then a full stable sort and truncation to `k`.
    fn full_sort_search(
        reference: &Matrix,
        query: &[f32],
        k: usize,
        metric: Metric,
        exclude: Option<usize>,
    ) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = (0..reference.rows())
            .filter(|&i| Some(i) != exclude)
            .map(|i| {
                let score = match metric {
                    Metric::Euclidean => sq_euclidean(reference.row(i), query),
                    Metric::Cosine => cosine_similarity(reference.row(i), query),
                };
                Neighbor { index: i, score }
            })
            .collect();
        all.sort_by(|a, b| {
            let ord = a.score.partial_cmp(&b.score);
            let ord = ord.unwrap_or(std::cmp::Ordering::Equal);
            match metric {
                Metric::Euclidean => ord,
                Metric::Cosine => ord.reverse(),
            }
        });
        all.truncate(k);
        all
    }

    fn assert_same(got: &[Neighbor], want: &[Neighbor]) -> Result<(), TestCaseError> {
        prop_assert_eq!(ids(got), ids(want));
        for (g, w) in got.iter().zip(want) {
            prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
        }
        Ok(())
    }

    /// Random rows plus forced duplicates (score ties), all-zero rows (the
    /// degenerate cosine `0.0`) and sign-flipped copies.
    fn tie_heavy_matrix() -> impl Strategy<Value = Matrix> {
        (2usize..24, 1usize..6).prop_flat_map(|(n, d)| {
            (
                proptest::collection::vec(-3.0f32..3.0, n * d),
                proptest::collection::vec(0u8..4, n),
            )
                .prop_map(move |(data, kinds)| {
                    let mut m = Matrix::from_vec(n, d, data);
                    for (r, kind) in kinds.iter().enumerate().skip(1) {
                        let src = m.row(r / 2).to_vec();
                        for (c, v) in src.into_iter().enumerate() {
                            match kind {
                                1 => m.set(r, c, v),
                                2 => m.set(r, c, 0.0),
                                3 => m.set(r, c, -v),
                                _ => {}
                            }
                        }
                    }
                    m
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bounded top-k selection equals the full stable sort, bit for
        /// bit, for both metrics, with and without an excluded row, at
        /// every edge `k` and several thread counts.
        #[test]
        fn selection_matches_full_stable_sort(
            x in tie_heavy_matrix(),
            exclude_pick in 0usize..64,
        ) {
            let rows = x.rows();
            for metric in [Metric::Euclidean, Metric::Cosine] {
                for exclude in [None, Some(exclude_pick % rows)] {
                    for k in [0, 1, rows - 1, rows, rows + 5] {
                        let mut query = KnnQuery::new(&x, k).metric(metric);
                        if let Some(row) = exclude {
                            query = query.exclude(row);
                        }
                        let want: Vec<Vec<Neighbor>> = (0..rows)
                            .map(|q| full_sort_search(&x, x.row(q), k, metric, exclude))
                            .collect();
                        let mut out = Vec::new();
                        for (q, w) in want.iter().enumerate() {
                            query.search_into(x.row(q), &mut out);
                            assert_same(&out, w)?;
                        }
                        for threads in [1usize, 2, 7] {
                            let batch = edsr_par::with_threads(threads, || query.search_batch(&x));
                            prop_assert_eq!(batch.len(), rows);
                            for (b, w) in batch.iter().zip(&want) {
                                assert_same(b, w)?;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn selection_orders_ties_by_index_and_nan_last() {
        let scored = |scores: &[f32]| {
            scores
                .iter()
                .enumerate()
                .map(|(index, &score)| Neighbor { index, score })
                .collect::<Vec<_>>()
        };
        let scores = [f32::NAN, 0.0, 1.0, -0.0, f32::NAN, -1.0, 0.0];
        let mut out = Vec::new();
        top_k_into(scored(&scores), 7, Metric::Euclidean, &mut out);
        assert_eq!(ids(&out), vec![5, 1, 3, 6, 2, 0, 4]);
        top_k_into(scored(&scores), 7, Metric::Cosine, &mut out);
        assert_eq!(ids(&out), vec![2, 1, 3, 6, 5, 0, 4]);
        // A NaN never displaces a number, and `-0.0` ties `0.0` at the
        // cut-off, so the earlier index keeps its place.
        top_k_into(scored(&scores), 3, Metric::Cosine, &mut out);
        assert_eq!(ids(&out), vec![2, 1, 3]);
        top_k_into(
            scored(&[f32::NAN, f32::NAN]),
            1,
            Metric::Euclidean,
            &mut out,
        );
        assert_eq!(ids(&out), vec![0]);
    }

    #[test]
    fn euclidean_orders_by_distance() {
        let reference = line_points();
        let got = KnnQuery::new(&reference, 3).search(&[3.2, 0.0]);
        assert_eq!(ids(&got), vec![3, 4, 2]);
        assert!(got[0].score < got[1].score);
    }

    #[test]
    fn exclude_skips_self() {
        let reference = line_points();
        let got = KnnQuery::new(&reference, 2)
            .exclude(5)
            .search(reference.row(5));
        assert!(got.iter().all(|n| n.index != 5));
        assert_eq!(got[0].index.min(got[1].index), 4);
        assert_eq!(got[0].index.max(got[1].index), 6);
    }

    #[test]
    fn cosine_prefers_aligned() {
        let reference = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[-1.0, 0.0], &[0.7, 0.7]]);
        let got = KnnQuery::new(&reference, 2)
            .metric(Metric::Cosine)
            .search(&[1.0, 0.1]);
        assert_eq!(got[0].index, 0);
        assert!(got[0].score > 0.99);
    }

    #[test]
    fn k_clamped_to_population() {
        let reference = line_points();
        let got = KnnQuery::new(&reference, 100).search(&[0.0, 0.0]);
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn batch_matches_single() {
        let mut rng = seeded(90);
        let reference = Matrix::randn(20, 4, 1.0, &mut rng);
        let queries = Matrix::randn(5, 4, 1.0, &mut rng);
        let query = KnnQuery::new(&reference, 3).metric(Metric::Cosine);
        let batch = query.search_batch(&queries);
        for (q, row) in batch.iter().enumerate() {
            assert_eq!(ids(row), ids(&query.search(queries.row(q))));
        }
    }

    #[test]
    fn batch_into_reuses_buffers_and_matches_batch() {
        let mut rng = seeded(91);
        let reference = Matrix::randn(20, 4, 1.0, &mut rng);
        let queries = Matrix::randn(5, 4, 1.0, &mut rng);
        let query = KnnQuery::new(&reference, 3);
        let fresh = query.search_batch(&queries);
        let mut out = Vec::new();
        query.search_batch_into(&queries, &mut out);
        let caps: Vec<usize> = out.iter().map(Vec::capacity).collect();
        query.search_batch_into(&queries, &mut out);
        for (row, cap) in out.iter().zip(&caps) {
            assert!(row.capacity() <= *cap, "inner buffer reallocated");
        }
        for (a, b) in out.iter().zip(&fresh) {
            assert_eq!(ids(a), ids(b));
        }
    }

    #[test]
    fn zero_k_returns_empty() {
        let reference = line_points();
        assert!(KnnQuery::new(&reference, 0).search(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn single_and_batch_entry_points_agree_with_exclude() {
        let mut rng = seeded(92);
        let reference = Matrix::randn(15, 3, 1.0, &mut rng);
        let queries = Matrix::randn(4, 3, 1.0, &mut rng);
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let query = KnnQuery::new(&reference, 4).metric(metric).exclude(2);
            let mut batch = Vec::new();
            query.search_batch_into(&queries, &mut batch);
            let mut single = Vec::new();
            for (q, b) in batch.iter().enumerate() {
                query.search_into(queries.row(q), &mut single);
                assert_eq!(ids(&single), ids(b));
                assert_eq!(ids(&query.search(queries.row(q))), ids(b));
                assert!(b.iter().all(|n| n.index != 2));
            }
        }
    }
}
