//! Exact k-nearest-neighbour search.
//!
//! Four users in the reproduction:
//! - the **kNN classifier** over representations (the paper's evaluation
//!   protocol, after Wu et al. \[78\]) — see `edsr-cl::eval`;
//! - the **noise magnitude** `r(x^m)` (paper §III-B), the std of the
//!   representations of `x^m`'s k nearest neighbours in its source set;
//! - the serving engine's kNN over the replay memory (`edsr-serve`);
//! - the f32 half of the int8 export gate (`edsr-quant`).
//!
//! All searches go through the [`KnnQuery`] builder.
//!
//! # Ordering contract
//!
//! Results are ordered by score (ascending squared Euclidean distance,
//! descending cosine similarity), then by ascending row index. Scores tie
//! when they compare `==`, so `-0.0` ties `0.0`; NaN scores rank after
//! every number. This is exactly the order a stable full sort of all
//! candidates would give. A search reaches it without sorting every row:
//! it scores the query into a row of scores, takes the `k`-th closest of
//! the per-block closest scores (one block per [`BLOCK`] rows) as a bound,
//! and sorts only the rows within it. At least `k` rows score within the
//! bound, so the `k` closest all do; when fewer than `k` rows hold a
//! number (NaN rows), every eligible row is sorted. [`top_k_into`]
//! reaches the same order by bounded insertion; the int8 backend
//! (`edsr-quant`) selects through it.
//!
//! # Scores
//!
//! Every score comes from `edsr_tensor::simd`'s canonical 8-lane tree:
//! the reference's whole blocks through one block-scorer call (`dot8`,
//! `sq_euclidean8`, [`BLOCK`] rows per pass), the last `rows % BLOCK`
//! rows through `dot` and `sq_euclidean`, and each block-scorer output
//! equals the single-pair reduction bit for bit. So neighbour lists are
//! bit-identical whatever the build targets and at any thread count
//! (DESIGN.md §15). Cosine norms are computed once — the query's once per
//! search, the reference rows' once per search call (per pool chunk of a
//! batched call) — with the same kernels and the same formula as
//! [`crate::stats::cosine_similarity`], so every score keeps its bits.

use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::Range;

use edsr_tensor::simd::{self, BLOCK};
use edsr_tensor::Matrix;

use crate::stats::{cosine_from_parts, norm};

/// Distance/similarity metric for neighbour search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Squared Euclidean distance (smaller = closer).
    Euclidean,
    /// Cosine similarity (larger = closer).
    Cosine,
}

impl Metric {
    /// The contract's order of two scores: closer under the metric first,
    /// NaN after every number, equal (`==`) scores tied.
    fn order(self, a: f32, b: f32) -> Ordering {
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => {
                let ord = a.partial_cmp(&b).unwrap_or(Ordering::Equal);
                match self {
                    Metric::Euclidean => ord,
                    Metric::Cosine => ord.reverse(),
                }
            }
        }
    }

    /// The closest number among `scores`, or the metric's farthest value
    /// (`+inf` distance, `-inf` similarity) when there is none: one
    /// compare-and-select per score, and a NaN never wins one.
    fn closest(self, scores: impl IntoIterator<Item = f32>) -> f32 {
        let scores = scores.into_iter();
        match self {
            Metric::Euclidean => scores.fold(f32::INFINITY, |b, s| if s < b { s } else { b }),
            Metric::Cosine => scores.fold(f32::NEG_INFINITY, |b, s| if s > b { s } else { b }),
        }
    }

    /// Whether score `s` is at or inside the bound `t` (NaN never is).
    fn within(self, s: f32, t: f32) -> bool {
        match self {
            Metric::Euclidean => s <= t,
            Metric::Cosine => s >= t,
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
    let beats = |a: f32, b: f32| metric.order(a, b).is_lt();
    for cand in candidates {
        if out.len() == k {
            if !beats(cand.score, out[k - 1].score) {
                continue;
            }
            out.pop();
        }
        let at = out.partition_point(|n| !beats(cand.score, n.score));
        out.insert(at, cand);
    }
}

/// A search's working memory: score rows, per-block bounds, the bounds'
/// working copy and cosine row norms in `floats`, and the rows a
/// selection sorts in `candidates`.
#[derive(Default)]
struct Scratch {
    floats: Vec<f32>,
    candidates: Vec<Neighbor>,
}

thread_local! {
    /// Recycled across searches on this thread, so a warm search makes no
    /// heap allocation. Thread-local so each pool worker scores into its
    /// own.
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch { floats: Vec::new(), candidates: Vec::new() })
    };
}

/// Runs `f` with this thread's scratch grown to at least `len` floats and
/// room for `rows` candidates, every row a selection can keep, so a
/// search never grows it.
fn with_scratch<R>(
    len: usize,
    rows: usize,
    f: impl FnOnce(&mut [f32], &mut Vec<Neighbor>) -> R,
) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        if scratch.floats.len() < len {
            scratch.floats.resize(len, 0.0);
        }
        scratch.candidates.clear();
        scratch.candidates.reserve(rows);
        let out = f(&mut scratch.floats[..len], &mut scratch.candidates);
        cell.set(scratch);
        out
    })
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
        self.search_chunk(0..1, &|_| (query, self.exclude), std::slice::from_mut(out));
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
    /// (the evaluation loop) make no heap allocation once warm.
    pub fn search_batch_into(&self, queries: &Matrix, out: &mut Vec<Vec<Neighbor>>) {
        self.each_into(queries.rows(), |q| (queries.row(q), self.exclude), out);
    }

    /// Self-search: query `i` is reference row `rows[i]`, and it leaves
    /// that row out (in place of the builder's [`exclude`](Self::exclude)).
    /// Runs on the pool like [`search_batch`](Self::search_batch); result
    /// `i` equals `self.exclude(rows[i]).search(reference.row(rows[i]))`.
    pub fn search_rows(&self, rows: &[usize]) -> Vec<Vec<Neighbor>> {
        let mut out = Vec::new();
        self.each_into(
            rows.len(),
            |i| (self.reference.row(rows[i]), Some(rows[i])),
            &mut out,
        );
        out
    }

    /// Runs `n` searches, search `q` for `query(q) = (query row, excluded
    /// row)`, into `out[q]`, spread over the pool by the grain rule.
    fn each_into<'q>(
        &self,
        n: usize,
        query: impl Fn(usize) -> (&'q [f32], Option<usize>) + Sync,
        out: &mut Vec<Vec<Neighbor>>,
    ) {
        out.resize_with(n, Vec::new);
        let work = n * self.reference.rows() * self.reference.cols();
        edsr_par::par_for_rows(out, n, work, |range, chunk| {
            self.search_chunk(range, &query, chunk);
        });
    }

    /// Runs searches `range` into `chunk` in this thread's scratch. A
    /// cosine search computes the reference rows' norms there first, once
    /// per chunk.
    fn search_chunk<'q>(
        &self,
        range: Range<usize>,
        query: &impl Fn(usize) -> (&'q [f32], Option<usize>),
        chunk: &mut [Vec<Neighbor>],
    ) {
        let rows = self.reference.rows();
        let blocks = rows.div_ceil(BLOCK);
        let cosine = self.metric == Metric::Cosine;
        let len = rows + 2 * blocks + if cosine { rows } else { 0 };
        with_scratch(len, rows, |buf, cands| {
            let (scores, rest) = buf.split_at_mut(rows);
            let (bounds, rest) = rest.split_at_mut(blocks);
            let (order, norms) = rest.split_at_mut(blocks);
            for (i, n) in norms.iter_mut().enumerate() {
                *n = norm(self.reference.row(i));
            }
            for (slot, q) in chunk.iter_mut().zip(range) {
                let (row, exclude) = query(q);
                self.score_into(row, norms, scores, bounds);
                self.select_into(scores, bounds, exclude, order, cands, slot);
            }
        });
    }

    /// Scores `query` against every reference row into `scores`, and
    /// writes each block's closest score (rows `b * BLOCK ..`, see
    /// [`Metric::closest`]) into `bounds[b]`. The whole blocks go through
    /// one block-scorer call, the last `rows % BLOCK` rows one at a time.
    /// `norms` holds every row's cosine norm (empty for Euclidean).
    fn score_into(&self, query: &[f32], norms: &[f32], scores: &mut [f32], bounds: &mut [f32]) {
        let (rows, d) = (self.reference.rows(), self.reference.cols());
        assert_eq!(d, query.len(), "knn search: dimension mismatch");
        let metric = self.metric;
        let full = rows - rows % BLOCK;
        let blocks = &self.reference.data()[..full * d];
        let (head, tail) = scores.split_at_mut(full);
        match metric {
            Metric::Euclidean => simd::sq_euclidean8(blocks, query, head),
            Metric::Cosine => simd::dot8(blocks, query, head),
        }
        for (r, score) in (full..).zip(tail) {
            let row = self.reference.row(r);
            *score = match metric {
                Metric::Euclidean => simd::sq_euclidean(row, query),
                Metric::Cosine => simd::dot(row, query),
            };
        }
        if metric == Metric::Cosine {
            let query_norm = norm(query);
            for (s, &n) in scores.iter_mut().zip(norms) {
                *s = cosine_from_parts(*s, n, query_norm);
            }
        }
        for (bound, block) in bounds.iter_mut().zip(scores.chunks(BLOCK)) {
            *bound = metric.closest(block.iter().copied());
        }
    }

    /// Keeps in `out` (cleared first) the `k` closest rows of `scores`,
    /// row `exclude` left out, in the contract's order. `bounds` holds
    /// each block's closest score, as [`score_into`](Self::score_into)
    /// leaves it; `order` is room for a copy of them, and `cands` for the
    /// rows sorted, so `out` receives only the `k` it keeps.
    fn select_into(
        &self,
        scores: &[f32],
        bounds: &mut [f32],
        exclude: Option<usize>,
        order: &mut [f32],
        cands: &mut Vec<Neighbor>,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        let metric = self.metric;
        let excluded = exclude.filter(|&e| e < scores.len());
        let k = self.k.min(scores.len() - usize::from(excluded.is_some()));
        if k == 0 {
            return;
        }
        if let Some(e) = excluded {
            let start = e - e % BLOCK;
            let block = scores[start..].iter().take(BLOCK).enumerate();
            bounds[e / BLOCK] =
                metric.closest(block.filter(|&(i, _)| start + i != e).map(|(_, &s)| s));
        }
        // Every row of the result scores at or inside the score of the
        // k-th row, so within any value `t` that k eligible rows score
        // within: keep the rows within `t`, or every eligible row when
        // fewer than k are. The k-th closest block bound is the tightest
        // `t` the bounds give, each being the score of one eligible row of
        // its block (the excluded row's block is bounded without it) or
        // the farthest value; past the block count, the farthest value
        // takes every row that holds a number.
        let t = if k <= bounds.len() {
            order.copy_from_slice(bounds);
            let by_closeness = |a: &f32, b: &f32| match metric {
                Metric::Euclidean => a.total_cmp(b),
                Metric::Cosine => b.total_cmp(a),
            };
            *order.select_nth_unstable_by(k - 1, by_closeness).1
        } else {
            metric.closest([])
        };
        cands.clear();
        let blocks = scores.chunks(BLOCK).zip(bounds.iter()).enumerate();
        for (b, (block, _)) in blocks.filter(|&(_, (_, &bound))| metric.within(bound, t)) {
            for (i, &score) in block.iter().enumerate() {
                let index = b * BLOCK + i;
                if metric.within(score, t) && Some(index) != excluded {
                    cands.push(Neighbor { index, score });
                }
            }
        }
        if cands.len() < k {
            cands.clear();
            let eligible = scores
                .iter()
                .enumerate()
                .filter(|&(i, _)| Some(i) != excluded);
            cands.extend(eligible.map(|(index, &score)| Neighbor { index, score }));
        }
        cands.sort_unstable_by(|a, b| metric.order(a.score, b.score).then(a.index.cmp(&b.index)));
        out.extend_from_slice(&cands[..k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{cosine_similarity, sq_euclidean};
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
        (2usize..24, 1usize..6).prop_flat_map(|(n, d)| tie_heavy(n, d))
    }

    /// An `n x d` [`tie_heavy_matrix`].
    fn tie_heavy(n: usize, d: usize) -> impl Strategy<Value = Matrix> {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Block scoring plus selection from the score row equals the full
        /// stable sort, in ids and score bits, for single, batched and
        /// self-search: widths on and around the 8-lane tree, row counts on
        /// and off the 8-row block, every edge `k` and excluded row, both
        /// metrics, 1, 2 and 7 threads.
        #[test]
        fn block_search_matches_full_stable_sort(
            x in (0usize..9, 1usize..34)
                .prop_flat_map(|(w, n)| tie_heavy(n, [1, 7, 8, 9, 15, 16, 17, 48, 50][w])),
        ) {
            let n = x.rows();
            let ks = [0, 1, 7, 8, 9, n - 1, n, n + 5];
            let prefix = |all: &[Neighbor], k: usize| all[..k.min(all.len())].to_vec();
            for metric in [Metric::Euclidean, Metric::Cosine] {
                for exclude in [None, Some(0), Some(7), Some(8), Some(n - 1)] {
                    let sorted: Vec<Vec<Neighbor>> = (0..n)
                        .map(|q| full_sort_search(&x, x.row(q), n, metric, exclude))
                        .collect();
                    for k in ks {
                        let mut query = KnnQuery::new(&x, k).metric(metric);
                        if let Some(row) = exclude {
                            query = query.exclude(row);
                        }
                        let mut out = Vec::new();
                        for (q, all) in sorted.iter().enumerate() {
                            query.search_into(x.row(q), &mut out);
                            assert_same(&out, &prefix(all, k))?;
                        }
                        for threads in [1usize, 2, 7] {
                            let batch = edsr_par::with_threads(threads, || query.search_batch(&x));
                            prop_assert_eq!(batch.len(), n);
                            for (b, all) in batch.iter().zip(&sorted) {
                                assert_same(b, &prefix(all, k))?;
                            }
                        }
                    }
                }
                // Every row once, then the edge rows again, out of order.
                let picks: Vec<usize> = (0..n).rev().chain([0, 7 % n, 8 % n, n - 1]).collect();
                let sorted: Vec<Vec<Neighbor>> = picks
                    .iter()
                    .map(|&r| full_sort_search(&x, x.row(r), n, metric, Some(r)))
                    .collect();
                for k in ks {
                    let query = KnnQuery::new(&x, k).metric(metric);
                    for threads in [1usize, 2, 7] {
                        let found = edsr_par::with_threads(threads, || query.search_rows(&picks));
                        prop_assert_eq!(found.len(), picks.len());
                        for (f, all) in found.iter().zip(&sorted) {
                            assert_same(f, &prefix(all, k))?;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_and_self_search_match_single_searches_on_the_pool() {
        // 450 searches over 450 rows at d=24 (4.9M multiply-adds, past two
        // `edsr_par::CUT`s): two and seven threads split the batch. Every
        // fifth row repeats an earlier one, so scores tie.
        let (n, d) = (450, 24);
        assert!(n * n * d >= 2 * edsr_par::CUT);
        let mut rng = seeded(93);
        let mut x = Matrix::randn(n, d, 1.0, &mut rng);
        for r in (5..n).step_by(5) {
            let src = x.row(r / 3).to_vec();
            x.row_mut(r).copy_from_slice(&src);
        }
        let rows: Vec<usize> = (0..n).collect();
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let query = KnnQuery::new(&x, 15).metric(metric);
            let single: Vec<Vec<Neighbor>> = (0..n).map(|q| query.search(x.row(q))).collect();
            let own: Vec<Vec<Neighbor>> =
                (0..n).map(|q| query.exclude(q).search(x.row(q))).collect();
            for threads in [1usize, 2, 7] {
                let before = edsr_par::handoffs();
                let batch = edsr_par::with_threads(threads, || query.search_batch(&x));
                let found = edsr_par::with_threads(threads, || query.search_rows(&rows));
                assert!(
                    threads == 1
                        || edsr_par::pool_workers() == 0
                        || edsr_par::handoffs() >= before + 2,
                    "{metric:?} threads={threads}: a batch never reached the pool"
                );
                for (got, want) in [(&batch, &single), (&found, &own)] {
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(ids(g), ids(w), "{metric:?} threads={threads}");
                        let bits = |ns: &[Neighbor]| {
                            ns.iter().map(|n| n.score.to_bits()).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(g), bits(w), "{metric:?} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn nan_rows_rank_last_in_every_search_form() {
        // 37 rows at d=9: a whole block of NaN rows (8..16), single NaN
        // entries in rows 3, 20 and 36, and a NaN query, against the
        // bounded insertion of `top_k_into` over the pairwise scores.
        let (n, d) = (37, 9);
        let mut rng = seeded(94);
        let mut x = Matrix::randn(n, d, 1.0, &mut rng);
        for r in 8..16 {
            x.row_mut(r).fill(f32::NAN);
        }
        for (r, c) in [(3, 0), (20, 8), (36, 4)] {
            x.set(r, c, f32::NAN);
        }
        let mut queries = Matrix::randn(3, d, 1.0, &mut rng);
        queries.set(2, 5, f32::NAN);
        let same = |got: &[Neighbor], want: &[Neighbor]| {
            assert_eq!(ids(got), ids(want));
            for (g, w) in got.iter().zip(want) {
                assert!(
                    g.score.to_bits() == w.score.to_bits()
                        || (g.score.is_nan() && w.score.is_nan())
                );
            }
        };
        let mut want = Vec::new();
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let scored = |q: &[f32], exclude: Option<usize>| -> Vec<Neighbor> {
                let eligible = (0..n).filter(|&i| Some(i) != exclude);
                eligible
                    .map(|i| Neighbor {
                        index: i,
                        score: match metric {
                            Metric::Euclidean => sq_euclidean(x.row(i), q),
                            Metric::Cosine => cosine_similarity(x.row(i), q),
                        },
                    })
                    .collect()
            };
            for k in [1, 5, 20, 26, 28, 30, 37, 40] {
                for exclude in [None, Some(3), Some(9), Some(36)] {
                    let mut query = KnnQuery::new(&x, k).metric(metric);
                    if let Some(row) = exclude {
                        query = query.exclude(row);
                    }
                    let batch = query.search_batch(&queries);
                    for (q, found) in batch.iter().enumerate() {
                        top_k_into(scored(queries.row(q), exclude), k, metric, &mut want);
                        same(&query.search(queries.row(q)), &want);
                        same(found, &want);
                    }
                }
                let rows: Vec<usize> = (0..n).collect();
                let found = KnnQuery::new(&x, k).metric(metric).search_rows(&rows);
                for (r, f) in found.iter().enumerate() {
                    top_k_into(scored(x.row(r), Some(r)), k, metric, &mut want);
                    same(f, &want);
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
