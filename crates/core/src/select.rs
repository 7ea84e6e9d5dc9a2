//! Data selection (paper §III-A and Table V).
//!
//! The paper's contribution is **high-entropy selection**: Eq. 12–15
//! reduce memory selection to maximizing `Tr(Cov(M̂))`, realized "via PCA"
//! over the representations of the just-learned increment. Both readings
//! of Eq. 15 are implemented ([`SelectionStrategy::HighEntropy`] — the PCA
//! practice — and [`SelectionStrategy::TraceGreedy`] — the literal trace
//! maximizer), alongside the Table-V baselines (Random, Distant, K-means,
//! Min-Var) and the storage rules of two related-work replay baselines
//! (PAPERS.md): [`SelectionStrategy::FarthestPoint`] (Yanowsky &
//! Weinshall's complementary embeddings) and [`SelectionStrategy::MaxVar`]
//! (R2R, Mandalika et al.). Those two are whole methods once paired with
//! `L_css` replay: `edsr_core::method_by_name("compemb" | "r2r")` builds
//! them as [`crate::Edsr`] configurations.

// Multi-array parallel indexing is clearer with explicit loops here.
#![allow(clippy::needless_range_loop)]

use edsr_linalg::{kmeans, kmeanspp_indices, nearest_to_centers, Pca};
use edsr_tensor::rng::sample_indices;
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

/// Inputs to a selection pass, produced at the paper's "selecting stage":
/// representations of the increment's train split, extracted by the
/// freshly optimized model `f̂` *without augmentation*.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    /// Representations `X̂ⁿ` (`n x d`).
    pub reps: &'a Matrix,
    /// Per-sample std across augmented-view representations (Min-Var's
    /// criterion \[61\], and Max-Var's); `None` falls back to the distance
    /// to a center.
    pub aug_view_std: Option<&'a [f32]>,
    /// Cluster-count hint for Min-Var ("the same amount of clusters as
    /// the number of classes" — the benchmark's classes-per-task).
    pub cluster_hint: usize,
}

/// The selection strategies of Table V plus the literal Eq. 15 reading.
///
/// ```
/// use edsr_core::{SelectionContext, SelectionStrategy};
/// use edsr_tensor::{rng::seeded, Matrix};
/// let reps = Matrix::randn(20, 4, 1.0, &mut seeded(1));
/// let ctx = SelectionContext { reps: &reps, aug_view_std: None, cluster_hint: 2 };
/// let picked = SelectionStrategy::HighEntropy.select(&ctx, 5, &mut seeded(2));
/// assert_eq!(picked.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Uniform random (LUMP/DER's storage rule).
    Random,
    /// Maximally spread samples via k-means++ seeding \[79\].
    Distant,
    /// Samples nearest to k-means cluster centers \[80\].
    KMeans,
    /// Lin et al. \[61\]: class-count clusters, minimal augmented-view
    /// representation variance within each.
    MinVar,
    /// EDSR's entropy-based selection — PCA reading of Eq. 15.
    HighEntropy,
    /// Literal Eq. 15: top squared-representation-norm samples.
    TraceGreedy,
    /// Complementary embeddings (Yanowsky & Weinshall): greedy
    /// farthest-point traversal, so a small memory covers the increment's
    /// representation support instead of its modes.
    FarthestPoint,
    /// R2R (Mandalika et al.): the samples whose representations spread
    /// most across augmented views, i.e. the ones the encoder is least
    /// certain about and most likely to forget (Min-Var's opposite end).
    MaxVar,
}

impl SelectionStrategy {
    /// Display name used in the Table-V harness.
    pub fn name(&self) -> &'static str {
        match self {
            SelectionStrategy::Random => "Random",
            SelectionStrategy::Distant => "Distant",
            SelectionStrategy::KMeans => "K-means",
            SelectionStrategy::MinVar => "Min-Var",
            SelectionStrategy::HighEntropy => "High Entropy",
            SelectionStrategy::TraceGreedy => "Trace Greedy",
            SelectionStrategy::FarthestPoint => "Farthest-Point",
            SelectionStrategy::MaxVar => "Max-Var",
        }
    }

    /// Selects up to `budget` distinct row indices of `ctx.reps`.
    ///
    /// Returns fewer than `budget` only when the population is smaller.
    pub fn select(
        &self,
        ctx: &SelectionContext<'_>,
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let n = ctx.reps.rows();
        let budget = budget.min(n);
        if budget == 0 {
            return Vec::new();
        }
        match self {
            SelectionStrategy::Random => sample_indices(rng, n, budget),
            SelectionStrategy::Distant => kmeanspp_indices(ctx.reps, budget, rng),
            SelectionStrategy::KMeans => {
                let result = kmeans(ctx.reps, budget, 50, rng);
                let mut chosen = nearest_to_centers(ctx.reps, &result.centers);
                fill_random(&mut chosen, n, budget, rng);
                chosen
            }
            SelectionStrategy::MinVar => select_min_var(ctx, budget, rng),
            SelectionStrategy::HighEntropy => select_high_entropy(ctx.reps, budget, rng),
            SelectionStrategy::TraceGreedy => select_trace_greedy(ctx.reps, budget),
            SelectionStrategy::FarthestPoint => select_farthest_point(ctx.reps, budget),
            SelectionStrategy::MaxVar => select_max_var(ctx, budget),
        }
    }
}

/// `Tr(Cov)` of the selected rows of `reps` — the entropy surrogate the
/// paper maximizes (Eq. 15 discussion): `(1/n)Σ‖x_i‖² − ‖μ‖²`.
pub fn trace_cov(reps: &Matrix, rows: &[usize]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let n = rows.len() as f64;
    let mut mean = vec![0.0f64; reps.cols()];
    let mut sq = 0.0f64;
    for &r in rows {
        for (m, &v) in mean.iter_mut().zip(reps.row(r)) {
            *m += f64::from(v);
        }
        sq += reps
            .row(r)
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>();
    }
    let mean_sq: f64 = mean.iter().map(|m| (m / n) * (m / n)).sum();
    sq / n - mean_sq
}

/// Tops `chosen` up to `budget` with unused random indices (selection
/// methods based on clustering can return fewer after deduplication).
fn fill_random(chosen: &mut Vec<usize>, n: usize, budget: usize, rng: &mut StdRng) {
    if chosen.len() >= budget {
        chosen.truncate(budget);
        return;
    }
    let mut pool: Vec<usize> = (0..n).filter(|i| !chosen.contains(i)).collect();
    edsr_tensor::rng::shuffle(rng, &mut pool);
    chosen.extend(pool.into_iter().take(budget - chosen.len()));
}

/// Min-Var \[61\]: cluster into `cluster_hint` groups; inside each, prefer
/// the samples whose augmented views vary least (most augmentation-stable
/// representations), round-robin across clusters until the budget fills.
fn select_min_var(ctx: &SelectionContext<'_>, budget: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = ctx.reps.rows();
    let k = ctx.cluster_hint.clamp(1, n);
    let clustering = kmeans(ctx.reps, k, 50, rng);

    // Order each cluster's members by ascending instability.
    let score = |i: usize| -> f32 {
        match ctx.aug_view_std {
            Some(stds) => stds[i],
            None => {
                // Fallback: distance to own center (central = stable).
                edsr_linalg::stats::sq_euclidean(
                    ctx.reps.row(i),
                    clustering.centers.row(clustering.assignments[i]),
                )
            }
        }
    };
    let mut per_cluster: Vec<Vec<usize>> = vec![Vec::new(); k];
    for i in 0..n {
        per_cluster[clustering.assignments[i]].push(i);
    }
    for members in &mut per_cluster {
        members.sort_by(|&a, &b| {
            score(a)
                .partial_cmp(&score(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    let mut chosen = Vec::with_capacity(budget);
    let mut round = 0;
    while chosen.len() < budget {
        let mut advanced = false;
        for members in &per_cluster {
            if chosen.len() == budget {
                break;
            }
            if let Some(&idx) = members.get(round) {
                chosen.push(idx);
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
        round += 1;
    }
    fill_random(&mut chosen, n, budget, rng);
    chosen
}

/// EDSR's high-entropy selection: fit PCA on the representations, then
/// walk the principal components in descending-variance order, each time
/// taking the not-yet-chosen sample with the largest squared projection on
/// that component — the subset that best preserves the top of the
/// spectrum ("maintains the highest singular values", Eq. 15 discussion).
fn select_high_entropy(reps: &Matrix, budget: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = reps.rows();
    let d = reps.cols();
    let k = budget.min(d).max(1);
    let pca = Pca::fit(reps, k);
    let scores = pca.transform(reps); // n x k projections

    let mut chosen: Vec<usize> = Vec::with_capacity(budget);
    let mut used = vec![false; n];
    // Entropy trajectory (DESIGN.md §11): track Tr(Cov) of the growing
    // subset incrementally — O(d) per addition via running Σx and Σ‖x‖².
    let obs_on = edsr_obs::enabled();
    let mut sum = vec![0.0f64; if obs_on { d } else { 0 }];
    let mut sq_sum = 0.0f64;
    // Alternate ±: for each component take the largest positive and most
    // negative projections in turn, covering both ends of the axis.
    let mut comp = 0usize;
    let mut take_negative = false;
    while chosen.len() < budget {
        let c = comp % pca.n_components();
        let mut best: Option<(usize, f32)> = None;
        for i in 0..n {
            if used[i] {
                continue;
            }
            let v = scores.get(i, c);
            let key = if take_negative { -v } else { v };
            if best.is_none_or(|(_, b)| key > b) {
                best = Some((i, key));
            }
        }
        match best {
            Some((i, _)) => {
                used[i] = true;
                chosen.push(i);
                if obs_on {
                    for (s, &v) in sum.iter_mut().zip(reps.row(i)) {
                        *s += f64::from(v);
                    }
                    sq_sum += reps
                        .row(i)
                        .iter()
                        .map(|&v| f64::from(v) * f64::from(v))
                        .sum::<f64>();
                    let m = chosen.len() as f64;
                    let mean_sq: f64 = sum.iter().map(|s| (s / m) * (s / m)).sum();
                    edsr_obs::histogram_at(
                        "select/entropy_trace",
                        chosen.len() as u64,
                        sq_sum / m - mean_sq,
                    );
                }
            }
            None => break,
        }
        if take_negative {
            comp += 1;
        }
        take_negative = !take_negative;
    }
    fill_random(&mut chosen, n, budget, rng);
    chosen
}

/// Literal Eq. 15: `Tr(Cov(M̂)) = Σ‖rows‖²` is maximized by the largest
/// representation norms.
fn select_trace_greedy(reps: &Matrix, budget: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..reps.rows()).collect();
    let norms: Vec<f32> = (0..reps.rows())
        .map(|r| reps.row(r).iter().map(|v| v * v).sum::<f32>())
        .collect();
    order.sort_by(|&a, &b| {
        norms[b]
            .partial_cmp(&norms[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order.truncate(budget);
    order
}

/// Squared Euclidean distance between two representation rows, summed
/// left to right. The farthest-point traversal keeps this sequential sum
/// rather than `stats::sq_euclidean`'s 8-lane fold: the two round
/// differently, and a different rounding can break a distance tie the
/// other way.
fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Greedy farthest-point traversal: seed with the sample farthest from
/// the representation mean, then repeatedly add the sample maximizing
/// its distance to the closest already-selected one. Deterministic given
/// the representations (ties break on the lower index); returned in
/// ascending index order. `budget` must be in `1..=n`.
fn select_farthest_point(reps: &Matrix, budget: usize) -> Vec<usize> {
    let n = reps.rows();
    let mean = reps.col_means();
    let seed = (0..n)
        .max_by(|&a, &b| {
            sq_dist(reps.row(a), mean.row(0))
                .total_cmp(&sq_dist(reps.row(b), mean.row(0)))
                .then(b.cmp(&a))
        })
        .expect("non-empty population");
    let mut selected = vec![seed];
    // min_dist[i] = distance from i to its nearest selected sample.
    let mut min_dist: Vec<f32> = (0..n)
        .map(|i| sq_dist(reps.row(i), reps.row(seed)))
        .collect();
    while selected.len() < budget {
        let next = (0..n)
            .filter(|i| !selected.contains(i))
            .max_by(|&a, &b| min_dist[a].total_cmp(&min_dist[b]).then(b.cmp(&a)))
            .expect("budget <= n");
        for (i, md) in min_dist.iter_mut().enumerate() {
            let d = sq_dist(reps.row(i), reps.row(next));
            if d < *md {
                *md = d;
            }
        }
        selected.push(next);
    }
    selected.sort_unstable();
    selected
}

/// Max-Var (R2R): the `budget` samples with the largest augmented-view
/// spread, ties to the lower index; returned in ascending index order.
/// Without view spreads, the distance to the representation mean ranks
/// the samples instead.
fn select_max_var(ctx: &SelectionContext<'_>, budget: usize) -> Vec<usize> {
    let n = ctx.reps.rows();
    let from_mean: Vec<f32>;
    let spread = match ctx.aug_view_std {
        Some(stds) => stds,
        None => {
            let mean = ctx.reps.col_means();
            from_mean = (0..n)
                .map(|i| sq_dist(ctx.reps.row(i), mean.row(0)))
                .collect();
            &from_mean
        }
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| spread[b].total_cmp(&spread[a]).then(a.cmp(&b)));
    order.truncate(budget);
    order.sort_unstable();
    order
}

/// All strategies in the order Table V reports them.
pub fn table5_strategies() -> Vec<SelectionStrategy> {
    vec![
        SelectionStrategy::Random,
        SelectionStrategy::KMeans,
        SelectionStrategy::MinVar,
        SelectionStrategy::Distant,
        SelectionStrategy::HighEntropy,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_linalg::coding_length_entropy;
    use edsr_tensor::rng::seeded;

    /// Anisotropic data: most variance on axis 0, clumped elsewhere.
    fn aniso(n: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        let mut m = Matrix::zeros(n, 4);
        for r in 0..n {
            m.set(r, 0, edsr_tensor::rng::gaussian(&mut rng) * 4.0);
            m.set(r, 1, edsr_tensor::rng::gaussian(&mut rng) * 1.0);
            m.set(r, 2, edsr_tensor::rng::gaussian(&mut rng) * 0.2);
            m.set(r, 3, edsr_tensor::rng::gaussian(&mut rng) * 0.05);
        }
        m
    }

    fn ctx(reps: &Matrix) -> SelectionContext<'_> {
        SelectionContext {
            reps,
            aug_view_std: None,
            cluster_hint: 2,
        }
    }

    #[test]
    fn all_strategies_respect_budget_and_dedup() {
        let reps = aniso(40, 400);
        let mut rng = seeded(401);
        for strat in [
            SelectionStrategy::Random,
            SelectionStrategy::Distant,
            SelectionStrategy::KMeans,
            SelectionStrategy::MinVar,
            SelectionStrategy::HighEntropy,
            SelectionStrategy::TraceGreedy,
            SelectionStrategy::FarthestPoint,
            SelectionStrategy::MaxVar,
        ] {
            let sel = strat.select(&ctx(&reps), 10, &mut rng);
            assert_eq!(sel.len(), 10, "{} wrong count", strat.name());
            let mut s = sel.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 10, "{} produced duplicates", strat.name());
            assert!(s.iter().all(|&i| i < 40), "{} out of range", strat.name());
        }
    }

    #[test]
    fn budget_clamped_to_population() {
        let reps = aniso(5, 402);
        let mut rng = seeded(403);
        let sel = SelectionStrategy::HighEntropy.select(&ctx(&reps), 99, &mut rng);
        assert_eq!(sel.len(), 5);
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let reps = aniso(5, 404);
        let mut rng = seeded(405);
        assert!(SelectionStrategy::Random
            .select(&ctx(&reps), 0, &mut rng)
            .is_empty());
    }

    #[test]
    fn high_entropy_beats_random_on_coding_length() {
        // The headline property: the entropy selector's subset should have
        // higher lossy-coding-length entropy than a random subset.
        let reps = aniso(120, 406);
        let mut rng = seeded(407);
        let he = SelectionStrategy::HighEntropy.select(&ctx(&reps), 12, &mut rng);
        let mut h_rand = 0.0;
        for trial in 0..10 {
            let mut r2 = seeded(500 + trial);
            let rand = SelectionStrategy::Random.select(&ctx(&reps), 12, &mut r2);
            h_rand += coding_length_entropy(&reps.select_rows(&rand), 0.5);
        }
        h_rand /= 10.0;
        let h_he = coding_length_entropy(&reps.select_rows(&he), 0.5);
        assert!(
            h_he > h_rand,
            "entropy selection H={h_he} vs random mean H={h_rand}"
        );
    }

    #[test]
    fn high_entropy_spans_both_ends_of_top_axis() {
        let reps = aniso(100, 408);
        let mut rng = seeded(409);
        let sel = SelectionStrategy::HighEntropy.select(&ctx(&reps), 6, &mut rng);
        let picked: Vec<f32> = sel.iter().map(|&i| reps.get(i, 0)).collect();
        assert!(
            picked.iter().any(|&v| v > 2.0),
            "no high-end sample: {picked:?}"
        );
        assert!(
            picked.iter().any(|&v| v < -2.0),
            "no low-end sample: {picked:?}"
        );
    }

    #[test]
    fn trace_greedy_picks_largest_norms() {
        let mut reps = Matrix::zeros(4, 2);
        reps.set(0, 0, 1.0);
        reps.set(1, 0, 5.0);
        reps.set(2, 1, 3.0);
        reps.set(3, 1, 0.1);
        let sel = select_trace_greedy(&reps, 2);
        assert_eq!(sel, vec![1, 2]);
    }

    #[test]
    fn min_var_prefers_stable_samples() {
        let reps = aniso(20, 410);
        // Mark half the samples as augmentation-unstable.
        let stds: Vec<f32> = (0..20).map(|i| if i < 10 { 0.01 } else { 10.0 }).collect();
        let c = SelectionContext {
            reps: &reps,
            aug_view_std: Some(&stds),
            cluster_hint: 1,
        };
        let mut rng = seeded(411);
        let sel = SelectionStrategy::MinVar.select(&c, 8, &mut rng);
        let stable = sel.iter().filter(|&&i| i < 10).count();
        assert!(stable >= 7, "Min-Var chose unstable samples: {sel:?}");
    }

    #[test]
    fn distant_spreads_selection() {
        // Two far blobs: a budget-2 Distant selection must hit both.
        let mut reps = Matrix::zeros(20, 2);
        for i in 0..10 {
            reps.set(i, 0, 0.0 + i as f32 * 0.01);
        }
        for i in 10..20 {
            reps.set(i, 0, 100.0 + i as f32 * 0.01);
        }
        let mut rng = seeded(412);
        let sel = SelectionStrategy::Distant.select(&ctx(&reps), 2, &mut rng);
        let sides: Vec<bool> = sel.iter().map(|&i| i < 10).collect();
        assert_ne!(sides[0], sides[1], "Distant picked one blob twice: {sel:?}");
    }

    #[test]
    fn degenerate_identical_representations_still_fill_budget() {
        // Constant representations: PCA has zero variance everywhere; every
        // strategy must still return `budget` distinct indices.
        let reps = Matrix::filled(12, 4, 1.0);
        let c = SelectionContext {
            reps: &reps,
            aug_view_std: None,
            cluster_hint: 2,
        };
        for strat in [
            SelectionStrategy::Random,
            SelectionStrategy::Distant,
            SelectionStrategy::KMeans,
            SelectionStrategy::MinVar,
            SelectionStrategy::HighEntropy,
            SelectionStrategy::TraceGreedy,
            SelectionStrategy::FarthestPoint,
            SelectionStrategy::MaxVar,
        ] {
            let mut rng = seeded(413);
            let sel = strat.select(&c, 5, &mut rng);
            let mut s = sel.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 5, "{} failed on degenerate reps", strat.name());
        }
    }

    #[test]
    fn single_sample_population() {
        let reps = Matrix::filled(1, 3, 2.0);
        let c = SelectionContext {
            reps: &reps,
            aug_view_std: None,
            cluster_hint: 1,
        };
        let mut rng = seeded(414);
        assert_eq!(
            SelectionStrategy::HighEntropy.select(&c, 3, &mut rng),
            vec![0]
        );
    }

    /// Farthest-point selection of `budget` rows of `reps`.
    fn farthest_point_selection(reps: &Matrix, budget: usize) -> Vec<usize> {
        SelectionStrategy::FarthestPoint.select(&ctx(reps), budget, &mut seeded(0))
    }

    #[test]
    fn farthest_point_is_spread_and_deterministic() {
        let mut rng = seeded(900);
        let reps = Matrix::randn(20, 8, 1.0, &mut rng);
        let a = farthest_point_selection(&reps, 6);
        let b = farthest_point_selection(&reps, 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 6, "selected indices repeat: {a:?}");
        // The greedy traversal must beat a contiguous prefix on minimum
        // pairwise spread — that is the whole point of the rule.
        let min_pair = |sel: &[usize]| {
            let mut m = f32::INFINITY;
            for (k, &i) in sel.iter().enumerate() {
                for &j in &sel[k + 1..] {
                    m = m.min(sq_dist(reps.row(i), reps.row(j)));
                }
            }
            m
        };
        let prefix: Vec<usize> = (0..6).collect();
        assert!(
            min_pair(&a) >= min_pair(&prefix),
            "farthest-point spread {} < prefix spread {}",
            min_pair(&a),
            min_pair(&prefix)
        );
    }

    #[test]
    fn farthest_point_handles_degenerate_budgets() {
        let mut rng = seeded(901);
        let reps = Matrix::randn(4, 3, 1.0, &mut rng);
        assert!(farthest_point_selection(&reps, 0).is_empty());
        assert_eq!(farthest_point_selection(&reps, 10).len(), 4);
    }

    #[test]
    fn max_var_stores_the_most_view_sensitive_samples() {
        let reps = aniso(12, 415);
        let stds: Vec<f32> = (0..12)
            .map(|i| if i % 3 == 0 { 5.0 } else { 0.1 })
            .collect();
        let c = SelectionContext {
            reps: &reps,
            aug_view_std: Some(&stds),
            cluster_hint: 1,
        };
        let sel = SelectionStrategy::MaxVar.select(&c, 4, &mut seeded(416));
        assert_eq!(sel, vec![0, 3, 6, 9]);
    }

    #[test]
    fn trace_cov_matches_hand_computation() {
        // Rows (0,0) and (2,0): mean (1,0), Tr(Cov) = (0+4)/2 − 1 = 1.
        let reps = Matrix::from_rows(&[&[0.0, 0.0], &[2.0, 0.0], &[9.0, 9.0]]);
        assert!((trace_cov(&reps, &[0, 1]) - 1.0).abs() < 1e-12);
        assert_eq!(trace_cov(&reps, &[]), 0.0);
        assert_eq!(trace_cov(&reps, &[2]), 0.0, "singleton has zero spread");
    }

    #[test]
    fn table5_order_matches_paper() {
        let names: Vec<&str> = table5_strategies().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["Random", "K-means", "Min-Var", "Distant", "High Entropy"]
        );
    }
}
