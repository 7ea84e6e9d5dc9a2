//! Property-based tests for the selection and noise subsystems.

#![cfg(test)]

use edsr_linalg::coding_length_entropy;
use edsr_tensor::rng::seeded;
use edsr_tensor::Matrix;
use proptest::prelude::*;

use crate::noise::noise_magnitudes;
use crate::select::{SelectionContext, SelectionStrategy};

fn rep_matrix() -> impl Strategy<Value = Matrix> {
    (4usize..24, 2usize..8).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-3.0f32..3.0, n * d)
            .prop_map(move |data| Matrix::from_vec(n, d, data))
    })
}

fn all_strategies() -> Vec<SelectionStrategy> {
    vec![
        SelectionStrategy::Random,
        SelectionStrategy::Distant,
        SelectionStrategy::KMeans,
        SelectionStrategy::MinVar,
        SelectionStrategy::HighEntropy,
        SelectionStrategy::TraceGreedy,
        SelectionStrategy::FarthestPoint,
        SelectionStrategy::MaxVar,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every strategy returns exactly min(budget, n) distinct in-range
    /// indices, for any representation matrix and budget.
    #[test]
    fn selection_budget_and_dedup_invariants(
        reps in rep_matrix(),
        budget in 0usize..32,
    ) {
        let n = reps.rows();
        for strategy in all_strategies() {
            let ctx = SelectionContext { reps: &reps, aug_view_std: None, cluster_hint: 3 };
            let mut rng = seeded(42);
            let sel = strategy.select(&ctx, budget, &mut rng);
            prop_assert_eq!(sel.len(), budget.min(n), "{} count", strategy.name());
            let mut sorted = sel.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), sel.len(), "{} dups", strategy.name());
            prop_assert!(sel.iter().all(|&i| i < n), "{} range", strategy.name());
        }
    }

    /// Selection is deterministic given the same RNG seed.
    #[test]
    fn selection_is_seed_deterministic(reps in rep_matrix()) {
        for strategy in all_strategies() {
            let ctx = SelectionContext { reps: &reps, aug_view_std: None, cluster_hint: 2 };
            let a = strategy.select(&ctx, 5, &mut seeded(7));
            let b = strategy.select(&ctx, 5, &mut seeded(7));
            prop_assert_eq!(a, b, "{} nondeterministic", strategy.name());
        }
    }

    /// Noise magnitudes are finite and non-negative for any k.
    #[test]
    fn noise_magnitudes_finite_nonnegative(
        reps in rep_matrix(),
        k in 0usize..12,
    ) {
        let selected: Vec<usize> = (0..reps.rows()).step_by(2).collect();
        let mags = noise_magnitudes(&reps, &selected, k);
        prop_assert_eq!(mags.len(), selected.len());
        prop_assert!(mags.iter().all(|m| m.is_finite() && *m >= 0.0));
        if k == 0 {
            prop_assert!(mags.iter().all(|&m| m == 0.0));
        }
    }

    /// Trace-greedy achieves the maximal trace surrogate among all
    /// implemented strategies (it is the literal argmax of Eq. 15).
    #[test]
    fn trace_greedy_maximizes_trace(reps in rep_matrix()) {
        let budget = 3.min(reps.rows());
        let ctx = SelectionContext { reps: &reps, aug_view_std: None, cluster_hint: 2 };
        let greedy = SelectionStrategy::TraceGreedy.select(&ctx, budget, &mut seeded(1));
        let greedy_trace = edsr_linalg::trace_surrogate(&reps.select_rows(&greedy));
        for strategy in all_strategies() {
            let sel = strategy.select(&ctx, budget, &mut seeded(2));
            let tr = edsr_linalg::trace_surrogate(&reps.select_rows(&sel));
            prop_assert!(
                tr <= greedy_trace + 1e-3,
                "{} trace {} exceeds greedy {}",
                strategy.name(),
                tr,
                greedy_trace
            );
        }
    }
}

/// Structured (non-proptest) check: on anisotropic data the high-entropy
/// selector's memory has higher coding-length entropy than the average
/// random memory — the paper's core selection claim.
#[test]
fn high_entropy_dominates_random_on_structured_data() {
    let mut rng = seeded(99);
    let mut reps = Matrix::zeros(150, 6);
    for r in 0..150 {
        reps.set(r, 0, edsr_tensor::rng::gaussian(&mut rng) * 5.0);
        reps.set(r, 1, edsr_tensor::rng::gaussian(&mut rng) * 2.0);
        for c in 2..6 {
            reps.set(r, c, edsr_tensor::rng::gaussian(&mut rng) * 0.3);
        }
    }
    let ctx = SelectionContext {
        reps: &reps,
        aug_view_std: None,
        cluster_hint: 3,
    };
    let he = SelectionStrategy::HighEntropy.select(&ctx, 10, &mut seeded(1));
    let h_he = coding_length_entropy(&reps.select_rows(&he), 0.5);
    let mut h_rand = 0.0;
    for t in 0..20 {
        let r = SelectionStrategy::Random.select(&ctx, 10, &mut seeded(100 + t));
        h_rand += coding_length_entropy(&reps.select_rows(&r), 0.5);
    }
    h_rand /= 20.0;
    assert!(
        h_he > h_rand,
        "H(high-entropy)={h_he} vs mean H(random)={h_rand}"
    );
}
