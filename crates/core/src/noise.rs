//! The replay-noise magnitude `r(x^m)` (paper §III-B).
//!
//! For each stored sample, `r(x^m)` is the standard deviation of the
//! representations of its `k` nearest neighbours inside the increment it
//! was selected from — a data-dependent scale that relates the sample to
//! its augmentation-overlapping neighbourhood \[71\].

use edsr_linalg::stats::scalar_std;
use edsr_linalg::KnnQuery;
use edsr_tensor::Matrix;

/// Computes `r(x^m)` for each selected row.
///
/// `all_reps` are the representations `X̂ⁿ` of the full increment;
/// `selected` indexes the stored subset. `k = 0` returns all-zero
/// magnitudes (the `L_dis` ablation: Fig. 6's "0 neighbours" point).
///
/// When the observability layer is on, each magnitude lands in the
/// `noise/r` histogram and the batch mean/max in `noise/r_mean` /
/// `noise/r_max` — the distribution of the paper's noise scale before the
/// per-draw `N(0, σ)` factor is applied.
pub fn noise_magnitudes(all_reps: &Matrix, selected: &[usize], k: usize) -> Vec<f32> {
    if k == 0 {
        return vec![0.0; selected.len()];
    }
    let mut neighbors = Vec::with_capacity(k);
    let mags: Vec<f32> = selected
        .iter()
        .map(|&idx| {
            KnnQuery::new(all_reps, k)
                .exclude(idx)
                .search_into(all_reps.row(idx), &mut neighbors);
            if neighbors.is_empty() {
                return 0.0;
            }
            let rows: Vec<usize> = neighbors.iter().map(|n| n.index).collect();
            scalar_std(&all_reps.select_rows(&rows))
        })
        .collect();
    if edsr_obs::enabled() && !mags.is_empty() {
        let mut sum = 0.0f64;
        let mut max = f64::NEG_INFINITY;
        for (i, &r) in mags.iter().enumerate() {
            let r = f64::from(r);
            edsr_obs::histogram_at("noise/r", i as u64, r);
            sum += r;
            max = max.max(r);
        }
        edsr_obs::gauge("noise/r_mean", sum / mags.len() as f64);
        edsr_obs::gauge("noise/r_max", max);
    }
    mags
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;

    #[test]
    fn zero_k_disables_noise() {
        let mut rng = seeded(420);
        let reps = Matrix::randn(10, 4, 1.0, &mut rng);
        assert_eq!(noise_magnitudes(&reps, &[0, 3, 7], 0), vec![0.0; 3]);
    }

    #[test]
    fn magnitude_scales_with_neighborhood_spread() {
        // Sample 0 sits in a tight cluster; sample 10 in a loose one.
        let mut rng = seeded(421);
        let mut reps = Matrix::zeros(20, 3);
        for r in 0..10 {
            for c in 0..3 {
                reps.set(r, c, edsr_tensor::rng::gaussian(&mut rng) * 0.01);
            }
        }
        for r in 10..20 {
            for c in 0..3 {
                reps.set(r, c, 50.0 + edsr_tensor::rng::gaussian(&mut rng) * 2.0);
            }
        }
        let mags = noise_magnitudes(&reps, &[0, 10], 5);
        assert!(
            mags[1] > mags[0] * 10.0,
            "loose {} vs tight {}",
            mags[1],
            mags[0]
        );
    }

    #[test]
    fn excludes_self_from_neighborhood() {
        // One far outlier: its kNN std reflects the cluster it is far
        // from, not zero (which self-inclusion with k=1 could produce).
        let mut reps = Matrix::zeros(5, 2);
        reps.set(4, 0, 100.0);
        for r in 0..4 {
            reps.set(r, 0, r as f32);
        }
        let mags = noise_magnitudes(&reps, &[4], 3);
        assert!(mags[0] > 0.0, "self-exclusion failed: {mags:?}");
    }

    #[test]
    fn single_neighbor_gives_zero_std() {
        let mut rng = seeded(422);
        let reps = Matrix::randn(3, 2, 1.0, &mut rng);
        let mags = noise_magnitudes(&reps, &[0], 1);
        assert_eq!(mags[0], 0.0);
    }

    #[test]
    fn k_clamps_to_population() {
        let mut rng = seeded(423);
        let reps = Matrix::randn(4, 2, 1.0, &mut rng);
        let mags = noise_magnitudes(&reps, &[1], 100);
        assert!(mags[0].is_finite());
    }
}
