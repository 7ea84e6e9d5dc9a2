//! Lloyd's k-means with k-means++ seeding.
//!
//! Used by two of the paper's baseline selectors (Table V): **Distant**
//! selects actual samples via the k-means++ seeding rule (maximally spread
//! points), and **K-means** stores the samples nearest to converged cluster
//! centers. Min-Var (Lin et al. \[61\]) also builds on these clusters.

// Multi-array parallel indexing is clearer with explicit loops here.
#![allow(clippy::needless_range_loop)]

use edsr_tensor::rng::{index, weighted_index};
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

use crate::stats::sq_euclidean;

/// Result of running k-means.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centers (`k x d`).
    pub centers: Matrix,
    /// Cluster assignment per input row.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f32,
    /// Iterations executed before convergence (or the cap).
    pub iterations: usize,
}

/// k-means++ seeding: returns `k` *row indices* of `x` chosen to be far
/// apart (D² sampling). This doubles as the paper's "Distant" selector.
///
/// # Panics
/// Panics if `k == 0` or `k > x.rows()`.
pub fn kmeanspp_indices(x: &Matrix, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = x.rows();
    assert!(k > 0 && k <= n, "kmeanspp: k={k} out of range for n={n}");
    let mut chosen = Vec::with_capacity(k);
    chosen.push(index(rng, n));
    let mut d2: Vec<f32> = (0..n)
        .map(|i| sq_euclidean(x.row(i), x.row(chosen[0])))
        .collect();
    while chosen.len() < k {
        let next = weighted_index(rng, &d2);
        chosen.push(next);
        for i in 0..n {
            let d = sq_euclidean(x.row(i), x.row(next));
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    chosen
}

/// Runs Lloyd's algorithm with k-means++ seeding.
///
/// Empty clusters are re-seeded to the point farthest from its center.
///
/// # Panics
/// Panics if `k == 0` or `k > x.rows()`.
pub fn kmeans(x: &Matrix, k: usize, max_iters: usize, rng: &mut StdRng) -> KMeansResult {
    let n = x.rows();
    let d = x.cols();
    assert!(k > 0 && k <= n, "kmeans: k={k} out of range for n={n}");

    let seeds = kmeanspp_indices(x, k, rng);
    let mut centers = x.select_rows(&seeds);
    let mut assignments = vec![0usize; n];
    let mut new_assignments = vec![0usize; n];
    let mut iterations = 0;

    for iter in 0..max_iters {
        iterations = iter + 1;
        // Assign: each row's nearest center, data-parallel over rows.
        {
            let centers = &centers;
            let kernel = |range: std::ops::Range<usize>, chunk: &mut [usize]| {
                for (local, i) in range.enumerate() {
                    let mut best = 0;
                    let mut best_d = f32::INFINITY;
                    for c in 0..k {
                        let dist = sq_euclidean(x.row(i), centers.row(c));
                        if dist < best_d {
                            best_d = dist;
                            best = c;
                        }
                    }
                    chunk[local] = best;
                }
            };
            edsr_par::par_for_rows(&mut new_assignments, n, n * k * d, kernel);
        }
        let mut changed = false;
        for i in 0..n {
            if assignments[i] != new_assignments[i] {
                assignments[i] = new_assignments[i];
                changed = true;
            }
        }
        if iter > 0 && !changed {
            break;
        }
        // Update.
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            let c = assignments[i];
            counts[c] += 1;
            for (s, &v) in sums.row_mut(c).iter_mut().zip(x.row(i)) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed to the globally farthest point from its center.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = sq_euclidean(x.row(a), centers.row(assignments[a]));
                        let db = sq_euclidean(x.row(b), centers.row(assignments[b]));
                        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("n > 0");
                centers.copy_row_from(c, x, far);
            } else {
                let inv = 1.0 / counts[c] as f32;
                for (dst, &s) in centers.row_mut(c).iter_mut().zip(sums.row(c)) {
                    *dst = s * inv;
                }
            }
        }
    }

    let inertia = (0..n)
        .map(|i| sq_euclidean(x.row(i), centers.row(assignments[i])))
        .sum::<f32>();
    KMeansResult {
        centers,
        assignments,
        inertia,
        iterations,
    }
}

/// For each cluster center, the index of the nearest input row
/// (deduplicated, preserving center order). This realizes the paper's
/// "K-means" selector: *store the cluster centers* — as real samples, since
/// the memory must contain replayable inputs.
pub fn nearest_to_centers(x: &Matrix, centers: &Matrix) -> Vec<usize> {
    let mut out = Vec::with_capacity(centers.rows());
    for c in 0..centers.rows() {
        let mut best = None;
        let mut best_d = f32::INFINITY;
        for i in 0..x.rows() {
            if out.contains(&i) {
                continue;
            }
            let d = sq_euclidean(x.row(i), centers.row(c));
            if d < best_d {
                best_d = d;
                best = Some(i);
            }
        }
        if let Some(i) = best {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;

    /// Three well-separated blobs of 20 points each.
    fn blobs(seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let mut x = Matrix::zeros(60, 2);
        for (b, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..20 {
                let r = b * 20 + i;
                x.set(r, 0, cx + edsr_tensor::rng::gaussian(&mut rng) * 0.3);
                x.set(r, 1, cy + edsr_tensor::rng::gaussian(&mut rng) * 0.3);
            }
        }
        x
    }

    #[test]
    fn recovers_blob_structure() {
        let x = blobs(70);
        let mut rng = seeded(71);
        let res = kmeans(&x, 3, 50, &mut rng);
        // Each blob should map to a single cluster.
        for b in 0..3 {
            let first = res.assignments[b * 20];
            assert!(
                res.assignments[b * 20..(b + 1) * 20]
                    .iter()
                    .all(|&a| a == first),
                "blob {b} split across clusters"
            );
        }
        assert!(res.inertia < 60.0 * 0.5, "inertia {}", res.inertia);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let x = blobs(72);
        let mut rng = seeded(73);
        let r1 = kmeans(&x, 1, 50, &mut rng);
        let r3 = kmeans(&x, 3, 50, &mut rng);
        assert!(r3.inertia < r1.inertia * 0.1);
    }

    #[test]
    fn kmeanspp_indices_distinct_and_spread() {
        let x = blobs(74);
        let mut rng = seeded(75);
        let idx = kmeanspp_indices(&x, 3, &mut rng);
        let mut sorted = idx.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
        // Should land one seed per blob with overwhelming probability.
        let mut blobs_hit = [false; 3];
        for &i in &idx {
            blobs_hit[i / 20] = true;
        }
        assert!(blobs_hit.iter().all(|&b| b), "seeds {idx:?} not spread");
    }

    #[test]
    fn nearest_to_centers_dedupes() {
        let x = blobs(76);
        let mut rng = seeded(77);
        let res = kmeans(&x, 3, 50, &mut rng);
        let idx = nearest_to_centers(&x, &res.centers);
        assert_eq!(idx.len(), 3);
        let mut s = idx.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn k_equals_n_zero_inertia() {
        let x = blobs(78);
        let mut rng = seeded(79);
        let res = kmeans(&x, 60, 30, &mut rng);
        assert!(res.inertia < 1e-3, "inertia {}", res.inertia);
    }

    #[test]
    fn assignments_in_range() {
        let x = blobs(80);
        let mut rng = seeded(81);
        let res = kmeans(&x, 5, 20, &mut rng);
        assert!(res.assignments.iter().all(|&a| a < 5));
        assert_eq!(res.assignments.len(), 60);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_k_panics() {
        let x = blobs(82);
        let mut rng = seeded(83);
        let _ = kmeans(&x, 0, 10, &mut rng);
    }

    /// Determinism contract (DESIGN.md §9): the assignment step carries
    /// `n * k * d` = 6.3M multiply-adds, past three `edsr_par::CUT`s, so
    /// two threads split it in two and seven in three; centers,
    /// assignments and inertia stay bit-identical.
    #[test]
    fn kmeans_bit_identical_across_thread_counts() {
        let (n, k, d) = (8200, 16, 48);
        assert!(n * k * d >= 3 * edsr_par::CUT);
        let x = Matrix::randn(n, d, 1.0, &mut seeded(84));
        let run = || kmeans(&x, k, 2, &mut seeded(85));
        let serial = edsr_par::with_threads(1, run);
        for threads in [2usize, 7] {
            let before = edsr_par::handoffs();
            let par = edsr_par::with_threads(threads, run);
            assert!(
                edsr_par::pool_workers() == 0 || edsr_par::handoffs() > before,
                "assignment never reached the pool at {threads} threads"
            );
            assert_eq!(serial.assignments, par.assignments, "threads={threads}");
            assert_eq!(serial.iterations, par.iterations);
            assert_eq!(serial.inertia.to_bits(), par.inertia.to_bits());
            assert!(
                serial
                    .centers
                    .data()
                    .iter()
                    .zip(par.centers.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "centers differ at {threads} threads"
            );
        }
    }
}
