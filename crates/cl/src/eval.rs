//! Evaluation protocol: the weighted kNN classifier over representations
//! (paper §IV-A5, after Wu et al. \[78\]) — no extra trainable parameters.

use edsr_linalg::{KnnQuery, Metric};
use edsr_tensor::Matrix;

/// Softmax temperature for neighbour weighting (Wu et al. use 0.07).
const KNN_TEMPERATURE: f32 = 0.07;

/// Classifies each row of `test_reps` by temperature-weighted cosine kNN
/// voting over `(train_reps, train_labels)`.
///
/// # Panics
/// Panics if the reference set is empty or label count mismatches.
pub fn knn_classify(
    train_reps: &Matrix,
    train_labels: &[usize],
    test_reps: &Matrix,
    k: usize,
) -> Vec<usize> {
    assert!(train_reps.rows() > 0, "knn_classify: empty reference set");
    assert_eq!(
        train_reps.rows(),
        train_labels.len(),
        "knn_classify: reference labels misaligned"
    );
    let num_classes = train_labels.iter().copied().max().unwrap_or(0) + 1;
    let mut neighbors = Vec::new();
    KnnQuery::new(train_reps, k)
        .metric(Metric::Cosine)
        .search_batch_into(test_reps, &mut neighbors);
    let mut votes = vec![0.0f32; num_classes];
    neighbors
        .iter()
        .map(|found| {
            votes.fill(0.0);
            for n in found {
                let w = (n.score / KNN_TEMPERATURE).exp();
                votes[train_labels[n.index]] += w;
            }
            votes
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// Fraction of agreeing entries between predictions and ground truth.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(predictions.len(), labels.len(), "accuracy: length mismatch");
    assert!(!predictions.is_empty(), "accuracy: empty input");
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / predictions.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_linalg::stats::cosine_similarity;
    use edsr_tensor::rng::{gaussian, seeded};

    /// Two clearly separated clusters in representation space.
    fn clustered(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = seeded(seed);
        let mut reps = Matrix::zeros(2 * n_per, 4);
        let mut labels = Vec::new();
        for i in 0..2 * n_per {
            let class = i / n_per;
            let center = if class == 0 {
                [3.0, 0.0, 0.0, 0.0]
            } else {
                [0.0, 3.0, 0.0, 0.0]
            };
            for (c, &base) in center.iter().enumerate() {
                reps.set(i, c, base + 0.3 * gaussian(&mut rng));
            }
            labels.push(class);
        }
        (reps, labels)
    }

    #[test]
    fn classifies_separated_clusters() {
        let (train, train_labels) = clustered(20, 320);
        let (test, test_labels) = clustered(10, 321);
        let preds = knn_classify(&train, &train_labels, &test, 5);
        assert!(accuracy(&preds, &test_labels) > 0.95);
    }

    #[test]
    fn k_one_nearest_neighbor() {
        let train = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let labels = vec![7usize, 3];
        let test = Matrix::from_rows(&[&[0.9, 0.1], &[0.1, 0.9]]);
        let preds = knn_classify(&train, &labels, &test, 1);
        assert_eq!(preds, vec![7, 3]);
    }

    #[test]
    fn temperature_weighting_prefers_close_votes() {
        // 1 very close neighbour of class 0 vs 2 distant of class 1: with
        // temperature weighting the close one dominates at k=3.
        let train = Matrix::from_rows(&[&[1.0, 0.0], &[-0.5, 0.86], &[-0.5, -0.86]]);
        let labels = vec![0usize, 1, 1];
        let test = Matrix::from_rows(&[&[1.0, 0.01]]);
        let preds = knn_classify(&train, &labels, &test, 3);
        assert_eq!(preds, vec![0]);
    }

    #[test]
    fn accuracy_counts() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 4]), 2.0 / 3.0);
        assert_eq!(accuracy(&[0], &[0]), 1.0);
    }

    /// The per-query classifier as it was before queries were batched:
    /// full stable sort of every cosine score, a fresh vote vector per
    /// query. Kept as the regression reference for [`knn_classify`].
    fn per_query_reference(
        train_reps: &Matrix,
        train_labels: &[usize],
        test_reps: &Matrix,
        k: usize,
    ) -> Vec<usize> {
        let num_classes = train_labels.iter().copied().max().unwrap_or(0) + 1;
        (0..test_reps.rows())
            .map(|t| {
                let query = test_reps.row(t);
                let mut scored: Vec<(usize, f32)> = (0..train_reps.rows())
                    .map(|i| (i, cosine_similarity(train_reps.row(i), query)))
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                scored.truncate(k);
                let mut votes = vec![0.0f32; num_classes];
                for (index, score) in scored {
                    votes[train_labels[index]] += (score / KNN_TEMPERATURE).exp();
                }
                votes
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    #[test]
    fn batched_classifier_matches_per_query_reference_at_any_thread_count() {
        // 260 queries x 512 references at d=48 (6.4M multiply-adds, past
        // three `edsr_par::CUT`s): two threads split the batch in two and
        // seven in three. Duplicate and all-zero rows force score ties.
        let (n_train, n_test, d) = (512, 260, 48);
        assert!(n_test * n_train * d >= 3 * edsr_par::CUT);
        let mut rng = seeded(322);
        let mut train = Matrix::randn(n_train, d, 1.0, &mut rng);
        for r in (0..n_train).step_by(7) {
            let src = train.row((r + 3) % n_train).to_vec();
            for (c, v) in src.into_iter().enumerate() {
                train.set(r, c, if r % 2 == 0 { v } else { 0.0 });
            }
        }
        let labels: Vec<usize> = (0..n_train).map(|i| (i * 7) % 5).collect();
        let test = Matrix::randn(n_test, d, 1.0, &mut rng);
        for k in [1, 15, 600] {
            let want = per_query_reference(&train, &labels, &test, k);
            for threads in [1usize, 2, 7] {
                let before = edsr_par::handoffs();
                let got =
                    edsr_par::with_threads(threads, || knn_classify(&train, &labels, &test, k));
                assert!(
                    threads == 1 || edsr_par::pool_workers() == 0 || edsr_par::handoffs() > before,
                    "k={k} threads={threads}: the batch never reached the pool"
                );
                assert_eq!(got, want, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty reference")]
    fn empty_reference_panics() {
        let _ = knn_classify(&Matrix::zeros(0, 2), &[], &Matrix::zeros(1, 2), 1);
    }
}
