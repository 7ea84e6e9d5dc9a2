//! Shuffled minibatch iteration.

use edsr_tensor::rng::shuffle;
use rand::rngs::StdRng;

/// Yields shuffled index batches covering `0..n` once per epoch.
///
/// The final batch may be smaller than `batch_size` (no drop-last — at
/// simulation scale every sample counts).
#[derive(Debug)]
pub struct BatchIter {
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl BatchIter {
    /// Creates a one-epoch iterator over `n` samples.
    ///
    /// # Panics
    /// Panics if `batch_size == 0`.
    pub fn new(n: usize, batch_size: usize, rng: &mut StdRng) -> Self {
        assert!(batch_size > 0, "BatchIter: batch_size must be positive");
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(rng, &mut order);
        Self {
            order,
            batch_size,
            cursor: 0,
        }
    }
}

impl Iterator for BatchIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let batch = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;

    #[test]
    fn covers_all_indices_once() {
        let mut rng = seeded(180);
        let mut seen = [0usize; 23];
        for batch in BatchIter::new(23, 5, &mut rng) {
            for i in batch {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn batch_sizes() {
        let mut rng = seeded(181);
        let it = BatchIter::new(10, 4, &mut rng);
        let sizes: Vec<usize> = it.map(|b| b.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn empty_input_yields_nothing() {
        let mut rng = seeded(182);
        assert_eq!(BatchIter::new(0, 4, &mut rng).count(), 0);
    }

    #[test]
    fn different_epochs_shuffle_differently() {
        let mut rng = seeded(183);
        let a: Vec<Vec<usize>> = BatchIter::new(20, 20, &mut rng).collect();
        let b: Vec<Vec<usize>> = BatchIter::new(20, 20, &mut rng).collect();
        assert_ne!(a, b, "two epochs produced identical order");
    }
}
