//! The [`TaskSource`] abstraction: anything that can yield continual-
//! learning increments in presentation order.
//!
//! The trainer (`edsr-cl`) consumes increments through this trait instead
//! of a concrete [`TaskSequence`], so the same run loop drives both the
//! fully materialized in-RAM path and the out-of-core shard stream
//! ([`crate::stream::ShardStream`]). The contract that makes the two
//! interchangeable:
//!
//! - **Identity**: `fetch(i)` must return the *same bytes* every time it
//!   is called for the same `i` — the trainer re-fetches earlier
//!   increments for the kNN evaluation rows, and bit-identical
//!   checkpoints across sources depend on it.
//! - **Locality**: the trainer's access pattern is sequential with
//!   bounded look-back bursts (`fetch(i)`, then `fetch(0..=i)` for the
//!   evaluation row, then `fetch(i+1)`), so a streaming source only ever
//!   needs a small resident window.
//! - **No RNG**: `fetch` must not consume training randomness; all
//!   stochasticity lives in generators that *write* data, never in
//!   sources that yield it.

use crate::dataset::{Task, TaskSequence};
use crate::error::DataError;

/// An ordered source of continual-learning increments.
///
/// Implemented by [`TaskSequence`] (in-RAM, infallible) and by
/// [`crate::stream::ShardStream`] (out-of-core, at most two shards
/// resident). `fetch` takes `&mut self` so streaming implementations can
/// rotate buffers; in-RAM implementations simply return a borrow.
pub trait TaskSource {
    /// Benchmark / stream name (labels results and checkpoints).
    fn name(&self) -> &str;

    /// Number of increments.
    fn len(&self) -> usize;

    /// True when the source holds no increments.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Input dimensionality of the first increment (heterogeneous-width
    /// streams, e.g. the tabular benchmark, report their first width).
    fn dim(&self) -> usize;

    /// Yields increment `idx`, loading it if necessary. Streaming sources
    /// may evict other increments to stay within their resident budget.
    fn fetch(&mut self, idx: usize) -> Result<&Task, DataError>;
}

impl TaskSource for TaskSequence {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.tasks.len()
    }

    fn dim(&self) -> usize {
        self.tasks.first().map_or(0, |t| t.train.dim())
    }

    fn fetch(&mut self, idx: usize) -> Result<&Task, DataError> {
        self.tasks.get(idx).ok_or(DataError::OutOfRange {
            index: idx,
            len: self.tasks.len(),
        })
    }
}

/// A shared sequence is also a source: `fetch` never mutates, so a caller
/// holding `&TaskSequence` can pass `&mut &seq` without cloning.
impl TaskSource for &TaskSequence {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.tasks.len()
    }

    fn dim(&self) -> usize {
        self.tasks.first().map_or(0, |t| t.train.dim())
    }

    fn fetch(&mut self, idx: usize) -> Result<&Task, DataError> {
        self.tasks.get(idx).ok_or(DataError::OutOfRange {
            index: idx,
            len: self.tasks.len(),
        })
    }
}

/// Materializes any source into an in-RAM [`TaskSequence`] by fetching
/// every increment in order. The joint-training upper bound needs all
/// increments at once (its epochs interleave batches across tasks), so
/// it goes through here; everything else should stream.
pub fn materialize(source: &mut dyn TaskSource) -> Result<TaskSequence, DataError> {
    let name = source.name().to_string();
    let mut tasks = Vec::with_capacity(source.len());
    for idx in 0..source.len() {
        tasks.push(source.fetch(idx)?.clone());
    }
    Ok(TaskSequence { name, tasks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use edsr_tensor::Matrix;

    fn seq() -> TaskSequence {
        let d = Dataset::new("d", Matrix::zeros(4, 3), vec![0, 0, 1, 1]);
        TaskSequence {
            name: "toy".into(),
            tasks: vec![
                Task {
                    train: d.filter_classes(&[0]),
                    test: d.filter_classes(&[0]),
                    classes: vec![0],
                },
                Task {
                    train: d.filter_classes(&[1]),
                    test: d.filter_classes(&[1]),
                    classes: vec![1],
                },
            ],
        }
    }

    #[test]
    fn sequence_is_a_source() {
        let mut s = seq();
        assert_eq!(TaskSource::name(&s), "toy");
        assert_eq!(TaskSource::len(&s), 2);
        assert_eq!(TaskSource::dim(&s), 3);
        assert_eq!(s.fetch(1).unwrap().classes, vec![1]);
        assert!(matches!(
            s.fetch(2),
            Err(DataError::OutOfRange { index: 2, len: 2 })
        ));
    }

    #[test]
    fn shared_reference_is_a_source() {
        let s = seq();
        let mut r = &s;
        let src: &mut dyn TaskSource = &mut r;
        assert_eq!(src.len(), 2);
        assert_eq!(src.fetch(0).unwrap().classes, vec![0]);
    }

    #[test]
    fn materialize_round_trips() {
        let s = seq();
        let back = materialize(&mut &s).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.len(), s.len());
        for (a, b) in back.tasks.iter().zip(&s.tasks) {
            assert_eq!(a.train.inputs.max_abs_diff(&b.train.inputs), 0.0);
            assert_eq!(a.test.labels, b.test.labels);
        }
    }
}
