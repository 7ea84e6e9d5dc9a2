//! The episodic memory `{M^i_*}_{i<n}`.
//!
//! Stores raw inputs (the replayable medium), their source increment (so
//! heterogeneous-input streams pick the right adapter), the per-sample
//! replay-noise magnitude `r(x^m)` (EDSR, §III-B), and optionally features
//! recorded at storage time (DER's backbone features, EDSR's
//! representations).
//!
//! Every replay method draws its rows through one sampler,
//! [`MemoryBuffer::draw`]: uniform or weighted, as one merged batch or as
//! one batch per source increment.

use edsr_nn::CheckpointError;
use edsr_tensor::rng::{sample_indices, weighted_index};
use edsr_tensor::Matrix;
use edsr_wire::{put_f32, put_f32s, put_u32, put_u64, Reader};
use rand::rngs::StdRng;

/// One stored sample.
#[derive(Debug, Clone)]
pub struct MemoryItem {
    /// Raw input vector.
    pub input: Vec<f32>,
    /// Source increment index.
    pub task: usize,
    /// Noise magnitude `r(x^m)`; 0 disables the noise term.
    pub noise_scale: f32,
    /// Features recorded at storage time: DER's backbone features, or
    /// the representation EDSR selected the sample on.
    pub stored_features: Option<Vec<f32>>,
}

/// A batch of drawn memory samples: one source task's, or a merged draw's
/// (uniform input dimensionality, one adapter).
#[derive(Debug)]
pub struct MemoryBatch {
    /// Source increment (a merged batch's first row's).
    pub task: usize,
    /// Inputs, one row per drawn item.
    pub inputs: Matrix,
    /// `r(x^m)` per row.
    pub noise_scales: Vec<f32>,
    /// Stored features per row; `None` unless every drawn item has some.
    pub stored_features: Option<Matrix>,
}

/// Fixed-capacity episodic memory.
#[derive(Debug, Default, Clone)]
pub struct MemoryBuffer {
    items: Vec<MemoryItem>,
}

impl MemoryBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Read access to all items.
    pub fn items(&self) -> &[MemoryItem] {
        &self.items
    }

    /// Appends a selection from one finished increment.
    pub fn extend(&mut self, items: impl IntoIterator<Item = MemoryItem>) {
        self.items.extend(items);
    }

    /// Draws `k` replay rows. With no `weights` the draw is uniform
    /// without replacement and clamps `k` to the population; with weights
    /// (one per item) it makes `k` draws with replacement, each item with
    /// probability proportional to its weight (§IV-F's similarity-weighted
    /// replay). A `merged` draw returns ONE batch, labelled with the first
    /// drawn item's source task; that suits a shared encoder adapter,
    /// which ignores the label, and batch-statistic losses (BarlowTwins),
    /// which degenerate on per-task groups as small as one row. Otherwise
    /// the rows come back grouped by source task, in ascending task order,
    /// so each group shares an adapter. Returns no batch when the buffer
    /// is empty or `k` is 0.
    ///
    /// # Panics
    /// Panics if `weights` does not hold one weight per item, or if a
    /// merged draw meets items of differing input dimensionality.
    pub fn draw(
        &self,
        k: usize,
        weights: Option<&[f32]>,
        merged: bool,
        rng: &mut StdRng,
    ) -> Vec<MemoryBatch> {
        if let Some(weights) = weights {
            assert_eq!(
                weights.len(),
                self.items.len(),
                "draw: weight count mismatch"
            );
        }
        if self.items.is_empty() || k == 0 {
            return Vec::new();
        }
        let chosen = match weights {
            None => sample_indices(rng, self.items.len(), k.min(self.items.len())),
            Some(weights) => (0..k).map(|_| weighted_index(rng, weights)).collect(),
        };
        if merged {
            return vec![self.batch(self.items[chosen[0]].task, &chosen)];
        }
        let mut tasks: Vec<usize> = chosen.iter().map(|&i| self.items[i].task).collect();
        tasks.sort_unstable();
        tasks.dedup();
        tasks
            .into_iter()
            .map(|task| {
                let members: Vec<usize> = chosen
                    .iter()
                    .copied()
                    .filter(|&i| self.items[i].task == task)
                    .collect();
                self.batch(task, &members)
            })
            .collect()
    }

    /// Serializes the buffer for a run-state snapshot (see
    /// `Method::save_state`). Format: item count, then per item the
    /// source task, noise scale, raw input, and optional stored features.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.items.len() as u64);
        for item in &self.items {
            put_u64(&mut buf, item.task as u64);
            put_f32(&mut buf, item.noise_scale);
            put_u64(&mut buf, item.input.len() as u64);
            put_f32s(&mut buf, &item.input);
            match &item.stored_features {
                Some(f) => {
                    put_u32(&mut buf, 1);
                    put_u64(&mut buf, f.len() as u64);
                    put_f32s(&mut buf, f);
                }
                None => put_u32(&mut buf, 0),
            }
        }
        buf
    }

    /// Rebuilds a buffer serialized by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes);
        let count = r.u64()?;
        // An item takes at least 24 bytes: task, noise, input length, tag.
        let mut items = Vec::with_capacity(r.count(count, 24)?);
        for _ in 0..count {
            let task = r.u64()? as usize;
            let noise_scale = r.f32()?;
            let dim = r.u64()?;
            let input = r.f32s(dim)?;
            let stored_features = match r.u32()? {
                0 => None,
                1 => {
                    let flen = r.u64()?;
                    Some(r.f32s(flen)?)
                }
                tag => {
                    return Err(CheckpointError::Mismatch(format!(
                        "memory item: unknown feature tag {tag}"
                    )))
                }
            };
            items.push(MemoryItem {
                input,
                task,
                noise_scale,
                stored_features,
            });
        }
        r.finish()?;
        Ok(Self { items })
    }

    /// Gathers the items at `indices` into one dense batch labelled
    /// `task`, with their stored features when every item has some.
    fn batch(&self, task: usize, indices: &[usize]) -> MemoryBatch {
        let dim = self.items[indices[0]].input.len();
        let mut inputs = Matrix::zeros(indices.len(), dim);
        let mut noise_scales = Vec::with_capacity(indices.len());
        for (row, &i) in indices.iter().enumerate() {
            let item = &self.items[i];
            assert_eq!(
                item.input.len(),
                dim,
                "draw: heterogeneous input dims in one batch; draw them grouped"
            );
            inputs.row_mut(row).copy_from_slice(&item.input);
            noise_scales.push(item.noise_scale);
        }
        let feats: Option<Vec<&Vec<f32>>> = indices
            .iter()
            .map(|&i| self.items[i].stored_features.as_ref())
            .collect();
        let stored_features = feats.map(|feats| {
            let mut m = Matrix::zeros(feats.len(), feats[0].len());
            for (row, f) in feats.iter().enumerate() {
                m.row_mut(row).copy_from_slice(f);
            }
            m
        });
        MemoryBatch {
            task,
            inputs,
            noise_scales,
            stored_features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;

    fn item(task: usize, v: f32) -> MemoryItem {
        MemoryItem {
            input: vec![v; 3],
            task,
            noise_scale: 0.1 * v,
            stored_features: None,
        }
    }

    #[test]
    fn extend_and_len() {
        let mut m = MemoryBuffer::new();
        assert!(m.is_empty());
        m.extend([item(0, 1.0), item(0, 2.0)]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn draw_grouped_groups_by_task() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0), item(1, 2.0), item(0, 3.0), item(1, 4.0)]);
        let mut rng = seeded(310);
        let groups = m.draw(4, None, false, &mut rng);
        assert_eq!(groups.len(), 2);
        let total: usize = groups.iter().map(|g| g.inputs.rows()).sum();
        assert_eq!(total, 4);
        for g in &groups {
            for r in 0..g.inputs.rows() {
                // All rows of a group come from the declared task: encode
                // task in the value (task 0 stored odd values 1,3).
                let v = g.inputs.get(r, 0);
                if g.task == 0 {
                    assert!(v == 1.0 || v == 3.0);
                } else {
                    assert!(v == 2.0 || v == 4.0);
                }
            }
        }
    }

    #[test]
    fn draw_clamps_to_population() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0)]);
        let mut rng = seeded(311);
        let groups = m.draw(10, None, false, &mut rng);
        assert_eq!(groups[0].inputs.rows(), 1);
    }

    #[test]
    fn empty_buffer_draws_nothing() {
        let m = MemoryBuffer::new();
        let mut rng = seeded(312);
        assert!(m.draw(5, None, false, &mut rng).is_empty());
        assert!(m.draw(0, None, false, &mut rng).is_empty());
    }

    #[test]
    fn noise_scales_travel_with_rows() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 2.0), item(0, 4.0)]);
        let mut rng = seeded(313);
        let groups = m.draw(2, None, false, &mut rng);
        let g = &groups[0];
        for r in 0..g.inputs.rows() {
            let v = g.inputs.get(r, 0);
            assert!((g.noise_scales[r] - 0.1 * v).abs() < 1e-6);
        }
    }

    #[test]
    fn stored_features_materialize_when_all_present() {
        let mut m = MemoryBuffer::new();
        m.extend([
            MemoryItem {
                input: vec![1.0; 3],
                task: 0,
                noise_scale: 0.0,
                stored_features: Some(vec![9.0, 8.0]),
            },
            MemoryItem {
                input: vec![2.0; 3],
                task: 0,
                noise_scale: 0.0,
                stored_features: Some(vec![7.0, 6.0]),
            },
        ]);
        let mut rng = seeded(314);
        let groups = m.draw(2, None, false, &mut rng);
        let f = groups[0]
            .stored_features
            .as_ref()
            .expect("features present");
        assert_eq!(f.shape(), (2, 2));
    }

    #[test]
    fn heterogeneous_dims_stay_separate() {
        let mut m = MemoryBuffer::new();
        m.extend([
            MemoryItem {
                input: vec![1.0; 4],
                task: 0,
                noise_scale: 0.0,
                stored_features: None,
            },
            MemoryItem {
                input: vec![1.0; 7],
                task: 1,
                noise_scale: 0.0,
                stored_features: None,
            },
        ]);
        let mut rng = seeded(315);
        let groups = m.draw(2, None, false, &mut rng);
        assert_eq!(groups.len(), 2);
        let dims: Vec<usize> = groups.iter().map(|g| g.inputs.cols()).collect();
        assert!(dims.contains(&4) && dims.contains(&7));
    }

    #[test]
    fn merged_draw_is_one_batch_with_uniform_dims() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0), item(1, 2.0), item(2, 3.0)]);
        let mut rng = seeded(317);
        let batches = m.draw(3, None, true, &mut rng);
        assert_eq!(batches.len(), 1, "a merged draw is one batch");
        let batch = &batches[0];
        assert_eq!(batch.inputs.rows(), 3);
        assert_eq!(batch.noise_scales.len(), 3);
        // Noise scales still aligned with their rows.
        for r in 0..3 {
            let v = batch.inputs.get(r, 0);
            assert!((batch.noise_scales[r] - 0.1 * v).abs() < 1e-6);
        }
    }

    #[test]
    fn merged_draw_of_empty_or_zero_is_empty() {
        let m = MemoryBuffer::new();
        let mut rng = seeded(318);
        assert!(m.draw(4, None, true, &mut rng).is_empty());
        let mut m2 = MemoryBuffer::new();
        m2.extend([item(0, 1.0)]);
        assert!(m2.draw(0, None, true, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "heterogeneous input dims")]
    fn merged_draw_rejects_mixed_dims() {
        let mut m = MemoryBuffer::new();
        m.extend([
            MemoryItem {
                input: vec![1.0; 4],
                task: 0,
                noise_scale: 0.0,
                stored_features: None,
            },
            MemoryItem {
                input: vec![1.0; 7],
                task: 1,
                noise_scale: 0.0,
                stored_features: None,
            },
        ]);
        let mut rng = seeded(319);
        // Draw everything so both dims are guaranteed to collide.
        let _ = m.draw(2, None, true, &mut rng);
    }

    #[test]
    fn weighted_merged_draw_is_one_batch_respecting_weights() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0), item(1, 2.0)]);
        let mut rng = seeded(320);
        let batches = m.draw(40, Some(&[0.0, 1.0]), true, &mut rng);
        assert_eq!(batches.len(), 1, "a merged draw is one batch");
        let batch = &batches[0];
        assert_eq!(batch.inputs.rows(), 40);
        for r in 0..40 {
            assert_eq!(batch.inputs.get(r, 0), 2.0, "zero-weight item drawn");
        }
    }

    #[test]
    fn byte_roundtrip_preserves_items() {
        let mut m = MemoryBuffer::new();
        m.extend([
            MemoryItem {
                input: vec![1.0, -2.5, 3.0],
                task: 2,
                noise_scale: 0.125,
                stored_features: Some(vec![9.0, 8.0]),
            },
            MemoryItem {
                input: vec![4.0; 7],
                task: 0,
                noise_scale: 0.0,
                stored_features: None,
            },
        ]);
        let restored = MemoryBuffer::from_bytes(&m.to_bytes()).expect("decode");
        assert_eq!(restored.len(), 2);
        for (a, b) in m.items().iter().zip(restored.items()) {
            assert_eq!(a.input, b.input);
            assert_eq!(a.task, b.task);
            assert_eq!(a.noise_scale, b.noise_scale);
            assert_eq!(a.stored_features, b.stored_features);
        }
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0)]);
        let bytes = m.to_bytes();
        assert!(MemoryBuffer::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(MemoryBuffer::from_bytes(&[]).is_err());
    }

    #[test]
    fn weighted_grouped_draw_respects_weights() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0), item(0, 2.0)]);
        let mut rng = seeded(316);
        let groups = m.draw(50, Some(&[0.0, 1.0]), false, &mut rng);
        let g = &groups[0];
        for r in 0..g.inputs.rows() {
            assert_eq!(g.inputs.get(r, 0), 2.0, "zero-weight item was drawn");
        }
    }
}
