//! The episodic memory `{M^i_*}_{i<n}`.
//!
//! Stores raw inputs (the replayable medium), their source increment (so
//! heterogeneous-input streams pick the right adapter), the per-sample
//! replay-noise magnitude `r(x^m)` (EDSR, §III-B), and optionally the
//! frozen backbone features recorded at storage time (DER's medium).

use edsr_nn::CheckpointError;
use edsr_tensor::rng::sample_indices;
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
    /// Backbone features at storage time (DER only).
    pub stored_features: Option<Vec<f32>>,
}

/// A batch of memory samples drawn from one source task (uniform input
/// dimensionality, one adapter).
#[derive(Debug)]
pub struct MemoryBatch {
    /// Source increment.
    pub task: usize,
    /// Inputs, one row per drawn item.
    pub inputs: Matrix,
    /// `r(x^m)` per row.
    pub noise_scales: Vec<f32>,
    /// Stored DER features per row (empty matrix if absent).
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

    /// Draws up to `k` items uniformly (without replacement) and groups
    /// them by source task so each group shares an adapter. Returns an
    /// empty vec when the buffer is empty.
    pub fn sample_grouped(&self, k: usize, rng: &mut StdRng) -> Vec<MemoryBatch> {
        if self.items.is_empty() || k == 0 {
            return Vec::new();
        }
        let k = k.min(self.items.len());
        let chosen = sample_indices(rng, self.items.len(), k);
        self.group(&chosen)
    }

    /// Draws up to `k` items with probability proportional to `weights`
    /// (with replacement), grouped by task. Used by the similarity-
    /// weighted replay extension (§IV-F's "potential way").
    ///
    /// # Panics
    /// Panics if `weights.len() != self.len()`.
    pub fn sample_weighted_grouped(
        &self,
        k: usize,
        weights: &[f32],
        rng: &mut StdRng,
    ) -> Vec<MemoryBatch> {
        assert_eq!(
            weights.len(),
            self.items.len(),
            "sample_weighted: weight count mismatch"
        );
        if self.items.is_empty() || k == 0 {
            return Vec::new();
        }
        let chosen: Vec<usize> = (0..k)
            .map(|_| edsr_tensor::rng::weighted_index(rng, weights))
            .collect();
        self.group(&chosen)
    }

    /// Draws up to `k` items uniformly (without replacement) as ONE merged
    /// batch — valid when all items share the encoder adapter (uniform
    /// input dimensionality, e.g. every image benchmark). Batch-statistic
    /// losses (BarlowTwins) need this: per-task groups can be as small as
    /// one row, where batch standardization degenerates.
    ///
    /// The batch's `task` is the first drawn item's source task (with a
    /// shared adapter the value is ignored by the encoder).
    ///
    /// # Panics
    /// Panics if stored items have differing input dimensionality.
    pub fn sample_merged(&self, k: usize, rng: &mut StdRng) -> Option<MemoryBatch> {
        if self.items.is_empty() || k == 0 {
            return None;
        }
        let k = k.min(self.items.len());
        let chosen = sample_indices(rng, self.items.len(), k);
        let dim = self.items[chosen[0]].input.len();
        let mut inputs = Matrix::zeros(k, dim);
        let mut noise_scales = Vec::with_capacity(k);
        for (row, &i) in chosen.iter().enumerate() {
            assert_eq!(
                self.items[i].input.len(),
                dim,
                "sample_merged: heterogeneous input dims; use sample_grouped"
            );
            inputs.row_mut(row).copy_from_slice(&self.items[i].input);
            noise_scales.push(self.items[i].noise_scale);
        }
        Some(MemoryBatch {
            task: self.items[chosen[0]].task,
            inputs,
            noise_scales,
            stored_features: None,
        })
    }

    /// Weighted-with-replacement variant of
    /// [`sample_merged`](Self::sample_merged) (uniform input
    /// dimensionality required). Used by similarity-weighted replay on
    /// shared-adapter encoders.
    ///
    /// # Panics
    /// Panics on weight-count mismatch or heterogeneous input dims.
    pub fn sample_weighted_merged(
        &self,
        k: usize,
        weights: &[f32],
        rng: &mut StdRng,
    ) -> Option<MemoryBatch> {
        assert_eq!(
            weights.len(),
            self.items.len(),
            "sample_weighted_merged: weight count mismatch"
        );
        if self.items.is_empty() || k == 0 {
            return None;
        }
        let chosen: Vec<usize> = (0..k)
            .map(|_| edsr_tensor::rng::weighted_index(rng, weights))
            .collect();
        let dim = self.items[chosen[0]].input.len();
        let mut inputs = Matrix::zeros(chosen.len(), dim);
        let mut noise_scales = Vec::with_capacity(chosen.len());
        for (row, &i) in chosen.iter().enumerate() {
            assert_eq!(
                self.items[i].input.len(),
                dim,
                "sample_weighted_merged: heterogeneous input dims; use sample_weighted_grouped"
            );
            inputs.row_mut(row).copy_from_slice(&self.items[i].input);
            noise_scales.push(self.items[i].noise_scale);
        }
        Some(MemoryBatch {
            task: self.items[chosen[0]].task,
            inputs,
            noise_scales,
            stored_features: None,
        })
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

    /// Groups item indices by task into dense batches.
    fn group(&self, indices: &[usize]) -> Vec<MemoryBatch> {
        let mut tasks: Vec<usize> = indices.iter().map(|&i| self.items[i].task).collect();
        tasks.sort_unstable();
        tasks.dedup();
        tasks
            .into_iter()
            .map(|task| {
                let members: Vec<usize> = indices
                    .iter()
                    .copied()
                    .filter(|&i| self.items[i].task == task)
                    .collect();
                let dim = self.items[members[0]].input.len();
                let mut inputs = Matrix::zeros(members.len(), dim);
                let mut noise_scales = Vec::with_capacity(members.len());
                let mut feats: Vec<&Vec<f32>> = Vec::new();
                let mut all_have_features = true;
                for (row, &i) in members.iter().enumerate() {
                    inputs.row_mut(row).copy_from_slice(&self.items[i].input);
                    noise_scales.push(self.items[i].noise_scale);
                    match &self.items[i].stored_features {
                        Some(f) => feats.push(f),
                        None => all_have_features = false,
                    }
                }
                let stored_features = if all_have_features && !feats.is_empty() {
                    let fd = feats[0].len();
                    let mut m = Matrix::zeros(feats.len(), fd);
                    for (row, f) in feats.iter().enumerate() {
                        m.row_mut(row).copy_from_slice(f);
                    }
                    Some(m)
                } else {
                    None
                };
                MemoryBatch {
                    task,
                    inputs,
                    noise_scales,
                    stored_features,
                }
            })
            .collect()
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
    fn sample_grouped_groups_by_task() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0), item(1, 2.0), item(0, 3.0), item(1, 4.0)]);
        let mut rng = seeded(310);
        let groups = m.sample_grouped(4, &mut rng);
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
    fn sample_clamps_to_population() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0)]);
        let mut rng = seeded(311);
        let groups = m.sample_grouped(10, &mut rng);
        assert_eq!(groups[0].inputs.rows(), 1);
    }

    #[test]
    fn empty_buffer_samples_nothing() {
        let m = MemoryBuffer::new();
        let mut rng = seeded(312);
        assert!(m.sample_grouped(5, &mut rng).is_empty());
        assert!(m.sample_grouped(0, &mut rng).is_empty());
    }

    #[test]
    fn noise_scales_travel_with_rows() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 2.0), item(0, 4.0)]);
        let mut rng = seeded(313);
        let groups = m.sample_grouped(2, &mut rng);
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
        let groups = m.sample_grouped(2, &mut rng);
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
        let groups = m.sample_grouped(2, &mut rng);
        assert_eq!(groups.len(), 2);
        let dims: Vec<usize> = groups.iter().map(|g| g.inputs.cols()).collect();
        assert!(dims.contains(&4) && dims.contains(&7));
    }

    #[test]
    fn sample_merged_single_batch_uniform_dims() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0), item(1, 2.0), item(2, 3.0)]);
        let mut rng = seeded(317);
        let batch = m.sample_merged(3, &mut rng).expect("non-empty");
        assert_eq!(batch.inputs.rows(), 3);
        assert_eq!(batch.noise_scales.len(), 3);
        // Noise scales still aligned with their rows.
        for r in 0..3 {
            let v = batch.inputs.get(r, 0);
            assert!((batch.noise_scales[r] - 0.1 * v).abs() < 1e-6);
        }
    }

    #[test]
    fn sample_merged_empty_and_zero() {
        let m = MemoryBuffer::new();
        let mut rng = seeded(318);
        assert!(m.sample_merged(4, &mut rng).is_none());
        let mut m2 = MemoryBuffer::new();
        m2.extend([item(0, 1.0)]);
        assert!(m2.sample_merged(0, &mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "heterogeneous input dims")]
    fn sample_merged_rejects_mixed_dims() {
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
        let _ = m.sample_merged(2, &mut rng);
    }

    #[test]
    fn weighted_merged_is_one_batch_respecting_weights() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0), item(1, 2.0)]);
        let mut rng = seeded(320);
        let batch = m
            .sample_weighted_merged(40, &[0.0, 1.0], &mut rng)
            .expect("batch");
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
    fn weighted_sampling_respects_weights() {
        let mut m = MemoryBuffer::new();
        m.extend([item(0, 1.0), item(0, 2.0)]);
        let mut rng = seeded(316);
        let groups = m.sample_weighted_grouped(50, &[0.0, 1.0], &mut rng);
        let g = &groups[0];
        for r in 0..g.inputs.rows() {
            assert_eq!(g.inputs.get(r, 0), 2.0, "zero-weight item was drawn");
        }
    }
}
