//! Quantized kNN over the int8 memory grid, plus the accuracy-delta gate.

use edsr_linalg::{top_k_into, KnnQuery, Metric, Neighbor};
use edsr_tensor::{simd, Matrix};

use crate::tensor::QuantTensor;

/// The replay-memory representations quantized with one per-tensor scale,
/// with precomputed `i32` self-dot-products for cosine scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMemory {
    grid: QuantTensor,
    self_dots: Vec<i32>,
}

impl QuantMemory {
    /// Quantizes an f32 memory grid (the calibration set *is* the grid:
    /// one symmetric scale over the snapshot's own representations).
    pub fn from_matrix(memory: &Matrix) -> QuantMemory {
        QuantMemory::from_grid(QuantTensor::from_matrix(memory))
    }

    /// Wraps an already-quantized grid (the snapshot-load path),
    /// recomputing the cosine self-dots.
    pub fn from_grid(grid: QuantTensor) -> QuantMemory {
        let self_dots = (0..grid.rows())
            .map(|r| simd::i8_dot(grid.row(r), grid.row(r)))
            .collect();
        QuantMemory { grid, self_dots }
    }

    /// Number of memory rows.
    pub fn rows(&self) -> usize {
        self.grid.rows()
    }

    /// Representation dimensionality.
    pub fn cols(&self) -> usize {
        self.grid.cols()
    }

    /// The underlying int8 grid.
    pub fn grid(&self) -> &QuantTensor {
        &self.grid
    }

    /// Quantizes an f32 query onto the *grid's* scale (not the query's
    /// own), so distances live on one integer lattice. Values beyond the
    /// calibration range clamp to ±127.
    fn quantize_query(&self, query: &[f32], qbuf: &mut Vec<i8>) {
        let s = self.grid.row_scale(0);
        qbuf.clear();
        qbuf.extend(
            query
                .iter()
                .map(|&v| (v / s).round().clamp(-127.0, 127.0) as i8),
        );
    }

    /// Quantized counterpart of `edsr_linalg::KnnQuery::search_into`,
    /// selecting through the same [`top_k_into`] so the ordering contract
    /// is identical: Euclidean ascending, cosine descending, ties kept in
    /// row order, `out` truncated to `k.min(eligible rows)`. Scores are
    /// converted back to f32 units (`i32 distance x scale²`; cosine scales
    /// cancel), one exact `i32` reduction per candidate — bit-identical
    /// across ISA levels and thread counts.
    pub fn search_into(
        &self,
        query: &[f32],
        k: usize,
        metric: Metric,
        exclude: Option<usize>,
        qbuf: &mut Vec<i8>,
        out: &mut Vec<Neighbor>,
    ) {
        assert_eq!(query.len(), self.cols(), "QuantMemory: query dim");
        self.quantize_query(query, qbuf);
        let s = self.grid.row_scale(0);
        let qq = simd::i8_dot(qbuf, qbuf);
        let qnorm = (qq as f32).sqrt();
        let candidates = (0..self.rows()).filter(|&r| exclude != Some(r)).map(|r| {
            let score = match metric {
                Metric::Euclidean => simd::i8_sq_euclidean(qbuf, self.grid.row(r)) as f32 * s * s,
                Metric::Cosine => {
                    let denom = qnorm * (self.self_dots[r] as f32).sqrt();
                    if denom > 0.0 {
                        simd::i8_dot(qbuf, self.grid.row(r)) as f32 / denom
                    } else {
                        0.0
                    }
                }
            };
            Neighbor { index: r, score }
        });
        top_k_into(candidates, k, metric, out);
    }
}

/// The export-time accuracy-delta gate: leave-one-out 1-NN task-ID
/// accuracy over the memory rows, f32 path vs int8 path (percent).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GateReport {
    /// f32 leave-one-out kNN task accuracy, percent.
    pub f32_accuracy: f32,
    /// int8 leave-one-out kNN task accuracy, percent.
    pub int8_accuracy: f32,
}

impl GateReport {
    /// Absolute accuracy delta in points.
    pub fn delta(&self) -> f32 {
        (self.f32_accuracy - self.int8_accuracy).abs()
    }
}

impl std::fmt::Display for GateReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "f32 {:.2}% int8 {:.2}% delta {:.2}",
            self.f32_accuracy,
            self.int8_accuracy,
            self.delta()
        )
    }
}

/// Runs the gate: for every memory row, predict its task ID from its
/// nearest *other* row (squared Euclidean — the retrieval metric both
/// paths share), once over the f32 grid and once over `qmem`. Memories
/// with fewer than two rows score 100/100 (nothing to predict from).
pub fn knn_gate(memory: &Matrix, tasks: &[u64], qmem: &QuantMemory) -> GateReport {
    assert_eq!(memory.rows(), tasks.len(), "knn_gate: task labels");
    assert_eq!(memory.rows(), qmem.rows(), "knn_gate: grid rows");
    let n = memory.rows();
    if n < 2 {
        return GateReport {
            f32_accuracy: 100.0,
            int8_accuracy: 100.0,
        };
    }
    let mut f32_hits = 0usize;
    let mut int8_hits = 0usize;
    let mut qbuf = Vec::new();
    let mut out = Vec::new();
    for r in 0..n {
        KnnQuery::new(memory, 1)
            .exclude(r)
            .search_into(memory.row(r), &mut out);
        if tasks[out[0].index] == tasks[r] {
            f32_hits += 1;
        }
        qmem.search_into(
            memory.row(r),
            1,
            Metric::Euclidean,
            Some(r),
            &mut qbuf,
            &mut out,
        );
        if tasks[out[0].index] == tasks[r] {
            int8_hits += 1;
        }
    }
    GateReport {
        f32_accuracy: 100.0 * f32_hits as f32 / n as f32,
        int8_accuracy: 100.0 * int8_hits as f32 / n as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[-1.0, 0.0], &[-0.9, -0.1]])
    }

    #[test]
    fn euclidean_ranking_matches_f32_knn() {
        let m = grid();
        let qmem = QuantMemory::from_matrix(&m);
        let (mut qbuf, mut out) = (Vec::new(), Vec::new());
        qmem.search_into(
            &[0.95, 0.0],
            2,
            Metric::Euclidean,
            None,
            &mut qbuf,
            &mut out,
        );
        let want = KnnQuery::new(&m, 2).search(&[0.95, 0.0]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].index, want[0].index);
        assert_eq!(out[1].index, want[1].index);
    }

    #[test]
    fn cosine_ranking_matches_f32_knn_and_guards_zero_norm() {
        let mut rows = grid();
        rows.set(3, 0, 0.0);
        rows.set(3, 1, 0.0); // zero row: cosine undefined, scored 0.0
        let qmem = QuantMemory::from_matrix(&rows);
        let (mut qbuf, mut out) = (Vec::new(), Vec::new());
        qmem.search_into(&[1.0, 0.05], 3, Metric::Cosine, None, &mut qbuf, &mut out);
        let want = KnnQuery::new(&rows, 3)
            .metric(Metric::Cosine)
            .search(&[1.0, 0.05]);
        assert_eq!(out[0].index, want[0].index);
        assert_eq!(out[1].index, want[1].index);
        assert!(out.iter().all(|n| n.score.is_finite()));
    }

    #[test]
    fn exclude_skips_the_query_row() {
        let m = grid();
        let qmem = QuantMemory::from_matrix(&m);
        let (mut qbuf, mut out) = (Vec::new(), Vec::new());
        qmem.search_into(m.row(0), 1, Metric::Euclidean, Some(0), &mut qbuf, &mut out);
        assert_eq!(out[0].index, 1);
    }

    #[test]
    fn gate_is_perfect_on_well_separated_tasks() {
        let m = grid();
        let qmem = QuantMemory::from_matrix(&m);
        let report = knn_gate(&m, &[0, 0, 1, 1], &qmem);
        assert_eq!(report.f32_accuracy, 100.0);
        assert_eq!(report.int8_accuracy, 100.0);
        assert_eq!(report.delta(), 0.0);
    }

    #[test]
    fn gate_handles_tiny_memories() {
        let m = Matrix::from_rows(&[&[1.0, 0.0]]);
        let qmem = QuantMemory::from_matrix(&m);
        let report = knn_gate(&m, &[0], &qmem);
        assert_eq!(report.delta(), 0.0);
    }
}
