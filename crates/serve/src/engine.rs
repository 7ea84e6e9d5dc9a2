//! Read-only inference engine over a loaded serve snapshot.
//!
//! One engine owns a backend — either the restored f32 model with a
//! reusable [`Workspace`] (warm forwards run on the zero-alloc tape
//! pools) or the int8 [`QuantEncoder`] with its ping-pong scratch —
//! plus input staging matrices, a kNN path over the snapshot's replay
//! representations, and the LRU [`EmbedCache`].
//!
//! The f32 path uses the encoder's *eval-mode* forward (batch
//! standardization skipped), which computes each output row
//! independently in a fixed accumulation order per element — so a
//! batched embed is bit-identical per row to single-input embeds at any
//! `EDSR_THREADS`, the property the micro-batcher relies on. The int8
//! path is stronger still: every reduction is an exact i32 chain, so
//! results are bit-identical whichever int8 body the build compiled in
//! *and* at any thread count (`tests/quant.rs`).

use edsr_cl::checkpoint::{AnyServeSnapshot, ServeSnapshot};
use edsr_cl::ContinualModel;
use edsr_linalg::{KnnQuery, Metric, Neighbor};
use edsr_nn::CheckpointError;
use edsr_nn::Workspace;
use edsr_quant::{QuantEncoder, QuantMemory, QuantScratch, QuantSnapshot};
use edsr_tensor::Matrix;

use crate::cache::EmbedCache;

/// What an embed call did: how many rows went through the batched
/// forward and how many were answered from cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmbedReport {
    /// Inputs that required a forward pass.
    pub forward_rows: usize,
    /// Inputs answered from the embedding cache.
    pub cache_hits: usize,
}

/// The numeric path a serve engine answers requests on.
enum Backend {
    /// Full-precision model restored from a v1 (`EDSRSS01`) snapshot.
    /// Boxed so the enum stays near the (much smaller) int8 variant.
    F32 {
        model: Box<ContinualModel>,
        memory: Matrix,
        ws: Workspace,
        staging: Matrix,
    },
    /// Int8 encoder + int8 memory grid from a v2 (`EDSRSS02`) snapshot.
    Quant {
        encoder: QuantEncoder,
        memory: QuantMemory,
        scratch: QuantScratch,
        repr_buf: Vec<f32>,
        qquery: Vec<i8>,
    },
}

/// Restored snapshot + scratch state for answering embed/knn requests.
pub struct Engine {
    backend: Backend,
    benchmark: String,
    completed_tasks: usize,
    memory_tasks: Vec<u64>,
    gather: Matrix,
    miss_idx: Vec<usize>,
    row_buf: Vec<f32>,
    cache: EmbedCache,
}

impl Engine {
    /// Restores the snapshot's model and takes ownership of its replay
    /// representations. `cache_capacity` bounds the embedding cache
    /// (0 disables it).
    pub fn from_snapshot(
        snapshot: ServeSnapshot,
        cache_capacity: usize,
    ) -> Result<Self, CheckpointError> {
        let model = snapshot.restore_model()?;
        Ok(Self {
            backend: Backend::F32 {
                model: Box::new(model),
                memory: snapshot.memory_reprs,
                ws: Workspace::new(),
                staging: Matrix::zeros(0, 0),
            },
            benchmark: snapshot.benchmark,
            completed_tasks: snapshot.completed_tasks,
            memory_tasks: snapshot.memory_tasks,
            gather: Matrix::zeros(0, 0),
            miss_idx: Vec::new(),
            row_buf: Vec::new(),
            cache: EmbedCache::new(cache_capacity),
        })
    }

    /// Builds an int8 engine from a v2 quantized snapshot. Infallible
    /// beyond what [`QuantSnapshot::load`] already validated, but keeps
    /// the same signature shape as [`from_snapshot`](Self::from_snapshot).
    pub fn from_quant_snapshot(
        snapshot: QuantSnapshot,
        cache_capacity: usize,
    ) -> Result<Self, CheckpointError> {
        Ok(Self {
            backend: Backend::Quant {
                encoder: snapshot.encoder,
                memory: snapshot.memory,
                scratch: QuantScratch::default(),
                repr_buf: Vec::new(),
                qquery: Vec::new(),
            },
            benchmark: snapshot.benchmark,
            completed_tasks: snapshot.completed_tasks,
            memory_tasks: snapshot.memory_tasks,
            gather: Matrix::zeros(0, 0),
            miss_idx: Vec::new(),
            row_buf: Vec::new(),
            cache: EmbedCache::new(cache_capacity),
        })
    }

    /// Builds the right backend for whichever snapshot version was
    /// loaded.
    pub fn from_any(
        snapshot: AnyServeSnapshot,
        cache_capacity: usize,
    ) -> Result<Self, CheckpointError> {
        match snapshot {
            AnyServeSnapshot::V1(snap) => Self::from_snapshot(*snap, cache_capacity),
            AnyServeSnapshot::V2(snap) => Self::from_quant_snapshot(*snap, cache_capacity),
        }
    }

    /// Whether requests run on the int8 backend.
    pub fn quantized(&self) -> bool {
        matches!(self.backend, Backend::Quant { .. })
    }

    /// Representation dimensionality served.
    pub fn repr_dim(&self) -> usize {
        match &self.backend {
            Backend::F32 { model, .. } => model.repr_dim(),
            Backend::Quant { encoder, .. } => encoder.repr_dim(),
        }
    }

    /// Rows in the replay-memory retrieval set.
    pub fn memory_rows(&self) -> usize {
        match &self.backend {
            Backend::F32 { memory, .. } => memory.rows(),
            Backend::Quant { memory, .. } => memory.rows(),
        }
    }

    /// Source increment of each memory row.
    pub fn memory_tasks(&self) -> &[u64] {
        &self.memory_tasks
    }

    /// Increments trained into the snapshot.
    pub fn completed_tasks(&self) -> usize {
        self.completed_tasks
    }

    /// Benchmark label the snapshot was trained on.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// Embedding-cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Embedding-cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Read-only access to the restored f32 model, `None` on the int8
    /// backend (tests compare against a direct in-process forward).
    pub fn model(&self) -> Option<&ContinualModel> {
        match &self.backend {
            Backend::F32 { model, .. } => Some(model.as_ref()),
            Backend::Quant { .. } => None,
        }
    }

    /// The input width `task` must provide, or a reject reason.
    pub fn expected_input_dim(&self, task: usize) -> Result<usize, String> {
        let dims: &[usize] = match &self.backend {
            Backend::F32 { model, .. } => &model.config().input_dims,
            Backend::Quant { encoder, .. } => encoder.input_dims(),
        };
        if dims.len() == 1 {
            Ok(dims[0])
        } else if task < dims.len() {
            Ok(dims[task])
        } else {
            Err(format!(
                "task {task} out of range: model has {} adapters",
                dims.len()
            ))
        }
    }

    /// Embeds a coalesced batch of same-task inputs (one per row of
    /// `inputs`): cache hits are served directly, the misses go through
    /// the backend forward (**one** batched tape forward on f32; one
    /// exact int8 chain per row on the quantized path), and every fresh
    /// embedding is cached. `emit(row, embedding, was_cache_hit)` is
    /// called exactly once per row (hits first, then misses in row
    /// order).
    ///
    /// Errors are total-request: on a reject nothing is emitted. Warm
    /// steady-state calls make no heap allocations on the hit path and a
    /// bounded, constant number on the miss path (`tests/zero_alloc.rs`,
    /// on both backends).
    pub fn embed_rows(
        &mut self,
        task: usize,
        inputs: &Matrix,
        mut emit: impl FnMut(usize, &[f32], bool),
    ) -> Result<EmbedReport, String> {
        let dim = self.expected_input_dim(task)?;
        if inputs.cols() != dim {
            return Err(format!(
                "got {}-feature inputs, task {task} expects {dim}",
                inputs.cols()
            ));
        }
        let mut report = EmbedReport::default();
        let Engine {
            backend,
            miss_idx,
            row_buf,
            cache,
            ..
        } = self;
        miss_idx.clear();
        for i in 0..inputs.rows() {
            if cache.lookup_into(task, inputs.row(i), row_buf) {
                report.cache_hits += 1;
                emit(i, row_buf, true);
            } else {
                miss_idx.push(i);
            }
        }
        if miss_idx.is_empty() {
            return Ok(report);
        }
        report.forward_rows = miss_idx.len();

        match backend {
            Backend::F32 {
                model, ws, staging, ..
            } => {
                if staging.rows() != miss_idx.len() || staging.cols() != dim {
                    *staging = Matrix::zeros(miss_idx.len(), dim);
                }
                for (row, &i) in miss_idx.iter().enumerate() {
                    staging.row_mut(row).copy_from_slice(inputs.row(i));
                }
                ws.reset();
                let repr = model.encoder.represent_eval_on(
                    &mut ws.tape,
                    &mut ws.binder,
                    &model.params,
                    staging,
                    task,
                );
                let reps = ws.tape.value(repr);
                for (row, &i) in miss_idx.iter().enumerate() {
                    cache.insert(task, inputs.row(i), reps.row(row));
                    emit(i, reps.row(row), false);
                }
            }
            Backend::Quant {
                encoder,
                scratch,
                repr_buf,
                ..
            } => {
                repr_buf.clear();
                repr_buf.resize(encoder.repr_dim(), 0.0);
                for &i in miss_idx.iter() {
                    encoder.represent_into(task, inputs.row(i), scratch, repr_buf);
                    cache.insert(task, inputs.row(i), repr_buf);
                    emit(i, repr_buf, false);
                }
            }
        }
        Ok(report)
    }

    /// [`embed_rows`](Self::embed_rows) over separately-owned input
    /// slices: `outs[i]` receives input `i`'s embedding (cleared first).
    pub fn embed_batch_into(
        &mut self,
        task: usize,
        inputs: &[&[f32]],
        outs: &mut [Vec<f32>],
    ) -> Result<EmbedReport, String> {
        assert_eq!(inputs.len(), outs.len(), "one output slot per input");
        let dim = self.expected_input_dim(task)?;
        for (i, input) in inputs.iter().enumerate() {
            if input.len() != dim {
                return Err(format!(
                    "input {i}: got {} features, task {task} expects {dim}",
                    input.len()
                ));
            }
        }
        let mut gather = std::mem::replace(&mut self.gather, Matrix::zeros(0, 0));
        if gather.rows() != inputs.len() || gather.cols() != dim {
            gather = Matrix::zeros(inputs.len(), dim);
        }
        for (row, input) in inputs.iter().enumerate() {
            gather.row_mut(row).copy_from_slice(input);
        }
        let res = self.embed_rows(task, &gather, |i, emb, _hit| {
            outs[i].clear();
            outs[i].extend_from_slice(emb);
        });
        self.gather = gather;
        res
    }

    /// Single-input convenience over
    /// [`embed_batch_into`](Self::embed_batch_into).
    pub fn embed_into(
        &mut self,
        task: usize,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<EmbedReport, String> {
        self.embed_batch_into(task, &[input], std::slice::from_mut(out))
    }

    /// The `k` stored replay representations nearest to `query`, closest
    /// first, written into `out` (cleared first; steady-state calls make
    /// no heap allocations once `out` holds `k` neighbours).
    pub fn knn_into(
        &mut self,
        query: &[f32],
        k: usize,
        metric: Metric,
        out: &mut Vec<Neighbor>,
    ) -> Result<(), String> {
        if query.len() != self.repr_dim() {
            return Err(format!(
                "knn query has {} dims, representations have {}",
                query.len(),
                self.repr_dim()
            ));
        }
        if k == 0 {
            return Err("knn k must be >= 1".into());
        }
        match &mut self.backend {
            Backend::F32 { memory, .. } => {
                KnnQuery::new(memory, k)
                    .metric(metric)
                    .search_into(query, out);
            }
            Backend::Quant { memory, qquery, .. } => {
                memory.search_into(query, k, metric, None, qquery, out);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_cl::ModelConfig;
    use edsr_tensor::rng::seeded;

    fn fixture_snapshot() -> ServeSnapshot {
        let mut rng = seeded(11);
        let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let mem_inputs = Matrix::randn(6, 16, 1.0, &mut rng);
        let reprs = model.represent(&mem_inputs, 0);
        let tasks = vec![0, 0, 0, 1, 1, 2];
        ServeSnapshot::capture(&model, reprs, tasks, "test", 3).unwrap()
    }

    fn fixture() -> Engine {
        Engine::from_snapshot(fixture_snapshot(), 8).unwrap()
    }

    fn quant_fixture() -> Engine {
        let snap = fixture_snapshot();
        let qsnap = edsr_cl::quantize_serve_snapshot(&snap).unwrap();
        Engine::from_quant_snapshot(qsnap, 8).unwrap()
    }

    #[test]
    fn batched_embed_rows_match_single_embeds_bitwise() {
        let mut engine = fixture();
        let mut rng = seeded(7);
        let batch = Matrix::randn(5, 16, 1.0, &mut rng);
        let inputs: Vec<&[f32]> = (0..5).map(|i| batch.row(i)).collect();
        let mut outs = vec![Vec::new(); 5];
        let report = engine
            .embed_batch_into(0, &inputs, &mut outs)
            .expect("valid batch");
        assert_eq!(report.forward_rows, 5);
        assert_eq!(report.cache_hits, 0);

        // A cold engine embedding each input alone must agree bit-for-bit.
        let mut solo_engine = fixture();
        for (i, input) in inputs.iter().enumerate() {
            let mut out = Vec::new();
            solo_engine.embed_into(0, input, &mut out).unwrap();
            let a: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = outs[i].iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "row {i} diverged between batched and solo");
        }

        // Direct in-process eval forward agrees too.
        let direct = engine
            .model()
            .expect("f32 backend")
            .represent_eval(&batch, 0);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(
                direct
                    .row(i)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn repeated_embed_hits_cache_and_is_identical() {
        let mut engine = fixture();
        let mut rng = seeded(3);
        let x = Matrix::randn(1, 16, 1.0, &mut rng);
        let mut first = Vec::new();
        let mut second = Vec::new();
        let r1 = engine.embed_into(0, x.row(0), &mut first).unwrap();
        let r2 = engine.embed_into(0, x.row(0), &mut second).unwrap();
        assert_eq!(r1.forward_rows, 1);
        assert_eq!(r2.forward_rows, 0);
        assert_eq!(r2.cache_hits, 1);
        assert_eq!(
            first.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(engine.cache_hits(), 1);
        assert_eq!(engine.cache_misses(), 1);
    }

    #[test]
    fn mixed_hit_miss_batch_emits_every_row() {
        let mut engine = fixture();
        let mut rng = seeded(9);
        let batch = Matrix::randn(3, 16, 1.0, &mut rng);
        let mut warm = Vec::new();
        engine.embed_into(0, batch.row(1), &mut warm).unwrap();

        let mut seen = [false; 3];
        let report = engine
            .embed_rows(0, &batch, |i, emb, hit| {
                assert_eq!(emb.len(), 48);
                assert_eq!(hit, i == 1);
                seen[i] = true;
            })
            .unwrap();
        assert!(seen.iter().all(|&s| s));
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.forward_rows, 2);
    }

    #[test]
    fn knn_matches_direct_query_and_validates() {
        let mut engine = fixture();
        let mut rng = seeded(5);
        let x = Matrix::randn(1, 16, 1.0, &mut rng);
        let mut emb = Vec::new();
        engine.embed_into(0, x.row(0), &mut emb).unwrap();

        let mut got = Vec::new();
        engine
            .knn_into(&emb, 3, Metric::Cosine, &mut got)
            .expect("valid query");
        assert_eq!(got.len(), 3);

        // Rebuild the reference the same way the snapshot stored it.
        let reference = fixture_snapshot().memory_reprs;
        let direct = KnnQuery::new(&reference, 3)
            .metric(Metric::Cosine)
            .search(&emb);
        for (a, b) in got.iter().zip(&direct) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }

        // Bad dimensionality and k=0 are rejected with messages.
        assert!(engine
            .knn_into(&emb[..4], 3, Metric::Cosine, &mut got)
            .is_err());
        assert!(engine.knn_into(&emb, 0, Metric::Cosine, &mut got).is_err());
    }

    #[test]
    fn bad_task_and_dims_are_rejected() {
        let mut engine = fixture();
        let mut out = Vec::new();
        // Single-adapter model: any task index maps to adapter 0.
        assert!(engine.embed_into(7, &[0.0; 16], &mut out).is_ok());
        // Wrong width is rejected before any forward.
        let err = engine.embed_into(0, &[0.0; 9], &mut out).unwrap_err();
        assert!(err.contains("expects 16"), "unexpected message: {err}");
    }

    #[test]
    fn quant_engine_serves_embeds_and_knn() {
        let mut engine = quant_fixture();
        assert!(engine.quantized());
        assert!(engine.model().is_none());
        assert_eq!(engine.repr_dim(), 48);
        assert_eq!(engine.memory_rows(), 6);
        assert_eq!(engine.benchmark(), "test");
        assert_eq!(engine.completed_tasks(), 3);

        let mut rng = seeded(7);
        let batch = Matrix::randn(4, 16, 1.0, &mut rng);
        let inputs: Vec<&[f32]> = (0..4).map(|i| batch.row(i)).collect();
        let mut outs = vec![Vec::new(); 4];
        let report = engine
            .embed_batch_into(0, &inputs, &mut outs)
            .expect("valid batch");
        assert_eq!(report.forward_rows, 4);

        // Batched vs solo agree bit-for-bit on the int8 path too.
        let mut solo = quant_fixture();
        for (i, input) in inputs.iter().enumerate() {
            let mut out = Vec::new();
            solo.embed_into(0, input, &mut out).unwrap();
            assert_eq!(
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                outs[i].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "row {i} diverged between batched and solo quant embeds"
            );
        }

        // Cache round-trip is exact.
        let mut again = Vec::new();
        let r2 = engine.embed_into(0, inputs[0], &mut again).unwrap();
        assert_eq!(r2.cache_hits, 1);
        assert_eq!(
            again.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            outs[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );

        // kNN answers on the int8 grid for both metrics.
        let mut got = Vec::new();
        engine
            .knn_into(&outs[0], 3, Metric::Euclidean, &mut got)
            .expect("valid query");
        assert_eq!(got.len(), 3);
        assert!(got[0].score <= got[1].score);
        engine
            .knn_into(&outs[0], 2, Metric::Cosine, &mut got)
            .expect("valid query");
        assert_eq!(got.len(), 2);
        assert!(got[0].score >= got[1].score);

        // Validation still rejects bad queries.
        assert!(engine
            .knn_into(&outs[0][..4], 3, Metric::Cosine, &mut got)
            .is_err());
    }

    #[test]
    fn from_any_picks_backend_by_snapshot_version() {
        let snap = fixture_snapshot();
        let qsnap = edsr_cl::quantize_serve_snapshot(&snap).unwrap();
        let v1 = Engine::from_any(edsr_cl::AnyServeSnapshot::V1(Box::new(snap)), 4).unwrap();
        assert!(!v1.quantized());
        let v2 = Engine::from_any(edsr_cl::AnyServeSnapshot::V2(Box::new(qsnap)), 4).unwrap();
        assert!(v2.quantized());
        assert_eq!(v1.repr_dim(), v2.repr_dim());
        assert_eq!(v1.memory_rows(), v2.memory_rows());
        assert_eq!(v1.memory_tasks(), v2.memory_tasks());
    }
}
