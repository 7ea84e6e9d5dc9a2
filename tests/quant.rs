//! Quantized serving integration (DESIGN.md §17).
//!
//! Two promises pinned here, end to end through the public crates:
//!
//! 1. **Determinism**: the int8 inference path — quantized encoder
//!    forward and quantized kNN through a serve [`Engine`] — returns
//!    bit-identical embeddings and neighbor lists whatever the worker-pool
//!    width (`EDSR_THREADS`). The i32 accumulator chains are exact, so
//!    this is equality, not tolerance, and it holds for whichever int8
//!    reduction body the build compiled in (DESIGN.md §15).
//! 2. **Accuracy**: exporting v2 snapshots from a real 2-task EDSR run
//!    (`RunBuilder::quantize_serve_snapshots`) keeps the leave-one-out
//!    kNN task accuracy of the int8 memory within 1.0 point of f32 —
//!    the same gate `ci.sh` greps out of `edsr run --quantize`.

use edsr::cl::{
    latest_valid_serve_snapshot, quantize_serve_snapshot, AnyServeSnapshot, CheckpointConfig,
    ContinualModel, ModelConfig, RunBuilder, ServeSnapshot, TrainConfig,
};
use edsr::core::Edsr;
use edsr::data::test_sim;
use edsr::linalg::Metric;
use edsr::serve::Engine;
use edsr::tensor::rng::seeded;
use edsr::tensor::Matrix;

const DIM: usize = 16;
const MEMORY_ROWS: usize = 24;
const QUERIES: usize = 10;
const K: usize = 5;

/// Deterministic v1 snapshot: seeded model + replay representations.
fn snapshot() -> ServeSnapshot {
    let mut rng = seeded(410);
    let model = ContinualModel::new(&ModelConfig::image(DIM), &mut rng);
    let mem = Matrix::randn(MEMORY_ROWS, DIM, 1.0, &mut rng);
    let reprs = model.represent_eval(&mem, 0);
    let tasks = (0..MEMORY_ROWS as u64).map(|i| i % 3).collect();
    ServeSnapshot::capture(&model, reprs, tasks, "quant-test", 3).unwrap()
}

/// Embedding bits and neighbor lists (index + score bits, both metrics)
/// for every query row, served by a fresh quantized engine at the current
/// pool width.
type Trace = (Vec<Vec<u32>>, Vec<Vec<(usize, u32)>>);

fn serve_trace(inputs: &Matrix) -> Trace {
    let quant = quantize_serve_snapshot(&snapshot()).expect("quantize");
    let mut engine = Engine::from_quant_snapshot(quant, 64).expect("engine");
    assert!(engine.quantized());
    let mut emb = Vec::new();
    let mut neighbors = Vec::new();
    let mut embeds = Vec::new();
    let mut knns = Vec::new();
    for i in 0..inputs.rows() {
        engine
            .embed_into(0, inputs.row(i), &mut emb)
            .expect("embed");
        embeds.push(emb.iter().map(|v| v.to_bits()).collect());
        for metric in [Metric::Euclidean, Metric::Cosine] {
            engine
                .knn_into(&emb, K, metric, &mut neighbors)
                .expect("knn");
            knns.push(
                neighbors
                    .iter()
                    .map(|n| (n.index, n.score.to_bits()))
                    .collect(),
            );
        }
    }
    (embeds, knns)
}

#[test]
fn quant_engine_bit_identical_across_isa_and_threads() {
    let inputs = Matrix::randn(QUERIES, DIM, 1.0, &mut seeded(97));
    let want = edsr::par::with_threads(1, || serve_trace(&inputs));
    for threads in [1usize, 2, 7] {
        let got = edsr::par::with_threads(threads, || serve_trace(&inputs));
        assert_eq!(
            want, got,
            "quantized serve path diverged with {threads} threads"
        );
    }
}

#[test]
fn two_task_run_quantization_gate_within_one_point() {
    // 4 classes at 2 per increment: a real 2-task EDSR run, v2 snapshots
    // exported at every boundary exactly as `edsr run --serve-snapshot
    // --quantize` does.
    let mut preset = test_sim();
    preset.num_classes = 4;
    assert_eq!(preset.num_tasks(), 2);
    let (seq, augs) = preset.build_with_augmenters(&mut seeded(171));
    let mut cfg = TrainConfig::image();
    cfg.epochs_per_task = 8;
    let mut model = ContinualModel::new(&ModelConfig::image(preset.grid.dim()), &mut seeded(172));
    let mut edsr = Edsr::paper_default(preset.per_task_budget(), 6, preset.noise_neighbors);
    let dir = std::env::temp_dir().join(format!("edsr-quant-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    RunBuilder::new(&cfg)
        .serve_snapshots(CheckpointConfig::new(
            dir.display().to_string(),
            "quant-gate",
        ))
        .quantize_serve_snapshots()
        .run(&mut edsr, &mut model, &mut &seq, &augs, &mut seeded(173))
        .expect("run");

    let (path, snap) = latest_valid_serve_snapshot(&dir)
        .expect("no unreadable candidates")
        .expect("snapshot written");
    let AnyServeSnapshot::V2(quant) = snap else {
        panic!(
            "--quantize must export v2 snapshots, got v1 at {}",
            path.display()
        );
    };
    assert_eq!(quant.completed_tasks, 2);
    assert!(
        quant.gate.f32_accuracy > 0.0,
        "degenerate fixture: f32 leave-one-out accuracy is zero"
    );
    assert!(
        quant.gate.delta() <= 1.0,
        "int8 kNN task accuracy drifted {:.2} points from f32 (f32 {:.2}%, int8 {:.2}%)",
        quant.gate.delta(),
        quant.gate.f32_accuracy,
        quant.gate.int8_accuracy
    );

    // And the exported artifact actually serves on the int8 backend.
    let mut engine = Engine::from_quant_snapshot(*quant, 16).expect("engine");
    assert!(engine.quantized());
    let probe = seq.tasks[0].test.inputs.clone();
    let mut emb = Vec::new();
    engine.embed_into(0, probe.row(0), &mut emb).expect("embed");
    assert_eq!(emb.len(), engine.repr_dim());
    let _ = std::fs::remove_dir_all(&dir);
}
