//! SIMD ISA dispatch equality on serve snapshot fixtures (DESIGN.md §15).
//!
//! The serving path promises that retrieval results never depend on the
//! host: the distance kernels accumulate in the canonical 8-lane order at
//! every ISA level. These tests pin that promise to the real serving
//! artifacts — a captured `ServeSnapshot`'s memory representations and
//! eval-mode query embeddings — rather than synthetic vectors:
//!
//! 1. the raw per-row `dot` / `sq_euclidean` vtable entries agree
//!    bit-for-bit with the scalar kernel for every supported ISA, and
//! 2. a full `KnnQuery::search_batch` (both metrics) returns identical
//!    neighbor lists — same indices, same score bits — and the evaluation
//!    protocol's `knn_classify` the same predictions, whether the process
//!    pins `EDSR_ISA` to `scalar` or to a SIMD level.
//!
//! Unsupported ISA levels are skipped loudly, never silently passed.
//! Test 2 mutates the process-global ISA selection, so it lives in its
//! own integration binary; test 1 only uses explicit vtables and is safe
//! to run concurrently with it.

use edsr::cl::{knn_classify, ContinualModel, ModelConfig, ServeSnapshot};
use edsr::linalg::{KnnQuery, Metric, Neighbor};
use edsr::tensor::rng::seeded;
use edsr::tensor::simd::{self, Isa, IsaRequest, Kernel};
use edsr::tensor::Matrix;

const DIM: usize = 16;
const MEMORY_ROWS: usize = 24;
const QUERIES: usize = 12;
const K: usize = 5;

/// Deterministic serve snapshot: seeded model + replay representations,
/// round-tripped through capture (the same fixture shape tests/serve.rs
/// drives the server with).
fn snapshot() -> ServeSnapshot {
    let mut rng = seeded(41);
    let model = ContinualModel::new(&ModelConfig::image(DIM), &mut rng);
    let mem = Matrix::randn(MEMORY_ROWS, DIM, 1.0, &mut rng);
    let reprs = model.represent_eval(&mem, 0);
    let tasks = (0..MEMORY_ROWS as u64).map(|i| i % 3).collect();
    ServeSnapshot::capture(&model, reprs, tasks, "simd-dispatch-test", 3).unwrap()
}

/// (memory representations, query embeddings) from the snapshot: the two
/// matrices a serving `knn` request actually scores against each other.
fn fixture() -> (Matrix, Matrix) {
    let snap = snapshot();
    let model = snap.restore_model().expect("restore model");
    let memory = snap.memory_reprs;
    let inputs = Matrix::randn(QUERIES, DIM, 1.0, &mut seeded(97));
    let queries = model.represent_eval(&inputs, 0);
    (memory, queries)
}

#[test]
fn per_row_distance_kernels_bit_identical_across_isas() {
    let (memory, queries) = fixture();
    let scalar = Kernel::for_isa(Isa::Scalar).expect("scalar kernel is always supported");
    for isa in [Isa::Avx2, Isa::Avx512] {
        let Some(kern) = Kernel::for_isa(isa) else {
            eprintln!(
                "SKIPPING per-row distance identity for {}: not supported on this host",
                isa.name()
            );
            continue;
        };
        for q in 0..queries.rows() {
            for r in 0..memory.rows() {
                let qr = queries.row(q);
                let mr = memory.row(r);
                let want = (scalar.sq_euclidean)(qr, mr);
                let got = (kern.sq_euclidean)(qr, mr);
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "sq_euclidean(q{q}, m{r}) diverged on {}: {want} vs {got}",
                    isa.name()
                );
                let want = (scalar.dot)(qr, mr);
                let got = (kern.dot)(qr, mr);
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "dot(q{q}, m{r}) diverged on {}: {want} vs {got}",
                    isa.name()
                );
            }
        }
    }
}

#[test]
fn knn_search_batch_matches_scalar_exactly_under_simd_dispatch() {
    let (memory, queries) = fixture();
    // Pin the process-global dispatch to one ISA and run both metrics
    // through the full batch path (scoring, top-k selection, ordering),
    // plus the kNN classifier over the memory rows' task labels.
    let labels: Vec<usize> = (0..MEMORY_ROWS).map(|i| i % 3).collect();
    let batch_with = |isa: Isa| -> (Vec<Vec<Vec<Neighbor>>>, Vec<usize>) {
        simd::set_isa(IsaRequest::Fixed(isa)).expect("ISA support checked by caller");
        let batches = [Metric::Euclidean, Metric::Cosine]
            .into_iter()
            .map(|metric| {
                KnnQuery::new(&memory, K)
                    .metric(metric)
                    .search_batch(&queries)
            })
            .collect();
        (batches, knn_classify(&memory, &labels, &queries, K))
    };
    let (want, want_preds) = batch_with(Isa::Scalar);
    for isa in [Isa::Avx2, Isa::Avx512] {
        if !isa.supported() {
            eprintln!(
                "SKIPPING knn_search_batch identity for {}: not supported on this host",
                isa.name()
            );
            continue;
        }
        let (got, got_preds) = batch_with(isa);
        assert_eq!(
            want_preds,
            got_preds,
            "knn_classify predictions depend on ISA {}",
            isa.name()
        );
        for (m, (want_batch, got_batch)) in want.iter().zip(&got).enumerate() {
            assert_eq!(want_batch.len(), got_batch.len());
            for (q, (wn, gn)) in want_batch.iter().zip(got_batch).enumerate() {
                assert_eq!(wn.len(), gn.len(), "metric {m} query {q}: k mismatch");
                for (rank, (w, g)) in wn.iter().zip(gn).enumerate() {
                    assert_eq!(
                        w.index,
                        g.index,
                        "metric {m} query {q} rank {rank}: neighbor set depends on ISA {}",
                        isa.name()
                    );
                    assert_eq!(
                        w.score.to_bits(),
                        g.score.to_bits(),
                        "metric {m} query {q} rank {rank}: score bits depend on ISA {}",
                        isa.name()
                    );
                }
            }
        }
    }
    // Leave the process on runtime detection for any later test in this
    // binary.
    simd::set_isa(IsaRequest::Auto).expect("auto is always supported");
}
