//! Cross-crate contract tests for the `edsr-par` runtime: a worker panic
//! surfaces as a structured error (`edsr_core::Error::Worker` /
//! `TrainError::Worker`) instead of hanging or aborting, and the pool
//! stays usable afterwards.

use edsr::cl::TrainError;
use edsr::core::Error;
use edsr::par;
use edsr::tensor::Matrix;

/// Bridges a chunk panic into the workspace error type, the way sweep
/// drivers do.
fn guarded(len: usize, poison_at: Option<usize>) -> Result<Vec<f32>, Error> {
    par::catch_panic(|| {
        let mut out = vec![0.0f32; len];
        // Trivial rows declared as unbounded work, so the grain rule
        // always hands them to the pool.
        par::par_for_rows(&mut out, len, usize::MAX, |rows, chunk| {
            for (local, i) in rows.enumerate() {
                if Some(i) == poison_at {
                    panic!("poisoned element {i}");
                }
                chunk[local] = i as f32 * 2.0;
            }
        });
        out
    })
    .map_err(Error::Worker)
}

/// With a pool that has workers, fails unless `before` handoffs moved.
fn assert_reached_pool(before: u64) {
    assert!(
        par::pool_workers() == 0 || par::handoffs() > before,
        "the work never reached the pool"
    );
}

#[test]
fn worker_panic_becomes_structured_error() {
    par::with_threads(4, || {
        let before = par::handoffs();
        let err = guarded(64, Some(17)).expect_err("panic must surface");
        assert_reached_pool(before);
        match &err {
            Error::Worker(msg) => assert!(msg.contains("poisoned element 17"), "{msg}"),
            other => panic!("expected Worker, got {other:?}"),
        }
        assert!(err.to_string().contains("parallel worker panicked"));
    });
}

#[test]
fn pool_remains_usable_after_worker_panic() {
    par::with_threads(4, || {
        assert!(guarded(64, Some(0)).is_err());
        let before = par::handoffs();
        let ok = guarded(64, None).expect("clean run after panic");
        assert_reached_pool(before);
        assert_eq!(ok[10], 20.0);
    });
}

#[test]
fn train_error_worker_variant_formats() {
    let e = TrainError::Worker("boom".into());
    assert!(e.to_string().contains("parallel worker panicked: boom"));
    let e: Error = e.into();
    assert!(matches!(e, Error::Train(TrainError::Worker(_))));
}

/// End-to-end determinism spot check through the facade: a matmul of
/// 6.5M multiply-adds (past three `CUT`s: two threads split it in two,
/// seven in three) is bit-identical at 1, 2, and 7 threads.
#[test]
fn facade_matmul_bit_identical_across_thread_counts() {
    let (r, k, m) = (257, 161, 157);
    assert!(r * k * m >= 3 * par::CUT);
    let mut rng = edsr::tensor::rng::seeded(7);
    let a = Matrix::randn(r, k, 1.0, &mut rng);
    let b = Matrix::randn(k, m, 1.0, &mut rng);
    let baseline = par::with_threads(1, || a.matmul(&b));
    for threads in [2usize, 7] {
        let before = par::handoffs();
        let got = par::with_threads(threads, || a.matmul(&b));
        assert_reached_pool(before);
        assert!(
            baseline
                .data()
                .iter()
                .zip(got.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "matmul differs at {threads} threads"
        );
    }
}
