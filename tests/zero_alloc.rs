//! Allocation-counter proof of the zero-allocation training step: once the
//! scratch pools are warm, a steady-state step — workspace reset, two-view
//! forward, backward, gradient routing, optimizer step — performs zero heap
//! allocations in the tape/matmul/conv hot path.
//!
//! Scope (DESIGN.md §10): the measured region excludes data augmentation,
//! batch iteration, and memory sampling, which own their outputs by design.
//! The claim holds at one thread (`EDSR_THREADS=1`); pool dispatch
//! allocates per-spawn closure state at higher thread counts.
//!
//! The allocation counter is process-global, so no other thread may
//! allocate while a window is open. Each test first takes `ALLOC_LOCK`
//! (one measurement at a time), then waits until libtest has stopped
//! allocating: starting a test thread, booking a finished test in and
//! printing its result all allocate, and libtest does that on its own
//! threads while a test runs. Helper threads (batcher, rotation watcher)
//! are up before any window opens.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use edsr::cl::{apply_step, quantize_serve_snapshot, ContinualModel, ModelConfig, ServeSnapshot};
use edsr::linalg::Metric;
use edsr::nn::{Adam, Workspace};
use edsr::serve::{Batcher, Engine, RotateConfig, ServerConfig};
use edsr::tensor::rng::seeded;
use edsr::tensor::Matrix;

/// The allocation counter is process-global, so the measuring tests in
/// this binary must not run concurrently.
static ALLOC_LOCK: Mutex<()> = Mutex::new(());

/// System allocator wrapper that counts every allocation-path call
/// (alloc, alloc_zeroed, realloc). Deallocations are free and uncounted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Returns once no thread has allocated for 100 ms (giving up after 5 s,
/// which leaves the windows to report the noise). libtest's main thread
/// books a test in (a few allocations) after starting its thread, and
/// when a test ends it books the result, prints it and may start the next
/// test's thread; the finished test's thread allocates to send its
/// result. On a loaded host all of that can run well after the next
/// measuring test has taken the lock, so no window may open before it.
fn wait_for_harness_to_settle() {
    for _ in 0..50 {
        let before = allocations();
        std::thread::sleep(Duration::from_millis(100));
        if allocations() == before {
            return;
        }
    }
}

/// Takes the measuring lock and readies the process for a window: one
/// pool thread, no obs sink, a quiet harness. Hold the guard for the
/// whole test.
fn measure_alone() -> MutexGuard<'static, ()> {
    let serialized = ALLOC_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Must be set before the first pool touch; single-thread keeps the
    // whole step on this thread (no spawn bookkeeping).
    std::env::set_var("EDSR_THREADS", "1");
    // No sink installed: the instrumented paths must cost nothing.
    assert!(edsr::obs::uninstall().is_none(), "stray sink installed");
    assert!(!edsr::obs::enabled());
    wait_for_harness_to_settle();
    serialized
}

/// Runs warm-up steps (pool growth, optimizer moment init, kernel pack
/// buffers), then returns the allocation count across `measured` further
/// steps — which must be zero.
///
/// The measured region includes the observability surface in its
/// off-state (DESIGN.md §11): a span guard around each step and a metric
/// emit. Neither may allocate while no sink is installed.
fn steady_state_allocs(model: &mut ContinualModel, x1: &Matrix, x2: &Matrix) -> u64 {
    let mut opt = Adam::new(1e-3, 0.0);
    let mut ws = Workspace::new();
    for _ in 0..3 {
        ws.reset();
        let (_, _, loss) = model.css_on_views(&mut ws.tape, &mut ws.binder, x1, x2, 0);
        apply_step(model, &mut opt, &mut ws.tape, &ws.binder, loss);
    }
    let before = allocations();
    for step in 0..5 {
        let _step_span = edsr::obs::span("step", step as u64);
        ws.reset();
        let (_, _, loss) = model.css_on_views(&mut ws.tape, &mut ws.binder, x1, x2, 0);
        let loss = apply_step(model, &mut opt, &mut ws.tape, &ws.binder, loss);
        edsr::obs::gauge("zero_alloc/loss", f64::from(loss));
    }
    allocations() - before
}

#[test]
fn steady_state_train_step_makes_no_hot_path_allocations() {
    let _serialized = measure_alone();
    let mut rng = seeded(7);
    let x1 = Matrix::randn(16, 16, 1.0, &mut rng);
    let x2 = Matrix::randn(16, 16, 1.0, &mut rng);

    // MLP backbone + BarlowTwins head (the image default).
    let mut mlp = ContinualModel::new(&ModelConfig::image(16), &mut rng);
    let n = steady_state_allocs(&mut mlp, &x1, &x2);
    assert_eq!(
        n, 0,
        "MLP/BarlowTwins steady-state step allocated {n} times"
    );

    // Conv stem: exercises the cached im2col/regroup gather maps.
    let shape = edsr::nn::ConvShape {
        channels: 1,
        height: 4,
        width: 4,
    };
    let mut conv = ContinualModel::new(&ModelConfig::conv_image(shape, 3), &mut rng);
    let n = steady_state_allocs(&mut conv, &x1, &x2);
    assert_eq!(n, 0, "conv steady-state step allocated {n} times");

    // SimSiam predictor variant (batch-norm + stop-gradient path).
    let mut sim = ContinualModel::new(&ModelConfig::tabular(vec![16]), &mut rng);
    let n = steady_state_allocs(&mut sim, &x1, &x2);
    assert_eq!(n, 0, "SimSiam steady-state step allocated {n} times");
}

/// A served engine behind the micro-batcher. Because the allocation
/// counter is the *global* allocator, the measured figure covers the
/// whole round trip — submitter swap, queue, batcher flush, eval-mode
/// forward, cache — across both threads.
fn serve_batcher(cache_capacity: usize) -> Batcher {
    let mut rng = seeded(31);
    let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
    let mem = Matrix::randn(4, 16, 1.0, &mut rng);
    let reprs = model.represent_eval(&mem, 0);
    let snap = ServeSnapshot::capture(&model, reprs, vec![0; 4], "za", 1).unwrap();
    let engine = Engine::from_snapshot(snap, cache_capacity).unwrap();
    Batcher::new(engine, 2, Duration::from_micros(50))
}

#[test]
fn warm_serve_embed_is_alloc_free_on_hits_and_bounded_on_misses() {
    let _serialized = measure_alone();

    // --- Cache-hit path: repeated input, zero steady-state allocations.
    // The full robustness config is live — deadline checks, bounded
    // queue, and a rotation watcher (quiescent: nothing new to load and
    // an hour-long poll, so the watcher thread is parked off the hot
    // path) — and the steady state must STILL be allocation-free.
    let mut rng = seeded(31);
    let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
    let mem = Matrix::randn(4, 16, 1.0, &mut rng);
    let reprs = model.represent_eval(&mem, 0);
    let snap = ServeSnapshot::capture(&model, reprs, vec![0; 4], "za", 1).unwrap();
    let dir = std::env::temp_dir().join(format!("edsr-za-rotate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("za.task0001.snapshot");
    snap.save(&snap_path).unwrap();
    let engine = Engine::from_snapshot(snap, 8).unwrap();
    let cfg = ServerConfig {
        max_batch: 2,
        window: Duration::from_micros(50),
        deadline: Some(Duration::from_secs(30)),
        queue_cap: 64,
        ..ServerConfig::default()
    };
    let mut batcher = Batcher::with_config(engine, &cfg);
    batcher.start_rotation(RotateConfig {
        dir: dir.clone(),
        poll: Duration::from_secs(3600),
        cache_capacity: 8,
        current: Some(snap_path),
        quantize: false,
    });
    let mut sub = batcher.submitter();
    let mut input: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
    let mut out = Vec::new();
    for _ in 0..4 {
        sub.embed(0, &mut input, &mut out).expect("warmup embed");
    }
    let before = allocations();
    for _ in 0..8 {
        sub.embed(0, &mut input, &mut out).expect("hit embed");
    }
    let hit_allocs = allocations() - before;
    assert_eq!(
        hit_allocs, 0,
        "warm cache-hit embeds allocated {hit_allocs} times"
    );
    batcher.stop();
    let _ = std::fs::remove_dir_all(&dir);

    // --- Cache-miss path: rotate more distinct inputs than the cache
    // holds, so every request misses, forwards, and evicts. Warm rounds
    // fill the recycled entry buffers; after that the per-round count
    // must be constant (and small) — eviction recycling, the staging
    // matrix, and the workspace pools hold steady.
    let mut batcher = serve_batcher(2);
    let mut sub = batcher.submitter();
    let mut rng = seeded(33);
    let rotation: Vec<Vec<f32>> = (0..4)
        .map(|_| Matrix::randn(1, 16, 1.0, &mut rng).row(0).to_vec())
        .collect();
    // Stable caller buffers: the swap protocol circulates them with the
    // slot's, so after warm-up no round allocates for request plumbing.
    let mut input: Vec<f32> = Vec::new();
    let mut out: Vec<f32> = Vec::new();
    let mut round = |input: &mut Vec<f32>, out: &mut Vec<f32>| {
        for probe in &rotation {
            input.clear();
            input.extend_from_slice(probe);
            sub.embed(0, input, out).expect("miss embed");
        }
    };
    for _ in 0..3 {
        round(&mut input, &mut out);
    }
    let before = allocations();
    round(&mut input, &mut out);
    let first = allocations() - before;
    let before = allocations();
    round(&mut input, &mut out);
    let second = allocations() - before;
    assert_eq!(
        first, second,
        "miss-path allocations not constant per round ({first} vs {second})"
    );
    assert!(
        first <= 16,
        "miss-path rounds allocate too much: {first} per 4 embeds"
    );
    batcher.stop();
}

#[test]
fn warm_quantized_serve_embed_is_alloc_free_on_hits() {
    let _serialized = measure_alone();

    // Same shape as the f32 hit-path test above, served on the int8
    // backend: the quantized engine owns its scratch (the int8 GEMM
    // workspace, the i8 query buffer, the f32 staging row), so once the
    // LRU cache and those buffers are warm, repeated embeds through the
    // micro-batcher must not touch the allocator at all.
    let mut rng = seeded(31);
    let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
    let mem = Matrix::randn(4, 16, 1.0, &mut rng);
    let reprs = model.represent_eval(&mem, 0);
    let snap = ServeSnapshot::capture(&model, reprs, vec![0; 4], "za", 1).unwrap();
    let quant = quantize_serve_snapshot(&snap).unwrap();
    let engine = Engine::from_quant_snapshot(quant, 8).unwrap();
    assert!(engine.quantized());
    let mut batcher = Batcher::new(engine, 2, Duration::from_micros(50));
    let mut sub = batcher.submitter();
    let mut input: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
    let mut out = Vec::new();
    for _ in 0..4 {
        sub.embed(0, &mut input, &mut out).expect("warmup embed");
    }
    let before = allocations();
    for _ in 0..8 {
        sub.embed(0, &mut input, &mut out).expect("hit embed");
    }
    let hit_allocs = allocations() - before;
    assert_eq!(
        hit_allocs, 0,
        "warm quantized cache-hit embeds allocated {hit_allocs} times"
    );
    batcher.stop();
}

#[test]
fn warm_f32_engine_knn_is_alloc_free() {
    let _serialized = measure_alone();

    // A 61-row replay memory: seven full 8-row blocks and a 5-row tail.
    // A search scores into a per-thread scratch and copies only its `k`
    // winners into `out`, so once one search has grown the scratch and
    // `out` holds `k`, searches for other queries must not touch the
    // allocator, however many rows each one's selection sorts.
    let mut rng = seeded(41);
    let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
    let mem = Matrix::randn(61, 16, 1.0, &mut rng);
    let reprs = model.represent_eval(&mem, 0);
    let queries = model.represent_eval(&Matrix::randn(40, 16, 1.0, &mut rng), 0);
    let snap = ServeSnapshot::capture(&model, reprs, vec![0; 61], "za", 1).unwrap();
    let mut engine = Engine::from_snapshot(snap, 8).unwrap();
    assert!(!engine.quantized());
    let mut out = Vec::new();
    let mut search = |engine: &mut Engine, rows: std::ops::Range<usize>| {
        for q in rows {
            engine
                .knn_into(queries.row(q), 5, Metric::Cosine, &mut out)
                .expect("knn");
            assert_eq!(out.len(), 5);
        }
    };
    search(&mut engine, 0..1);
    let before = allocations();
    search(&mut engine, 1..queries.rows());
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "warm f32 cosine kNN searches allocated {allocs} times"
    );
}
