//! Dynamic micro-batching queue and the blocking TCP server.
//!
//! ## Batching window semantics
//!
//! Embed requests enqueue onto one shared queue and block on a
//! per-submitter slot. A dedicated batcher thread flushes the queue when
//! either **max batch size** requests are waiting or the **batching
//! window** has elapsed since the *oldest* queued request arrived —
//! whichever comes first. A flush drains up to `max_batch` requests,
//! groups them by task, and answers each group with one
//! [`Engine::embed_rows`] call, so concurrent clients share a single
//! batched forward. Because the forward computes rows independently,
//! coalescing never changes any individual answer.
//!
//! The submit path and the flush path recycle every buffer they touch
//! (slot state, staging matrix, drained-batch vector), so a warm
//! cache-hit embed makes zero steady-state heap allocations end to end
//! (`tests/zero_alloc.rs`).
//!
//! ## Deadlines and backpressure
//!
//! The submit queue is bounded ([`ServerConfig::queue_cap`]): a full
//! queue sheds the request immediately with
//! [`SubmitError::Overloaded`] and a retry-after hint instead of
//! blocking forever. A configured per-request deadline
//! ([`ServerConfig::deadline`]) is enforced at flush time — a request
//! that aged out in the queue is failed with
//! [`SubmitError::DeadlineExceeded`] and never reaches the engine, so
//! overload turns into bounded, structured errors rather than unbounded
//! latency.
//!
//! ## Live snapshot rotation
//!
//! With [`ServerConfig::rotate`] set, a rotator thread polls the
//! snapshot directory. A candidate newer (by path order) than the live
//! snapshot is CRC-validated and built into a fresh [`Engine`]
//! **off-lock**; only the final swap takes the engine mutex. A flush
//! holds that mutex for its whole batch, so the swap always lands
//! between flushes: every request is answered by exactly one coherent
//! snapshot, never a mix. Corrupt or torn candidates are skipped (the
//! exporter's tmp-file + rename keeps visible files complete; the CRC
//! catches everything else).
//!
//! ## Shutdown
//!
//! A shutdown request (or [`ServeHandle::shutdown`]) stops the accept
//! loop; connection handlers observe the flag only **between** frames, so
//! every fully received request is still answered; the batcher drains its
//! queue before exiting. Accepted requests are never dropped.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use edsr_cl::checkpoint::{load_any_serve_snapshot, serve_snapshot_files, AnyServeSnapshot};
use edsr_tensor::Matrix;

use crate::engine::{EmbedReport, Engine};
use crate::fault::{FaultyStream, WireFaultPlan};
use crate::protocol::{
    write_frame, ProtocolError, Request, Response, StatsReply, WireNeighbor, ERR_BAD_REQUEST,
    ERR_DEADLINE, ERR_OVERLOADED, ERR_SHUTTING_DOWN,
};
use crate::ServeError;

/// Obs index for `serve/rejected` counters shed by the deadline.
pub const REJECT_DEADLINE: u64 = 0;
/// Obs index for `serve/rejected` counters shed by the bounded queue.
pub const REJECT_OVERLOAD: u64 = 1;

/// Socket read timeout of a connection handler: how often an idle
/// connection re-checks the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(20);

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live snapshot rotation settings ([`ServerConfig::rotate`]).
#[derive(Debug, Clone)]
pub struct RotateConfig {
    /// Directory to watch for `.snapshot` files.
    pub dir: PathBuf,
    /// Poll interval (`edsr serve --serve-rotate-ms`).
    pub poll: Duration,
    /// Embedding-cache capacity for freshly built engines (a rotation
    /// replaces the whole engine, cache included — coherence by
    /// construction).
    pub cache_capacity: usize,
    /// Path of the snapshot the initial engine was built from; only
    /// strictly newer paths are rotation candidates. `None` rotates to
    /// the newest valid snapshot on the first poll.
    pub current: Option<PathBuf>,
    /// Serve candidates on the int8 backend (`edsr serve --quantized`): v2
    /// snapshots load natively, v1 candidates are quantized in-process
    /// before the swap. When `false`, v2 candidates still serve
    /// quantized (they carry no f32 weights to fall back to).
    pub quantize: bool,
}

/// Server/batcher tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Flush the micro-batch queue at this many waiting requests.
    pub max_batch: usize,
    /// ... or once the oldest waiting request is this old.
    pub window: Duration,
    /// Concurrent connections the accept pool admits; further clients
    /// queue in the listen backlog. Each connection is a blocking
    /// request–response loop, so this doubles as the per-connection
    /// in-flight cap (exactly one request in flight per connection).
    pub max_connections: usize,
    /// Per-request deadline enforced in the batcher
    /// (`--serve-deadline-ms`); `None` disables.
    pub deadline: Option<Duration>,
    /// Bound on the submit queue (`--serve-queue`); a full queue
    /// sheds with [`SubmitError::Overloaded`].
    pub queue_cap: usize,
    /// Slow-loris cap (`--serve-stall-ms`): a peer that stalls
    /// mid-frame longer than this gets a structured truncation error
    /// and its connection closed.
    pub stall_cap: Duration,
    /// Live snapshot rotation; `None` pins the startup snapshot.
    pub rotate: Option<RotateConfig>,
    /// Wrap every accepted connection in a seeded [`FaultyStream`]
    /// (chaos testing only; the per-connection plan is derived from
    /// this seed plus the connection index).
    pub fault_seed: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            window: Duration::from_micros(500),
            max_connections: 8,
            deadline: None,
            queue_cap: 1024,
            stall_cap: Duration::from_secs(5),
            rotate: None,
            fault_seed: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Queued,
    Done,
    Failed,
}

struct SlotInner {
    phase: Phase,
    task: usize,
    enqueued: Instant,
    input: Vec<f32>,
    out: Vec<f32>,
    code: u16,
    error: String,
    report: EmbedReport,
}

/// One submitter's rendezvous cell with the batcher thread. All buffers
/// live inside and are recycled across requests.
struct Slot {
    inner: Mutex<SlotInner>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(SlotInner {
                phase: Phase::Idle,
                task: 0,
                enqueued: Instant::now(),
                input: Vec::new(),
                out: Vec::new(),
                code: ERR_BAD_REQUEST,
                error: String::new(),
                report: EmbedReport::default(),
            }),
            cv: Condvar::new(),
        })
    }
}

#[derive(Default)]
struct BatchStats {
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_overload: AtomicU64,
    rotations: AtomicU64,
}

/// State shared between submitters, the batcher thread, the rotator, and
/// the TCP handlers (which also reach the engine directly for knn/stats).
struct BatchShared {
    engine: Mutex<Engine>,
    queue: Mutex<VecDeque<Arc<Slot>>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    max_batch: usize,
    window: Duration,
    deadline: Option<Duration>,
    queue_cap: usize,
    rotate_mx: Mutex<()>,
    rotate_cv: Condvar,
    stats: BatchStats,
}

/// The dynamic micro-batcher: owns the [`Engine`] (behind a mutex shared
/// with knn/stats callers) and a worker thread coalescing embed
/// submissions. Usable standalone, without the TCP server — the
/// zero-allocation tests drive it in-process.
pub struct Batcher {
    shared: Arc<BatchShared>,
    worker: Option<std::thread::JoinHandle<()>>,
    rotator: Option<std::thread::JoinHandle<()>>,
}

/// Why a submission was not answered.
#[derive(Debug)]
pub enum SubmitError {
    /// The batcher is draining for shutdown.
    ShuttingDown,
    /// The engine rejected the request (dimension/task validation).
    Rejected(String),
    /// The request aged past [`ServerConfig::deadline`] in the queue.
    DeadlineExceeded,
    /// The bounded submit queue is full; the request was shed.
    Overloaded {
        /// Suggested wait before retrying (the batching window: one
        /// flush from now the queue has drained at least one batch).
        retry_after_ms: u32,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::Rejected(msg) => write!(f, "{msg}"),
            SubmitError::DeadlineExceeded => write!(f, "request deadline exceeded in batch queue"),
            SubmitError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded, retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl Batcher {
    /// Starts the batcher thread over `engine` with default deadline and
    /// queue-bound settings.
    pub fn new(engine: Engine, max_batch: usize, window: Duration) -> Self {
        let cfg = ServerConfig {
            max_batch,
            window,
            ..ServerConfig::default()
        };
        Self::with_config(engine, &cfg)
    }

    /// Starts the batcher thread with the full knob set (deadline,
    /// bounded queue). TCP-only fields of `cfg` are ignored here.
    pub fn with_config(engine: Engine, cfg: &ServerConfig) -> Self {
        let max_batch = cfg.max_batch.max(1);
        let shared = Arc::new(BatchShared {
            engine: Mutex::new(engine),
            queue: Mutex::new(VecDeque::with_capacity(max_batch * 2)),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            max_batch,
            window: cfg.window,
            deadline: cfg.deadline,
            queue_cap: cfg.queue_cap.max(1),
            rotate_mx: Mutex::new(()),
            rotate_cv: Condvar::new(),
            stats: BatchStats::default(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("edsr-serve-batch".into())
            .spawn(move || batch_worker(&worker_shared))
            .expect("spawn batcher thread");
        Self {
            shared,
            worker: Some(worker),
            rotator: None,
        }
    }

    /// Starts the live-rotation thread: poll the snapshot directory,
    /// validate candidates, build fresh engines off-lock, swap between
    /// flushes. Stopped (and joined) together with the batcher.
    ///
    /// Returns once the watcher is running, so its thread start-up (and
    /// the allocations that come with it) never lands after the call.
    pub fn start_rotation(&mut self, cfg: RotateConfig) {
        let shared = Arc::clone(&self.shared);
        let started = Arc::new(Barrier::new(2));
        let watcher_started = Arc::clone(&started);
        let handle = std::thread::Builder::new()
            .name("edsr-serve-rotate".into())
            .spawn(move || rotation_worker(&shared, cfg, &watcher_started))
            .expect("spawn rotation thread");
        started.wait();
        self.rotator = Some(handle);
    }

    /// A new submission handle (one per concurrent caller; each embeds
    /// through its own recycled slot).
    pub fn submitter(&self) -> Submitter {
        Submitter {
            shared: Arc::clone(&self.shared),
            slot: Slot::new(),
        }
    }

    /// The engine, for knn/stats calls that bypass the embed queue.
    fn engine(&self) -> MutexGuard<'_, Engine> {
        lock(&self.shared.engine)
    }

    /// Runs `f` under the engine lock.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        f(&mut self.engine())
    }

    /// Batches flushed, requests coalesced, and the largest batch so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.shared.stats.batches.load(Ordering::Relaxed),
            self.shared.stats.batched_requests.load(Ordering::Relaxed),
            self.shared.stats.max_batch.load(Ordering::Relaxed),
        )
    }

    /// Requests shed so far: `(deadline-expired, queue-overload)`.
    pub fn rejected(&self) -> (u64, u64) {
        (
            self.shared.stats.rejected_deadline.load(Ordering::Relaxed),
            self.shared.stats.rejected_overload.load(Ordering::Relaxed),
        )
    }

    /// Completed live snapshot rotations.
    pub fn rotations(&self) -> u64 {
        self.shared.stats.rotations.load(Ordering::Relaxed)
    }

    /// Drains the queue and stops the worker thread. Submissions after
    /// this fail with [`SubmitError::ShuttingDown`]; knn/stats through
    /// [`with_engine`](Self::with_engine) keep working.
    pub fn stop(&mut self) {
        self.stop_worker();
    }

    fn stop_worker(&mut self) {
        {
            // Under the queue lock and the rotator's mutex (in that
            // order): the batcher, the rotator and every submitter check
            // `stop` under one of them before they sleep or enqueue, so
            // this store cannot slip in between and lose the notifies
            // below or strand a request behind an exited worker.
            let _queue = lock(&self.shared.queue);
            let _rotate = lock(&self.shared.rotate_mx);
            self.shared.stop.store(true, Ordering::SeqCst);
        }
        self.shared.queue_cv.notify_all();
        self.shared.rotate_cv.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        if let Some(r) = self.rotator.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.stop_worker();
    }
}

/// A per-caller embed handle. `embed` blocks until the batcher answers.
pub struct Submitter {
    shared: Arc<BatchShared>,
    slot: Arc<Slot>,
}

impl Submitter {
    /// Submits one embed request: `input` is handed to the batcher and
    /// returned (unchanged) on completion; the embedding lands in `out`.
    /// Both buffers are recycled — warm calls allocate nothing here.
    pub fn embed(
        &mut self,
        task: usize,
        input: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) -> Result<EmbedReport, SubmitError> {
        {
            let mut inner = lock(&self.slot.inner);
            debug_assert_eq!(inner.phase, Phase::Idle, "slot reused while in flight");
            inner.task = task;
            inner.enqueued = Instant::now();
            std::mem::swap(&mut inner.input, input);
            std::mem::swap(&mut inner.out, out);
            inner.phase = Phase::Queued;
        }
        // Lock order: a submitter never holds its slot lock while taking
        // the queue lock (the batcher acquires queue → slot). `stop` is
        // read under the queue lock, so a request either lands before the
        // batcher's final drain or is turned away here.
        {
            let mut q = lock(&self.shared.queue);
            let refused = if self.shared.stop.load(Ordering::SeqCst) {
                Some(SubmitError::ShuttingDown)
            } else if q.len() >= self.shared.queue_cap {
                // Bounded queue: shed now instead of blocking forever.
                // The hint is one batching window — by then the batcher
                // has drained at least one flush from the backlog.
                self.shared
                    .stats
                    .rejected_overload
                    .fetch_add(1, Ordering::Relaxed);
                if edsr_obs::enabled() {
                    edsr_obs::counter_at("serve/rejected", REJECT_OVERLOAD, 1);
                }
                Some(SubmitError::Overloaded {
                    retry_after_ms: (self.shared.window.as_millis() as u32).max(1),
                })
            } else {
                None
            };
            if let Some(err) = refused {
                drop(q);
                let mut inner = lock(&self.slot.inner);
                inner.phase = Phase::Idle;
                std::mem::swap(&mut inner.input, input);
                std::mem::swap(&mut inner.out, out);
                return Err(err);
            }
            q.push_back(Arc::clone(&self.slot));
            self.shared.queue_cv.notify_all();
        }
        let mut inner = lock(&self.slot.inner);
        while inner.phase == Phase::Queued {
            inner = self.slot.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        std::mem::swap(&mut inner.input, input);
        std::mem::swap(&mut inner.out, out);
        let failed = inner.phase == Phase::Failed;
        let report = inner.report;
        inner.phase = Phase::Idle;
        if failed {
            match inner.code {
                ERR_SHUTTING_DOWN => Err(SubmitError::ShuttingDown),
                ERR_DEADLINE => Err(SubmitError::DeadlineExceeded),
                _ => Err(SubmitError::Rejected(std::mem::take(&mut inner.error))),
            }
        } else {
            Ok(report)
        }
    }
}

/// The batcher thread: wait for work, honour the batching window, flush.
fn batch_worker(shared: &BatchShared) {
    let mut batch: Vec<Arc<Slot>> = Vec::with_capacity(shared.max_batch);
    let mut order: Vec<usize> = Vec::with_capacity(shared.max_batch);
    let mut done: Vec<bool> = Vec::with_capacity(shared.max_batch);
    let mut staging = Matrix::zeros(0, 0);
    loop {
        let mut q = lock(&shared.queue);
        loop {
            if !q.is_empty() {
                break;
            }
            if shared.stop.load(Ordering::SeqCst) {
                return; // queue drained, safe to exit
            }
            // `stop` and every push happen under this lock and notify
            // after, so an idle server sleeps until there is work.
            q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        // Window: flush when full, when the oldest request ages out, or
        // immediately when draining for shutdown.
        if !shared.stop.load(Ordering::SeqCst) {
            let deadline = {
                let front = q.front().expect("non-empty");
                let enqueued = lock(&front.inner).enqueued;
                enqueued + shared.window
            };
            while q.len() < shared.max_batch && !shared.stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        }
        let n = q.len().min(shared.max_batch);
        batch.clear();
        batch.extend(q.drain(..n));
        drop(q);
        flush(shared, &batch, &mut order, &mut done, &mut staging);
        batch.clear(); // drop Arc refs promptly
    }
}

/// Answers one drained batch: shed deadline-expired requests, group the
/// rest by task, one batched forward per group, fill and wake every slot.
fn flush(
    shared: &BatchShared,
    batch: &[Arc<Slot>],
    order: &mut Vec<usize>,
    done: &mut Vec<bool>,
    staging: &mut Matrix,
) {
    let n = batch.len();
    if n == 0 {
        return;
    }
    done.clear();
    done.resize(n, false);
    // Deadline shedding happens before the engine lock: an expired
    // request costs a slot wake, never a forward.
    let mut live = n;
    if let Some(deadline) = shared.deadline {
        let now = Instant::now();
        for (i, slot) in batch.iter().enumerate() {
            let expired = {
                let inner = lock(&slot.inner);
                now.saturating_duration_since(inner.enqueued) > deadline
            };
            if expired {
                done[i] = true;
                live -= 1;
                shared
                    .stats
                    .rejected_deadline
                    .fetch_add(1, Ordering::Relaxed);
                if edsr_obs::enabled() {
                    edsr_obs::counter_at("serve/rejected", REJECT_DEADLINE, 1);
                }
                fail_slot(
                    slot,
                    ERR_DEADLINE,
                    "request deadline exceeded in batch queue",
                );
            }
        }
    }
    if live == 0 {
        return;
    }
    let obs_on = edsr_obs::enabled();
    if obs_on {
        edsr_obs::counter("serve/batches", 1);
        edsr_obs::counter("serve/batched_requests", live as u64);
        edsr_obs::histogram("serve/batch_size", live as f64);
    }
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .batched_requests
        .fetch_add(live as u64, Ordering::Relaxed);
    shared
        .stats
        .max_batch
        .fetch_max(live as u64, Ordering::Relaxed);

    let mut engine = lock(&shared.engine);
    for start in 0..n {
        if done[start] {
            continue;
        }
        let task = lock(&batch[start].inner).task;
        let dim = match engine.expected_input_dim(task) {
            Ok(d) => d,
            Err(msg) => {
                // Fail every request of this (invalid) task in the batch.
                for (i, slot) in batch.iter().enumerate().skip(start) {
                    if !done[i] && lock(&slot.inner).task == task {
                        done[i] = true;
                        fail_slot(slot, ERR_BAD_REQUEST, &msg);
                    }
                }
                continue;
            }
        };
        // Gather this task's rows; wrong-width inputs fail individually
        // so one bad client cannot sink its batch-mates.
        order.clear();
        for (i, slot) in batch.iter().enumerate().skip(start) {
            if done[i] {
                continue;
            }
            let inner = lock(&slot.inner);
            if inner.task != task {
                continue;
            }
            done[i] = true;
            if inner.input.len() == dim {
                order.push(i);
            } else {
                let msg = format!(
                    "got {} features, task {task} expects {dim}",
                    inner.input.len()
                );
                drop(inner);
                fail_slot(slot, ERR_BAD_REQUEST, &msg);
            }
        }
        if order.is_empty() {
            continue;
        }
        if staging.rows() != order.len() || staging.cols() != dim {
            *staging = Matrix::zeros(order.len(), dim);
        }
        for (row, &i) in order.iter().enumerate() {
            staging
                .row_mut(row)
                .copy_from_slice(&lock(&batch[i].inner).input);
        }
        let result = engine.embed_rows(task, staging, |row, emb, hit| {
            let slot = &batch[order[row]];
            let mut inner = lock(&slot.inner);
            inner.out.clear();
            inner.out.extend_from_slice(emb);
            inner.report = EmbedReport {
                forward_rows: usize::from(!hit),
                cache_hits: usize::from(hit),
            };
            inner.phase = Phase::Done;
            slot.cv.notify_one();
        });
        if let Err(msg) = result {
            for &i in order.iter() {
                // embed_rows validates before emitting: on error no slot
                // of this group has been answered yet.
                fail_slot(&batch[i], ERR_BAD_REQUEST, &msg);
            }
        }
    }
}

fn fail_slot(slot: &Slot, code: u16, msg: &str) {
    let mut inner = lock(&slot.inner);
    inner.code = code;
    inner.error.clear();
    inner.error.push_str(msg);
    inner.phase = Phase::Failed;
    slot.cv.notify_one();
}

// ---------------------------------------------------------------------------
// Live snapshot rotation.

/// One rotation attempt: newest candidate first, skipping every file
/// that fails to load (CRC/decode failures, and unlike the startup scan
/// unreadable ones too), stopping at the live snapshot. An unreadable
/// directory is a poll with nothing new. The fresh engine is fully built
/// before the engine lock is taken, so the swap itself is one
/// pointer-sized store between micro-batch flushes.
fn try_rotate(shared: &BatchShared, cfg: &RotateConfig, current: &mut Option<PathBuf>) {
    let paths = serve_snapshot_files(&cfg.dir).unwrap_or_default();
    for path in paths.iter().rev() {
        if let Some(cur) = current.as_ref() {
            if path <= cur {
                break; // nothing newer than the live snapshot
            }
        }
        let started = Instant::now();
        let fresh = load_any_serve_snapshot(path)
            .ok()
            .and_then(|any| match any {
                // Serving quantized: v1 candidates are quantized
                // in-process so a mixed directory still hot-swaps onto
                // the int8 backend.
                AnyServeSnapshot::V1(snap) if cfg.quantize => {
                    edsr_cl::quantize_serve_snapshot(&snap)
                        .ok()
                        .map(|q| AnyServeSnapshot::V2(Box::new(q)))
                }
                other => Some(other),
            })
            .and_then(|any| Engine::from_any(any, cfg.cache_capacity).ok());
        match fresh {
            Some(engine) => {
                *lock(&shared.engine) = engine;
                shared.stats.rotations.fetch_add(1, Ordering::Relaxed);
                if edsr_obs::enabled() {
                    edsr_obs::counter("serve/rotations", 1);
                    edsr_obs::histogram("serve/rotation_ms", started.elapsed().as_secs_f64() * 1e3);
                }
                *current = Some(path.clone());
                return;
            }
            None => {
                // Corrupt/torn candidate: skip it and try the next-older
                // one; the next poll retries in case it heals.
                if edsr_obs::enabled() {
                    edsr_obs::counter("serve/rotation_skipped", 1);
                }
            }
        }
    }
}

/// The rotator thread: meet `started`, then sleep on its condvar (woken
/// early by stop) and attempt one rotation per poll tick.
fn rotation_worker(shared: &BatchShared, mut cfg: RotateConfig, started: &Barrier) {
    let mut current = cfg.current.take();
    started.wait();
    loop {
        {
            let guard = lock(&shared.rotate_mx);
            let _ = shared
                .rotate_cv
                .wait_timeout_while(guard, cfg.poll, |_| !shared.stop.load(Ordering::SeqCst))
                .unwrap_or_else(|e| e.into_inner());
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        try_rotate(shared, &cfg, &mut current);
    }
}

// ---------------------------------------------------------------------------
// TCP server.

/// Final counters reported by [`ServeHandle::join`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerReport {
    /// Requests answered across all connections.
    pub requests: u64,
    /// Batched forward flushes.
    pub batches: u64,
    /// Embed requests answered through the batcher.
    pub batched_requests: u64,
    /// Largest coalesced batch observed.
    pub max_batch: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
    /// Completed live snapshot rotations.
    pub rotations: u64,
    /// Requests shed because they aged past the deadline.
    pub rejected_deadline: u64,
    /// Requests shed because the submit queue was full.
    pub rejected_overload: u64,
}

struct ServerShared {
    batch: Arc<BatchShared>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    conns: Mutex<usize>,
    conns_cv: Condvar,
    max_connections: usize,
    stall_cap: Duration,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](Self::shutdown) + [`join`](Self::join) (or send a
/// shutdown request over the wire).
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<std::thread::JoinHandle<ServerReport>>,
}

impl ServeHandle {
    /// The bound address (useful with ephemeral port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to drain and stop (same as a wire shutdown).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the accept loop to drain all connections and the
    /// batcher to stop; returns the final counters.
    pub fn join(mut self) -> Result<ServerReport, ServeError> {
        let handle = self.accept.take().expect("join called once");
        handle.join().map_err(|_| ServeError::ServerClosed)
    }
}

/// Starts the server over `engine` on `addr` (use port 0 for an
/// ephemeral port; read it back from [`ServeHandle::addr`]).
pub fn serve(
    engine: Engine,
    addr: impl std::net::ToSocketAddrs,
    cfg: ServerConfig,
) -> Result<ServeHandle, ServeError> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let mut batcher = Batcher::with_config(engine, &cfg);
    if let Some(rotate) = cfg.rotate.clone() {
        batcher.start_rotation(rotate);
    }
    let shared = Arc::new(ServerShared {
        batch: Arc::clone(&batcher.shared),
        shutdown: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        conns: Mutex::new(0),
        conns_cv: Condvar::new(),
        max_connections: cfg.max_connections.max(1),
        stall_cap: cfg.stall_cap.max(Duration::from_millis(1)),
    });
    let accept_shared = Arc::clone(&shared);
    let fault_seed = cfg.fault_seed;
    let accept = std::thread::Builder::new()
        .name("edsr-serve-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared, batcher, fault_seed))
        .map_err(ServeError::Io)?;
    Ok(ServeHandle {
        addr: local,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    mut batcher: Batcher,
    fault_seed: Option<u64>,
) -> ServerReport {
    let _span = edsr_obs::span!("serve/accept_loop");
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut accepted: u64 = 0;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Bounded accept pool: block admission at capacity.
                {
                    let mut active = lock(&shared.conns);
                    while *active >= shared.max_connections {
                        active = shared
                            .conns_cv
                            .wait(active)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    *active += 1;
                }
                let conn_idx = accepted;
                accepted += 1;
                let conn_shared = Arc::clone(shared);
                let submitter = batcher.submitter();
                let h = std::thread::Builder::new()
                    .name("edsr-serve-conn".into())
                    .spawn(move || {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                        match fault_seed {
                            Some(seed) => {
                                // A per-connection plan so reconnects see
                                // fresh faults (deterministic in the
                                // seed + accept order).
                                let plan =
                                    WireFaultPlan::seeded(seed.wrapping_add(conn_idx), 64, 6);
                                let faulty = FaultyStream::new(stream, plan);
                                handle_connection(faulty, &conn_shared, submitter);
                            }
                            None => handle_connection(stream, &conn_shared, submitter),
                        }
                        let mut active = lock(&conn_shared.conns);
                        *active -= 1;
                        conn_shared.conns_cv.notify_one();
                    })
                    .expect("spawn connection handler");
                handlers.push(h);
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
    // Graceful drain: every accepted connection finishes its in-flight
    // frames, then the batcher empties its queue and stops.
    for h in handlers {
        let _ = h.join();
    }
    batcher.stop_worker();
    let (batches, batched_requests, max_batch) = batcher.stats();
    let (rejected_deadline, rejected_overload) = batcher.rejected();
    let rotations = batcher.rotations();
    let (cache_hits, cache_misses) = batcher.with_engine(|e| (e.cache_hits(), e.cache_misses()));
    edsr_obs::flush();
    ServerReport {
        requests: shared.requests.load(Ordering::Relaxed),
        batches,
        batched_requests,
        max_batch,
        cache_hits,
        cache_misses,
        rotations,
        rejected_deadline,
        rejected_overload,
    }
}

/// Reads one frame, polling the shutdown flag between frames (a read
/// timeout only aborts the connection mid-frame after the configured
/// stall cap — slow-loris protection).
fn poll_frame<S: Read>(
    stream: &mut S,
    buf: &mut Vec<u8>,
    shared: &ServerShared,
) -> Result<bool, ProtocolError> {
    let stall_cap = shared.stall_cap;
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    let mut stall_start: Option<Instant> = None;
    while filled < 4 {
        match stream.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(ProtocolError::Truncated {
                    expected: 4,
                    got: filled,
                })
            }
            Ok(n) => {
                filled += n;
                stall_start = None;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if filled == 0 {
                    // Idle between frames: honour shutdown.
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return Ok(false);
                    }
                } else {
                    // Mid-frame: give the client time, but not forever.
                    let start = *stall_start.get_or_insert_with(Instant::now);
                    if start.elapsed() > stall_cap {
                        return Err(ProtocolError::Truncated {
                            expected: 4,
                            got: filled,
                        });
                    }
                }
            }
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > crate::protocol::MAX_FRAME {
        return Err(ProtocolError::TooLarge(len));
    }
    buf.clear();
    buf.resize(len, 0);
    let mut read = 0usize;
    let mut stall_start: Option<Instant> = None;
    while read < len {
        match stream.read(&mut buf[read..]) {
            Ok(0) => {
                return Err(ProtocolError::Truncated {
                    expected: len,
                    got: read,
                })
            }
            Ok(n) => {
                read += n;
                stall_start = None;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let start = *stall_start.get_or_insert_with(Instant::now);
                if start.elapsed() > stall_cap {
                    return Err(ProtocolError::Truncated {
                        expected: len,
                        got: read,
                    });
                }
            }
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(true)
}

fn handle_connection<S: Read + Write>(
    mut stream: S,
    shared: &ServerShared,
    mut submitter: Submitter,
) {
    let mut frame = Vec::new();
    let mut payload = Vec::new();
    let mut input = Vec::new();
    let mut out = Vec::new();
    let mut neighbors = Vec::new();
    loop {
        match poll_frame(&mut stream, &mut frame, shared) {
            Ok(false) => return,
            Ok(true) => {}
            Err(ProtocolError::Io(_)) => return, // peer went away
            Err(e) => {
                // Malformed framing: answer with a structured error, then
                // close — the stream can no longer be re-synchronised.
                let resp = Response::Error {
                    code: ERR_BAD_REQUEST,
                    retry_after_ms: 0,
                    message: e.to_string(),
                };
                resp.encode_into(0, &mut payload);
                let _ = write_frame(&mut stream, &payload);
                return;
            }
        }
        let started = Instant::now();
        let _req_span = edsr_obs::span!("serve/request");
        let (opcode, response) = match Request::decode(&frame) {
            Err(e) => (
                0,
                Response::Error {
                    code: ERR_BAD_REQUEST,
                    retry_after_ms: 0,
                    message: e.to_string(),
                },
            ),
            Ok(req) => {
                let opcode = req.opcode();
                let resp = answer(
                    req,
                    shared,
                    &mut submitter,
                    &mut input,
                    &mut out,
                    &mut neighbors,
                );
                (opcode, resp)
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        response.encode_into(opcode, &mut payload);
        if write_frame(&mut stream, &payload).is_err() {
            return;
        }
        if edsr_obs::enabled() {
            edsr_obs::histogram("serve/latency_us", started.elapsed().as_secs_f64() * 1e6);
        }
        // Recycle the embedding buffer moved into the response.
        if let Response::Embedding(v) = response {
            out = v;
        }
    }
}

fn answer(
    req: Request,
    shared: &ServerShared,
    submitter: &mut Submitter,
    input: &mut Vec<f32>,
    out: &mut Vec<f32>,
    neighbors: &mut Vec<edsr_linalg::Neighbor>,
) -> Response {
    match req {
        Request::Embed { task, input: body } => {
            input.clear();
            input.extend_from_slice(&body);
            match submitter.embed(task as usize, input, out) {
                Ok(_) => Response::Embedding(std::mem::take(out)),
                Err(SubmitError::ShuttingDown) => Response::Error {
                    code: ERR_SHUTTING_DOWN,
                    retry_after_ms: 0,
                    message: "server is shutting down".into(),
                },
                Err(SubmitError::DeadlineExceeded) => Response::Error {
                    code: ERR_DEADLINE,
                    retry_after_ms: 0,
                    message: "request deadline exceeded in batch queue".into(),
                },
                Err(SubmitError::Overloaded { retry_after_ms }) => Response::Error {
                    code: ERR_OVERLOADED,
                    retry_after_ms,
                    message: "server overloaded, submit queue full".into(),
                },
                Err(SubmitError::Rejected(message)) => Response::Error {
                    code: ERR_BAD_REQUEST,
                    retry_after_ms: 0,
                    message,
                },
            }
        }
        Request::Knn { k, metric, query } => {
            let result = {
                let mut engine = lock(&shared.batch.engine);
                engine.knn_into(&query, k as usize, metric.into(), neighbors)
            };
            match result {
                Ok(()) => Response::Neighbors(
                    neighbors
                        .iter()
                        .map(|n| WireNeighbor {
                            index: n.index as u64,
                            score: n.score,
                        })
                        .collect(),
                ),
                Err(message) => Response::Error {
                    code: ERR_BAD_REQUEST,
                    retry_after_ms: 0,
                    message,
                },
            }
        }
        Request::Stats => {
            let engine_stats = {
                let engine = lock(&shared.batch.engine);
                (
                    engine.cache_hits(),
                    engine.cache_misses(),
                    engine.memory_rows() as u64,
                    engine.repr_dim() as u64,
                    engine.quantized() as u64,
                )
            };
            Response::Stats(StatsReply {
                // +1: count this stats request itself.
                requests: shared.requests.load(Ordering::Relaxed) + 1,
                batches: shared.batch.stats.batches.load(Ordering::Relaxed),
                batched_requests: shared.batch.stats.batched_requests.load(Ordering::Relaxed),
                max_batch: shared.batch.stats.max_batch.load(Ordering::Relaxed),
                cache_hits: engine_stats.0,
                cache_misses: engine_stats.1,
                memory_rows: engine_stats.2,
                repr_dim: engine_stats.3,
                rotations: shared.batch.stats.rotations.load(Ordering::Relaxed),
                rejected_deadline: shared.batch.stats.rejected_deadline.load(Ordering::Relaxed),
                rejected_overload: shared.batch.stats.rejected_overload.load(Ordering::Relaxed),
                quantized: engine_stats.4,
            })
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::ShutdownAck
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_cl::checkpoint::ServeSnapshot;
    use edsr_cl::{ContinualModel, ModelConfig};
    use edsr_tensor::rng::seeded;

    fn engine_seeded(seed: u64) -> Engine {
        let mut rng = seeded(seed);
        let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let inputs = Matrix::randn(4, 16, 1.0, &mut rng);
        let reprs = model.represent(&inputs, 0);
        let snap = ServeSnapshot::capture(&model, reprs, vec![0; 4], "t", 1).unwrap();
        Engine::from_snapshot(snap, 16).unwrap()
    }

    fn engine() -> Engine {
        engine_seeded(21)
    }

    #[test]
    fn batcher_answers_and_reports_errors() {
        let batcher = Batcher::new(engine(), 4, Duration::from_micros(100));
        let mut sub = batcher.submitter();
        let mut input: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
        let mut out = Vec::new();
        let report = sub.embed(0, &mut input, &mut out).expect("valid embed");
        assert_eq!(report.forward_rows, 1);
        assert_eq!(out.len(), 48);
        assert_eq!(input.len(), 16, "input buffer handed back");

        // Second identical request: cache hit, same bits.
        let mut out2 = Vec::new();
        let report = sub.embed(0, &mut input, &mut out2).expect("valid embed");
        assert_eq!(report.cache_hits, 1);
        assert_eq!(
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            out2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );

        // Wrong width → Rejected, buffers intact.
        let mut bad: Vec<f32> = vec![0.0; 9];
        match sub.embed(0, &mut bad, &mut out) {
            Err(SubmitError::Rejected(msg)) => assert!(msg.contains("expects 16")),
            other => panic!("expected rejection, got {other:?}"),
        }

        let (batches, reqs, max_batch) = batcher.stats();
        assert!(batches >= 2);
        assert_eq!(reqs, 3);
        assert!(max_batch >= 1);
        assert_eq!(batcher.with_engine(|e| e.cache_hits()), 1);
    }

    #[test]
    fn concurrent_submitters_coalesce_into_one_batch() {
        let n = 4;
        // A long window so all submitters land in one flush once the
        // batch fills to exactly n.
        let batcher = Arc::new(Batcher::new(engine(), n, Duration::from_secs(5)));
        let results: Vec<_> = (0..n)
            .map(|c| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || {
                    let mut sub = b.submitter();
                    let mut input: Vec<f32> = (0..16).map(|i| (i + c) as f32 * 0.05).collect();
                    let mut out = Vec::new();
                    sub.embed(0, &mut input, &mut out).expect("valid");
                    (input, out)
                })
            })
            .collect();
        let outs: Vec<(Vec<f32>, Vec<f32>)> =
            results.into_iter().map(|h| h.join().unwrap()).collect();
        let (batches, reqs, max_batch) = batcher.stats();
        assert_eq!(reqs, n as u64);
        assert_eq!(max_batch, n as u64, "all requests coalesced");
        assert_eq!(batches, 1);

        // Each coalesced answer matches a direct single-input embed.
        let mut solo = engine();
        for (input, got) in &outs {
            let mut want = Vec::new();
            solo.embed_into(0, input, &mut want).unwrap();
            assert_eq!(
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn full_queue_sheds_with_overloaded_and_retry_hint() {
        // Two queued requests saturate queue_cap; the window is long
        // enough that they are still queued when the third submits.
        let cfg = ServerConfig {
            max_batch: 64,
            window: Duration::from_millis(400),
            queue_cap: 2,
            ..ServerConfig::default()
        };
        let batcher = Arc::new(Batcher::with_config(engine(), &cfg));
        let blocked: Vec<_> = (0..2)
            .map(|c| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || {
                    let mut sub = b.submitter();
                    let mut input: Vec<f32> = (0..16).map(|i| (i + c) as f32 * 0.05).collect();
                    let mut out = Vec::new();
                    sub.embed(0, &mut input, &mut out)
                })
            })
            .collect();
        // Give both background submitters time to enqueue.
        std::thread::sleep(Duration::from_millis(100));
        let mut sub = batcher.submitter();
        let mut input: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
        let mut out = Vec::new();
        match sub.embed(0, &mut input, &mut out) {
            Err(SubmitError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "hint must be non-zero");
            }
            other => panic!("expected overload shed, got {other:?}"),
        }
        assert_eq!(input.len(), 16, "input buffer handed back on shed");
        for worker in blocked {
            worker
                .join()
                .expect("thread")
                .expect("queued requests still answered");
        }
        assert_eq!(batcher.rejected().1, 1);
    }

    #[test]
    fn queued_requests_past_deadline_fail_with_deadline_exceeded() {
        // The window keeps the request queued for ~80 ms while the
        // deadline expires after 1 ms: the flush must shed it.
        let cfg = ServerConfig {
            max_batch: 64,
            window: Duration::from_millis(80),
            deadline: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        };
        let batcher = Batcher::with_config(engine(), &cfg);
        let mut sub = batcher.submitter();
        let mut input: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
        let mut out = Vec::new();
        match sub.embed(0, &mut input, &mut out) {
            Err(SubmitError::DeadlineExceeded) => {}
            other => panic!("expected deadline shed, got {other:?}"),
        }
        assert_eq!(batcher.rejected().0, 1);
        assert_eq!(batcher.stats().0, 0, "expired request must not flush");
    }

    #[test]
    fn rotation_swaps_to_newer_snapshot_and_skips_corrupt() {
        let dir = std::env::temp_dir().join(format!("edsr-rotate-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let save = |seed: u64, name: &str| {
            let mut rng = seeded(seed);
            let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
            let inputs = Matrix::randn(4, 16, 1.0, &mut rng);
            let reprs = model.represent_eval(&inputs, 0);
            let snap = ServeSnapshot::capture(&model, reprs, vec![0; 4], "rot", 1).unwrap();
            let path = dir.join(name);
            snap.save(&path).unwrap();
            path
        };
        let first = save(100, "rot.task0001.snapshot");

        let mut batcher = Batcher::new(engine_seeded(100), 4, Duration::from_micros(100));
        batcher.start_rotation(RotateConfig {
            dir: dir.clone(),
            poll: Duration::from_millis(5),
            cache_capacity: 16,
            current: Some(first.clone()),
            quantize: false,
        });

        // A corrupt newer candidate must be skipped. Corrupt a copy
        // *outside* the watched directory, then rename it in atomically,
        // so the poller can never observe it in a valid state.
        let staged = std::env::temp_dir().join(format!("edsr-rotate-bad-{}", std::process::id()));
        std::fs::copy(&first, &staged).unwrap();
        let len = std::fs::metadata(&staged).unwrap().len() as usize;
        edsr_cl::fault::flip_byte(&staged, len / 2, 0xFF).unwrap();
        std::fs::rename(&staged, dir.join("rot.task0002.snapshot")).unwrap();

        // A crafted candidate that sorts newest of all: CRC-valid, but its
        // memory header claims u32::MAX x u32::MAX values. Every poll
        // reaches it first; decoding must refuse it without allocating,
        // and the watcher must live on to try older candidates.
        let crafted = {
            let model = ContinualModel::new(&ModelConfig::image(16), &mut seeded(101));
            let empty = Matrix::zeros(0, model.repr_dim());
            let snap = ServeSnapshot::capture(&model, empty, Vec::new(), "rot", 1).unwrap();
            let mut payload = snap.encode();
            // The payload ends with the memory header (u32 rows, u32 cols,
            // no values) and a zero u64 task count.
            let n = payload.len();
            payload[n - 16..n - 8].fill(0xFF);
            payload
        };
        edsr_wire::write_envelope(&staged, edsr_cl::SERVE_SNAPSHOT_MAGIC, &crafted).unwrap();
        std::fs::rename(&staged, dir.join("rot.task0004.snapshot")).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(batcher.rotations(), 0, "decoy snapshots must not rotate");

        // ... while a valid even-newer one rotates within a few polls.
        save(102, "rot.task0003.snapshot");
        let deadline = Instant::now() + Duration::from_secs(5);
        while batcher.rotations() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(batcher.rotations(), 1, "valid snapshot must rotate");

        // The served embedding now matches the rotated model.
        let mut rng = seeded(102);
        let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let probe = Matrix::randn(1, 16, 1.0, &mut seeded(7));
        let want = model.represent_eval(&probe, 0);
        let mut sub = batcher.submitter();
        let mut input = probe.row(0).to_vec();
        let mut out = Vec::new();
        sub.embed(0, &mut input, &mut out).expect("embed");
        assert_eq!(
            want.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "post-rotation embedding diverged from the new snapshot"
        );
        batcher.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `stop()` right after `start_rotation()` must not wait out the
    /// poll: the stop flag and the watcher's wait are ordered under one
    /// mutex, so the wake-up cannot be lost. A regression hangs an
    /// iteration for the full hour-long poll; the watchdog turns that
    /// into a failure.
    #[test]
    fn stop_right_after_start_rotation_returns_promptly() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for _ in 0..200 {
                let mut batcher = Batcher::new(engine(), 4, Duration::from_micros(100));
                batcher.start_rotation(RotateConfig {
                    dir: std::env::temp_dir().join("edsr-rotate-never-polled"),
                    poll: Duration::from_secs(3600),
                    cache_capacity: 16,
                    current: None,
                    quantize: false,
                });
                batcher.stop();
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("stop() blocked on the rotation poll: lost wake-up");
        cycles.join().expect("start/stop cycles");
    }

    /// Submitters racing `stop()`: every call returns `Ok` or
    /// `ShuttingDown`, none is left queued behind an exited batcher, and
    /// `stop()` itself returns. `stop` is read and written under the queue
    /// lock, so a submit either lands before the final drain or is turned
    /// away; a regression hangs a submitter, and the watchdog turns that
    /// into a failure.
    #[test]
    fn submitters_racing_stop_get_ok_or_shutting_down() {
        const SUBMITTERS: usize = 3;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for cycle in 0..100 {
                let mut batcher = Batcher::new(engine(), 4, Duration::from_micros(50));
                let go = Arc::new(Barrier::new(SUBMITTERS + 1));
                let submitters: Vec<_> = (0..SUBMITTERS)
                    .map(|t| {
                        let mut sub = batcher.submitter();
                        let go = Arc::clone(&go);
                        std::thread::spawn(move || {
                            go.wait();
                            let mut out = Vec::new();
                            for i in 0.. {
                                let mut input = vec![(t * 1000 + i) as f32 * 1e-3; 16];
                                match sub.embed(0, &mut input, &mut out) {
                                    Ok(_) => {}
                                    Err(SubmitError::ShuttingDown) => return i,
                                    Err(e) => panic!("submit racing stop failed: {e}"),
                                }
                            }
                            unreachable!("the loop only ends at shutdown")
                        })
                    })
                    .collect();
                // Stop at a different point of the traffic each cycle.
                go.wait();
                for _ in 0..cycle % 10 * 20 {
                    std::thread::yield_now();
                }
                batcher.stop();
                for s in submitters {
                    s.join().expect("submitter thread");
                }
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a submit racing stop() never returned");
        cycles.join().expect("submit/stop cycles");
    }
}
