//! The worker pool behind [`par_for_chunks`](crate::par_for_chunks): a
//! global, lazily spawned set of threads executing type-erased chunk jobs.
//!
//! Scheduling model: one parallel call turns into `n_chunks` jobs sharing
//! a completion latch. The caller executes chunk 0 itself, then
//! *helps drain the queue* until its latch completes — so progress is
//! guaranteed even with zero pool workers (`EDSR_THREADS=1` hosts), and a
//! blocked caller never idles while work is pending. Workers never block
//! on latches, only callers do, so concurrent parallel calls from
//! different threads cannot deadlock.
//!
//! Panics inside a chunk are caught per job, recorded on the latch, and
//! re-raised on the calling thread *after* every job of the call has
//! finished — jobs borrow the caller's stack, so the caller must never
//! unwind while they are in flight.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::enter_pool_context;

/// A borrowed chunk task, shared by every job of one parallel call.
/// The `usize` argument is the chunk index.
pub(crate) type Task = dyn Fn(usize) + Sync;

/// Type-erased pointer to a caller-owned [`Task`].
///
/// Soundness: the caller of [`Pool::run`] blocks until the latch counts
/// every job as finished (even when a chunk panics), so the pointee
/// strictly outlives every dereference on the workers.
struct TaskPtr(*const Task);

// SAFETY: the pointee is `Sync` (shared-access safe) and outlives the job
// (see above), so shipping the pointer to a worker thread is sound.
unsafe impl Send for TaskPtr {}

/// One schedulable chunk of a parallel call.
struct Job {
    task: TaskPtr,
    chunk: usize,
    latch: Arc<Latch>,
}

impl Job {
    /// Runs the chunk, catching panics into the latch.
    fn execute(self) {
        // SAFETY: see `TaskPtr` — the caller keeps the task alive until
        // the latch completes, which happens strictly after this call.
        let task = unsafe { &*self.task.0 };
        let outcome =
            enter_pool_context(|| std::panic::catch_unwind(AssertUnwindSafe(|| task(self.chunk))));
        self.latch.complete(outcome.err());
    }
}

/// Completion latch for one parallel call.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(jobs: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(LatchState {
                remaining: jobs,
                panic: None,
            }),
            done: Condvar::new(),
        })
    }

    /// Marks one job finished; the first panic payload wins.
    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().expect("latch state lock");
        state.remaining -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().expect("latch state lock").remaining == 0
    }

    /// Blocks until every job has completed.
    fn wait(&self) {
        let mut state = self.state.lock().expect("latch state lock");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("latch wait");
        }
    }

    /// Re-raises the first recorded chunk panic, if any.
    fn resume_panic(&self) {
        let payload = self.state.lock().expect("latch state lock").panic.take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Queue shared between callers and workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Cumulative busy time (ns) per participant slot, recorded only while
    /// the observability layer is on. Slot 0 aggregates every non-worker
    /// thread (callers running chunk 0 and helping drain); slot `i + 1` is
    /// worker `i`.
    busy_ns: Vec<std::sync::atomic::AtomicU64>,
    /// Completed job count per participant slot (same layout).
    jobs: Vec<std::sync::atomic::AtomicU64>,
}

impl Shared {
    /// Runs one job, charging its wall time to `slot` when the
    /// observability layer is on (a single relaxed load otherwise).
    fn execute_on(&self, job: Job, slot: usize) {
        if edsr_obs::enabled() {
            let t0 = std::time::Instant::now();
            job.execute();
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.busy_ns[slot].fetch_add(ns, std::sync::atomic::Ordering::Relaxed);
            self.jobs[slot].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        } else {
            job.execute();
        }
    }
}

/// The process-wide pool. Workers are detached and live for the process;
/// they spend idle time blocked on the queue condvar.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    /// Workers that actually spawned (spawn failures degrade gracefully,
    /// so this can be below the requested count).
    spawned: usize,
}

impl Pool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            busy_ns: (0..=workers)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
            jobs: (0..=workers)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
        });
        let mut spawned = 0;
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let result = std::thread::Builder::new()
                .name(format!("edsr-par-{i}"))
                .spawn(move || worker_loop(&shared, i + 1));
            match result {
                Ok(_) => spawned += 1,
                // Degraded but correct: the caller drains the queue itself.
                Err(e) => eprintln!("edsr-par: could not spawn worker {i}: {e}"),
            }
        }
        Self { shared, spawned }
    }

    /// Number of live worker threads (excluding the helping caller).
    pub(crate) fn workers(&self) -> usize {
        self.spawned
    }

    /// Cumulative `(busy_ns, jobs)` per participant slot — slot 0 for the
    /// helping callers, slot `i + 1` for worker `i`. Counts only
    /// accumulate while the observability layer is on.
    pub(crate) fn occupancy(&self) -> Vec<(u64, u64)> {
        self.shared
            .busy_ns
            .iter()
            .zip(&self.shared.jobs)
            .map(|(b, j)| {
                (
                    b.load(std::sync::atomic::Ordering::Relaxed),
                    j.load(std::sync::atomic::Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Executes `task(0..n_chunks)` across the pool and the calling
    /// thread, returning (or re-panicking) once every chunk finished.
    pub(crate) fn run(&self, n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        debug_assert!(n_chunks >= 1);
        // SAFETY: lifetime erasure only — this function blocks until the
        // latch counts every job as finished, so the borrow outlives all
        // uses on the workers (see `TaskPtr`).
        let task: &'static Task = unsafe { std::mem::transmute(task) };
        let latch = Latch::new(n_chunks);
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            for chunk in 1..n_chunks {
                queue.push_back(Job {
                    task: TaskPtr(task as *const Task),
                    chunk,
                    latch: Arc::clone(&latch),
                });
            }
        }
        // One wake-up per queued job, and never more than there are
        // workers: an idle worker left asleep costs nothing.
        for _ in 1..n_chunks.min(self.spawned + 1) {
            self.shared.available.notify_one();
        }

        // Chunk 0 runs on the caller (participant slot 0).
        self.shared.execute_on(
            Job {
                task: TaskPtr(task as *const Task),
                chunk: 0,
                latch: Arc::clone(&latch),
            },
            0,
        );

        // Help drain the queue (possibly executing jobs of concurrent
        // calls) until this call's latch completes.
        while !latch.is_done() {
            let job = self
                .shared
                .queue
                .lock()
                .expect("pool queue lock")
                .pop_front();
            match job {
                Some(job) => self.shared.execute_on(job, 0),
                None => latch.wait(),
            }
        }
        latch.resume_panic();
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                match queue.pop_front() {
                    Some(job) => break job,
                    None => queue = shared.available.wait(queue).expect("pool queue wait"),
                }
            }
        };
        shared.execute_on(job, slot);
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The global pool, spawned on first parallel submission with
/// `configured_threads() - 1` workers (the caller is the remaining
/// participant).
pub(crate) fn global() -> &'static Pool {
    POOL.get_or_init(|| Pool::new(crate::configured_threads().saturating_sub(1)))
}

/// The global pool only if a parallel submission already spawned it.
pub(crate) fn try_global() -> Option<&'static Pool> {
    POOL.get()
}
