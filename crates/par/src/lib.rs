//! # edsr-par
//!
//! Deterministic data-parallel compute runtime for the EDSR reproduction.
//!
//! The build environment has no crates.io access, so — like `rand` and
//! `proptest` — the thread pool is vendored in-tree rather than pulled
//! from rayon. The API is deliberately small: the hot
//! paths of the reproduction (matmul kernels, im2col, kNN batches,
//! k-means assignment, covariance accumulation, per-seed bench sweeps)
//! are all data-parallel loops over disjoint output regions.
//!
//! ## Determinism contract
//!
//! Every primitive here produces **bit-identical results at every thread
//! count**, preserving the bit-identical checkpoint/resume guarantee of
//! the fault-tolerant runtime (DESIGN.md §8): [`par_for_chunks`] /
//! [`par_for_rows`] / [`par_map_collect`] compute each index from the
//! shared inputs only and write to disjoint output slices in index order,
//! so chunk boundaries cannot affect values.
//!
//! ## When the pool is used: one grain rule
//!
//! Every primitive takes the call's total `work` — multiply-adds, or
//! elements touched — and splits it into `min(threads, items, work / CUT)`
//! chunks ([`CUT`]). Below two chunks, or inside a pool job, or with no
//! pool workers (`EDSR_THREADS=1`, single-core hosts), the call runs inline
//! on the caller: the exact same per-chunk code, with zero pool overhead.
//! Call sites only state their work; none decides on its own.
//!
//! ## Configuration
//!
//! Thread count comes from `EDSR_THREADS` (default:
//! `available_parallelism()`; a value [`parse_threads`] rejects panics
//! with its grammar), may be set programmatically before first
//! use via [`set_threads`] (the CLI's `--threads`), and can be overridden
//! per-scope with [`with_threads`] (used by the determinism tests and the
//! `bench` binary to compare serial and parallel timings in one process).

#![forbid(unsafe_op_in_unsafe_fn)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

mod pool;

/// Work units (multiply-adds, or elements touched) that one chunk must
/// carry for handing it to a pool worker to pay off; a call is split into
/// `min(threads, items, work / CUT)` chunks and runs inline below two.
///
/// Set from the serial-vs-two-thread break-even of the tiled GEMM, which
/// carries almost all of the parallel work, on a 2-vCPU AVX-512 host. A
/// hand-off to the one worker cost 35–60 µs there; the 64-row train-step
/// products (147K–1.2M multiply-adds, the `train_*` rows of
/// `BENCH_par.json`) ran at 0.56–1.01x of one thread on the pool, and
/// `r x 192 x 96` sweeps broke even between 2M and 3.5M depending on host
/// load. At 2M per chunk the first split comes at 4.2M, where two threads
/// won 1.3–1.6x in every sweep; the `eval_*` rows of one `boundary` eval
/// cell (46M and 31M) stay far past it. kNN scores and elementwise ops
/// cost more per unit than a GEMM multiply-add, so for them the rule only
/// errs towards running inline.
pub const CUT: usize = 2 << 20;

/// Process-wide configured thread count; `0` means "not yet resolved".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-scope override installed by [`with_threads`] (`0` = none).
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True while this thread is executing a pool job; nested parallel
    /// calls then run inline to keep the pool deadlock-free.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Calls this thread has handed to the pool (see [`handoffs`]).
    static HANDOFFS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with the "inside the pool" marker set (nested parallelism
/// runs inline). Used by the pool for workers *and* the helping caller.
pub(crate) fn enter_pool_context<R>(f: impl FnOnce() -> R) -> R {
    let prev = IN_POOL.replace(true);
    let out = f();
    IN_POOL.set(prev);
    out
}

/// Parses a thread count, the one grammar of `EDSR_THREADS` and
/// `--threads`: an integer ≥ 1, surrounding whitespace ignored. The error
/// names `source` (the variable or flag) and the grammar.
pub fn parse_threads(source: &str, value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{source}: expected a thread count >= 1, got {value:?}"
        )),
    }
}

/// The process-wide thread count: `EDSR_THREADS` if set, otherwise
/// `available_parallelism()` (1 if unavailable). Resolved once;
/// [`set_threads`] before first parallel use takes precedence.
///
/// # Panics
/// On an `EDSR_THREADS` value [`parse_threads`] rejects (`0`, `two`, …),
/// with a message naming the grammar: a silent fall-back to every core
/// would invalidate pinned-thread test runs.
pub fn configured_threads() -> usize {
    let current = CONFIGURED.load(Ordering::Relaxed);
    if current != 0 {
        return current;
    }
    let resolved = match std::env::var("EDSR_THREADS") {
        Ok(raw) => parse_threads("EDSR_THREADS", &raw).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    };
    // First resolver wins so every thread agrees on one value.
    match CONFIGURED.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => resolved,
        Err(raced) => raced,
    }
}

/// Sets the process-wide thread count (the CLI's `--threads`). Call
/// before the first parallel operation: the pool sizes its workers from
/// the value seen at first use (later calls still change how many chunks
/// are formed, but not the worker count).
pub fn set_threads(n: usize) {
    CONFIGURED.store(n.max(1), Ordering::Relaxed);
}

/// Worker threads the global pool actually spawned (excluding the helping
/// caller thread), forcing pool initialisation if it has not happened yet.
/// `configured_threads() - 1` in the common case; less if thread spawning
/// failed, and 0 on `EDSR_THREADS=1` or single-core hosts (every chunk
/// then runs inline on the caller). Bench reporting uses this to record
/// the parallelism that was *measured*, not just requested.
pub fn pool_workers() -> usize {
    if configured_threads() == 1 {
        // The pool is never constructed on the serial path; don't spawn
        // it just to count zero workers.
        return 0;
    }
    pool::global().workers()
}

/// Emits the pool's cumulative occupancy to the observability layer:
/// gauges `pool/busy_ns` and `pool/jobs`, indexed by participant slot
/// (0 = the helping caller threads, `i` = worker `i - 1`). Busy time only
/// accumulates while `edsr_obs` is enabled, so install a sink *before*
/// the work being measured. No-op when observability is off or no
/// parallel submission ever spawned the pool.
pub fn emit_pool_metrics() {
    if !edsr_obs::enabled() {
        return;
    }
    let Some(pool) = pool::try_global() else {
        return;
    };
    for (slot, (busy_ns, jobs)) in pool.occupancy().into_iter().enumerate() {
        edsr_obs::gauge_at("pool/busy_ns", slot as u64, busy_ns as f64);
        edsr_obs::gauge_at("pool/jobs", slot as u64, jobs as f64);
    }
}

/// The thread count in effect on this thread: the innermost
/// [`with_threads`] override, else [`configured_threads`].
pub fn thread_count() -> usize {
    let over = OVERRIDE.with(Cell::get);
    if over != 0 {
        over
    } else {
        configured_threads()
    }
}

/// Runs `f` with [`thread_count`] forced to `n` on this thread (restored
/// on exit, including on panic). Results are unaffected by construction —
/// this only changes how many chunks map-style primitives form.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(n.max(1))));
    f()
}

/// Number of parallel calls the current thread has handed to the pool so
/// far (calls that ran inline are not counted). Tests read it before and
/// after a workload to prove that it was sized past [`CUT`] and really
/// reached the pool's workers.
pub fn handoffs() -> u64 {
    HANDOFFS.with(Cell::get)
}

/// The grain rule: how many chunks a call over `len` items carrying `work`
/// units in total is split into — `min(threads, len, work / CUT)`, or 1
/// (run inline) when that is below two, inside a pool job, or when the
/// pool has no workers to hand chunks to.
fn chunk_count(len: usize, work: usize) -> usize {
    let chunks = thread_count().min(len).min(work / CUT);
    if chunks < 2 || IN_POOL.with(Cell::get) || pool_workers() == 0 {
        1
    } else {
        chunks
    }
}

/// Chunk `i` of `len` items split into `chunks` balanced contiguous
/// ranges, the first `len % chunks` one item longer. A pure function of
/// its arguments (the determinism contract leans on this); requires
/// `1 <= chunks <= len` and `i < chunks`.
fn chunk_range(len: usize, chunks: usize, i: usize) -> Range<usize> {
    let (base, extra) = (len / chunks, len % chunks);
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// Splits `0..len` (carrying `work` units in total) into chunks by the
/// grain rule and runs `f` on each chunk's index range, on the pool when
/// there is more than one chunk. Blocks until every chunk has finished; a
/// panicking chunk is re-raised on the caller once all chunks are done.
/// `f` must only write state disjoint per chunk (use [`par_for_rows`] for
/// safe slice splitting).
pub fn par_for_chunks(len: usize, work: usize, f: impl Fn(Range<usize>) + Sync) {
    if len == 0 {
        return;
    }
    let chunks = chunk_count(len, work);
    if chunks == 1 {
        f(0..len);
        return;
    }
    HANDOFFS.with(|n| n.set(n.get() + 1));
    pool::global().run(chunks, &|i| f(chunk_range(len, chunks, i)));
}

/// Raw-pointer wrapper that lets disjoint sub-slices cross into pool jobs.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare non-`Sync` pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: each job derives a sub-slice disjoint from every other job's
// (disjoint row ranges of one allocation), and the caller blocks until
// all jobs finish — standard split-at-mut reasoning, done dynamically.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Interprets `out` as `n_rows` equal-width rows, splits it into
/// contiguous row-chunks by the grain rule (`work` is the whole call's
/// multiply-adds or elements touched) and runs `f(row_range, chunk_slice)`
/// on each — the core "write disjoint output slices in index order"
/// primitive behind the parallel matmuls.
///
/// # Panics
/// Panics if `out.len()` is not a multiple of `n_rows` (for `n_rows > 0`),
/// or if `n_rows > 0` with an empty non-divisible slice.
pub fn par_for_rows<T, F>(out: &mut [T], n_rows: usize, work: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    if n_rows == 0 {
        return;
    }
    assert_eq!(
        out.len() % n_rows,
        0,
        "par_for_rows: slice length {} is not a multiple of {n_rows} rows",
        out.len()
    );
    let width = out.len() / n_rows;
    let base = SendPtr(out.as_mut_ptr());
    par_for_chunks(n_rows, work, |rows| {
        // SAFETY: `rows` ranges partition `0..n_rows`, so the derived
        // sub-slices are disjoint; the borrow of `out` outlives the call.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(rows.start * width), rows.len() * width)
        };
        f(rows, chunk);
    });
}

/// Computes `f(i)` for `i in 0..n` (carrying `work` units in total) and
/// returns the results in index order, in parallel when the grain rule
/// says so. Each result depends only on its index, so the output is
/// independent of chunking and thread count.
pub fn par_map_collect<T, F>(n: usize, work: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    par_for_rows(&mut slots, n, work, |rows, chunk| {
        for (slot, i) in chunk.iter_mut().zip(rows) {
            *slot = Some(f(i));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("par_map_collect: every chunk completed"))
        .collect()
}

/// Catches a panic from `f`, rendering the payload as a string — the
/// bridge that lets sweep drivers record a panicking worker as a
/// structured error instead of unwinding the whole process.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ranges `par_for_chunks` hands out for `len` items of `work` units.
    fn ranges_for(threads: usize, len: usize, work: usize) -> Vec<Range<usize>> {
        let ranges = std::sync::Mutex::new(Vec::new());
        with_threads(threads, || {
            par_for_chunks(len, work, |r| ranges.lock().expect("range log").push(r));
        });
        let mut ranges = ranges.into_inner().expect("range log");
        ranges.sort_by_key(|r| r.start);
        ranges
    }

    #[test]
    fn chunk_ranges_partition_and_balance() {
        let ranges: Vec<_> = (0..3).map(|i| chunk_range(10, 3, i)).collect();
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        // One chunk per item at the limit, never an empty chunk.
        let ranges: Vec<_> = (0..2).map(|i| chunk_range(2, 2, i)).collect();
        assert_eq!(ranges, vec![0..1, 1..2]);
        // Exact, balanced partition for a spread of shapes.
        for len in [1usize, 7, 64, 1000] {
            for n in [1usize, 2, 3, 7, 16].into_iter().filter(|&n| n <= len) {
                let ranges: Vec<_> = (0..n).map(|i| chunk_range(len, n, i)).collect();
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                    assert!(!pair[1].is_empty());
                    assert!(pair[0].len() >= pair[1].len());
                    assert!(pair[0].len() - pair[1].len() <= 1);
                }
            }
        }
    }

    #[test]
    fn par_for_chunks_empty_input_is_noop() {
        let mut touched = false;
        par_for_chunks(0, usize::MAX, |_| {
            // Never called; the flag below would race if it were.
            let _ = &touched;
        });
        touched = true;
        assert!(touched);
    }

    #[test]
    fn work_below_the_cut_runs_inline() {
        // Two chunks need `2 * CUT` units: one unit less stays on the
        // caller as one flat range, whatever the thread count.
        let before = handoffs();
        assert_eq!(ranges_for(7, 64, 2 * CUT - 1), vec![0..64]);
        assert_eq!(handoffs(), before);
    }

    #[test]
    fn work_past_the_cut_reaches_the_pool() {
        if pool_workers() == 0 {
            eprintln!("skipping pool hand-off test: pool spawned no workers");
            return;
        }
        let before = handoffs();
        // Chunks = min(threads, items, work / CUT).
        assert_eq!(ranges_for(7, 64, 2 * CUT), vec![0..32, 32..64]);
        assert_eq!(ranges_for(7, 3, usize::MAX), vec![0..1, 1..2, 2..3]);
        assert_eq!(ranges_for(2, 64, usize::MAX), vec![0..32, 32..64]);
        assert_eq!(handoffs(), before + 3);
    }

    #[test]
    fn par_for_rows_matches_serial_at_every_thread_count() {
        let n_rows = 13;
        let width = 5;
        let expected: Vec<f32> = (0..n_rows * width).map(|i| (i as f32).sin()).collect();
        for threads in [1usize, 2, 7, 16] {
            let mut out = vec![0.0f32; n_rows * width];
            with_threads(threads, || {
                par_for_rows(&mut out, n_rows, usize::MAX, |rows, chunk| {
                    for (local, row) in rows.enumerate() {
                        for c in 0..width {
                            chunk[local * width + c] = ((row * width + c) as f32).sin();
                        }
                    }
                });
            });
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_collect_len_smaller_than_threads() {
        let out = with_threads(8, || par_map_collect(3, usize::MAX, |i| i * i));
        assert_eq!(out, vec![0, 1, 4]);
        let empty: Vec<usize> = with_threads(8, || par_map_collect(0, usize::MAX, |i| i));
        assert!(empty.is_empty());
    }

    #[test]
    fn zero_worker_pool_takes_single_flat_chunk() {
        if pool_workers() != 0 {
            eprintln!("skipping zero-worker fall-through test: pool spawned workers");
            return;
        }
        // With no workers, chunking is pure overhead: the scope override
        // asks for 7 chunks but the call must collapse to one flat range.
        assert_eq!(ranges_for(7, 100, usize::MAX), vec![0..100]);
    }

    #[test]
    fn panic_in_worker_propagates_not_hangs() {
        let result = catch_panic(|| {
            with_threads(4, || {
                par_for_chunks(16, usize::MAX, |range| {
                    if range.contains(&9) {
                        panic!("chunk exploded");
                    }
                });
            });
        });
        let msg = result.expect_err("panic must propagate to the caller");
        assert!(msg.contains("chunk exploded"), "{msg}");
        // The pool must stay usable after a propagated panic.
        let sum: usize = with_threads(4, || par_map_collect(100, usize::MAX, |i| i))
            .iter()
            .sum();
        assert_eq!(sum, 4950);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = thread_count();
        let _ = catch_panic(|| with_threads(5, || panic!("boom")));
        assert_eq!(thread_count(), before);
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        // A nested call inside a chunk must not deadlock and must produce
        // the same values.
        let out = with_threads(4, || {
            par_map_collect(6, usize::MAX, |i| {
                let inner: usize = par_map_collect(50, usize::MAX, |j| i + j).iter().sum();
                inner
            })
        });
        let expected: Vec<usize> = (0..6).map(|i| (0..50).map(|j| i + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn thread_counts_parse_as_trimmed_integers_of_at_least_one() {
        assert_eq!(parse_threads("EDSR_THREADS", "2"), Ok(2));
        assert_eq!(parse_threads("EDSR_THREADS", " 2 "), Ok(2));
        assert_eq!(parse_threads("--threads", "16\n"), Ok(16));
        for bad in ["0", "two", "", " ", "-1", "2.0", "+ 2"] {
            let err = parse_threads("EDSR_THREADS", bad).unwrap_err();
            assert_eq!(
                err,
                format!("EDSR_THREADS: expected a thread count >= 1, got {bad:?}")
            );
        }
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        assert!(configured_threads() >= 1);
        assert!(thread_count() >= 1);
    }
}
