//! Out-of-core task streaming: [`ShardStream`] yields increments from an
//! `EDSRDS01` shard directory while keeping **at most two shards
//! resident** — the one being consumed plus the one the background
//! prefetcher is loading ahead.
//!
//! ## Prefetch protocol
//!
//! `fetch(i)` resolves in one of three ways:
//!
//! 1. `i` is already resident → returned for free;
//! 2. `i` is the in-flight prefetch → join the loader thread (a
//!    *prefetch hit*: decode overlapped with the caller's compute);
//! 3. otherwise → a synchronous load on the caller's thread (a *miss*;
//!    only cold starts and the evaluation look-back pay this).
//!
//! Whichever way the shard arrived, the previous resident is dropped and
//! a new prefetch for `i + 1` is launched before `fetch` returns, so the
//! loader is always exactly one shard ahead of a sequential consumer.
//! The in-shard f32 decode itself is chunked over `edsr-par`.
//!
//! ## Guarantees
//!
//! - **Bit identity**: shards store raw f32 bit patterns and the decode
//!   is element-wise, so the streamed samples — and any training run
//!   over them — are bit-identical to the in-RAM sequence the shards
//!   were written from, at any thread count.
//! - **Bounded residency**: at every point at most two decoded shards
//!   exist (asserted by [`ShardStream::resident_peak`]; exported as the
//!   `stream/resident` gauge when observability is on).
//! - **Loud failure**: a truncated or corrupt shard surfaces as a
//!   structured [`DataError`] from `fetch` — never as partial samples.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use crate::dataset::Task;
use crate::error::DataError;
use crate::shard::{read_manifest, read_task_shard, ShardManifest};
use crate::source::TaskSource;

/// An in-flight background shard load.
struct Prefetch {
    idx: usize,
    handle: JoinHandle<Result<Task, DataError>>,
}

/// A prefetching, double-buffered loader over a shard directory.
pub struct ShardStream {
    dir: PathBuf,
    manifest: ShardManifest,
    /// The shard the consumer is (or was last) reading.
    resident: Option<(usize, Task)>,
    /// The shard the background loader is one step ahead on.
    prefetch: Option<Prefetch>,
    resident_peak: usize,
    sync_loads: u64,
    prefetch_hits: u64,
    prefetch_wasted: u64,
}

impl ShardStream {
    /// Opens a shard directory by validating its manifest. No shard is
    /// touched until the first [`fetch`](TaskSource::fetch).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DataError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = read_manifest(&dir)?;
        Ok(Self {
            dir,
            manifest,
            resident: None,
            prefetch: None,
            resident_peak: 0,
            sync_loads: 0,
            prefetch_hits: 0,
            prefetch_wasted: 0,
        })
    }

    /// The stream's manifest (lengths and classes per increment without
    /// loading any shard).
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// High-water mark of simultaneously resident shards. The loader's
    /// contract is that this never exceeds 2, however long the stream.
    pub fn resident_peak(&self) -> usize {
        self.resident_peak
    }

    /// Synchronous (non-overlapped) shard loads so far.
    pub fn sync_loads(&self) -> u64 {
        self.sync_loads
    }

    /// Fetches answered by the background prefetcher.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Prefetched shards discarded because the consumer went elsewhere
    /// (the evaluation look-back causes a bounded number of these).
    pub fn prefetch_wasted(&self) -> u64 {
        self.prefetch_wasted
    }

    /// Shards currently decoded in memory (resident + prefetch slot; an
    /// in-flight prefetch counts as resident because its decode may have
    /// completed on the loader thread).
    fn resident_now(&self) -> usize {
        usize::from(self.resident.is_some()) + usize::from(self.prefetch.is_some())
    }

    fn note_residency(&mut self) {
        let now = self.resident_now();
        if now > self.resident_peak {
            self.resident_peak = now;
        }
        if edsr_obs::enabled() {
            edsr_obs::gauge("stream/resident", now as f64);
        }
    }

    /// Joins the prefetch slot and returns its result; a panicked loader
    /// thread becomes a structured error, not a poisoned stream.
    fn join_prefetch(p: Prefetch) -> Result<Task, DataError> {
        p.handle
            .join()
            .unwrap_or_else(|_| Err(DataError::Prefetch("loader thread panicked".into())))
    }

    /// Starts a background load of `idx` unless one is already in
    /// flight. A stale in-flight prefetch for a different shard is
    /// joined and discarded first, keeping residency within budget.
    fn ensure_prefetch(&mut self, idx: usize) {
        if idx >= self.manifest.shards.len() {
            return;
        }
        if let Some(p) = &self.prefetch {
            if p.idx == idx {
                return;
            }
            let stale = self.prefetch.take().expect("checked above");
            // The result is dropped either way; a failing shard will
            // resurface as a structured error if it is ever fetched.
            let _ = Self::join_prefetch(stale);
            self.prefetch_wasted += 1;
        }
        let path = self.manifest.shard_path(&self.dir, idx);
        // Spawn failure (fd/thread exhaustion) is not an error: the
        // fetch path falls back to a synchronous load.
        if let Ok(handle) = std::thread::Builder::new()
            .name(format!("edsr-prefetch-{idx}"))
            .spawn(move || read_task_shard(&path))
        {
            self.prefetch = Some(Prefetch { idx, handle });
            self.note_residency();
        }
    }

    /// Obtains shard `idx`: from the prefetch slot when it matches,
    /// synchronously otherwise.
    fn acquire(&mut self, idx: usize) -> Result<Task, DataError> {
        if self.prefetch.as_ref().is_some_and(|p| p.idx == idx) {
            let p = self.prefetch.take().expect("checked above");
            let task = Self::join_prefetch(p)?;
            self.prefetch_hits += 1;
            if edsr_obs::enabled() {
                edsr_obs::counter_at("stream/prefetch_hit", idx as u64, 1);
            }
            return Ok(task);
        }
        self.sync_loads += 1;
        if edsr_obs::enabled() {
            edsr_obs::counter_at("stream/sync_load", idx as u64, 1);
        }
        read_task_shard(&self.manifest.shard_path(&self.dir, idx))
    }
}

impl TaskSource for ShardStream {
    fn name(&self) -> &str {
        &self.manifest.name
    }

    fn len(&self) -> usize {
        self.manifest.shards.len()
    }

    fn dim(&self) -> usize {
        self.manifest.dim
    }

    fn fetch(&mut self, idx: usize) -> Result<&Task, DataError> {
        let len = self.manifest.shards.len();
        if idx >= len {
            return Err(DataError::OutOfRange { index: idx, len });
        }
        if self.resident.as_ref().map(|(i, _)| *i) != Some(idx) {
            // Drop the previous resident *before* acquiring, so the
            // acquisition (which may join a decoded prefetch) never
            // holds three shards at once.
            self.resident = None;
            let task = self.acquire(idx)?;
            self.resident = Some((idx, task));
            self.note_residency();
        }
        self.ensure_prefetch(idx + 1);
        Ok(&self.resident.as_ref().expect("assigned above").1)
    }
}

impl Drop for ShardStream {
    fn drop(&mut self) {
        if let Some(p) = self.prefetch.take() {
            let _ = Self::join_prefetch(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, TaskSequence};
    use crate::shard::write_shard_dir;
    use edsr_tensor::rng::seeded;
    use edsr_tensor::Matrix;

    fn toy_sequence(tasks: usize) -> TaskSequence {
        let mut rng = seeded(700);
        TaskSequence {
            name: "stream-test".into(),
            tasks: (0..tasks)
                .map(|i| {
                    let train = Dataset::new(
                        format!("tr{i}"),
                        Matrix::randn(6, 4, 1.0, &mut rng),
                        vec![i; 6],
                    );
                    let test = Dataset::new(
                        format!("te{i}"),
                        Matrix::randn(2, 4, 1.0, &mut rng),
                        vec![i; 2],
                    );
                    crate::dataset::Task {
                        train,
                        test,
                        classes: vec![i],
                    }
                })
                .collect(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("edsr_stream_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn sequential_walk_matches_sequence_with_two_resident() {
        let dir = tmp_dir("walk");
        let seq = toy_sequence(8);
        write_shard_dir(&dir, &seq).unwrap();
        let mut stream = ShardStream::open(&dir).unwrap();
        assert_eq!(TaskSource::name(&stream), "stream-test");
        assert_eq!(TaskSource::len(&stream), 8);
        assert_eq!(TaskSource::dim(&stream), 4);
        for i in 0..8 {
            let task = stream.fetch(i).unwrap();
            assert_eq!(
                task.train.inputs.max_abs_diff(&seq.tasks[i].train.inputs),
                0.0
            );
            assert_eq!(task.classes, vec![i]);
        }
        assert!(
            stream.resident_peak() <= 2,
            "peak {}",
            stream.resident_peak()
        );
        assert!(
            stream.prefetch_hits() >= 6,
            "sequential walk should ride the prefetcher: {} hits",
            stream.prefetch_hits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trainer_access_pattern_stays_within_budget() {
        // Train-then-evaluate look-back: fetch(i), then 0..=i, repeatedly.
        let dir = tmp_dir("lookback");
        let seq = toy_sequence(5);
        write_shard_dir(&dir, &seq).unwrap();
        let mut stream = ShardStream::open(&dir).unwrap();
        for i in 0..5 {
            stream.fetch(i).unwrap();
            for j in 0..=i {
                let t = stream.fetch(j).unwrap();
                assert_eq!(t.train.inputs.max_abs_diff(&seq.tasks[j].train.inputs), 0.0);
            }
        }
        assert!(
            stream.resident_peak() <= 2,
            "peak {}",
            stream.resident_peak()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refetching_resident_shard_is_free() {
        let dir = tmp_dir("refetch");
        write_shard_dir(&dir, &toy_sequence(3)).unwrap();
        let mut stream = ShardStream::open(&dir).unwrap();
        stream.fetch(0).unwrap();
        let loads = stream.sync_loads() + stream.prefetch_hits();
        stream.fetch(0).unwrap();
        stream.fetch(0).unwrap();
        assert_eq!(stream.sync_loads() + stream.prefetch_hits(), loads);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_surfaces_structured_error_on_fetch() {
        let dir = tmp_dir("corrupt");
        write_shard_dir(&dir, &toy_sequence(4)).unwrap();
        // Corrupt shard 2 in the middle of its payload.
        let victim = dir.join("task0002.shard");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        std::fs::write(&victim, &bytes).unwrap();
        let mut stream = ShardStream::open(&dir).unwrap();
        stream.fetch(0).unwrap();
        stream.fetch(1).unwrap();
        match stream.fetch(2) {
            Err(DataError::Envelope { path, .. }) => {
                assert!(path.ends_with("task0002.shard"), "{}", path.display());
            }
            other => panic!("expected a structured envelope error, got {other:?}"),
        }
        // The stream stays usable for intact shards.
        assert!(stream.fetch(3).is_ok());
        assert!(stream.fetch(1).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_structured_error() {
        let dir = tmp_dir("nomanifest");
        std::fs::create_dir_all(&dir).unwrap();
        match ShardStream::open(&dir) {
            Err(DataError::Envelope { .. }) => {}
            Err(other) => panic!("expected an envelope error, got {other:?}"),
            Ok(_) => panic!("open should fail without a manifest"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_fetch_is_rejected() {
        let dir = tmp_dir("range");
        write_shard_dir(&dir, &toy_sequence(2)).unwrap();
        let mut stream = ShardStream::open(&dir).unwrap();
        assert!(matches!(
            stream.fetch(2),
            Err(DataError::OutOfRange { index: 2, len: 2 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
