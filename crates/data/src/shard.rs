//! The `EDSRDS01` on-disk shard format: one CRC-trailed file per
//! continual-learning increment, plus an `EDSRDM01` manifest indexing a
//! whole stream.
//!
//! Both files reuse the workspace envelope convention
//! (`edsr_wire::write_envelope`): `magic + payload + (u64 length, u32
//! crc32)` with temp-file + fsync + atomic-rename durability, so a shard
//! under the final name is either complete and CRC-valid or does not
//! exist. Readers validate magic → truncation → CRC *before* parsing a
//! byte of payload ([`edsr_wire::read_envelope`]), which is what lets the
//! stream loader skip corrupt shards loudly with a structured
//! [`DataError`] and never yield partial samples.
//!
//! Payload layout (all integers little-endian):
//!
//! ```text
//! shard   := dataset(train) dataset(test) u64 n_classes u64*classes
//! dataset := u32 name_len bytes(name) u64 rows u64 cols
//!            u64*rows labels  f32*rows*cols row-major data
//! manifest:= u32 name_len bytes(stream name) u64 dim u64 n_shards
//!            shard_meta*
//! shard_meta := u32 file_len bytes(file) u64 train_len u64 test_len
//!               u64 n_classes u64*classes
//! ```
//!
//! Floats are stored as raw little-endian bit patterns, so a decoded
//! shard is *bit-identical* to the matrix it was encoded from — the
//! foundation of the streamed-vs-in-RAM checkpoint identity guarantee.

use std::path::{Path, PathBuf};

use edsr_tensor::Matrix;
use edsr_wire::{put_f32s, put_u32, put_u64, read_envelope, write_envelope, Reader};

use crate::dataset::{Dataset, Task, TaskSequence};
use crate::error::DataError;

/// Magic tag of one data shard (one increment).
pub const SHARD_MAGIC: &[u8; 8] = b"EDSRDS01";
/// Magic tag of a stream manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"EDSRDM01";
/// File name of the manifest inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.edsrdm";

/// Per-shard entry of a [`ShardManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard file name, relative to the stream directory.
    pub file: String,
    /// Training samples in the shard.
    pub train_len: usize,
    /// Test samples in the shard.
    pub test_len: usize,
    /// Classes present in the increment.
    pub classes: Vec<usize>,
}

/// Index of a sharded task stream: everything a loader needs to know
/// about the stream *without* touching a single shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Stream name (becomes the benchmark name of runs over it).
    pub name: String,
    /// Input dimensionality of the first increment.
    pub dim: usize,
    /// One entry per increment, in presentation order.
    pub shards: Vec<ShardMeta>,
}

impl ShardManifest {
    /// Absolute path of shard `idx` under `dir`.
    pub fn shard_path(&self, dir: &Path, idx: usize) -> PathBuf {
        dir.join(&self.shards[idx].file)
    }
}

// ---------------------------------------------------------------------------
// Payload encoding / decoding.
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_dataset(out: &mut Vec<u8>, d: &Dataset) {
    put_str(out, &d.name);
    put_u64(out, d.inputs.rows() as u64);
    put_u64(out, d.inputs.cols() as u64);
    for &l in &d.labels {
        put_u64(out, l as u64);
    }
    put_f32s(out, d.inputs.data());
}

/// Payload parse failures: every shortfall is structured (the CRC already
/// passed, so a shortfall here means a writer bug or a crafted file, not
/// bit rot).
type ParseResult<T> = Result<T, Box<dyn std::error::Error>>;

fn get_str(r: &mut Reader) -> ParseResult<String> {
    let len = r.u32()? as usize;
    Ok(String::from_utf8(r.take(len)?.to_vec()).map_err(|_| "name is not UTF-8")?)
}

/// `n` u64 values, `n` checked against the bytes left before allocating.
fn get_u64s(r: &mut Reader, n: u64) -> ParseResult<Vec<usize>> {
    let mut out = Vec::with_capacity(r.count(n, 8)?);
    for _ in 0..n {
        out.push(r.u64()? as usize);
    }
    Ok(out)
}

fn get_dataset(r: &mut Reader) -> ParseResult<Dataset> {
    let name = get_str(r)?;
    let rows = r.u64()?;
    let cols = r.u64()?;
    let labels = get_u64s(r, rows)?;
    let (rows, cols) = (labels.len(), cols as usize);
    let n = r.count((rows as u64).saturating_mul(cols as u64), 4)?;
    let raw = r.take(n * 4)?;
    let mut data = vec![0.0f32; n];
    // Bulk f32 decode is the hot loop of a shard load; chunk it over the
    // pool. Pure element-wise, so the result is thread-count independent.
    edsr_par::par_for_rows(&mut data, rows, n, |row_range, chunk| {
        let base = row_range.start * cols * 4;
        for (k, v) in chunk.iter_mut().enumerate() {
            let o = base + k * 4;
            *v = f32::from_le_bytes(raw[o..o + 4].try_into().unwrap());
        }
    });
    let inputs = Matrix::from_vec(rows, cols, data);
    Ok(Dataset::try_new(name, inputs, labels)?)
}

/// Serializes one increment into a shard payload (no envelope).
pub fn encode_task(task: &Task) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + (task.train.inputs.len() + task.test.inputs.len()) * 4);
    put_dataset(&mut out, &task.train);
    put_dataset(&mut out, &task.test);
    put_u64(&mut out, task.classes.len() as u64);
    for &c in &task.classes {
        put_u64(&mut out, c as u64);
    }
    out
}

/// Parses a shard payload back into an increment. `path` labels errors.
pub fn decode_task(payload: &[u8], path: &Path) -> Result<Task, DataError> {
    let parse = || -> ParseResult<Task> {
        let mut r = Reader::new(payload);
        let train = get_dataset(&mut r)?;
        let test = get_dataset(&mut r)?;
        let n = r.u64()?;
        let classes = get_u64s(&mut r, n)?;
        r.finish()?;
        if train.dim() != test.dim() {
            return Err(format!("train dim {} != test dim {}", train.dim(), test.dim()).into());
        }
        Ok(Task {
            train,
            test,
            classes,
        })
    };
    parse().map_err(|e| format_error(path, e))
}

fn format_error(path: &Path, e: Box<dyn std::error::Error>) -> DataError {
    DataError::Format {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// Writes one increment as a durable `EDSRDS01` shard.
pub fn write_task_shard(path: &Path, task: &Task) -> Result<(), DataError> {
    write_envelope(path, SHARD_MAGIC, &encode_task(task)).map_err(|source| DataError::Envelope {
        path: path.to_path_buf(),
        source,
    })
}

/// Reads and validates one `EDSRDS01` shard. Corruption or truncation
/// surfaces as [`DataError::Envelope`] before any sample is decoded.
pub fn read_task_shard(path: &Path) -> Result<Task, DataError> {
    let payload = read_envelope(path, SHARD_MAGIC).map_err(|source| DataError::Envelope {
        path: path.to_path_buf(),
        source,
    })?;
    decode_task(&payload, path)
}

fn encode_manifest(m: &ShardManifest) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &m.name);
    put_u64(&mut out, m.dim as u64);
    put_u64(&mut out, m.shards.len() as u64);
    for s in &m.shards {
        put_str(&mut out, &s.file);
        put_u64(&mut out, s.train_len as u64);
        put_u64(&mut out, s.test_len as u64);
        put_u64(&mut out, s.classes.len() as u64);
        for &c in &s.classes {
            put_u64(&mut out, c as u64);
        }
    }
    out
}

fn decode_manifest(payload: &[u8], path: &Path) -> Result<ShardManifest, DataError> {
    let parse = || -> ParseResult<ShardManifest> {
        let mut r = Reader::new(payload);
        let name = get_str(&mut r)?;
        let dim = r.u64()? as usize;
        let n_shards = r.u64()?;
        // An entry takes at least 28 bytes: file name length and three u64s.
        let mut shards = Vec::with_capacity(r.count(n_shards, 28)?);
        for _ in 0..n_shards {
            let file = get_str(&mut r)?;
            let train_len = r.u64()? as usize;
            let test_len = r.u64()? as usize;
            let n = r.u64()?;
            let classes = get_u64s(&mut r, n)?;
            shards.push(ShardMeta {
                file,
                train_len,
                test_len,
                classes,
            });
        }
        r.finish()?;
        Ok(ShardManifest { name, dim, shards })
    };
    parse().map_err(|e| format_error(path, e))
}

/// Writes the stream manifest under `dir`.
pub fn write_manifest(dir: &Path, m: &ShardManifest) -> Result<(), DataError> {
    let path = dir.join(MANIFEST_FILE);
    write_envelope(&path, MANIFEST_MAGIC, &encode_manifest(m)).map_err(|source| {
        DataError::Envelope {
            path: path.clone(),
            source,
        }
    })
}

/// Reads and validates the manifest of a shard directory.
pub fn read_manifest(dir: &Path) -> Result<ShardManifest, DataError> {
    let path = dir.join(MANIFEST_FILE);
    let payload = read_envelope(&path, MANIFEST_MAGIC).map_err(|source| DataError::Envelope {
        path: path.clone(),
        source,
    })?;
    decode_manifest(&payload, &path)
}

/// Materializes a [`TaskSequence`] as a shard directory: one durable
/// shard per increment plus the manifest (written last, so a complete
/// manifest implies complete shards). Returns the manifest.
pub fn write_shard_dir(dir: &Path, seq: &TaskSequence) -> Result<ShardManifest, DataError> {
    std::fs::create_dir_all(dir).map_err(|source| DataError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut shards = Vec::with_capacity(seq.len());
    for (idx, task) in seq.tasks.iter().enumerate() {
        let file = format!("task{idx:04}.shard");
        write_task_shard(&dir.join(&file), task)?;
        shards.push(ShardMeta {
            file,
            train_len: task.train.len(),
            test_len: task.test.len(),
            classes: task.classes.clone(),
        });
    }
    let manifest = ShardManifest {
        name: seq.name.clone(),
        dim: seq.tasks.first().map_or(0, |t| t.train.dim()),
        shards,
    };
    write_manifest(dir, &manifest)?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;
    use edsr_wire::EnvelopeError;

    fn toy_task(seed: u64) -> Task {
        let mut rng = seeded(seed);
        let train = Dataset::new(
            "tr",
            Matrix::randn(7, 5, 1.0, &mut rng),
            vec![0, 0, 0, 1, 1, 1, 1],
        );
        let test = Dataset::new("te", Matrix::randn(3, 5, 1.0, &mut rng), vec![0, 1, 1]);
        Task {
            train,
            test,
            classes: vec![0, 1],
        }
    }

    fn toy_sequence() -> TaskSequence {
        TaskSequence {
            name: "toy-stream".into(),
            tasks: (0..3).map(|i| toy_task(500 + i)).collect(),
        }
    }

    #[test]
    fn task_payload_round_trips_bit_identically() {
        let task = toy_task(510);
        let payload = encode_task(&task);
        let back = decode_task(&payload, Path::new("mem")).unwrap();
        assert_eq!(back.train.inputs.max_abs_diff(&task.train.inputs), 0.0);
        assert_eq!(back.test.inputs.max_abs_diff(&task.test.inputs), 0.0);
        assert_eq!(back.train.labels, task.train.labels);
        assert_eq!(back.test.labels, task.test.labels);
        assert_eq!(back.classes, task.classes);
        assert_eq!(back.train.name, "tr");
    }

    #[test]
    fn shard_file_round_trips() {
        let dir = std::env::temp_dir().join("edsr_shard_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.shard");
        let task = toy_task(511);
        write_task_shard(&path, &task).unwrap();
        let back = read_task_shard(&path).unwrap();
        assert_eq!(back.train.inputs.max_abs_diff(&task.train.inputs), 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_is_a_structured_error() {
        let dir = std::env::temp_dir().join("edsr_shard_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.shard");
        write_task_shard(&path, &toy_task(512)).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        match read_task_shard(&path) {
            Err(DataError::Envelope {
                source: EnvelopeError::Truncated { .. },
                ..
            }) => {}
            other => panic!("expected a truncation error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_is_a_structured_error() {
        let dir = std::env::temp_dir().join("edsr_shard_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.shard");
        write_task_shard(&path, &toy_task(513)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match read_task_shard(&path) {
            Err(DataError::Envelope {
                source: EnvelopeError::Corrupt { .. },
                ..
            }) => {}
            other => panic!("expected a corruption error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_count_cannot_allocate() {
        // A payload claiming 2^60 classes, or a train set of 2^62 rows or
        // columns, must fail the bounds guard, not attempt the allocation.
        let golden = encode_task(&toy_task(514));
        let n = golden.len();
        // The train set's name "tr" is 6 bytes, then u64 rows, u64 cols.
        for (field, at, value) in [
            ("classes", n - 24, 1u64 << 60),
            ("rows", 6, 1 << 62),
            ("cols", 14, 1 << 62),
        ] {
            let mut payload = golden.clone();
            payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
            match decode_task(&payload, Path::new("mem")) {
                Err(DataError::Format { .. }) => {}
                other => panic!("{field}: expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn shard_dir_and_manifest_round_trip() {
        let dir = std::env::temp_dir().join("edsr_shard_dir_rt");
        std::fs::remove_dir_all(&dir).ok();
        let seq = toy_sequence();
        let manifest = write_shard_dir(&dir, &seq).unwrap();
        assert_eq!(manifest.shards.len(), 3);
        assert_eq!(manifest.dim, 5);
        let back = read_manifest(&dir).unwrap();
        assert_eq!(back, manifest);
        for (i, meta) in back.shards.iter().enumerate() {
            assert_eq!(meta.train_len, seq.tasks[i].train.len());
            let task = read_task_shard(&back.shard_path(&dir, i)).unwrap();
            assert_eq!(
                task.train.inputs.max_abs_diff(&seq.tasks[i].train.inputs),
                0.0
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let dir = std::env::temp_dir().join("edsr_shard_magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.shard");
        // A manifest envelope read as a shard must fail on magic alone.
        edsr_wire::write_envelope(&path, MANIFEST_MAGIC, b"zz").unwrap();
        match read_task_shard(&path) {
            Err(DataError::Envelope {
                source: EnvelopeError::BadMagic,
                ..
            }) => {}
            other => panic!("expected bad magic, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
