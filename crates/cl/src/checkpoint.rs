//! Run-level checkpoints: everything needed to resume a continual run at
//! an increment boundary.
//!
//! One snapshot file is written after each completed increment, wrapped
//! in the same length+CRC32 envelope as weight checkpoints (magic
//! `EDSRRS01`), so a write interrupted mid-increment is *detected* at
//! load time and resume falls back to the previous valid snapshot.
//!
//! A snapshot records: model weights, optimizer moments, the exact RNG
//! position, the method's internal state (episodic memory, …), the
//! completed-increment index, the partial accuracy matrix, and the
//! divergence guard's LR scale — enough for a resumed run to be
//! bit-identical to an uninterrupted one.

use std::path::{Path, PathBuf};

use edsr_nn::io::{
    params_from_bytes, params_to_bytes, put_matrix, read_envelope, read_matrix, write_envelope,
};
use edsr_nn::CheckpointError;
use edsr_quant::{knn_gate, QuantEncoder, QuantLinear, QuantMemory, QuantSnapshot};
use edsr_ssl::SslVariant;
use edsr_tensor::Matrix;
use edsr_wire::{crc32, put_f32, put_f32s, put_f64, put_u32, put_u64, DecodeError, Reader};

use crate::memory::MemoryBuffer;
use crate::model::{ContinualModel, ModelConfig};

/// Magic of a run-state snapshot file.
pub const RUN_STATE_MAGIC: &[u8; 8] = b"EDSRRS01";

/// Magic of a serve snapshot file (model + replay-memory representations).
pub const SERVE_SNAPSHOT_MAGIC: &[u8; 8] = b"EDSRSS01";

/// Snapshots of one run that a save keeps, newest first; older ones are
/// pruned. Two, so one corrupt snapshot at the end still leaves a
/// fallback.
const KEEP: usize = 2;

/// Extension of run-state snapshot files.
const RUN_STATE_EXT: &str = "runstate";

/// Extension of serve snapshot files, v1 and v2 alike.
const SERVE_SNAPSHOT_EXT: &str = "snapshot";

/// Where to snapshot a run.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory that receives snapshot files (created on demand).
    pub dir: PathBuf,
    /// Filename stem — one run per stem; resume scans this stem only.
    pub run_id: String,
}

impl CheckpointConfig {
    /// Snapshots under `dir` with filenames starting `run_id`; each save
    /// keeps the newest two.
    pub fn new(dir: impl Into<PathBuf>, run_id: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            run_id: run_id.into(),
        }
    }

    /// Path of the snapshot taken after `completed` increments.
    pub fn snapshot_path(&self, completed: usize) -> PathBuf {
        self.task_path(completed, RUN_STATE_EXT)
    }

    /// `{dir}/{run_id}.task{completed:04}.{ext}`: every file a run writes
    /// per increment is named this way.
    fn task_path(&self, completed: usize, ext: &str) -> PathBuf {
        self.dir
            .join(format!("{}.task{completed:04}.{ext}", self.run_id))
    }

    /// This run's `.{ext}` files, sorted by completed-increment count
    /// (ascending). Existence only — validity is checked at load time.
    fn task_files(&self, ext: &str) -> Vec<(usize, PathBuf)> {
        let prefix = format!("{}.task", self.run_id);
        let suffix = format!(".{ext}");
        let mut found = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return found;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            let Some(digits) = rest.strip_suffix(&suffix) else {
                continue;
            };
            if let Ok(completed) = digits.parse::<usize>() {
                found.push((completed, entry.path()));
            }
        }
        found.sort();
        found
    }

    /// Creates the directory, writes the `.{ext}` file for `completed`
    /// increments through `write`, then prunes all but the newest [`KEEP`]
    /// of this run's `.{ext}` files. Returns the written path.
    fn save_task_file(
        &self,
        completed: usize,
        ext: &str,
        write: impl FnOnce(&Path) -> Result<(), CheckpointError>,
    ) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.task_path(completed, ext);
        write(&path)?;
        for (_, old) in self.task_files(ext).iter().rev().skip(KEEP) {
            let _ = std::fs::remove_file(old);
        }
        Ok(path)
    }
}

/// A resumable picture of a run at an increment boundary.
#[derive(Debug, Clone)]
pub struct RunState {
    /// Increments fully trained and evaluated.
    pub completed_tasks: usize,
    /// Method display name (sanity-checked on resume by callers).
    pub method: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Accuracy-matrix rows evaluated so far.
    pub matrix_rows: Vec<Vec<f32>>,
    /// Wall-clock seconds per completed increment.
    pub task_seconds: Vec<f64>,
    /// Mean loss per completed increment.
    pub task_losses: Vec<f32>,
    /// Model weights (payload of `params_to_bytes`).
    pub params_payload: Vec<u8>,
    /// Optimizer moments (payload of `optim_state_to_bytes`).
    pub optim_payload: Vec<u8>,
    /// Exact RNG position at the boundary.
    pub rng_state: [u64; 4],
    /// Method-internal state (payload of `Method::save_state`).
    pub method_state: Vec<u8>,
    /// Divergence-guard LR scale in effect at the boundary.
    pub lr_scale: f32,
}

/// Appends a `u64`-length-prefixed byte string.
fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Reads a byte string written by [`put_bytes`].
fn read_bytes<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], DecodeError> {
    let n = r.u64()?;
    r.take(r.count(n, 1)?)
}

fn read_utf8(r: &mut Reader<'_>) -> Result<String, CheckpointError> {
    String::from_utf8(read_bytes(r)?.to_vec())
        .map_err(|_| CheckpointError::Mismatch("checkpoint string is not UTF-8".into()))
}

/// Serializes a run state into an (un-enveloped) payload.
pub fn encode_run_state(s: &RunState) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, s.completed_tasks as u64);
    put_bytes(&mut buf, s.method.as_bytes());
    put_bytes(&mut buf, s.benchmark.as_bytes());
    put_u64(&mut buf, s.matrix_rows.len() as u64);
    for row in &s.matrix_rows {
        put_u64(&mut buf, row.len() as u64);
        put_f32s(&mut buf, row);
    }
    put_u64(&mut buf, s.task_seconds.len() as u64);
    for &v in &s.task_seconds {
        put_f64(&mut buf, v);
    }
    put_u64(&mut buf, s.task_losses.len() as u64);
    put_f32s(&mut buf, &s.task_losses);
    put_bytes(&mut buf, &s.params_payload);
    put_bytes(&mut buf, &s.optim_payload);
    for &w in &s.rng_state {
        put_u64(&mut buf, w);
    }
    put_bytes(&mut buf, &s.method_state);
    put_f32(&mut buf, s.lr_scale);
    buf
}

/// Parses a payload produced by [`encode_run_state`].
pub fn decode_run_state(payload: &[u8]) -> Result<RunState, CheckpointError> {
    let mut r = Reader::new(payload);
    let completed_tasks = r.u64()? as usize;
    let method = read_utf8(&mut r)?;
    let benchmark = read_utf8(&mut r)?;
    let n_rows = r.u64()?;
    let mut matrix_rows = Vec::with_capacity(r.count(n_rows, 8)?);
    for _ in 0..n_rows {
        let len = r.u64()?;
        matrix_rows.push(r.f32s(len)?);
    }
    let n_secs = r.u64()?;
    let mut task_seconds = Vec::with_capacity(r.count(n_secs, 8)?);
    for _ in 0..n_secs {
        task_seconds.push(r.f64()?);
    }
    let n_losses = r.u64()?;
    let task_losses = r.f32s(n_losses)?;
    let params_payload = read_bytes(&mut r)?.to_vec();
    let optim_payload = read_bytes(&mut r)?.to_vec();
    let mut rng_state = [0u64; 4];
    for w in &mut rng_state {
        *w = r.u64()?;
    }
    let method_state = read_bytes(&mut r)?.to_vec();
    let lr_scale = r.f32()?;
    r.finish()?;
    Ok(RunState {
        completed_tasks,
        method,
        benchmark,
        matrix_rows,
        task_seconds,
        task_losses,
        params_payload,
        optim_payload,
        rng_state,
        method_state,
        lr_scale,
    })
}

/// Writes the snapshot for `state.completed_tasks` increments and prunes
/// all but the newest two snapshots. Returns the snapshot's path.
///
/// Inherits `write_envelope`'s durability contract: the payload is
/// fsynced before the atomic rename, so a crash or power loss mid-save
/// can never publish a torn or unflushed snapshot under the final name.
pub fn save_run_state(
    cfg: &CheckpointConfig,
    state: &RunState,
) -> Result<PathBuf, CheckpointError> {
    cfg.save_task_file(state.completed_tasks, RUN_STATE_EXT, |path| {
        write_envelope(path, RUN_STATE_MAGIC, &encode_run_state(state))
    })
}

/// Loads and validates one snapshot file.
pub fn load_run_state(path: impl AsRef<Path>) -> Result<RunState, CheckpointError> {
    decode_run_state(&read_envelope(path, RUN_STATE_MAGIC)?)
}

/// All snapshot files of this run, sorted by completed-increment count
/// (ascending). Existence only — validity is checked at load time.
pub fn list_snapshots(cfg: &CheckpointConfig) -> Vec<(usize, PathBuf)> {
    cfg.task_files(RUN_STATE_EXT)
}

/// Finds the newest snapshot that loads cleanly, skipping truncated or
/// corrupt files (e.g. a write cut short by a crash). Returns `None`
/// when no valid snapshot exists.
pub fn latest_valid_run_state(cfg: &CheckpointConfig) -> Option<(PathBuf, RunState)> {
    for (_, path) in list_snapshots(cfg).into_iter().rev() {
        if let Ok(state) = load_run_state(&path) {
            return Some((path, state));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Serve snapshots: the read-only artifact `edsr-serve` loads.
// ---------------------------------------------------------------------------

/// Everything an embedding server needs, in one self-describing,
/// CRC-checked file: the model architecture ([`ModelConfig`]), the
/// trained weights, and the replay-memory representations the retrieval
/// API answers kNN queries against.
///
/// Written by the trainer after each completed increment (see
/// `RunBuilder::serve_snapshots`) and loaded read-only by `edsr-serve`.
/// The envelope (magic [`SERVE_SNAPSHOT_MAGIC`], length + CRC32 trailer,
/// atomic rename) is shared with every other persisted artifact, so a
/// snapshot interrupted mid-write is detected before any parsing.
#[derive(Debug, Clone)]
pub struct ServeSnapshot {
    /// Increments fully trained when the snapshot was taken.
    pub completed_tasks: usize,
    /// Benchmark / run label (informational).
    pub benchmark: String,
    /// Architecture + objective the weights belong to.
    pub config: ModelConfig,
    /// Model weights (payload of `params_to_bytes`).
    pub params_payload: Vec<u8>,
    /// Replay-memory representations, one row per stored sample
    /// (`repr_dim` columns; may have zero rows for memory-free methods).
    pub memory_reprs: Matrix,
    /// Source increment of each memory row (`memory_reprs.rows()` long).
    pub memory_tasks: Vec<u64>,
}

fn put_model_config(buf: &mut Vec<u8>, cfg: &ModelConfig) {
    put_u64(buf, cfg.input_dims.len() as u64);
    for &d in &cfg.input_dims {
        put_u64(buf, d as u64);
    }
    put_u64(buf, cfg.hidden_dim as u64);
    put_u64(buf, cfg.repr_dim as u64);
    put_u64(buf, cfg.backbone_layers as u64);
    match cfg.variant {
        SslVariant::SimSiam => put_u32(buf, 1),
        SslVariant::BarlowTwins { lambda } => {
            put_u32(buf, 2);
            put_f32(buf, lambda);
        }
    }
    match cfg.conv_stem {
        None => put_u32(buf, 0),
        Some((shape, kernel, filters)) => {
            put_u32(buf, 1);
            put_u64(buf, shape.channels as u64);
            put_u64(buf, shape.height as u64);
            put_u64(buf, shape.width as u64);
            put_u64(buf, kernel as u64);
            put_u64(buf, filters as u64);
        }
    }
}

fn read_model_config(r: &mut Reader<'_>) -> Result<ModelConfig, CheckpointError> {
    let n_dims = r.u64()?;
    let mut input_dims = Vec::with_capacity(r.count(n_dims, 8)?);
    for _ in 0..n_dims {
        input_dims.push(r.u64()? as usize);
    }
    let hidden_dim = r.u64()? as usize;
    let repr_dim = r.u64()? as usize;
    let backbone_layers = r.u64()? as usize;
    let variant = match r.u32()? {
        1 => SslVariant::SimSiam,
        2 => SslVariant::BarlowTwins { lambda: r.f32()? },
        tag => {
            return Err(CheckpointError::Mismatch(format!(
                "serve snapshot: unknown SSL variant tag {tag}"
            )))
        }
    };
    let conv_stem = match r.u32()? {
        0 => None,
        1 => {
            let shape = edsr_nn::ConvShape {
                channels: r.u64()? as usize,
                height: r.u64()? as usize,
                width: r.u64()? as usize,
            };
            let kernel = r.u64()? as usize;
            let filters = r.u64()? as usize;
            Some((shape, kernel, filters))
        }
        tag => {
            return Err(CheckpointError::Mismatch(format!(
                "serve snapshot: unknown conv-stem tag {tag}"
            )))
        }
    };
    Ok(ModelConfig {
        input_dims,
        hidden_dim,
        repr_dim,
        backbone_layers,
        variant,
        conv_stem,
    })
}

impl ServeSnapshot {
    /// Captures a snapshot of `model` plus explicit replay-memory
    /// representations (`reprs` rows × `repr_dim` columns, one source
    /// task per row).
    ///
    /// Fails with [`CheckpointError::Mismatch`] when the representation
    /// matrix is not `repr_dim` wide or disagrees with the task list.
    pub fn capture(
        model: &ContinualModel,
        reprs: Matrix,
        tasks: Vec<u64>,
        benchmark: impl Into<String>,
        completed_tasks: usize,
    ) -> Result<Self, CheckpointError> {
        if reprs.rows() != tasks.len() {
            return Err(CheckpointError::Mismatch(format!(
                "serve snapshot: {} memory rows but {} task labels",
                reprs.rows(),
                tasks.len()
            )));
        }
        if reprs.cols() != model.repr_dim() {
            return Err(CheckpointError::Mismatch(format!(
                "serve snapshot: memory representations are {}-d, model repr_dim is {}",
                reprs.cols(),
                model.repr_dim()
            )));
        }
        Ok(Self {
            completed_tasks,
            benchmark: benchmark.into(),
            config: model.config().clone(),
            params_payload: params_to_bytes(&model.params),
            memory_reprs: reprs,
            memory_tasks: tasks,
        })
    }

    /// [`capture`](Self::capture) taking the representations straight
    /// from an episodic [`MemoryBuffer`]: every item whose
    /// `stored_features` match the model's `repr_dim` contributes one
    /// row. Items without stored features (or with features of another
    /// dimensionality, e.g. DER's backbone features) are skipped.
    pub fn capture_from_memory(
        model: &ContinualModel,
        memory: &MemoryBuffer,
        benchmark: impl Into<String>,
        completed_tasks: usize,
    ) -> Result<Self, CheckpointError> {
        let (reprs, tasks) = memory_representations(memory, model.repr_dim());
        Self::capture(model, reprs, tasks, benchmark, completed_tasks)
    }

    /// Rebuilds a structurally identical model and restores the
    /// snapshot's weights into it. Deterministic: the snapshot is
    /// self-describing, so no external configuration is consulted.
    ///
    /// The configuration comes from the file, so it is checked before
    /// anything is built: it must satisfy what the layer constructors
    /// assert, and the parameters it implies must fit in the weight
    /// payload at 4 bytes a value. Either failure is a
    /// [`CheckpointError::Mismatch`], never a panic or an allocation the
    /// file cannot back.
    pub fn restore_model(&self) -> Result<ContinualModel, CheckpointError> {
        let scalars = self
            .config
            .checked_num_scalars()
            .map_err(|why| CheckpointError::Mismatch(format!("serve snapshot config: {why}")))?;
        if scalars
            .checked_mul(4)
            .is_none_or(|bytes| bytes > self.params_payload.len())
        {
            return Err(CheckpointError::Mismatch(format!(
                "serve snapshot config implies {scalars} parameters, more than its {}-byte \
                 weight payload holds",
                self.params_payload.len()
            )));
        }
        // The init RNG is irrelevant — every parameter is overwritten by
        // the payload — but construction registers parameters in the
        // model's canonical order, which is what the payload validates
        // names and shapes against.
        let mut rng = edsr_tensor::rng::seeded(0);
        let mut model = ContinualModel::new(&self.config, &mut rng);
        params_from_bytes(&mut model.params, &self.params_payload)?;
        Ok(model)
    }

    /// Serializes into an (un-enveloped) payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.completed_tasks as u64);
        put_bytes(&mut buf, self.benchmark.as_bytes());
        put_model_config(&mut buf, &self.config);
        put_bytes(&mut buf, &self.params_payload);
        put_matrix(&mut buf, &self.memory_reprs);
        put_u64(&mut buf, self.memory_tasks.len() as u64);
        for &t in &self.memory_tasks {
            put_u64(&mut buf, t);
        }
        buf
    }

    /// Parses a payload produced by [`encode`](Self::encode).
    pub fn decode(payload: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(payload);
        let completed_tasks = r.u64()? as usize;
        let benchmark = read_utf8(&mut r)?;
        let config = read_model_config(&mut r)?;
        let params_payload = read_bytes(&mut r)?.to_vec();
        let memory_reprs = read_matrix(&mut r)?;
        let n_tasks = r.u64()?;
        let mut memory_tasks = Vec::with_capacity(r.count(n_tasks, 8)?);
        for _ in 0..n_tasks {
            memory_tasks.push(r.u64()?);
        }
        r.finish()?;
        if memory_reprs.cols() != config.repr_dim {
            return Err(CheckpointError::Mismatch(format!(
                "serve snapshot: memory representations are {}-d, model repr_dim is {}",
                memory_reprs.cols(),
                config.repr_dim
            )));
        }
        if memory_tasks.len() != memory_reprs.rows() {
            return Err(CheckpointError::Mismatch(format!(
                "serve snapshot: {} memory rows but {} task labels",
                memory_reprs.rows(),
                memory_tasks.len()
            )));
        }
        Ok(Self {
            completed_tasks,
            benchmark,
            config,
            params_payload,
            memory_reprs,
            memory_tasks,
        })
    }

    /// Writes the snapshot to `path` (fsync, then atomic rename, CRC32
    /// trailer — see `write_envelope`'s durability contract). The serve
    /// rotation watcher relies on this: a `.snapshot` file that is
    /// *visible* in the export directory is always *complete*, so the
    /// watcher only ever has to defend against corruption, not tearing.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        write_envelope(path, SERVE_SNAPSHOT_MAGIC, &self.encode())
    }

    /// Loads and validates a snapshot written by [`save`](Self::save).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::decode(&read_envelope(path, SERVE_SNAPSHOT_MAGIC)?)
    }
}

/// Extracts the replay representations a serve snapshot stores: one row
/// per memory item whose `stored_features` are exactly `repr_dim`-d,
/// paired with the item's source task.
pub fn memory_representations(memory: &MemoryBuffer, repr_dim: usize) -> (Matrix, Vec<u64>) {
    let rows: Vec<(&[f32], u64)> = memory
        .items()
        .iter()
        .filter_map(|item| {
            item.stored_features
                .as_deref()
                .filter(|f| f.len() == repr_dim)
                .map(|f| (f, item.task as u64))
        })
        .collect();
    let mut reprs = Matrix::zeros(rows.len(), repr_dim);
    let mut tasks = Vec::with_capacity(rows.len());
    for (i, (features, task)) in rows.into_iter().enumerate() {
        reprs.row_mut(i).copy_from_slice(features);
        tasks.push(task);
    }
    (reprs, tasks)
}

/// Path of the serve snapshot taken after `completed` increments, under
/// the same dir/run-id convention as run-state checkpoints.
pub fn serve_snapshot_path(cfg: &CheckpointConfig, completed: usize) -> PathBuf {
    cfg.task_path(completed, SERVE_SNAPSHOT_EXT)
}

/// Writes the serve snapshot for `snapshot.completed_tasks` increments
/// and prunes all but the newest two. Returns the written path.
pub fn save_serve_snapshot(
    cfg: &CheckpointConfig,
    snapshot: &ServeSnapshot,
) -> Result<PathBuf, CheckpointError> {
    cfg.save_task_file(snapshot.completed_tasks, SERVE_SNAPSHOT_EXT, |path| {
        snapshot.save(path)
    })
}

/// All serve-snapshot files of this run, sorted by completed-increment
/// count (ascending). Existence only — validity is checked at load time.
pub fn list_serve_snapshots(cfg: &CheckpointConfig) -> Vec<(usize, PathBuf)> {
    cfg.task_files(SERVE_SNAPSHOT_EXT)
}

/// Quantizes a v1 serve snapshot into the EDSRSS02 format: restores the
/// f32 model, flattens its eval-mode linear chain (adapter → backbone →
/// projector) into per-layer symmetric int8 weights (per-output-channel
/// scales on the final projector layer), quantizes the memory grid with
/// one per-tensor scale calibrated over the snapshot's own
/// representations, and runs the leave-one-out accuracy gate.
///
/// Fails with [`CheckpointError::Mismatch`] for conv-stem models, whose
/// first stage is not a single linear map.
pub fn quantize_serve_snapshot(snapshot: &ServeSnapshot) -> Result<QuantSnapshot, CheckpointError> {
    let model = snapshot.restore_model()?;
    let quant_layer = |w: edsr_nn::ParamId, b: edsr_nn::ParamId, relu: bool, per_channel: bool| {
        QuantLinear::from_f32(
            model.params.value(w),
            model.params.value(b).row(0),
            relu,
            per_channel,
        )
    };
    let chain0 = model.encoder.eval_linear_chain(0).ok_or_else(|| {
        CheckpointError::Mismatch(
            "quantization supports linear input stems only (conv stems are unsupported)".into(),
        )
    })?;
    let mut adapters = Vec::with_capacity(model.encoder.num_adapters());
    for a in 0..model.encoder.num_adapters() {
        let (w, b, relu) = model.encoder.eval_linear_chain(a).expect("linear stem")[0];
        adapters.push(quant_layer(w, b, relu, false));
    }
    let shared = &chain0[1..];
    let mut chain = Vec::with_capacity(shared.len());
    for (i, &(w, b, relu)) in shared.iter().enumerate() {
        // Per-output-channel scales on the final layer only: its outputs
        // feed the kNN distance directly, where channel-wise precision
        // matters most and no further int8 re-quantization follows.
        chain.push(quant_layer(w, b, relu, i + 1 == shared.len()));
    }
    let encoder = QuantEncoder::new(
        snapshot.config.input_dims.clone(),
        snapshot.config.repr_dim,
        adapters,
        chain,
    )
    .map_err(CheckpointError::Mismatch)?;
    let memory = QuantMemory::from_matrix(&snapshot.memory_reprs);
    let gate = knn_gate(&snapshot.memory_reprs, &snapshot.memory_tasks, &memory);
    let mut memory_bytes = Vec::new();
    put_matrix(&mut memory_bytes, &snapshot.memory_reprs);
    Ok(QuantSnapshot {
        completed_tasks: snapshot.completed_tasks,
        benchmark: snapshot.benchmark.clone(),
        encoder,
        memory,
        memory_tasks: snapshot.memory_tasks.clone(),
        f32_params_crc: crc32(&snapshot.params_payload),
        f32_memory_crc: crc32(&memory_bytes),
        gate,
    })
}

/// Writes a v2 (quantized) serve snapshot under the same filename
/// convention as [`save_serve_snapshot`] — v1 and v2 files share one
/// rotation namespace, which is what lets the serve watcher hot-swap
/// across format versions — and prunes all but the newest two.
pub fn save_quant_serve_snapshot(
    cfg: &CheckpointConfig,
    snapshot: &QuantSnapshot,
) -> Result<PathBuf, CheckpointError> {
    cfg.save_task_file(snapshot.completed_tasks, SERVE_SNAPSHOT_EXT, |path| {
        snapshot.save(path)
    })
}

/// A serve snapshot in either on-disk format.
#[derive(Debug, Clone)]
pub enum AnyServeSnapshot {
    /// v1 `EDSRSS01`: f32 model + f32 memory representations.
    V1(Box<ServeSnapshot>),
    /// v2 `EDSRSS02`: quantized encoder + int8 memory grid.
    V2(Box<QuantSnapshot>),
}

impl AnyServeSnapshot {
    /// Tasks completed when the snapshot was exported.
    pub fn completed_tasks(&self) -> usize {
        match self {
            AnyServeSnapshot::V1(s) => s.completed_tasks,
            AnyServeSnapshot::V2(s) => s.completed_tasks,
        }
    }

    /// Benchmark name.
    pub fn benchmark(&self) -> &str {
        match self {
            AnyServeSnapshot::V1(s) => &s.benchmark,
            AnyServeSnapshot::V2(s) => &s.benchmark,
        }
    }
}

/// Loads a serve snapshot of either format: the v2 magic is tried first;
/// a clean magic mismatch falls through to v1. Every other failure
/// (truncation, corruption, I/O) propagates unchanged.
pub fn load_any_serve_snapshot(
    path: impl AsRef<Path>,
) -> Result<AnyServeSnapshot, CheckpointError> {
    match QuantSnapshot::load(path.as_ref()) {
        Ok(s) => Ok(AnyServeSnapshot::V2(Box::new(s))),
        Err(CheckpointError::BadMagic) => {
            ServeSnapshot::load(path.as_ref()).map(|s| AnyServeSnapshot::V1(Box::new(s)))
        }
        Err(e) => Err(e),
    }
}

/// Every `.snapshot` file in `dir` (any run id, either format),
/// path-sorted ascending: the exporter's `{run_id}.taskNNNN.snapshot`
/// names sort a run's newest last. Existence only — validity is checked
/// at load time. Both the startup scan ([`latest_valid_serve_snapshot`])
/// and the server's rotation watcher walk the directory through this.
pub fn serve_snapshot_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == SERVE_SNAPSHOT_EXT))
        .collect();
    files.sort();
    Ok(files)
}

/// A snapshot candidate (or the scan directory itself) that could not be
/// *read* — an I/O failure such as permission-denied, as opposed to a
/// file that read fine but failed validation. Carries the offending path
/// so operators know exactly which file to fix.
#[derive(Debug)]
pub struct UnreadableSnapshot {
    /// The file (or directory) the I/O failure occurred on.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for UnreadableSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unreadable serve snapshot {}: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for UnreadableSnapshot {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Finds the newest serve snapshot under `dir` (any run id, either
/// format) that loads cleanly. Candidates that read fine but fail
/// validation — truncated, corrupt, foreign magic — are *skipped*, which
/// is what lets rotation survive a torn decoy. Candidates that cannot
/// even be read (e.g. permission denied) abort the scan with a
/// [`UnreadableSnapshot`] naming the offending file instead of silently
/// falling back to stale data; not-found races with concurrent pruning
/// are still skipped. The scan is newest-first and stops at the first
/// valid snapshot, so only an unreadable candidate newer than every
/// valid one triggers the error. `Ok(None)` when the directory is
/// missing or holds no valid snapshot.
pub fn latest_valid_serve_snapshot(
    dir: impl AsRef<Path>,
) -> Result<Option<(PathBuf, AnyServeSnapshot)>, UnreadableSnapshot> {
    let candidates = match serve_snapshot_files(dir.as_ref()) {
        Ok(candidates) => candidates,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(UnreadableSnapshot {
                path: dir.as_ref().to_path_buf(),
                source: e,
            })
        }
    };
    for path in candidates.into_iter().rev() {
        match load_any_serve_snapshot(&path) {
            Ok(snapshot) => return Ok(Some((path, snapshot))),
            Err(CheckpointError::Io(e)) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(UnreadableSnapshot { path, source: e })
            }
            Err(_) => continue,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state(completed: usize) -> RunState {
        RunState {
            completed_tasks: completed,
            method: "Finetune".into(),
            benchmark: "bench".into(),
            matrix_rows: vec![vec![0.5], vec![0.25, 0.75]],
            task_seconds: vec![1.5, 2.5],
            task_losses: vec![0.9, 0.8],
            params_payload: vec![1, 2, 3, 4],
            optim_payload: vec![5, 6],
            rng_state: [10, 20, 30, 40],
            method_state: vec![7, 8, 9],
            lr_scale: 0.5,
        }
    }

    fn temp_cfg(tag: &str) -> CheckpointConfig {
        let dir = std::env::temp_dir().join(format!("edsr-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointConfig::new(dir, "run")
    }

    #[test]
    fn encode_decode_roundtrip() {
        let state = sample_state(2);
        let decoded = decode_run_state(&encode_run_state(&state)).expect("decode");
        assert_eq!(decoded.completed_tasks, 2);
        assert_eq!(decoded.method, "Finetune");
        assert_eq!(decoded.matrix_rows, state.matrix_rows);
        assert_eq!(decoded.task_seconds, state.task_seconds);
        assert_eq!(decoded.rng_state, state.rng_state);
        assert_eq!(decoded.method_state, state.method_state);
        assert_eq!(decoded.lr_scale, 0.5);
    }

    #[test]
    fn save_load_and_scan() {
        let cfg = temp_cfg("scan");
        save_run_state(&cfg, &sample_state(1)).expect("save 1");
        save_run_state(&cfg, &sample_state(2)).expect("save 2");
        let (path, state) = latest_valid_run_state(&cfg).expect("latest");
        assert_eq!(state.completed_tasks, 2);
        assert!(path.to_string_lossy().contains("task0002"));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn truncated_latest_falls_back_to_previous() {
        let cfg = temp_cfg("fallback");
        save_run_state(&cfg, &sample_state(1)).expect("save 1");
        let p2 = save_run_state(&cfg, &sample_state(2)).expect("save 2");
        // Chop the tail off the newest snapshot, as a crash mid-write would.
        let bytes = std::fs::read(&p2).expect("read");
        std::fs::write(&p2, &bytes[..bytes.len() - 7]).expect("truncate");
        assert!(matches!(
            load_run_state(&p2),
            Err(CheckpointError::Truncated { .. } | CheckpointError::Corrupt { .. })
        ));
        let (_, state) = latest_valid_run_state(&cfg).expect("fallback");
        assert_eq!(
            state.completed_tasks, 1,
            "did not fall back to the valid snapshot"
        );
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn pruning_keeps_the_newest() {
        let cfg = temp_cfg("prune");
        for completed in 1..=5 {
            save_run_state(&cfg, &sample_state(completed)).expect("save");
        }
        let left = list_snapshots(&cfg);
        let counts: Vec<usize> = left.iter().map(|(c, _)| *c).collect();
        assert_eq!(counts, vec![4, 5]);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let cfg = temp_cfg("magic");
        let path = save_run_state(&cfg, &sample_state(1)).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[..8].copy_from_slice(b"NOTAMAGI");
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            load_run_state(&path),
            Err(CheckpointError::BadMagic)
        ));
        assert!(latest_valid_run_state(&cfg).is_none());
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    // -- serve snapshots ---------------------------------------------------

    use crate::memory::MemoryItem;
    use edsr_tensor::rng::seeded;

    fn serve_fixture(seed: u64) -> (ContinualModel, Matrix, Vec<u64>) {
        let mut rng = seeded(seed);
        let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let reprs = Matrix::randn(5, model.repr_dim(), 1.0, &mut rng);
        let tasks = vec![0, 0, 1, 1, 2];
        (model, reprs, tasks)
    }

    #[test]
    fn serve_snapshot_roundtrips_and_restores_bit_identical() {
        let (model, reprs, tasks) = serve_fixture(700);
        let snap =
            ServeSnapshot::capture(&model, reprs.clone(), tasks.clone(), "bench", 3).expect("cap");
        let path = temp_cfg("serve-rt").dir.join("one.snapshot");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        snap.save(&path).expect("save");
        let loaded = ServeSnapshot::load(&path).expect("load");
        assert_eq!(loaded.completed_tasks, 3);
        assert_eq!(loaded.benchmark, "bench");
        assert_eq!(loaded.memory_reprs, reprs);
        assert_eq!(loaded.memory_tasks, tasks);
        let restored = loaded.restore_model().expect("restore");
        let mut rng = seeded(701);
        let x = Matrix::randn(4, 16, 1.0, &mut rng);
        assert_eq!(
            restored.represent(&x, 0),
            model.represent(&x, 0),
            "restored model is not bit-identical"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn serve_snapshot_conv_and_simsiam_configs_roundtrip() {
        let mut rng = seeded(702);
        let shape = edsr_nn::ConvShape {
            channels: 1,
            height: 4,
            width: 4,
        };
        for cfg in [
            ModelConfig::conv_image(shape, 3),
            ModelConfig::tabular(vec![16, 9, 12]),
        ] {
            let model = ContinualModel::new(&cfg, &mut rng);
            let snap = ServeSnapshot::capture(
                &model,
                Matrix::zeros(0, model.repr_dim()),
                Vec::new(),
                "t",
                1,
            )
            .expect("capture");
            let decoded = ServeSnapshot::decode(&snap.encode()).expect("decode");
            let restored = decoded.restore_model().expect("restore");
            let x = Matrix::randn(2, cfg.input_dims[0], 1.0, &mut rng);
            assert_eq!(restored.represent(&x, 0), model.represent(&x, 0));
        }
    }

    #[test]
    fn serve_snapshot_capture_validates_shapes() {
        let (model, reprs, _) = serve_fixture(703);
        // Task-label count mismatch.
        assert!(matches!(
            ServeSnapshot::capture(&model, reprs.clone(), vec![0; 3], "b", 1),
            Err(CheckpointError::Mismatch(_))
        ));
        // Wrong representation dimensionality.
        let bad = Matrix::zeros(2, model.repr_dim() + 1);
        assert!(matches!(
            ServeSnapshot::capture(&model, bad, vec![0, 0], "b", 1),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn serve_snapshot_decode_and_restore_refuse_what_cannot_be_served() {
        let (model, reprs, tasks) = serve_fixture(710);
        let snap = ServeSnapshot::capture(&model, reprs, tasks, "b", 1).expect("capture");
        // A memory one column narrower than repr_dim: decode refuses it.
        let mut narrow = snap.clone();
        narrow.memory_reprs = Matrix::zeros(5, model.repr_dim() - 1);
        assert!(matches!(
            ServeSnapshot::decode(&narrow.encode()),
            Err(CheckpointError::Mismatch(_))
        ));
        // Configs the constructors would assert on, or whose parameters
        // the weight payload cannot hold, are refused before building.
        let mut empty = snap.clone();
        empty.config.input_dims.clear();
        let mut huge = snap.clone();
        huge.config.input_dims = vec![65536];
        huge.config.hidden_dim = 65536;
        for bad in [empty, huge] {
            let decoded = ServeSnapshot::decode(&bad.encode()).expect("decodes");
            assert!(matches!(
                decoded.restore_model(),
                Err(CheckpointError::Mismatch(_))
            ));
        }
    }

    #[test]
    fn serve_snapshot_truncation_and_corruption_detected() {
        let (model, reprs, tasks) = serve_fixture(704);
        let snap = ServeSnapshot::capture(&model, reprs, tasks, "b", 2).expect("capture");
        let cfg = temp_cfg("serve-corrupt");
        std::fs::create_dir_all(&cfg.dir).unwrap();
        let path = cfg.dir.join("x.snapshot");
        snap.save(&path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(matches!(
            ServeSnapshot::load(&path),
            Err(CheckpointError::Truncated { .. } | CheckpointError::Corrupt { .. })
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).expect("flip");
        assert!(matches!(
            ServeSnapshot::load(&path),
            Err(CheckpointError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn memory_representations_skip_foreign_features() {
        let mut memory = MemoryBuffer::new();
        memory.extend([
            MemoryItem {
                input: vec![0.0; 4],
                task: 0,
                noise_scale: 0.0,
                stored_features: Some(vec![1.0, 2.0]),
            },
            MemoryItem {
                input: vec![0.0; 4],
                task: 1,
                noise_scale: 0.0,
                // Wrong dimensionality (e.g. DER backbone features).
                stored_features: Some(vec![9.0; 5]),
            },
            MemoryItem {
                input: vec![0.0; 4],
                task: 2,
                noise_scale: 0.0,
                stored_features: None,
            },
            MemoryItem {
                input: vec![0.0; 4],
                task: 3,
                noise_scale: 0.0,
                stored_features: Some(vec![3.0, 4.0]),
            },
        ]);
        let (reprs, tasks) = memory_representations(&memory, 2);
        assert_eq!(reprs.shape(), (2, 2));
        assert_eq!(tasks, vec![0, 3]);
        assert_eq!(reprs.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn serve_snapshot_save_prunes_and_latest_skips_corrupt() {
        let (model, reprs, tasks) = serve_fixture(705);
        let cfg = temp_cfg("serve-scan");
        for completed in 1..=4 {
            let snap = ServeSnapshot::capture(&model, reprs.clone(), tasks.clone(), "b", completed)
                .expect("capture");
            save_serve_snapshot(&cfg, &snap).expect("save");
        }
        let counts: Vec<usize> = list_serve_snapshots(&cfg).iter().map(|(c, _)| *c).collect();
        assert_eq!(counts, vec![3, 4]);
        // Corrupt the newest; latest_valid must fall back.
        let newest = serve_snapshot_path(&cfg, 4);
        let bytes = std::fs::read(&newest).expect("read");
        std::fs::write(&newest, &bytes[..bytes.len() - 3]).expect("truncate");
        let (_, snap) = latest_valid_serve_snapshot(&cfg.dir)
            .expect("corrupt files are skipped, not errors")
            .expect("fallback");
        assert_eq!(snap.completed_tasks(), 3);
        assert!(matches!(snap, AnyServeSnapshot::V1(_)));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn latest_valid_reports_unreadable_candidates_by_path() {
        let (model, reprs, tasks) = serve_fixture(706);
        let cfg = temp_cfg("serve-unreadable");
        let snap = ServeSnapshot::capture(&model, reprs, tasks, "b", 1).expect("capture");
        save_serve_snapshot(&cfg, &snap).expect("save");
        // A *directory* with the snapshot extension, sorting newest: opening
        // it fails with an I/O error (EISDIR) rather than a validation
        // error, which must abort the scan naming the offending path.
        // (chmod-based decoys don't fail under root, so a directory is the
        // portable way to provoke an unreadable candidate.)
        let decoy = cfg.dir.join("zzz.task9999.snapshot");
        std::fs::create_dir_all(&decoy).expect("mk decoy dir");
        let err = latest_valid_serve_snapshot(&cfg.dir)
            .expect_err("unreadable candidate must abort the scan");
        assert_eq!(err.path, decoy);
        assert!(err.to_string().contains("zzz.task9999.snapshot"));
        // Removing the decoy restores the fallback behaviour.
        std::fs::remove_dir(&decoy).expect("rm decoy");
        assert!(latest_valid_serve_snapshot(&cfg.dir)
            .expect("scan")
            .is_some());
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn quantize_serve_snapshot_round_trips_and_gates() {
        let (model, reprs, tasks) = serve_fixture(707);
        let snap = ServeSnapshot::capture(&model, reprs.clone(), tasks.clone(), "bench", 2)
            .expect("capture");
        let qsnap = quantize_serve_snapshot(&snap).expect("quantize");
        assert_eq!(qsnap.completed_tasks, 2);
        assert_eq!(qsnap.benchmark, "bench");
        assert_eq!(qsnap.memory_tasks, tasks);
        assert_eq!(qsnap.memory.rows(), reprs.rows());
        assert_eq!(qsnap.encoder.repr_dim(), model.repr_dim());
        assert_eq!(qsnap.f32_params_crc, crc32(&snap.params_payload));
        assert!(qsnap.gate.f32_accuracy >= 0.0 && qsnap.gate.f32_accuracy <= 100.0);
        // v2 files round-trip through the shared namespace and the
        // any-format loader picks them up as V2.
        let cfg = temp_cfg("serve-quant");
        let path = save_quant_serve_snapshot(&cfg, &qsnap).expect("save v2");
        let any = load_any_serve_snapshot(&path).expect("load any");
        let AnyServeSnapshot::V2(loaded) = any else {
            panic!("expected a v2 snapshot");
        };
        assert_eq!(*loaded, qsnap);
        // The v2 file must be at least 3x smaller than its v1 source.
        let v1_path = cfg.dir.join("v1.snapshot-src");
        snap.save(&v1_path).expect("save v1");
        let v1_bytes = std::fs::metadata(&v1_path).unwrap().len();
        let v2_bytes = std::fs::metadata(&path).unwrap().len();
        assert!(
            v2_bytes * 3 <= v1_bytes,
            "v2 {} bytes not 3x smaller than v1 {} bytes",
            v2_bytes,
            v1_bytes
        );
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn quantized_encoder_tracks_f32_representations() {
        let (model, reprs, tasks) = serve_fixture(708);
        let snap = ServeSnapshot::capture(&model, reprs, tasks, "bench", 1).expect("capture");
        let qsnap = quantize_serve_snapshot(&snap).expect("quantize");
        let mut rng = seeded(709);
        let x = Matrix::randn(3, 16, 1.0, &mut rng);
        // Eval mode: the quantized chain mirrors the serve-time eval
        // forward, which skips batch standardization.
        let f32_reprs = model.represent_eval(&x, 0);
        let mut scratch = edsr_quant::QuantScratch::default();
        let mut out = vec![0.0f32; model.repr_dim()];
        for r in 0..x.rows() {
            qsnap
                .encoder
                .represent_into(0, x.row(r), &mut scratch, &mut out);
            let f32_row = f32_reprs.row(r);
            let norm: f32 = f32_row.iter().map(|v| v * v).sum::<f32>().sqrt();
            let err: f32 = out
                .iter()
                .zip(f32_row)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            assert!(
                err <= 0.15 * norm.max(1.0),
                "row {r}: int8 repr drifted {err} from f32 (norm {norm})"
            );
        }
    }
}
