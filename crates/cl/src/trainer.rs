//! The continual-learning driver: method trait, training configuration,
//! fault-tolerant sequence runner, and the Multitask (joint) upper bound.
//!
//! Fault tolerance (DESIGN.md §7): every step's loss passes through a
//! [`StepGuard`]; divergence rolls the model back to the last good epoch
//! boundary and backs the LR off before retrying. With a
//! [`CheckpointConfig`], the runner snapshots the full run state after
//! each increment and resume continues from the newest valid snapshot —
//! bit-identically, because the snapshot carries the exact RNG position,
//! optimizer moments, and method state.
//!
//! Observability (DESIGN.md §11): runs are launched through a single
//! [`RunBuilder`] that composes checkpointing, resume, guard tuning and
//! early stop. The runner reports through `edsr-obs` alone: spans
//! (`run`/`task`/`epoch`/`step`/`select`/`eval`), per-step loss and
//! per-epoch LR gauges, and recovery/resume/checkpoint counters; the
//! per-increment numbers also come back in the [`RunResult`]. With no
//! sink installed every emit point is a single relaxed atomic load,
//! keeping the steady-state step allocation-free (proved by
//! `tests/zero_alloc.rs`).

use std::time::Instant;

use edsr_data::{materialize, Augmenter, BatchIter, Dataset, TaskSource};
use edsr_nn::io::{
    optim_state_from_bytes, optim_state_to_bytes, params_from_bytes, params_to_bytes,
};
use edsr_nn::{Adam, Binder, CosineSchedule, Optimizer, Sgd, Workspace};
use edsr_tensor::{Matrix, Tape, Var};
use rand::rngs::StdRng;

use crate::checkpoint::{
    latest_valid_run_state, save_run_state, save_serve_snapshot, CheckpointConfig, RunState,
    ServeSnapshot,
};
use crate::error::TrainError;
use crate::eval::{accuracy, knn_classify};
use crate::guard::{GuardConfig, StepGuard};
use crate::metrics::AccuracyMatrix;
use crate::model::ContinualModel;

/// Optimizer choice (paper: SGD for images, Adam for tabular).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// SGD with momentum.
    Sgd,
    /// Adam.
    Adam,
}

/// Hyper-parameters of a continual run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Epochs per increment.
    pub epochs_per_task: usize,
    /// Minibatch size for new data.
    pub batch_size: usize,
    /// Memory samples replayed per step (methods that replay).
    pub replay_batch: usize,
    /// Base learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Which optimizer to instantiate.
    pub optimizer: OptimizerKind,
    /// `k` for the kNN-classifier evaluation.
    pub eval_k: usize,
    /// Epoch multiplier for the Multitask upper bound: joint training on
    /// the mixed-domain union converges slower than per-increment
    /// training at simulation scale, so the upper bound gets extra passes
    /// (the paper's Multitask is trained to convergence).
    pub multitask_epoch_multiplier: usize,
    /// Cosine-decay the learning rate within each increment from `lr`
    /// down to `lr × cosine_floor` (1.0 disables the schedule; the paper
    /// trains with a per-task schedule at full scale).
    pub cosine_floor: f32,
}

impl TrainConfig {
    /// Image-benchmark defaults at simulation scale. The paper uses SGD
    /// with momentum on ResNets; at simulation scale Adam conditions the
    /// BarlowTwins objective far better (DESIGN.md §2).
    pub fn image() -> Self {
        Self {
            epochs_per_task: 60,
            batch_size: 64,
            replay_batch: 16,
            lr: 3e-3,
            momentum: 0.9,
            weight_decay: 1e-5,
            optimizer: OptimizerKind::Adam,
            eval_k: 15,
            multitask_epoch_multiplier: 4,
            cosine_floor: 1.0,
        }
    }

    /// Tabular-stream defaults (paper: Adam, §IV-A5).
    pub fn tabular() -> Self {
        Self {
            epochs_per_task: 30,
            batch_size: 64,
            replay_batch: 16,
            lr: 1e-3,
            momentum: 0.0,
            weight_decay: 1e-5,
            optimizer: OptimizerKind::Adam,
            eval_k: 15,
            multitask_epoch_multiplier: 2,
            cosine_floor: 1.0,
        }
    }

    /// Instantiates the configured optimizer.
    pub fn build_optimizer(&self) -> Box<dyn Optimizer> {
        match self.optimizer {
            OptimizerKind::Sgd => Box::new(Sgd::new(self.lr, self.momentum, self.weight_decay)),
            OptimizerKind::Adam => Box::new(Adam::new(self.lr, self.weight_decay)),
        }
    }
}

/// The schedule's base learning rate for `epoch` of an increment —
/// cosine decay from `cfg.lr` down to `cfg.lr × cosine_floor` when the
/// floor is below 1.0, flat `cfg.lr` otherwise. The divergence guard's
/// backoff multiplies on top of this value.
fn epoch_base_lr(cfg: &TrainConfig, epoch: usize) -> f32 {
    if cfg.cosine_floor < 1.0 {
        CosineSchedule::new(
            cfg.lr,
            cfg.lr * cfg.cosine_floor,
            0,
            cfg.epochs_per_task.max(1),
        )
        .lr_at(epoch)
    } else {
        cfg.lr
    }
}

/// A continual-learning method: owns its own state (memory, frozen
/// models, regularizer accumulators) and defines the per-batch loss.
pub trait Method {
    /// Display name (matches the paper's tables).
    fn name(&self) -> String;

    /// Called before the first step of increment `task_idx`.
    fn begin_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        rng: &mut StdRng,
    ) {
        let _ = (model, task_idx, train, rng);
    }

    /// Performs one optimization step on `batch` and returns the loss.
    ///
    /// `augs` holds every increment's view generator: `augs[task_idx]`
    /// augments the new data, while replay paths must augment stored
    /// samples with *their source increment's* generator (`augs[m.task]`)
    /// — tabular increments have different reference corpora and input
    /// widths.
    ///
    /// `ws` is the reusable per-step workspace: implementations must call
    /// `ws.reset()` first, record the step on `ws.tape`/`ws.binder`
    /// (frozen-model targets on `ws.aux_tape`/`ws.aux_binder`), and finish
    /// via [`apply_step`] so every buffer returns to the scratch pools.
    ///
    /// Implementations should report their loss terms through `edsr-obs`
    /// gauges (`loss/css`, `loss/dis`, `loss/rpl`, …) behind an
    /// `edsr_obs::enabled()` gate so the step stays allocation-free when
    /// observability is off.
    #[allow(clippy::too_many_arguments)] // the step's full context, by design
    fn train_step(
        &mut self,
        model: &mut ContinualModel,
        opt: &mut dyn Optimizer,
        augs: &[Augmenter],
        batch: &Matrix,
        task_idx: usize,
        ws: &mut Workspace,
        rng: &mut StdRng,
    ) -> f32;

    /// Called after the last step of increment `task_idx` (selection /
    /// snapshotting happens here). `aug` is the increment's view
    /// generator — selectors that score augmentation stability (Min-Var)
    /// need it.
    fn end_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        aug: &Augmenter,
        rng: &mut StdRng,
    ) {
        let _ = (model, task_idx, train, aug, rng);
    }

    /// Serializes the method's internal state for a run-state snapshot.
    ///
    /// `None` (the default) means "not resumable" — the runner refuses
    /// to checkpoint such a method rather than silently dropping its
    /// state. Stateless-but-resumable methods return `Some(vec![])`.
    /// Anything restored from frozen-model refreshes in `begin_task`
    /// needs no persisting: resume re-runs `begin_task`.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state produced by [`save_state`](Self::save_state).
    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        let _ = state;
        Err(format!(
            "{} does not support state restoration",
            self.name()
        ))
    }

    /// The replay-memory representations a serve snapshot should bundle:
    /// one row per stored sample (in the model's `repr_dim`), paired
    /// with each row's source increment.
    ///
    /// `None` (the default) means the method keeps no queryable replay
    /// memory — serve snapshots are still written, with an empty
    /// retrieval set. Memory-based methods (EDSR, …) override this.
    fn replay_representations(&self) -> Option<(Matrix, Vec<u64>)> {
        None
    }
}

/// Shared step finisher: evaluates the loss node, backpropagates, routes
/// gradients, and applies the optimizer — but only when both the loss
/// and every routed gradient are finite. A non-finite loss skips the
/// backward pass entirely; non-finite gradients are dropped before the
/// optimizer step so moment buffers can never be poisoned. Either way
/// the caller sees a non-finite return value and can trigger recovery.
///
/// When observability is on, records the global gradient L2 norm as the
/// `grad/norm` gauge just before the optimizer step.
pub fn apply_step(
    model: &mut ContinualModel,
    opt: &mut dyn Optimizer,
    tape: &mut Tape,
    binder: &Binder,
    loss: Var,
) -> f32 {
    let value = tape.value(loss).get(0, 0);
    if !value.is_finite() {
        return value;
    }
    let grads = tape.backward(loss);
    model.params.zero_grads();
    binder.accumulate_into(&grads, &mut model.params);
    tape.recycle(grads);
    let all_finite = model
        .params
        .ids()
        .all(|id| model.params.grad(id).data().iter().all(|g| g.is_finite()));
    if !all_finite {
        return f32::NAN;
    }
    if edsr_obs::enabled() {
        let sq: f64 = model
            .params
            .ids()
            .map(|id| {
                model
                    .params
                    .grad(id)
                    .data()
                    .iter()
                    .map(|&g| f64::from(g) * f64::from(g))
                    .sum::<f64>()
            })
            .sum();
        edsr_obs::gauge("grad/norm", sq.sqrt());
    }
    opt.step(&mut model.params);
    value
}

/// Outcome of one continual run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Method name.
    pub method: String,
    /// Benchmark name.
    pub benchmark: String,
    /// The full accuracy matrix `A`.
    pub matrix: AccuracyMatrix,
    /// Wall-clock seconds spent training each increment.
    pub task_seconds: Vec<f64>,
    /// Mean training loss per increment (diagnostics).
    pub task_losses: Vec<f32>,
    /// Divergence recoveries summed over increments (0 on clean runs).
    pub recoveries: usize,
}

impl RunResult {
    /// Final `Acc` in percent.
    pub fn final_acc_pct(&self) -> f32 {
        self.matrix.final_acc() * 100.0
    }

    /// Final `Fgt` in percent.
    pub fn final_fgt_pct(&self) -> f32 {
        self.matrix.final_fgt() * 100.0
    }

    /// Total training seconds.
    pub fn total_seconds(&self) -> f64 {
        self.task_seconds.iter().sum()
    }
}

/// Evaluates one accuracy-matrix cell `A_{·,j}` with the kNN protocol:
/// builds a classifier from task `j`'s train-split representations under
/// the model's *current* weights and classifies its test split. Pure in
/// the model and RNG-free, so a cell's value does not depend on when it
/// is computed. The source is `&mut` only so streaming sources can rotate
/// buffers; the data returned for a given `col` is identical on every
/// call.
fn evaluate_cell(
    model: &ContinualModel,
    source: &mut dyn TaskSource,
    col: usize,
    eval_k: usize,
) -> Result<f32, TrainError> {
    let task = source.fetch(col)?;
    let train_reps = model.represent(&task.train.inputs, col);
    let test_reps = model.represent(&task.test.inputs, col);
    let preds = knn_classify(&train_reps, &task.train.labels, &test_reps, eval_k);
    Ok(accuracy(&preds, &task.test.labels))
}

/// Evaluates `A_{i,j}` for all `j ≤ i` with the kNN protocol, one cell
/// per learned task.
pub fn evaluate_row(
    model: &ContinualModel,
    source: &mut dyn TaskSource,
    upto: usize,
    eval_k: usize,
) -> Result<Vec<f32>, TrainError> {
    (0..=upto)
        .map(|j| evaluate_cell(model, source, j, eval_k))
        .collect()
}

/// Builder for a continual run, and the only training loop: checkpointing,
/// resume, guard tuning and early stop all plug in here.
///
/// ```no_run
/// # use edsr_cl::trainer::{RunBuilder, TrainConfig};
/// # fn demo(method: &mut dyn edsr_cl::Method,
/// #         model: &mut edsr_cl::ContinualModel,
/// #         source: &mut dyn edsr_data::TaskSource,
/// #         augs: &[edsr_data::Augmenter],
/// #         rng: &mut rand::rngs::StdRng) {
/// let cfg = TrainConfig::image();
/// let result = RunBuilder::new(&cfg)
///     .run(method, model, source, augs, rng)
///     .expect("run");
/// # let _ = result;
/// # }
/// ```
pub struct RunBuilder<'a> {
    cfg: &'a TrainConfig,
    checkpoint: Option<CheckpointConfig>,
    serve_snapshots: Option<CheckpointConfig>,
    quantize_serve: bool,
    resume: bool,
    resume_source: Option<CheckpointConfig>,
    guard: GuardConfig,
    stop_after: Option<usize>,
}

impl<'a> RunBuilder<'a> {
    /// Starts a builder over the given hyper-parameters (no
    /// checkpointing, default guard).
    pub fn new(cfg: &'a TrainConfig) -> Self {
        Self {
            cfg,
            checkpoint: None,
            serve_snapshots: None,
            quantize_serve: false,
            resume: false,
            resume_source: None,
            guard: GuardConfig::default(),
            stop_after: None,
        }
    }

    /// Snapshots the run state under `cfg` after every increment.
    /// Requires a method whose [`Method::save_state`] returns `Some`.
    pub fn checkpoint(mut self, cfg: CheckpointConfig) -> Self {
        self.checkpoint = Some(cfg);
        self
    }

    /// Exports a [`crate::checkpoint::ServeSnapshot`] — model
    /// architecture + weights + the method's replay-memory
    /// representations — under `cfg` after every increment, for
    /// `edsr-serve` to load read-only. Independent of
    /// [`checkpoint`](Self::checkpoint): works with any method
    /// (memory-free methods export an empty retrieval set).
    pub fn serve_snapshots(mut self, cfg: CheckpointConfig) -> Self {
        self.serve_snapshots = Some(cfg);
        self
    }

    /// With [`serve_snapshots`](Self::serve_snapshots) enabled, exports
    /// v2 quantized snapshots (`EDSRSS02`, via
    /// [`crate::checkpoint::quantize_serve_snapshot`]) instead of f32 v1
    /// files, and prints one `quant gate:` line per export with the
    /// f32-vs-int8 leave-one-out accuracy so scripts can assert the
    /// delta. No effect without a serve-snapshot location.
    pub fn quantize_serve_snapshots(mut self) -> Self {
        self.quantize_serve = true;
        self
    }

    /// Resumes from the newest valid snapshot in the
    /// [`checkpoint`](Self::checkpoint) location. [`run`](Self::run)
    /// fails with [`TrainError::InvalidConfig`] when no checkpoint
    /// source is configured, rather than silently training from scratch.
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Resumes from the newest valid snapshot under an explicit
    /// `source`, which may differ from the [`checkpoint`](Self::checkpoint)
    /// write location (e.g. continue an old run into a new snapshot
    /// dir). Implies [`resume`](Self::resume).
    pub fn resume_from(mut self, source: CheckpointConfig) -> Self {
        self.resume = true;
        self.resume_source = Some(source);
        self
    }

    /// Overrides the divergence-guard tunables.
    pub fn guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Returns early (with a partial result) after `n` increments — an
    /// interruption hook for resume tests and budgeted sweeps.
    pub fn stop_after(mut self, n: usize) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// Runs `method` over any [`TaskSource`] — an in-RAM
    /// [`TaskSequence`](edsr_data::TaskSequence) (pass `&mut seq` or `&mut &seq`) or an
    /// out-of-core `ShardStream` — evaluating after every increment.
    /// The runner's access pattern is sequential with a bounded
    /// evaluation look-back, so a streaming source never holds more
    /// than its resident window; training results are bit-identical
    /// across sources that yield the same bytes.
    ///
    /// `augmenters` supplies the per-increment view generator (images
    /// share one; the tabular stream needs one per increment,
    /// referencing that increment's train split).
    ///
    /// Fails with [`TrainError::InvalidConfig`] when `augmenters.len()
    /// != source.len()`, when checkpointing a non-resumable method, or
    /// when resume is requested without a snapshot source; fails with
    /// [`TrainError::Diverged`] when an increment exhausts the
    /// divergence guard's retry budget; fails with [`TrainError::Data`]
    /// when the source cannot yield an increment (corrupt shard, …).
    pub fn run(
        self,
        method: &mut dyn Method,
        model: &mut ContinualModel,
        source: &mut dyn TaskSource,
        augmenters: &[Augmenter],
        rng: &mut StdRng,
    ) -> Result<RunResult, TrainError> {
        let RunBuilder {
            cfg,
            checkpoint,
            serve_snapshots,
            quantize_serve,
            resume,
            resume_source,
            guard: guard_cfg,
            stop_after,
        } = self;

        let benchmark = source.name().to_string();
        if augmenters.len() != source.len() {
            return Err(TrainError::InvalidConfig(format!(
                "run: {} augmenters for {} tasks (one per task required)",
                augmenters.len(),
                source.len()
            )));
        }
        if checkpoint.is_some() && method.save_state().is_none() {
            return Err(TrainError::InvalidConfig(format!(
                "{} does not implement save_state/load_state; run-state checkpoints \
                 would silently drop its internal state",
                method.name()
            )));
        }
        if resume && resume_source.is_none() && checkpoint.is_none() {
            return Err(TrainError::InvalidConfig(
                "resume requested without a snapshot source: pair .resume() with \
                 .checkpoint(cfg), or point .resume_from(cfg) at the snapshot dir"
                    .into(),
            ));
        }

        let mut opt = cfg.build_optimizer();
        let mut matrix = AccuracyMatrix::new();
        let mut task_seconds = Vec::with_capacity(source.len());
        let mut task_losses = Vec::with_capacity(source.len());
        let mut recoveries = 0usize;
        let mut start_task = 0usize;
        let mut resumed_lr_scale = 1.0f32;

        if resume {
            let resume_src = resume_source
                .as_ref()
                .or(checkpoint.as_ref())
                .expect("validated above");
            if let Some((_, state)) = latest_valid_run_state(resume_src) {
                restore_from_state(method, model, opt.as_mut(), rng, &benchmark, &state)?;
                for row in &state.matrix_rows {
                    matrix.push_row(row.clone());
                }
                task_seconds = state.task_seconds;
                task_losses = state.task_losses;
                start_task = state.completed_tasks;
                resumed_lr_scale = state.lr_scale;
                edsr_obs::counter_at("train/resume", start_task as u64, 1);
            }
        }

        let mut guard = StepGuard::new(guard_cfg, &model.params);
        guard.set_lr_scale(resumed_lr_scale);
        let until = stop_after.map_or(source.len(), |n| n.min(source.len()));
        let _run_span = edsr_obs::span!("run");
        // One workspace for the whole run: after the first step its scratch
        // pools are warm and steady-state steps stop allocating.
        let mut ws = Workspace::new();

        for task_idx in start_task..until {
            let task = source.fetch(task_idx)?;
            let _task_span = edsr_obs::span!("task", task_idx);
            let start = Instant::now();
            method.begin_task(model, task_idx, &task.train, rng);
            guard.begin_task(&model.params);
            let mut loss_sum = 0.0f32;
            let mut loss_count = 0usize;
            let mut epoch = 0usize;
            while epoch < cfg.epochs_per_task {
                let lr = epoch_base_lr(cfg, epoch) * guard.lr_scale();
                opt.set_lr(lr);
                let _epoch_span = edsr_obs::span!("epoch", epoch);
                if edsr_obs::enabled() {
                    edsr_obs::gauge_at("train/lr", task_idx as u64, f64::from(lr));
                }
                // Accumulate this epoch's losses separately: a diverged epoch
                // is retried, and its partial sums must not pollute the task
                // mean (acceptance: task_losses stay finite through faults).
                let mut epoch_sum = 0.0f32;
                let mut epoch_count = 0usize;
                let mut diverged_loss = None;
                for (step, batch_idx) in
                    BatchIter::new(task.train.len(), cfg.batch_size, rng).enumerate()
                {
                    let batch = task.train.inputs.select_rows(&batch_idx);
                    let loss = {
                        let _step_span = edsr_obs::span!("step", step);
                        method.train_step(
                            model,
                            opt.as_mut(),
                            augmenters,
                            &batch,
                            task_idx,
                            &mut ws,
                            rng,
                        )
                    };
                    if edsr_obs::enabled() {
                        edsr_obs::gauge_at("train/loss", task_idx as u64, f64::from(loss));
                    }
                    if guard.is_divergent(loss) {
                        diverged_loss = Some(loss);
                        break;
                    }
                    guard.observe(loss);
                    epoch_sum += loss;
                    epoch_count += 1;
                }
                if let Some(bad) = diverged_loss {
                    guard.recover(
                        &mut model.params,
                        opt.as_mut(),
                        &method.name(),
                        task_idx,
                        epoch,
                        bad,
                    )?;
                    recoveries += 1;
                    edsr_obs::counter_at("train/recovery", task_idx as u64, 1);
                    continue; // retry this epoch from the rolled-back weights
                }
                loss_sum += epoch_sum;
                loss_count += epoch_count;
                guard.commit(&model.params);
                epoch += 1;
            }
            {
                let _select_span = edsr_obs::span!("select", task_idx);
                method.end_task(model, task_idx, &task.train, &augmenters[task_idx], rng);
            }
            let seconds = start.elapsed().as_secs_f64();
            task_seconds.push(seconds);
            let mean_loss = if loss_count > 0 {
                loss_sum / loss_count as f32
            } else {
                0.0
            };
            task_losses.push(mean_loss);

            let row = {
                let _eval_span = edsr_obs::span!("eval", task_idx);
                evaluate_row(model, source, task_idx, cfg.eval_k)?
            };
            if edsr_obs::enabled() {
                let mean = row.iter().sum::<f32>() / row.len().max(1) as f32;
                edsr_obs::gauge_at("eval/mean_acc", task_idx as u64, f64::from(mean));
            }
            matrix.push_row(row);
            if edsr_obs::enabled() {
                ws.emit_metrics(task_idx as u64);
            }

            if let Some(ckpt) = &checkpoint {
                let method_state = method.save_state().ok_or_else(|| TrainError::MethodState {
                    method: method.name(),
                    reason: "save_state returned None mid-run".into(),
                })?;
                let state = RunState {
                    completed_tasks: task_idx + 1,
                    method: method.name(),
                    benchmark: benchmark.clone(),
                    matrix_rows: matrix.rows().to_vec(),
                    task_seconds: task_seconds.clone(),
                    task_losses: task_losses.clone(),
                    params_payload: params_to_bytes(&model.params),
                    optim_payload: optim_state_to_bytes(&opt.export_state()),
                    rng_state: rng.state(),
                    method_state,
                    lr_scale: guard.lr_scale(),
                };
                save_run_state(ckpt, &state)?;
                edsr_obs::counter_at("checkpoint/write", task_idx as u64, 1);
            }

            if let Some(serve_cfg) = &serve_snapshots {
                let (reprs, repr_tasks) = method
                    .replay_representations()
                    .unwrap_or_else(|| (Matrix::zeros(0, model.repr_dim()), Vec::new()));
                let snap = ServeSnapshot::capture(
                    model,
                    reprs,
                    repr_tasks,
                    benchmark.clone(),
                    task_idx + 1,
                )?;
                if quantize_serve {
                    let qsnap = crate::checkpoint::quantize_serve_snapshot(&snap)?;
                    println!("quant gate: {}", qsnap.gate);
                    crate::checkpoint::save_quant_serve_snapshot(serve_cfg, &qsnap)?;
                } else {
                    save_serve_snapshot(serve_cfg, &snap)?;
                }
                edsr_obs::counter_at("checkpoint/write", task_idx as u64, 1);
            }
        }

        Ok(RunResult {
            method: method.name(),
            benchmark,
            matrix,
            task_seconds,
            task_losses,
            recoveries,
        })
    }
}

/// Applies a loaded run state to the live objects, validating that it
/// belongs to this method/benchmark pair.
fn restore_from_state(
    method: &mut dyn Method,
    model: &mut ContinualModel,
    opt: &mut dyn Optimizer,
    rng: &mut StdRng,
    benchmark: &str,
    state: &RunState,
) -> Result<(), TrainError> {
    if state.method != method.name() || state.benchmark != benchmark {
        return Err(TrainError::InvalidConfig(format!(
            "snapshot belongs to {}/{} but the run is {}/{}",
            state.method,
            state.benchmark,
            method.name(),
            benchmark
        )));
    }
    params_from_bytes(&mut model.params, &state.params_payload)?;
    let optim_state = optim_state_from_bytes(&state.optim_payload)?;
    opt.import_state(optim_state)
        .map_err(TrainError::InvalidConfig)?;
    method
        .load_state(&state.method_state)
        .map_err(|reason| TrainError::MethodState {
            method: method.name(),
            reason,
        })?;
    *rng = StdRng::from_state(state.rng_state);
    Ok(())
}

/// Result of the Multitask (joint-training) upper bound.
#[derive(Debug, Clone)]
pub struct MultitaskResult {
    /// Per-task test accuracy after joint training.
    pub per_task_acc: Vec<f32>,
    /// Mean accuracy (the paper's Multitask `Acc`).
    pub acc: f32,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl MultitaskResult {
    /// `Acc` in percent.
    pub fn acc_pct(&self) -> f32 {
        self.acc * 100.0
    }
}

/// Joint training over all increments at once (paper's Multitask row).
/// Batches are drawn per task (so heterogeneous input widths work) and
/// interleaved within each epoch. Runs under the same divergence guard
/// as [`RunBuilder::run`] (epoch-granular rollback, bounded LR backoff).
///
/// Joint epochs interleave batches across *all* increments, so a
/// streaming source is materialized up front — the upper bound is the
/// one consumer that genuinely needs the whole stream in RAM.
pub fn run_multitask(
    model: &mut ContinualModel,
    source: &mut dyn TaskSource,
    augmenters: &[Augmenter],
    cfg: &TrainConfig,
    rng: &mut StdRng,
) -> Result<MultitaskResult, TrainError> {
    if augmenters.len() != source.len() {
        return Err(TrainError::InvalidConfig(format!(
            "run_multitask: {} augmenters for {} tasks (one per task required)",
            augmenters.len(),
            source.len()
        )));
    }
    let seq = materialize(source)?;
    let seq = &seq;
    let mut opt = cfg.build_optimizer();
    let mut guard = StepGuard::new(GuardConfig::default(), &model.params);
    guard.begin_task(&model.params);
    let start = Instant::now();
    let _run_span = edsr_obs::span!("multitask");
    // The paper trains Multitask for the same epoch count as each
    // continual increment (200 epochs on CIFAR both ways). At simulation
    // scale the joint mixture needs extra passes to converge, hence the
    // multiplier (upper-bound semantics = trained to convergence).
    let total_epochs = cfg.epochs_per_task * cfg.multitask_epoch_multiplier.max(1);
    let mut ws = Workspace::new();
    let mut epoch = 0usize;
    while epoch < total_epochs {
        opt.set_lr(cfg.lr * guard.lr_scale());
        let _epoch_span = edsr_obs::span!("epoch", epoch);
        // Interleave per-task batches.
        let mut iters: Vec<(usize, BatchIter)> = seq
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (i, BatchIter::new(t.train.len(), cfg.batch_size, rng)))
            .collect();
        let mut diverged_loss = None;
        let mut any = true;
        'steps: while any {
            any = false;
            for (task_idx, iter) in &mut iters {
                if let Some(batch_idx) = iter.next() {
                    any = true;
                    let batch = seq.tasks[*task_idx].train.inputs.select_rows(&batch_idx);
                    ws.reset();
                    let (_, _, loss) = model.css_on_batch(
                        &mut ws.tape,
                        &mut ws.binder,
                        &augmenters[*task_idx],
                        &batch,
                        *task_idx,
                        rng,
                    );
                    let value = apply_step(model, opt.as_mut(), &mut ws.tape, &ws.binder, loss);
                    if edsr_obs::enabled() {
                        edsr_obs::gauge_at("train/loss", *task_idx as u64, f64::from(value));
                    }
                    if guard.is_divergent(value) {
                        diverged_loss = Some(value);
                        break 'steps;
                    }
                    guard.observe(value);
                }
            }
        }
        if let Some(bad) = diverged_loss {
            guard.recover(&mut model.params, opt.as_mut(), "Multitask", 0, epoch, bad)?;
            continue;
        }
        guard.commit(&model.params);
        epoch += 1;
    }
    let per_task_acc = evaluate_row(model, &mut &*seq, seq.len() - 1, cfg.eval_k)?;
    let acc = per_task_acc.iter().sum::<f32>() / per_task_acc.len() as f32;
    Ok(MultitaskResult {
        per_task_acc,
        acc,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Builds the per-task augmenters for an image benchmark (shared op
/// pipeline over the preset's grid). Only the source's length is read,
/// so any `TaskSource` works without fetching — `&seq` coerces.
pub fn image_augmenters(source: &dyn TaskSource, grid: edsr_data::GridSpec) -> Vec<Augmenter> {
    (0..source.len())
        .map(|_| Augmenter::standard_image(grid))
        .collect()
}

/// Builds the per-task augmenters for the tabular stream (SCARF
/// corruption referencing each increment's own train split). Fetches
/// every increment once, in order — a streaming source pays one
/// sequential pass.
pub fn tabular_augmenters(
    source: &mut dyn TaskSource,
    corruption_prob: f32,
) -> Result<Vec<Augmenter>, TrainError> {
    (0..source.len())
        .map(|i| {
            let task = source.fetch(i)?;
            Ok(Augmenter::tabular(
                task.train.inputs.clone(),
                corruption_prob,
            ))
        })
        .collect()
}
