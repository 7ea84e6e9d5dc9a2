//! Timing wrappers around the public training APIs. Each wrapper forwards
//! every call unchanged and records a span around the ones it times, so
//! the per-layer numbers come from outside the program: nothing inside
//! the crates under test is instrumented.
//!
//! - [`TimedMethod`] times `Method::begin_task`, `train_step` and
//!   `end_task`, and forwards the rest of the trait (`name`,
//!   `save_state`, `load_state`, `replay_representations`) explicitly so
//!   no trait default silently replaces the inner method's behaviour.
//! - [`TimedOptimizer`] wraps the optimizer the runner passes into each
//!   `train_step` and times `Optimizer::step`.
//! - [`TimedSource`] times `TaskSource::fetch`.
//!
//! None of them touches an RNG, so a wrapped run must reproduce the
//! unwrapped run bit for bit.

use std::time::Instant;

use edsr_cl::{ContinualModel, Method};
use edsr_data::{Augmenter, DataError, Dataset, Task, TaskSource};
use edsr_nn::{OptimState, Optimizer, ParamSet, Workspace};
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

/// The boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Method::begin_task` (EDSR: frozen-teacher copy).
    BeginTask,
    /// `Method::train_step`, optimizer included.
    TrainStep,
    /// `Optimizer::step` inside a train step.
    OptimStep,
    /// `Method::end_task` (EDSR: represent, select, noise kNN).
    EndTask,
    /// `TaskSource::fetch`.
    Fetch,
}

impl Layer {
    /// Span name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::BeginTask => "core.begin_task",
            Layer::TrainStep => "cl.train_step",
            Layer::OptimStep => "nn.optim",
            Layer::EndTask => "core.end_task",
            Layer::Fetch => "data.fetch",
        }
    }
}

/// One timed call, in nanoseconds from the run's clock origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Where it was recorded.
    pub layer: Layer,
    /// Increment index the call belonged to.
    pub task: usize,
    /// Start, ns from origin.
    pub start_ns: u64,
    /// End, ns from origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory against one clock origin.
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// An empty recorder; `capacity` avoids reallocating mid-run.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Self {
            origin,
            list: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn close(&mut self, layer: Layer, task: usize, start_ns: u64) {
        let end_ns = self.now();
        self.list.push(Span {
            layer,
            task,
            start_ns,
            end_ns,
        });
    }

    /// The recorded spans.
    pub fn into_vec(self) -> Vec<Span> {
        self.list
    }
}

/// A [`Method`] that times its three hooks and forwards everything.
pub struct TimedMethod<'a> {
    inner: &'a mut dyn Method,
    spans: Spans,
}

impl<'a> TimedMethod<'a> {
    /// Wraps `inner`, recording against `origin`.
    pub fn new(inner: &'a mut dyn Method, origin: Instant, capacity: usize) -> Self {
        Self {
            inner,
            spans: Spans::new(origin, capacity),
        }
    }

    /// The recorded spans (optimizer steps included).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_vec()
    }
}

impl Method for TimedMethod<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn begin_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        rng: &mut StdRng,
    ) {
        let start = self.spans.now();
        self.inner.begin_task(model, task_idx, train, rng);
        self.spans.close(Layer::BeginTask, task_idx, start);
    }

    fn train_step(
        &mut self,
        model: &mut ContinualModel,
        opt: &mut dyn Optimizer,
        augs: &[Augmenter],
        batch: &Matrix,
        task_idx: usize,
        ws: &mut Workspace,
        rng: &mut StdRng,
    ) -> f32 {
        let start = self.spans.now();
        let mut timed_opt = TimedOptimizer {
            inner: opt,
            spans: &mut self.spans,
            task: task_idx,
        };
        let loss = self
            .inner
            .train_step(model, &mut timed_opt, augs, batch, task_idx, ws, rng);
        self.spans.close(Layer::TrainStep, task_idx, start);
        loss
    }

    fn end_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        aug: &Augmenter,
        rng: &mut StdRng,
    ) {
        let start = self.spans.now();
        self.inner.end_task(model, task_idx, train, aug, rng);
        self.spans.close(Layer::EndTask, task_idx, start);
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.load_state(state)
    }

    fn replay_representations(&self) -> Option<(Matrix, Vec<u64>)> {
        self.inner.replay_representations()
    }
}

/// An [`Optimizer`] that times `step` and forwards everything.
pub struct TimedOptimizer<'a> {
    inner: &'a mut dyn Optimizer,
    spans: &'a mut Spans,
    task: usize,
}

impl Optimizer for TimedOptimizer<'_> {
    fn step(&mut self, params: &mut ParamSet) {
        let start = self.spans.now();
        self.inner.step(params);
        self.spans.close(Layer::OptimStep, self.task, start);
    }

    fn lr(&self) -> f32 {
        self.inner.lr()
    }

    fn set_lr(&mut self, lr: f32) {
        self.inner.set_lr(lr);
    }

    fn export_state(&self) -> OptimState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: OptimState) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

/// A [`TaskSource`] that times `fetch` and forwards everything.
pub struct TimedSource<'a> {
    inner: &'a mut dyn TaskSource,
    spans: Spans,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`, recording against `origin`.
    pub fn new(inner: &'a mut dyn TaskSource, origin: Instant, capacity: usize) -> Self {
        Self {
            inner,
            spans: Spans::new(origin, capacity),
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_vec()
    }
}

impl TaskSource for TimedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fetch(&mut self, idx: usize) -> Result<&Task, DataError> {
        let start = self.spans.now();
        let task = self.inner.fetch(idx);
        self.spans.close(Layer::Fetch, idx, start);
        task
    }
}
