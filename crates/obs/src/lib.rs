//! Observability layer for the EDSR reproduction (DESIGN.md §11).
//!
//! The stack is instrumented with **hierarchical spans** (per-task /
//! per-epoch / per-step timing via [`span!`]) and **typed metrics**
//! ([`counter`], [`gauge`], [`histogram`]): per-term losses
//! (`loss/css`, `loss/dis`, `loss/rpl`), gradient norms, selection
//! entropy `Tr(Cov)`, kNN noise-scale `r(x)·σ` statistics, pool worker
//! occupancy, and scratch-arena high-water marks.
//!
//! Events flow into one process-global [`Sink`]: either a bounded
//! in-memory [`RingSink`] (tests, interactive inspection) or a
//! [`JsonlSink`] writing one JSON object per line (offline analysis,
//! CI smoke checks). With **no sink installed the layer is zero-cost**:
//! every emit point is gated on one relaxed atomic load ([`enabled`]),
//! no clock is read, no event is built, and no heap allocation happens
//! — `tests/zero_alloc.rs` proves the steady-state training step stays
//! at zero allocations with observability off.
//!
//! ```
//! let ring = edsr_obs::RingSink::with_capacity(128);
//! edsr_obs::install(Box::new(ring.clone()));
//! {
//!     let _span = edsr_obs::span!("demo", 0);
//!     edsr_obs::gauge("loss/css", 0.25);
//! }
//! edsr_obs::uninstall();
//! let events = ring.events();
//! assert_eq!(events.len(), 3); // enter, gauge, exit
//! ```

#![deny(missing_docs)]

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

mod json;
mod sink;

pub use json::{parse_jsonl, parse_line, write_escaped, ParseError};
pub use sink::{JsonlSink, RingSink, Sink};

/// What a single [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`value` is unused and zero).
    SpanEnter,
    /// A span closed (`value` is the elapsed time in nanoseconds).
    SpanExit,
    /// A monotonic count increment (`value` is the increment).
    Counter,
    /// A point-in-time measurement (`value` is the measurement).
    Gauge,
    /// One observation of a distribution (`value` is the observation).
    Histogram,
}

impl EventKind {
    /// Stable wire name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "enter",
            EventKind::SpanExit => "exit",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Histogram => "histo",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "enter" => EventKind::SpanEnter,
            "exit" => EventKind::SpanExit,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "histo" => EventKind::Histogram,
            _ => return None,
        })
    }
}

/// One observability event.
///
/// `seq` is a process-global monotonic sequence number, so events from
/// any thread can be totally ordered after the fact. `index` carries the
/// instrumented loop variable (task index, worker slot, …); emit points
/// without a natural index use zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process-global monotonic sequence number.
    pub seq: u64,
    /// Event type.
    pub kind: EventKind,
    /// Metric or span name, e.g. `"loss/css"` or `"task"`.
    pub name: Cow<'static, str>,
    /// Loop variable at the emit point (task index, worker slot, …).
    pub index: u64,
    /// Payload: measurement, count, or span duration in nanoseconds.
    pub value: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Option<Box<dyn Sink>>> = Mutex::new(None);

/// Whether a sink is installed. One relaxed atomic load — the gate every
/// emit point (and every caller computing a value only to record it)
/// checks first, which is the whole zero-overhead-when-off contract.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_sink(f: impl FnOnce(&mut dyn Sink)) {
    let mut slot = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(sink) = slot.as_mut() {
        f(sink.as_mut());
    }
}

/// Installs `sink` as the process-global event destination and enables
/// emission. A previously installed sink is flushed and dropped.
pub fn install(sink: Box<dyn Sink>) {
    let mut slot = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(mut old) = slot.take() {
        old.flush();
    }
    *slot = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables emission, flushes, and returns the installed sink (if any).
pub fn uninstall() -> Option<Box<dyn Sink>> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut old = SINK.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(sink) = old.as_mut() {
        sink.flush();
    }
    old
}

/// Flushes the installed sink (no-op when none is installed).
pub fn flush() {
    with_sink(|s| s.flush());
}

fn emit(kind: EventKind, name: &'static str, index: u64, value: f64) {
    if !enabled() {
        return;
    }
    let event = Event {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        kind,
        name: Cow::Borrowed(name),
        index,
        value,
    };
    with_sink(|s| s.record(&event));
}

/// Records a counter increment of `value` under `name`.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    emit(EventKind::Counter, name, 0, value as f64);
}

/// [`counter`] with an explicit `index` (worker slot, task index, …).
#[inline]
pub fn counter_at(name: &'static str, index: u64, value: u64) {
    emit(EventKind::Counter, name, index, value as f64);
}

/// Records a point-in-time measurement under `name`.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    emit(EventKind::Gauge, name, 0, value);
}

/// [`gauge`] with an explicit `index` (worker slot, task index, …).
#[inline]
pub fn gauge_at(name: &'static str, index: u64, value: f64) {
    emit(EventKind::Gauge, name, index, value);
}

/// Records one observation of the distribution tracked under `name`.
#[inline]
pub fn histogram(name: &'static str, value: f64) {
    emit(EventKind::Histogram, name, 0, value);
}

/// [`histogram`] with an explicit `index`.
#[inline]
pub fn histogram_at(name: &'static str, index: u64, value: f64) {
    emit(EventKind::Histogram, name, index, value);
}

/// RAII guard for a timed span: emits `SpanEnter` on creation (via
/// [`span()`]) and `SpanExit` with elapsed nanoseconds on drop. Because
/// the exit rides on `Drop`, nesting stays balanced on every exit path —
/// early `return`, `?`, and the divergence-guard error path included.
#[must_use = "a span is timed until dropped; binding it to _ closes it immediately"]
pub struct Span {
    name: &'static str,
    index: u64,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            emit(
                EventKind::SpanExit,
                self.name,
                self.index,
                start.elapsed().as_nanos() as f64,
            );
        }
    }
}

/// Opens a timed span. When observability is off this neither reads the
/// clock nor emits anything — the returned guard is inert.
pub fn span(name: &'static str, index: u64) -> Span {
    if !enabled() {
        return Span {
            name,
            index,
            start: None,
        };
    }
    emit(EventKind::SpanEnter, name, index, 0.0);
    Span {
        name,
        index,
        start: Some(Instant::now()),
    }
}

/// Opens a timed span: `span!("task", i)` or `span!("run")` (index 0).
/// Bind the result to a named `_span` local — binding to `_` drops (and
/// closes) it immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name, 0)
    };
    ($name:expr, $index:expr) => {
        $crate::span($name, $index as u64)
    };
}

/// How the process-global sink is configured (`EDSR_OBS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// No sink; every emit point is a single atomic load.
    #[default]
    Off,
    /// Bounded in-memory ring buffer ([`RingSink`]).
    Ring,
    /// JSON-lines file ([`JsonlSink`]) at `EDSR_OBS_PATH`.
    Jsonl,
}

impl ObsMode {
    /// Parses the `EDSR_OBS` / `--obs` value (`off`, `ring`, `jsonl`).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" | "none" => ObsMode::Off,
            "ring" => ObsMode::Ring,
            "jsonl" | "json" => ObsMode::Jsonl,
            _ => return None,
        })
    }

    /// Canonical spelling (the value [`parse`](Self::parse) accepts).
    pub fn as_str(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Ring => "ring",
            ObsMode::Jsonl => "jsonl",
        }
    }
}

/// Capacity of the ring installed by [`install_mode`] for
/// [`ObsMode::Ring`].
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Installs the sink selected by `mode`. For [`ObsMode::Jsonl`] the file
/// at `path` is created (truncated); for [`ObsMode::Ring`] a handle to
/// the installed ring is returned so callers can read the events back.
/// [`ObsMode::Off`] uninstalls any existing sink.
pub fn install_mode(mode: ObsMode, path: &std::path::Path) -> std::io::Result<Option<RingSink>> {
    match mode {
        ObsMode::Off => {
            uninstall();
            Ok(None)
        }
        ObsMode::Ring => {
            let ring = RingSink::with_capacity(DEFAULT_RING_CAPACITY);
            install(Box::new(ring.clone()));
            Ok(Some(ring))
        }
        ObsMode::Jsonl => {
            install(Box::new(JsonlSink::create(path)?));
            Ok(None)
        }
    }
}

/// Five-number summary of the events named `name` (gauges, histograms,
/// counters, or span exits — whatever the caller filtered to).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of matching events.
    pub count: u64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sum of values.
    pub sum: f64,
}

/// Summarizes the values of every event named `name` (span-enter events
/// are skipped — their value carries no information). Returns `None`
/// when no event matches.
pub fn summarize<'a>(events: impl IntoIterator<Item = &'a Event>, name: &str) -> Option<Summary> {
    let mut count = 0u64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0f64;
    for e in events {
        if e.name != name || e.kind == EventKind::SpanEnter {
            continue;
        }
        count += 1;
        min = min.min(e.value);
        max = max.max(e.value);
        sum += e.value;
    }
    (count > 0).then(|| Summary {
        count,
        min,
        max,
        mean: sum / count as f64,
        sum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global sink state is process-wide; tests touching it serialize here.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_emits_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        let before = SEQ.load(Ordering::Relaxed);
        gauge("x", 1.0);
        counter("y", 2);
        let _s = span!("z");
        drop(_s);
        assert_eq!(SEQ.load(Ordering::Relaxed), before);
    }

    #[test]
    fn ring_captures_span_and_metrics_in_order() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ring = RingSink::with_capacity(16);
        install(Box::new(ring.clone()));
        {
            let _task = span!("task", 3);
            gauge_at("loss/css", 3, 0.5);
            {
                let _step = span!("step", 7);
                histogram("h", 1.0);
            }
            counter("c", 2);
        }
        uninstall();
        let events = ring.events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SpanEnter,
                EventKind::Gauge,
                EventKind::SpanEnter,
                EventKind::Histogram,
                EventKind::SpanExit,
                EventKind::Counter,
                EventKind::SpanExit,
            ]
        );
        assert_eq!(events[0].name, "task");
        assert_eq!(events[0].index, 3);
        let step_exit = &events[4];
        assert_eq!(step_exit.name, "step");
        assert!(step_exit.value >= 0.0);
        // seq strictly increasing.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn span_exit_rides_on_early_return() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ring = RingSink::with_capacity(16);
        install(Box::new(ring.clone()));
        fn inner() -> Result<(), ()> {
            let _s = span!("inner");
            Err(())
        }
        let _ = inner();
        uninstall();
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].kind, EventKind::SpanExit);
    }

    #[test]
    fn summarize_aggregates_by_name() {
        let mk = |seq, value| Event {
            seq,
            kind: EventKind::Gauge,
            name: Cow::Borrowed("g"),
            index: 0,
            value,
        };
        let events = vec![mk(0, 1.0), mk(1, 3.0), mk(2, 2.0)];
        let s = summarize(&events, "g").expect("events present");
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);
        assert!(summarize(&events, "absent").is_none());
    }

    #[test]
    fn obs_mode_parses() {
        assert_eq!(ObsMode::parse("off"), Some(ObsMode::Off));
        assert_eq!(ObsMode::parse("RING"), Some(ObsMode::Ring));
        assert_eq!(ObsMode::parse("jsonl"), Some(ObsMode::Jsonl));
        assert_eq!(ObsMode::parse("bogus"), None);
    }
}
