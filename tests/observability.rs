//! Observability integration tests (DESIGN.md §11): the JSONL encoding
//! round-trips bit-exactly, spans stay balanced even when a run dies with
//! `TrainError::Diverged`, a run reports its lifecycle (select before
//! eval before task end, one loss gauge per step) and its checkpoint
//! writes and resumes as events, and a real 2-task EDSR run streams the
//! paper-level metrics (per-term losses, selection entropy) to a JSONL
//! file that parses back cleanly.
//!
//! The sink is process-global state, so every test here serializes on
//! one mutex.

use std::borrow::Cow;
use std::sync::Mutex;

use edsr::cl::ServeSnapshot;
use edsr::cl::{
    CheckpointConfig, ContinualModel, FaultInjector, FaultPlan, Finetune, GuardConfig, ModelConfig,
    OptimizerKind, RunBuilder, TrainConfig, TrainError,
};
use edsr::core::Edsr;
use edsr::data::{Augmenter, Dataset, Task, TaskSequence};
use edsr::obs::{parse_jsonl, parse_line, Event, EventKind, RingSink};
use edsr::serve::server::{REJECT_DEADLINE, REJECT_OVERLOAD};
use edsr::serve::{Batcher, Client, Engine, RetryPolicy, RotateConfig, ServerConfig, SubmitError};
use edsr::tensor::rng::seeded;
use edsr::tensor::Matrix;
use proptest::prelude::*;

/// Serializes tests that install/uninstall the global sink.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Two-increment toy stream with clearly clustered 8-d inputs.
fn toy_sequence(seed: u64) -> TaskSequence {
    let mut rng = seeded(seed);
    let mut make_task = |offset: f32| {
        let mut inputs = Matrix::randn(24, 8, 0.2, &mut rng);
        let mut labels = Vec::new();
        for r in 0..24 {
            let class = r % 2;
            labels.push(class);
            inputs.add_at(r, class, offset + 2.0);
        }
        let data = Dataset::new("toy", inputs, labels);
        Task {
            train: data.clone(),
            test: data.subset(&(0..8).collect::<Vec<_>>()),
            classes: vec![0, 1],
        }
    };
    TaskSequence {
        name: "toy".into(),
        tasks: vec![make_task(0.0), make_task(1.0)],
    }
}

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs_per_task: 2,
        batch_size: 8,
        replay_batch: 4,
        lr: 1e-3,
        momentum: 0.9,
        weight_decay: 0.0,
        optimizer: OptimizerKind::Adam,
        eval_k: 3,
        multitask_epoch_multiplier: 1,
        cosine_floor: 1.0,
    }
}

/// Names that stress the JSON escaper: slashes, quotes, control chars,
/// backslashes, and non-ASCII.
const NAMES: &[&str] = &[
    "loss/css",
    "pool/busy_ns",
    "quoted \"name\"",
    "tab\thard",
    "back\\slash",
    "line\nbreak",
    "grüße/σ",
];

const KINDS: &[EventKind] = &[
    EventKind::SpanEnter,
    EventKind::SpanExit,
    EventKind::Counter,
    EventKind::Gauge,
    EventKind::Histogram,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize → parse → identical events (bit-exact values), and the
    /// wire format keeps its stable field order on every line.
    #[test]
    fn jsonl_round_trips_events(
        raw in proptest::collection::vec(
            (0u64..u64::MAX, 0usize..5, 0usize..7, 0u64..1 << 40, 0u64..u64::MAX),
            0..24,
        )
    ) {
        let events: Vec<Event> = raw
            .iter()
            .enumerate()
            .map(|(i, &(seq, kind, name, index, bits))| {
                let candidate = f64::from_bits(bits);
                Event {
                    seq: seq ^ i as u64,
                    kind: KINDS[kind],
                    name: Cow::Borrowed(NAMES[name]),
                    index,
                    // Non-finite payloads encode as null and decode as NaN
                    // (covered by unit tests); keep equality meaningful here.
                    value: if candidate.is_finite() {
                        candidate
                    } else {
                        bits as f64 * 1e-3
                    },
                }
            })
            .collect();
        let mut text = String::new();
        for e in &events {
            text.push_str(&e.to_json());
            text.push('\n');
        }
        for line in text.lines() {
            prop_assert!(line.starts_with("{\"seq\":"), "field order drifted: {line}");
            let kind_at = line.find("\"kind\":").unwrap_or(usize::MAX);
            let name_at = line.find("\"name\":").unwrap_or(0);
            prop_assert!(kind_at < name_at, "field order drifted: {line}");
            prop_assert_eq!(&parse_line(line).expect("line parses"),
                            &events[text.lines().position(|l| l == line).expect("line present")]);
        }
        let parsed = parse_jsonl(&text).expect("all lines parse");
        prop_assert_eq!(parsed, events);
    }
}

/// Walks events in order, pushing on `SpanEnter` and matching on
/// `SpanExit`; returns the maximum depth. Panics on imbalance.
fn check_span_balance(events: &[Event]) -> usize {
    let mut stack: Vec<(&str, u64)> = Vec::new();
    let mut max_depth = 0;
    for e in events {
        match e.kind {
            EventKind::SpanEnter => {
                stack.push((e.name.as_ref(), e.index));
                max_depth = max_depth.max(stack.len());
            }
            EventKind::SpanExit => {
                let (name, index) = stack
                    .pop()
                    .unwrap_or_else(|| panic!("exit of {}#{} with no open span", e.name, e.index));
                assert_eq!(
                    (name, index),
                    (e.name.as_ref(), e.index),
                    "mis-nested span exit"
                );
                assert!(e.value >= 0.0, "negative span duration");
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unclosed spans: {stack:?}");
    max_depth
}

/// Spans ride RAII guards, so the run/task/epoch/step nesting must stay
/// balanced even when the engine unwinds through `?` with a `Diverged`
/// error mid-epoch.
#[test]
fn spans_stay_balanced_when_a_run_diverges() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seq = toy_sequence(70);
    let augs: Vec<Augmenter> = (0..seq.len()).map(|_| Augmenter::Identity).collect();
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(71));
    // Fault every consecutive step of increment 0 so retries re-fault
    // until the bounded budget is exhausted.
    let plan = FaultPlan {
        faults: (0..8)
            .map(|s| edsr::cl::Fault::NanLoss { task: 0, step: s })
            .collect(),
    };
    let mut method = FaultInjector::new(Finetune::new(), plan);
    let cfg = tiny_cfg();
    let mut rng = seeded(72);

    let ring = RingSink::with_capacity(edsr::obs::DEFAULT_RING_CAPACITY);
    edsr::obs::install(Box::new(ring.clone()));
    let err = RunBuilder::new(&cfg)
        .guard(GuardConfig {
            max_retries: 2,
            ..GuardConfig::default()
        })
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .unwrap_err();
    edsr::obs::uninstall();

    assert!(matches!(err, TrainError::Diverged { .. }), "{err}");
    let events = ring.events();
    assert!(
        events.iter().any(|e| e.kind == EventKind::SpanEnter),
        "no spans recorded"
    );
    // run > task > epoch > step ⇒ depth at least 4 before the abort.
    let depth = check_span_balance(&events);
    assert!(depth >= 4, "expected nested spans, max depth {depth}");
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Counter && e.name == "train/recovery"),
        "divergence recoveries not counted"
    );
}

/// Runs `run` with a ring sink installed; returns its value and the
/// events it emitted.
fn capture<T>(run: impl FnOnce() -> T) -> (T, Vec<Event>) {
    let ring = RingSink::with_capacity(edsr::obs::DEFAULT_RING_CAPACITY);
    edsr::obs::install(Box::new(ring.clone()));
    let out = run();
    edsr::obs::uninstall();
    (out, ring.events())
}

/// Position of the first `kind` event named `name` at `index`.
fn position(events: &[Event], kind: EventKind, name: &str, index: u64) -> usize {
    events
        .iter()
        .position(|e| e.kind == kind && e.name == name && e.index == index)
        .unwrap_or_else(|| panic!("no {kind:?} {name}#{index}"))
}

/// The run reports its lifecycle through obs events alone. Per increment
/// the `select` span closes before the `eval` span opens, and evaluation
/// ends before the `task` span closes; every `step` span is followed by
/// that step's `train/loss` gauge; `eval/mean_acc` is the mean of the
/// `RunResult` row.
#[test]
fn run_lifecycle_events_arrive_in_order() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seq = toy_sequence(76);
    let augs: Vec<Augmenter> = (0..seq.len()).map(|_| Augmenter::Identity).collect();
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(77));
    let mut method = Finetune::new();
    let cfg = tiny_cfg();
    let mut rng = seeded(78);
    let (result, events) = capture(|| {
        RunBuilder::new(&cfg)
            .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
            .expect("observed run")
    });
    check_span_balance(&events);

    for task in 0..2u64 {
        let task_enter = position(&events, EventKind::SpanEnter, "task", task);
        let select_exit = position(&events, EventKind::SpanExit, "select", task);
        let eval_enter = position(&events, EventKind::SpanEnter, "eval", task);
        let eval_exit = position(&events, EventKind::SpanExit, "eval", task);
        let task_exit = position(&events, EventKind::SpanExit, "task", task);
        assert!(
            task_enter < select_exit,
            "task {task}: selected outside its span"
        );
        assert!(
            select_exit < eval_enter,
            "task {task}: eval began before selection ended"
        );
        assert!(
            eval_exit < task_exit,
            "task {task}: eval ended after the task"
        );

        let steps = events[task_enter..task_exit]
            .iter()
            .filter(|e| e.kind == EventKind::SpanExit && e.name == "step")
            .count();
        let losses = events
            .iter()
            .filter(|e| e.kind == EventKind::Gauge && e.name == "train/loss" && e.index == task)
            .count();
        assert!(steps > 0, "task {task}: no steps");
        assert_eq!(steps, losses, "task {task}: one train/loss per step");

        let row = &result.matrix.rows()[task as usize];
        let mean = row.iter().sum::<f32>() / row.len() as f32;
        let gauge = &events[position(&events, EventKind::Gauge, "eval/mean_acc", task)];
        assert_eq!(gauge.value, f64::from(mean), "task {task}: eval/mean_acc");
    }
    // Each loss gauge belongs to the step span that closed just before it.
    let mut step_open = false;
    for e in &events {
        if e.kind == EventKind::SpanExit && e.name == "step" {
            assert!(!step_open, "a step closed without its train/loss");
            step_open = true;
        } else if e.kind == EventKind::Gauge && e.name == "train/loss" {
            assert!(step_open, "train/loss without a step");
            step_open = false;
        }
    }
    assert!(!step_open, "the last step has no train/loss");
}

/// A checkpointed run interrupted after one increment and then resumed
/// counts one `checkpoint/write` per finished increment and one
/// `train/resume` at the increment it restarts from.
#[test]
fn checkpoint_writes_and_resume_are_counted() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seq = toy_sequence(79);
    let augs: Vec<Augmenter> = (0..seq.len()).map(|_| Augmenter::Identity).collect();
    let cfg = tiny_cfg();
    let dir = std::env::temp_dir().join(format!("edsr-obs-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = CheckpointConfig::new(&dir, "obs");

    let (_, events) = capture(|| {
        let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(80));
        RunBuilder::new(&cfg)
            .checkpoint(ckpt.clone())
            .stop_after(1)
            .run(
                &mut Finetune::new(),
                &mut model,
                &mut &seq,
                &augs,
                &mut seeded(81),
            )
            .expect("interrupted run");
        let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(80));
        let full = RunBuilder::new(&cfg)
            .checkpoint(ckpt.clone())
            .resume()
            .run(
                &mut Finetune::new(),
                &mut model,
                &mut &seq,
                &augs,
                &mut seeded(82),
            )
            .expect("resumed run");
        assert_eq!(full.matrix.num_increments(), 2);
    });
    let _ = std::fs::remove_dir_all(&dir);

    let counters = |name: &str| -> Vec<(u64, f64)> {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == name)
            .map(|e| (e.index, e.value))
            .collect()
    };
    assert_eq!(counters("checkpoint/write"), vec![(0, 1.0), (1, 1.0)]);
    assert_eq!(counters("train/resume"), vec![(1, 1.0)]);
    // The resume is reported before the resumed run opens its span.
    let resume = position(&events, EventKind::Counter, "train/resume", 1);
    let second_run = events
        .iter()
        .rposition(|e| e.kind == EventKind::SpanEnter && e.name == "run")
        .expect("run spans");
    assert!(
        resume < second_run,
        "train/resume after the resumed run began"
    );
}

/// End-to-end JSONL smoke: a 2-task EDSR run streams per-step loss terms
/// (`loss/css`, `loss/dis`, `loss/rpl`) and per-task selection entropy to
/// a metrics file, and the file parses back line-for-line.
#[test]
fn edsr_two_task_run_streams_paper_metrics_to_jsonl() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seq = toy_sequence(73);
    let augs: Vec<Augmenter> = (0..seq.len()).map(|_| Augmenter::Identity).collect();
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(74));
    let mut edsr = Edsr::paper_default(6, 4, 3);
    let cfg = tiny_cfg();
    let mut rng = seeded(75);

    let path = std::env::temp_dir().join(format!("edsr-obs-smoke-{}.jsonl", std::process::id()));
    edsr::obs::install_mode(edsr::obs::ObsMode::Jsonl, &path).expect("create metrics file");
    RunBuilder::new(&cfg)
        .run(&mut edsr, &mut model, &mut &seq, &augs, &mut rng)
        .expect("observed EDSR run");
    edsr::obs::uninstall();

    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let events = parse_jsonl(&text).expect("every line parses");
    assert!(!events.is_empty(), "metrics file is empty");
    check_span_balance(&events);

    let count = |kind: EventKind, name: &str, index: u64| {
        events
            .iter()
            .filter(|e| e.kind == kind && e.name == name && e.index == index)
            .count()
    };
    // Per-step L_css and per-task selection entropy for both increments;
    // distillation and replay only exist once a frozen snapshot / memory
    // is in place, i.e. from increment 1 on.
    for task in 0..2u64 {
        assert!(
            count(EventKind::Gauge, "loss/css", task) > 0,
            "no loss/css for task {task}"
        );
        assert!(
            count(EventKind::Gauge, "select/entropy", task) == 1,
            "selection entropy missing for task {task}"
        );
        assert!(
            count(EventKind::Gauge, "train/loss", task) > 0,
            "no train/loss for task {task}"
        );
    }
    for term in ["loss/dis", "loss/rpl"] {
        assert!(
            count(EventKind::Gauge, term, 1) > 0,
            "no {term} on the second increment"
        );
        assert_eq!(count(EventKind::Gauge, term, 0), 0, "{term} before task 1");
    }
    // The selection trajectory grows one entry per greedily added sample.
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Histogram && e.name == "select/entropy_trace"),
        "no selection-entropy trajectory"
    );
    let _ = std::fs::remove_file(&path);
}

/// Deterministic serve snapshot for the robustness-counter test below.
fn serve_snapshot(seed: u64) -> ServeSnapshot {
    let mut rng = seeded(seed);
    let model = ContinualModel::new(&ModelConfig::image(8), &mut rng);
    let mem = Matrix::randn(4, 8, 1.0, &mut rng);
    let reprs = model.represent_eval(&mem, 0);
    ServeSnapshot::capture(&model, reprs, vec![0; 4], "obs-serve", 1).unwrap()
}

fn serve_engine(seed: u64) -> Engine {
    Engine::from_snapshot(serve_snapshot(seed), 16).unwrap()
}

/// The serve robustness layer reports itself (DESIGN.md §13): shed
/// requests land in `serve/rejected` indexed by reason, snapshot swaps
/// in `serve/rotations` + a `serve/rotation_ms` histogram, and the
/// client's resilience loop in `client/retries`.
#[test]
fn serve_chaos_counters_cover_rejections_rotations_and_retries() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ring = RingSink::with_capacity(edsr::obs::DEFAULT_RING_CAPACITY);
    edsr::obs::install(Box::new(ring.clone()));

    // --- Overload shed: a 1-slot queue with a wide window holds the
    // first request; the second must be rejected while it waits.
    let cfg = ServerConfig {
        max_batch: 64,
        window: std::time::Duration::from_millis(400),
        queue_cap: 1,
        ..ServerConfig::default()
    };
    let mut batcher = Batcher::with_config(serve_engine(80), &cfg);
    let blocked = {
        let mut sub = batcher.submitter();
        std::thread::spawn(move || {
            let mut input: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
            let mut out = Vec::new();
            sub.embed(0, &mut input, &mut out).expect("queued embed")
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut sub = batcher.submitter();
    let mut input: Vec<f32> = (0..8).map(|i| i as f32 * 0.2).collect();
    let mut out = Vec::new();
    match sub.embed(0, &mut input, &mut out) {
        Err(SubmitError::Overloaded { .. }) => {}
        other => panic!("expected overload shed, got {other:?}"),
    }
    blocked.join().expect("queued embed answered");
    batcher.stop();

    // --- Deadline shed: a 1 ms deadline against an 80 ms window means
    // the request is already expired when the flush examines it.
    let cfg = ServerConfig {
        window: std::time::Duration::from_millis(80),
        deadline: Some(std::time::Duration::from_millis(1)),
        ..ServerConfig::default()
    };
    let mut batcher = Batcher::with_config(serve_engine(80), &cfg);
    let mut sub = batcher.submitter();
    match sub.embed(0, &mut input, &mut out) {
        Err(SubmitError::DeadlineExceeded) => {}
        other => panic!("expected deadline shed, got {other:?}"),
    }
    batcher.stop();

    // --- Rotation: a newer valid snapshot lands and the watcher swaps.
    let dir = std::env::temp_dir().join(format!("edsr-obs-rotate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let first = dir.join("obs.task0001.snapshot");
    serve_snapshot(80).save(&first).unwrap();
    let mut batcher = Batcher::with_config(serve_engine(80), &ServerConfig::default());
    batcher.start_rotation(RotateConfig {
        dir: dir.clone(),
        poll: std::time::Duration::from_millis(5),
        cache_capacity: 16,
        current: Some(first),
        quantize: false,
    });
    serve_snapshot(81)
        .save(dir.join("obs.task0002.snapshot"))
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while batcher.rotations() < 1 {
        assert!(std::time::Instant::now() < deadline, "rotation never fired");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    batcher.stop();
    let _ = std::fs::remove_dir_all(&dir);

    // --- Client retries: a listener that drops every accepted
    // connection forces the bounded retry loop to run dry.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let dropper = std::thread::spawn(move || {
        // Three request attempts = up to three accepts; extras are fine.
        for stream in listener.incoming().take(4) {
            drop(stream);
        }
    });
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: std::time::Duration::from_millis(1),
        backoff_cap: std::time::Duration::from_millis(4),
        jitter_seed: 7,
        retry_rejections: false,
    };
    let mut client = Client::connect_with(addr, policy).expect("tcp connect");
    let probe = vec![0.5f32; 8];
    assert!(
        client.embed(0, &probe).is_err(),
        "every connection is dropped; the embed must fail after retries"
    );
    drop(client);
    drop(dropper); // detach: the listener thread dies with the process

    edsr::obs::uninstall();
    let events = ring.events();
    let counter_sum = |name: &str, index: u64| -> f64 {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == name && e.index == index)
            .map(|e| e.value)
            .sum()
    };
    assert!(
        counter_sum("serve/rejected", REJECT_OVERLOAD) >= 1.0,
        "overload shed not counted"
    );
    assert!(
        counter_sum("serve/rejected", REJECT_DEADLINE) >= 1.0,
        "deadline shed not counted"
    );
    assert_eq!(
        counter_sum("serve/rotations", 0),
        1.0,
        "rotation not counted"
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == EventKind::Histogram && e.name == "serve/rotation_ms")
            .count(),
        1,
        "rotation duration not recorded"
    );
    assert_eq!(
        counter_sum("client/retries", 0),
        2.0,
        "client retries not counted"
    );
}
