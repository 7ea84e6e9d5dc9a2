//! Every binary format the workspace reads, pinned and attacked.
//!
//! Both tests start from one small, seeded golden object per format: the
//! `EDSRW002` weight payload, optimizer state, run state, `MemoryBuffer`,
//! SI state, both serve-snapshot versions (`EDSRSS01`/`EDSRSS02`), a data
//! shard (`EDSRDS01`) and its manifest (`EDSRDM01`), and a request and a
//! response for every wire opcode.
//!
//! - `golden_encodings_are_unchanged` pins each encoding's length and
//!   CRC32. A round trip still passes when encoder and decoder change
//!   together; this test does not, so it pins "no format change".
//! - `corrupted_payloads_decode_or_fail_structurally` feeds every payload
//!   decoder every truncation, every byte offset overwritten with u32 and
//!   u64 boundary values, and seeded random bit flips. A decode returns
//!   `Ok` or a structured error and never panics, and its largest single
//!   allocation stays under `ALLOC_FACTOR` times the payload length
//!   (payloads under `ALLOC_FLOOR` bytes count as `ALLOC_FLOOR`). A v1
//!   serve snapshot that decodes is then served: restoring it and building
//!   an `Engine` either fails with a structured error or gives an engine
//!   that answers one embed and one kNN.
//!
//! - `mutated_jsonl_parses_or_fails_structurally` does the same for the
//!   one text format, the JSONL metrics stream: every truncation of a
//!   small document, every character replaced by and every position given
//!   a string delimiter, escape, `\u` sequence or multi-byte character,
//!   and seeded runs of such edits. The mutants stay valid UTF-8, since
//!   `parse_jsonl` takes a `&str`; each parses or returns a `ParseError`,
//!   under the same allocation bound.
//!
//! Enveloped formats are attacked below the envelope: the payload decoder
//! is what a mutated file with a re-sealed CRC reaches. The manifest's
//! payload decoder is private, so its mutations are re-sealed into a file.
//!
//! The allocation high-water mark is process-global, so every test here
//! takes `ALLOC_LOCK` first, as `tests/zero_alloc.rs` does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use edsr::cl::checkpoint::{decode_run_state, encode_run_state, RunState};
use edsr::cl::{
    quantize_serve_snapshot, ContinualModel, MemoryBuffer, MemoryItem, Method, ModelConfig,
    ServeSnapshot, Si,
};
use edsr::data::shard::{decode_task, encode_task, read_manifest, write_manifest, ShardMeta};
use edsr::data::{Dataset, ShardManifest, Task};
use edsr::linalg::Metric;
use edsr::nn::io::{optim_state_from_bytes, optim_state_to_bytes, params_from_bytes};
use edsr::nn::{OptimState, ParamSet};
use edsr::obs::{parse_jsonl, Event, EventKind};
use edsr::quant::QuantSnapshot;
use edsr::serve::{Engine, Request, Response, StatsReply, WireMetric, WireNeighbor};
use edsr::ssl::SslVariant;
use edsr::tensor::rng::seeded;
use edsr::tensor::Matrix;

/// A decode may allocate at most this many times the payload length in
/// one allocation.
const ALLOC_FACTOR: usize = 8;
/// Payloads shorter than this count as this long in the allocation bound,
/// so error messages and fixed bookkeeping fit under it.
const ALLOC_FLOOR: usize = 128;

static ALLOC_LOCK: Mutex<()> = Mutex::new(());

/// System allocator wrapper that records the largest single request
/// (alloc, alloc_zeroed or realloc) while a measurement is open.
struct LargestAlloc;

static MEASURING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if MEASURING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

fn measure_alone() -> MutexGuard<'static, ()> {
    ALLOC_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the allocation high-water mark open; returns its result
/// and the largest single allocation it made.
fn largest_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    MEASURING.store(true, Ordering::Relaxed);
    let out = f();
    MEASURING.store(false, Ordering::Relaxed);
    (out, LARGEST.load(Ordering::Relaxed))
}

/// Runs `f` with the measurement paused (test scaffolding, not decoding).
fn unmeasured<R>(f: impl FnOnce() -> R) -> R {
    let was = MEASURING.swap(false, Ordering::Relaxed);
    let out = f();
    MEASURING.store(was, Ordering::Relaxed);
    out
}

// ---------------------------------------------------------------------------
// Golden objects.
// ---------------------------------------------------------------------------

/// The smallest model the encoder builds: 3 inputs, 4 hidden, 3-d reps.
fn tiny_config() -> ModelConfig {
    ModelConfig {
        input_dims: vec![3],
        hidden_dim: 4,
        repr_dim: 3,
        backbone_layers: 1,
        variant: SslVariant::BarlowTwins { lambda: 0.02 },
        conv_stem: None,
    }
}

fn tiny_model() -> ContinualModel {
    ContinualModel::new(&tiny_config(), &mut seeded(16))
}

fn golden_params() -> ParamSet {
    tiny_model().params
}

fn golden_optim() -> OptimState {
    let mut rng = seeded(17);
    OptimState::Adam {
        lr: 0.25,
        t: 9,
        m: vec![
            Matrix::randn(2, 3, 1.0, &mut rng),
            Matrix::randn(1, 3, 1.0, &mut rng),
        ],
        v: vec![
            Matrix::randn(2, 3, 1.0, &mut rng),
            Matrix::randn(1, 3, 1.0, &mut rng),
        ],
    }
}

fn golden_run_state() -> RunState {
    RunState {
        completed_tasks: 2,
        method: "EDSR".into(),
        benchmark: "golden".into(),
        matrix_rows: vec![vec![0.5], vec![0.25, 0.75]],
        task_seconds: vec![1.5, 2.25],
        task_losses: vec![0.9, 0.8],
        params_payload: vec![1, 2, 3, 4, 5],
        optim_payload: vec![6, 7],
        rng_state: [10, 20, 30, 40],
        method_state: vec![8, 9, 10],
        lr_scale: 0.5,
    }
}

fn golden_memory() -> MemoryBuffer {
    let mut memory = MemoryBuffer::new();
    memory.extend([
        MemoryItem {
            input: vec![0.5, -1.0, 2.0],
            task: 0,
            noise_scale: 0.125,
            stored_features: None,
        },
        MemoryItem {
            input: vec![1.5, 0.0, -0.25],
            task: 1,
            noise_scale: 0.0,
            stored_features: Some(vec![3.0, 4.0]),
        },
    ]);
    memory
}

fn golden_si_state() -> Vec<u8> {
    let mut model = tiny_model();
    let train = Dataset::new("si", Matrix::zeros(1, 3), vec![0]);
    let mut si = Si::new(0.5);
    si.begin_task(&mut model, 0, &train, &mut seeded(18));
    si.save_state().expect("SI has state")
}

fn golden_serve_snapshot() -> ServeSnapshot {
    let model = tiny_model();
    let reprs = Matrix::randn(3, 3, 1.0, &mut seeded(19));
    ServeSnapshot::capture(&model, reprs, vec![0, 0, 1], "golden", 2).expect("capture")
}

fn golden_quant_snapshot() -> QuantSnapshot {
    quantize_serve_snapshot(&golden_serve_snapshot()).expect("quantize")
}

fn golden_task() -> Task {
    let mut rng = seeded(20);
    Task {
        train: Dataset::new("tr", Matrix::randn(3, 2, 1.0, &mut rng), vec![0, 1, 1]),
        test: Dataset::new("te", Matrix::randn(2, 2, 1.0, &mut rng), vec![1, 0]),
        classes: vec![0, 1],
    }
}

fn golden_manifest() -> ShardManifest {
    ShardManifest {
        name: "golden".into(),
        dim: 2,
        shards: vec![ShardMeta {
            file: "task0000.shard".into(),
            train_len: 3,
            test_len: 2,
            classes: vec![0, 1],
        }],
    }
}

fn golden_requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "request embed",
            Request::Embed {
                task: 1,
                input: vec![0.5, -2.0, 3.25],
            },
        ),
        (
            "request knn",
            Request::Knn {
                k: 2,
                metric: WireMetric::Cosine,
                query: vec![1.0, 0.0, -1.0],
            },
        ),
        ("request stats", Request::Stats),
        ("request shutdown", Request::Shutdown),
    ]
}

fn golden_responses() -> Vec<(&'static str, u8, Response)> {
    let stats = StatsReply {
        requests: 1,
        batches: 2,
        batched_requests: 3,
        max_batch: 4,
        cache_hits: 5,
        cache_misses: 6,
        memory_rows: 7,
        repr_dim: 8,
        rotations: 9,
        rejected_deadline: 10,
        rejected_overload: 11,
        quantized: 1,
    };
    vec![
        (
            "response embed",
            1,
            Response::Embedding(vec![0.25, -0.5, 1.0]),
        ),
        (
            "response knn",
            2,
            Response::Neighbors(vec![
                WireNeighbor {
                    index: 3,
                    score: 0.75,
                },
                WireNeighbor {
                    index: 0,
                    score: -0.5,
                },
            ]),
        ),
        ("response stats", 3, Response::Stats(stats)),
        ("response shutdown", 4, Response::ShutdownAck),
        (
            "response error",
            1,
            Response::Error {
                code: 5,
                retry_after_ms: 20,
                message: "overloaded".into(),
            },
        ),
    ]
}

/// A temporary directory unique to this process and `tag`.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edsr-formats-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The manifest's payload, cut out of the envelope `write_manifest` writes.
fn manifest_payload(dir: &Path) -> Vec<u8> {
    write_manifest(dir, &golden_manifest()).expect("write manifest");
    let file = std::fs::read(dir.join(edsr::data::shard::MANIFEST_FILE)).expect("read manifest");
    // magic (8 bytes) + payload + u64 length + u32 crc32.
    file[8..file.len() - 12].to_vec()
}

// ---------------------------------------------------------------------------
// Decoders under test.
// ---------------------------------------------------------------------------

/// What one decode produced.
enum Outcome {
    /// A structured error.
    Rejected,
    /// The payload decoded.
    Decoded,
    /// A v1 serve snapshot decoded; it is served next.
    Snapshot(Box<ServeSnapshot>),
}

fn outcome<T, E>(r: Result<T, E>) -> Outcome {
    match r {
        Ok(_) => Outcome::Decoded,
        Err(_) => Outcome::Rejected,
    }
}

type Decoder = Box<dyn Fn(&[u8]) -> Outcome>;

struct Format {
    name: String,
    payload: Vec<u8>,
    decode: Decoder,
}

fn format(name: &str, payload: Vec<u8>, decode: impl Fn(&[u8]) -> Outcome + 'static) -> Format {
    Format {
        name: name.into(),
        payload,
        decode: Box::new(decode),
    }
}

/// Every format with its golden payload, shards first: the shard decoder
/// is the one whose failure needs no large allocation to show.
fn formats(manifest_dir: &Path) -> Vec<Format> {
    let mut all = vec![
        format("EDSRDS01 shard", encode_task(&golden_task()), |b| {
            outcome(decode_task(b, Path::new("mem")))
        }),
        {
            let dir = manifest_dir.to_path_buf();
            format(
                "EDSRDM01 manifest",
                manifest_payload(manifest_dir),
                move |b| {
                    unmeasured(|| {
                        edsr_wire::write_envelope(
                            dir.join(edsr::data::shard::MANIFEST_FILE),
                            edsr::data::shard::MANIFEST_MAGIC,
                            b,
                        )
                    })
                    .expect("re-seal manifest");
                    outcome(read_manifest(&dir))
                },
            )
        },
        {
            let target = std::cell::RefCell::new(golden_params());
            format(
                "EDSRW002 params",
                edsr::nn::io::params_to_bytes(&golden_params()),
                move |b| outcome(params_from_bytes(&mut target.borrow_mut(), b)),
            )
        },
        format(
            "optimizer state",
            optim_state_to_bytes(&golden_optim()),
            |b| outcome(optim_state_from_bytes(b)),
        ),
        format(
            "EDSRRS01 run state",
            encode_run_state(&golden_run_state()),
            |b| outcome(decode_run_state(b)),
        ),
        format("MemoryBuffer", golden_memory().to_bytes(), |b| {
            outcome(MemoryBuffer::from_bytes(b))
        }),
        format("SI state", golden_si_state(), |b| {
            outcome(Si::new(0.5).load_state(b))
        }),
        format(
            "EDSRSS01 serve snapshot",
            golden_serve_snapshot().encode(),
            |b| match ServeSnapshot::decode(b) {
                Ok(s) => Outcome::Snapshot(Box::new(s)),
                Err(_) => Outcome::Rejected,
            },
        ),
        format(
            "EDSRSS02 quant snapshot",
            golden_quant_snapshot().encode(),
            |b| outcome(QuantSnapshot::decode(b)),
        ),
    ];
    for (name, req) in golden_requests() {
        all.push(format(name, req.encode(), |b| outcome(Request::decode(b))));
    }
    for (name, opcode, resp) in golden_responses() {
        all.push(format(name, resp.encode(opcode), |b| {
            outcome(Response::decode(b))
        }));
    }
    all
}

/// Serves a decoded v1 snapshot: restore + engine either fail with a
/// structured error (`Ok(false)`) or answer one embed and one kNN
/// (`Ok(true)`).
fn serve_decoded(snapshot: ServeSnapshot) -> Result<bool, String> {
    let dim = snapshot.config.input_dims.first().copied().unwrap_or(0);
    let Ok(mut engine) = Engine::from_snapshot(snapshot, 4) else {
        return Ok(false);
    };
    let mut repr = Vec::new();
    engine.embed_into(0, &vec![0.5; dim], &mut repr)?;
    let mut neighbors = Vec::new();
    engine.knn_into(&repr, 2, Metric::Cosine, &mut neighbors)?;
    Ok(true)
}

// ---------------------------------------------------------------------------
// Mutations.
// ---------------------------------------------------------------------------

const U32_BOUNDARIES: [u32; 4] = [0, 1, 1 << 31, u32::MAX];
const U64_BOUNDARIES: [u64; 6] = [0, 1, 1 << 31, u32::MAX as u64, 1 << 62, u64::MAX];
const BIT_FLIP_CASES: usize = 200;

/// Every mutated payload of `golden`, labelled: each truncation, each
/// offset overwritten with each boundary value (clipped at the end), and
/// seeded flips of one to four random bits.
fn mutations(golden: &[u8], seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for cut in 0..golden.len() {
        out.push((format!("truncated to {cut} bytes"), golden[..cut].to_vec()));
    }
    for offset in 0..golden.len() {
        let values = U32_BOUNDARIES
            .iter()
            .map(|v| (format!("u32 {v:#x}"), v.to_le_bytes().to_vec()))
            .chain(
                U64_BOUNDARIES
                    .iter()
                    .map(|v| (format!("u64 {v:#x}"), v.to_le_bytes().to_vec())),
            );
        for (label, bytes) in values {
            let mut m = golden.to_vec();
            let end = (offset + bytes.len()).min(m.len());
            m[offset..end].copy_from_slice(&bytes[..end - offset]);
            out.push((format!("{label} at offset {offset}"), m));
        }
    }
    let mut rng = seeded(seed);
    for case in 0..BIT_FLIP_CASES {
        let mut m = golden.to_vec();
        if m.is_empty() {
            break;
        }
        let flips = 1 + (rng.next_u64() % 4) as usize;
        for _ in 0..flips {
            let bit = (rng.next_u64() % (m.len() as u64 * 8)) as usize;
            m[bit / 8] ^= 1 << (bit % 8);
        }
        out.push((format!("bit-flip case {case}"), m));
    }
    out
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

/// (format, payload length, CRC32 of the payload), taken from the encoders
/// before the shared payload reader replaced the per-format readers.
const GOLDEN: [(&str, usize, u32); 18] = [
    ("EDSRDS01 shard", 148, 0x43d36dd2),
    ("EDSRDM01 manifest", 84, 0x47172c02),
    ("EDSRW002 params", 702, 0x1f03fe0b),
    ("optimizer state", 124, 0x118edb4e),
    ("EDSRRS01 run state", 180, 0xbd2e2a9b),
    ("MemoryBuffer", 96, 0x7991af15),
    ("SI state", 1812, 0x73e8fb76),
    ("EDSRSS01 serve snapshot", 860, 0xbd13b0c9),
    ("EDSRSS02 quant snapshot", 420, 0x141890cf),
    ("request embed", 22, 0x96deeb96),
    ("request knn", 23, 0x176f9a61),
    ("request stats", 2, 0xf3fd1086),
    ("request shutdown", 2, 0x6d998525),
    ("response embed", 19, 0xc8b40885),
    ("response knn", 31, 0xdd35156f),
    ("response stats", 99, 0x83440e3a),
    ("response shutdown", 3, 0xfa6aa352),
    ("response error", 23, 0xeaed1746),
];

#[test]
fn golden_encodings_are_unchanged() {
    let _serial = measure_alone();
    let dir = temp_dir("golden");
    let formats = formats(&dir);
    let got: Vec<(String, usize, u32)> = formats
        .iter()
        .map(|f| {
            (
                f.name.clone(),
                f.payload.len(),
                edsr_wire::crc32(&f.payload),
            )
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    let want: Vec<(String, usize, u32)> = GOLDEN
        .iter()
        .map(|&(n, l, c)| (n.to_string(), l, c))
        .collect();
    assert_eq!(got, want, "an encoding changed");
}

#[test]
fn corrupted_payloads_decode_or_fail_structurally() {
    let _serial = measure_alone();
    let dir = temp_dir("corrupt");
    let formats = formats(&dir);
    for (seed, f) in formats.iter().enumerate() {
        let (mut decoded, mut served, mut worst) = (0usize, 0usize, 0.0f64);
        for (case, bytes) in mutations(&f.payload, 900 + seed as u64) {
            let (result, largest) =
                largest_alloc(|| catch_unwind(AssertUnwindSafe(|| (f.decode)(&bytes))));
            let result = result.unwrap_or_else(|p| {
                panic!(
                    "{}: {case}: decode panicked: {}",
                    f.name,
                    panic_message(&*p)
                )
            });
            let bound = ALLOC_FACTOR * bytes.len().max(ALLOC_FLOOR);
            assert!(
                largest <= bound,
                "{}: {case}: a {largest}-byte allocation while decoding {} bytes (bound {bound})",
                f.name,
                bytes.len()
            );
            worst = worst.max(largest as f64 / bytes.len().max(ALLOC_FLOOR) as f64);
            match result {
                Outcome::Rejected => {}
                Outcome::Decoded => decoded += 1,
                Outcome::Snapshot(snapshot) => {
                    decoded += 1;
                    let answer = catch_unwind(AssertUnwindSafe(|| serve_decoded(*snapshot)))
                        .unwrap_or_else(|p| {
                            panic!(
                                "{}: {case}: serving the decoded snapshot panicked: {}",
                                f.name,
                                panic_message(&*p)
                            )
                        });
                    let answered = answer.unwrap_or_else(|e| {
                        panic!("{}: {case}: the restored engine refused: {e}", f.name)
                    });
                    served += usize::from(answered);
                }
            }
        }
        println!(
            "{:<24} {:>5} payload bytes, {:>5} mutations decoded, {served} served, largest allocation {worst:.2}x",
            f.name,
            f.payload.len(),
            decoded
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The JSONL metrics reader.
// ---------------------------------------------------------------------------

/// A metrics document whose names carry every escape the encoder writes
/// and characters of two to four UTF-8 bytes, with a non-finite value and
/// `u64::MAX` counters.
fn golden_jsonl() -> String {
    let event = |seq, kind, name: &'static str, index, value| Event {
        seq,
        kind,
        name: name.into(),
        index,
        value,
    };
    [
        event(0, EventKind::SpanEnter, "run", 0, 0.0),
        event(
            1,
            EventKind::Gauge,
            "loss/css \"q\" \\ é€𝄞\n\r\t\u{1}",
            3,
            -1.25e-7,
        ),
        event(
            u64::MAX,
            EventKind::Counter,
            "serve/rejected",
            u64::MAX,
            f64::NAN,
        ),
        event(3, EventKind::Histogram, "serve/latency_us", 1, 1e300),
        event(4, EventKind::SpanExit, "run", 0, 42.0),
    ]
    .iter()
    .map(|e| e.to_json() + "\n")
    .collect()
}

/// What a JSONL mutation splices in: string delimiters, escapes (whole,
/// cut short, a lone surrogate, not hex), structure, and characters of two
/// and four UTF-8 bytes.
const JSONL_PIECES: [&str; 16] = [
    "\"", "\\", "\\u", "\\u00", "\\u0041", "\\ud800", "\\uZZZZ", "\\u+12", "{", "}", ":", ",", "-",
    "é", "𝄞", "\n",
];
const JSONL_RANDOM_CASES: usize = 2000;

/// The character boundaries of `doc`, its end included.
fn char_bounds(doc: &str) -> Vec<usize> {
    doc.char_indices()
        .map(|(i, _)| i)
        .chain([doc.len()])
        .collect()
}

/// Every mutated document of `golden`, labelled; all stay valid UTF-8:
/// each truncation at a character boundary, each character replaced by
/// each piece, each piece inserted at each boundary, and seeded runs of
/// one to four random replacements or insertions.
fn jsonl_mutations(golden: &str, seed: u64) -> Vec<(String, String)> {
    let bounds = char_bounds(golden);
    let mut out = Vec::new();
    for &cut in &bounds {
        out.push((
            format!("truncated to {cut} bytes"),
            golden[..cut].to_string(),
        ));
    }
    for (i, &at) in bounds.iter().enumerate() {
        let next = bounds.get(i + 1).copied();
        for piece in JSONL_PIECES {
            let inserted = format!("{}{piece}{}", &golden[..at], &golden[at..]);
            out.push((format!("{piece:?} inserted at byte {at}"), inserted));
            if let Some(next) = next {
                let replaced = format!("{}{piece}{}", &golden[..at], &golden[next..]);
                out.push((format!("{piece:?} replaces byte {at}"), replaced));
            }
        }
    }
    let mut rng = seeded(seed);
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    for case in 0..JSONL_RANDOM_CASES {
        let mut doc = golden.to_string();
        for _ in 0..1 + pick(4) {
            let bounds = char_bounds(&doc);
            let at = pick(bounds.len());
            // Replace the character at `at`, or insert before it.
            let end = bounds[(at + pick(2)).min(bounds.len() - 1)];
            doc.replace_range(bounds[at]..end, JSONL_PIECES[pick(JSONL_PIECES.len())]);
        }
        out.push((format!("random case {case}"), doc));
    }
    out
}

#[test]
fn mutated_jsonl_parses_or_fails_structurally() {
    let _serial = measure_alone();
    let golden = golden_jsonl();
    let events = parse_jsonl(&golden).expect("the golden document parses");
    let again: String = events.iter().map(|e| e.to_json() + "\n").collect();
    assert_eq!(again, golden, "the golden document does not round-trip");
    let (mut parsed, mut rejected, mut worst) = (0usize, 0usize, 0.0f64);
    for (case, doc) in jsonl_mutations(&golden, 77) {
        let (result, largest) = largest_alloc(|| catch_unwind(|| parse_jsonl(&doc)));
        match result {
            Ok(Ok(_)) => parsed += 1,
            Ok(Err(e)) => {
                assert!(e.at <= doc.len(), "JSONL: {case}: error past the end: {e}");
                rejected += 1;
            }
            Err(p) => panic!(
                "JSONL: {case}: parse_jsonl panicked: {}",
                panic_message(&*p)
            ),
        }
        let bound = ALLOC_FACTOR * doc.len().max(ALLOC_FLOOR);
        assert!(
            largest <= bound,
            "JSONL: {case}: a {largest}-byte allocation while parsing {} bytes (bound {bound})",
            doc.len()
        );
        worst = worst.max(largest as f64 / doc.len().max(ALLOC_FLOOR) as f64);
    }
    println!(
        "{:<24} {:>5} document bytes, {parsed} mutations parsed, {rejected} rejected, largest allocation {worst:.2}x",
        "JSONL metrics",
        golden.len()
    );
}
