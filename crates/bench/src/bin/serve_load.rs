//! Load generator for the `edsr-serve` TCP server: N concurrent clients
//! stream embed + kNN requests at a freshly served snapshot and the
//! per-request latencies land in `BENCH_serve.json` (repo root) as
//! p50/p99 plus aggregate throughput.
//!
//! The measured phase runs twice against the same trained model — once
//! on the f32 backend (v1 snapshot) and once on the int8 backend (v2,
//! `quantize_serve_snapshot`) — so the paired rows quantify what
//! quantization buys: embed/kNN p50/p99, req/s, and snapshot bytes on
//! disk for both formats. If the int8 embed p50 is not faster than f32
//! the binary prints a `WARNING` (treat as a perf regression in the
//! quantized kernels).
//!
//! The snapshot is built in-process (seeded model + synthetic replay
//! memory), so the numbers measure the serving stack — wire protocol,
//! micro-batcher, eval-mode forward, kNN scan — not training.
//! `EDSR_BENCH_QUICK=1` shrinks clients and request counts to a smoke
//! run; `EDSR_SERVE_BATCH` / `EDSR_SERVE_WINDOW_US` tune the batcher.

use std::io::Write as _;
use std::time::Instant;

use edsr_cl::{
    quantize_serve_snapshot, save_quant_serve_snapshot, save_serve_snapshot, CheckpointConfig,
    ContinualModel, ModelConfig, ServeSnapshot,
};
use edsr_core::prelude::seeded;
use edsr_serve::{serve, Client, ServeError, ServerConfig, WireMetric};
use edsr_serve::{Engine, ServerReport};
use edsr_tensor::Matrix;

const INPUT_DIM: usize = 32;

/// Latencies for one request kind, microseconds, unsorted.
#[derive(Default)]
struct Lats {
    embed: Vec<f64>,
    knn: Vec<f64>,
}

/// `p` in [0, 100] over a sorted slice (nearest-rank on the upper side).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn client_loop(
    addr: std::net::SocketAddr,
    client_id: u64,
    requests: usize,
    knn_every: usize,
) -> Result<Lats, ServeError> {
    let mut client = Client::connect(addr)?;
    let inputs = Matrix::randn(requests, INPUT_DIM, 1.0, &mut seeded(7700 + client_id));
    let mut lats = Lats::default();
    let mut last_embedding: Option<Vec<f32>> = None;
    for i in 0..requests {
        // Re-send an earlier row every eighth request so the embedding
        // cache sees hits under load too.
        let row = if i % 8 == 7 { i / 2 } else { i };
        let t0 = Instant::now();
        let emb = client.embed(0, inputs.row(row))?;
        lats.embed.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if knn_every > 0 && i % knn_every == knn_every - 1 {
            let t0 = Instant::now();
            let _ = client.knn(&emb, 5, WireMetric::Cosine)?;
            lats.knn.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        last_embedding = Some(emb);
    }
    std::hint::black_box(&last_embedding);
    Ok(lats)
}

fn run_load(
    addr: std::net::SocketAddr,
    clients: usize,
    requests: usize,
    knn_every: usize,
) -> (Lats, f64) {
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                client_loop(addr, c as u64, requests, knn_every).expect("client failed")
            })
        })
        .collect();
    let mut all = Lats::default();
    for w in workers {
        let lats = w.join().expect("client panicked");
        all.embed.extend(lats.embed);
        all.knn.extend(lats.knn);
    }
    let wall = t0.elapsed().as_secs_f64();
    (all, wall)
}

/// One full measured phase: serve `engine`, warm up untimed (so pool
/// spin-up and first-forward tape growth don't pollute the
/// percentiles), run the timed load, drain. Returns sorted embed/kNN
/// latencies, throughput, and the server-side report.
#[allow(clippy::type_complexity)]
fn measured_phase(
    engine: Engine,
    cfg: ServerConfig,
    clients: usize,
    requests: usize,
    knn_every: usize,
) -> Result<(Vec<f64>, Vec<f64>, f64, ServerReport), edsr_core::Error> {
    let handle =
        serve(engine, ("127.0.0.1", 0), cfg).map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    let addr = handle.addr();
    let _ = run_load(addr, clients, 8.min(requests), knn_every);
    let (lats, wall) = run_load(addr, clients, requests, knn_every);
    let mut shutdown_client =
        Client::connect(addr).map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    shutdown_client
        .shutdown()
        .map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    let report: ServerReport = handle
        .join()
        .map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    let mut embed = lats.embed;
    let mut knn = lats.knn;
    embed.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    knn.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let reqs_per_s = (embed.len() + knn.len()) as f64 / wall;
    Ok((embed, knn, reqs_per_s, report))
}

/// One client of the saturation phase: fire embeds as fast as possible
/// against a deliberately under-provisioned server and tally answered
/// vs shed. Shed requests (`ERR_DEADLINE`/`ERR_OVERLOADED`) keep the
/// connection synced, so the loop keeps offering load.
fn saturation_loop(
    addr: std::net::SocketAddr,
    client_id: u64,
    requests: usize,
) -> Result<(Vec<f64>, u64), ServeError> {
    let mut client = Client::connect(addr)?;
    let inputs = Matrix::randn(requests, INPUT_DIM, 1.0, &mut seeded(8800 + client_id));
    let mut ok = Vec::new();
    let mut rejected = 0u64;
    for i in 0..requests {
        let t0 = Instant::now();
        match client.embed(0, inputs.row(i)) {
            Ok(_) => ok.push(t0.elapsed().as_nanos() as f64 / 1e3),
            Err(ServeError::Rejected { code, .. })
                if code == edsr_serve::protocol::ERR_OVERLOADED
                    || code == edsr_serve::protocol::ERR_DEADLINE =>
            {
                rejected += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok((ok, rejected))
}

fn build_snapshot() -> ServeSnapshot {
    let mut rng = seeded(6100);
    let model = ContinualModel::new(&ModelConfig::image(INPUT_DIM), &mut rng);
    let memory_inputs = Matrix::randn(64, INPUT_DIM, 1.0, &mut rng);
    let reprs = model.represent_eval(&memory_inputs, 0);
    let tasks = (0..64u64).map(|i| i / 16).collect();
    ServeSnapshot::capture(&model, reprs, tasks, "serve-load", 4).expect("capture snapshot")
}

fn main() -> Result<(), edsr_core::Error> {
    let env_cfg = edsr_bench::start().env;
    let quick = env_cfg.bench_quick;
    let clients = if quick { 2 } else { 6 };
    let requests = if quick { 40 } else { 400 };
    let knn_every = 4;

    let mut cfg = ServerConfig::default();
    if let Some(n) = env_cfg.serve_batch {
        cfg.max_batch = n;
    }
    if let Some(us) = env_cfg.serve_window_us {
        cfg.window = std::time::Duration::from_micros(us);
    }
    cfg.max_connections = clients.max(cfg.max_connections);
    let (max_batch_cfg, window_us) = (cfg.max_batch, cfg.window.as_micros());

    // One trained model behind both backends, and both formats on disk
    // so the size row is measured, not estimated.
    let snapshot = build_snapshot();
    let quant =
        quantize_serve_snapshot(&snapshot).map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    let size_dir = std::env::temp_dir().join(format!("edsr-serve-load-{}", std::process::id()));
    let v1_path = save_serve_snapshot(&CheckpointConfig::new(&size_dir, "bench-v1"), &snapshot)
        .map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    let v2_path = save_quant_serve_snapshot(&CheckpointConfig::new(&size_dir, "bench-v2"), &quant)
        .map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    let v1_bytes = std::fs::metadata(&v1_path)?.len();
    let v2_bytes = std::fs::metadata(&v2_path)?.len();
    let _ = std::fs::remove_dir_all(&size_dir);
    let size_ratio = v1_bytes as f64 / v2_bytes.max(1) as f64;

    let f32_engine = Engine::from_snapshot(snapshot, 256).expect("restore v1 snapshot");
    let i8_engine = Engine::from_quant_snapshot(quant, 256).expect("restore v2 snapshot");
    let (embed, knn, reqs_per_s, report) =
        measured_phase(f32_engine, cfg.clone(), clients, requests, knn_every)?;
    let (embed_i8, knn_i8, reqs_per_s_i8, report_i8) =
        measured_phase(i8_engine, cfg, clients, requests, knn_every)?;
    let total_requests = embed.len() + knn.len();

    // --- Saturation phase: a fresh server with a deliberately tight
    // queue and a deadline, offered ~2x the client concurrency of the
    // measured phase. The point is the overload knee: throughput of
    // *answered* requests, their p99, and the shed rate — the shed
    // requests must come back as bounded structured errors, which is
    // exactly what lets this phase terminate.
    let sat_clients = clients * 2;
    let sat_requests = (requests / 2).max(8);
    let sat_cfg = ServerConfig {
        queue_cap: 2,
        deadline: Some(std::time::Duration::from_millis(50)),
        max_connections: sat_clients,
        ..ServerConfig::default()
    };
    let sat_engine = Engine::from_snapshot(build_snapshot(), 256).expect("restore snapshot");
    let sat_handle = serve(sat_engine, ("127.0.0.1", 0), sat_cfg)
        .map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    let sat_addr = sat_handle.addr();
    let t0 = Instant::now();
    let workers: Vec<_> = (0..sat_clients)
        .map(|c| {
            std::thread::spawn(move || {
                saturation_loop(sat_addr, c as u64, sat_requests).expect("saturation client")
            })
        })
        .collect();
    let mut sat_ok = Vec::new();
    let mut sat_rejected = 0u64;
    for w in workers {
        let (ok, rejected) = w.join().expect("saturation client panicked");
        sat_ok.extend(ok);
        sat_rejected += rejected;
    }
    let sat_wall = t0.elapsed().as_secs_f64();
    let mut sat_shutdown =
        Client::connect(sat_addr).map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    sat_shutdown
        .shutdown()
        .map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    let sat_report: ServerReport = sat_handle
        .join()
        .map_err(|e| edsr_core::Error::Data(e.to_string()))?;
    sat_ok.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let sat_offered = (sat_clients * sat_requests) as u64;
    let sat_rate = sat_ok.len() as f64 / sat_wall;
    let sat_rejected_rate = sat_rejected as f64 / sat_offered as f64;

    let json = format!(
        "{{\n  \"clients\": {clients},\n  \"requests_per_client\": {requests},\n  \
         \"total_requests\": {total_requests},\n  \"reqs_per_s\": {reqs_per_s:.1},\n  \
         \"reqs_per_s_i8\": {reqs_per_s_i8:.1},\n  \
         \"max_batch\": {max_batch_cfg},\n  \"window_us\": {window_us},\n  \
         \"embed\": {{\"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}},\n  \
         \"knn\": {{\"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}},\n  \
         \"embed_i8\": {{\"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}},\n  \
         \"knn_i8\": {{\"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}},\n  \
         \"snapshot_bytes\": {{\"v1\": {v1_bytes}, \"v2\": {v2_bytes}, \
         \"ratio\": {size_ratio:.2}}},\n  \
         \"server\": {{\"requests\": {}, \"batches\": {}, \"batched_requests\": {}, \
         \"max_batch_seen\": {}, \"cache_hits\": {}, \"cache_misses\": {}}},\n  \
         \"server_i8\": {{\"requests\": {}, \"batches\": {}, \"cache_hits\": {}, \
         \"cache_misses\": {}}},\n  \
         \"saturation\": {{\"clients\": {sat_clients}, \"offered\": {sat_offered}, \
         \"answered\": {}, \"rejected\": {}, \"rejected_rate\": {sat_rejected_rate:.4}, \
         \"reqs_per_s\": {sat_rate:.1}, \"p99_us\": {:.1}, \
         \"server_rejected_deadline\": {}, \"server_rejected_overload\": {}}}\n}}\n",
        embed.len(),
        percentile(&embed, 50.0),
        percentile(&embed, 99.0),
        knn.len(),
        percentile(&knn, 50.0),
        percentile(&knn, 99.0),
        embed_i8.len(),
        percentile(&embed_i8, 50.0),
        percentile(&embed_i8, 99.0),
        knn_i8.len(),
        percentile(&knn_i8, 50.0),
        percentile(&knn_i8, 99.0),
        report.requests,
        report.batches,
        report.batched_requests,
        report.max_batch,
        report.cache_hits,
        report.cache_misses,
        report_i8.requests,
        report_i8.batches,
        report_i8.cache_hits,
        report_i8.cache_misses,
        sat_ok.len(),
        sat_rejected,
        percentile(&sat_ok, 99.0),
        sat_report.rejected_deadline,
        sat_report.rejected_overload,
    );
    let mut file = std::fs::File::create("BENCH_serve.json")?;
    file.write_all(json.as_bytes())?;

    println!(
        "{clients} clients x {requests} reqs (f32):  {reqs_per_s:.0} req/s  \
         embed p50 {:.0}us p99 {:.0}us  knn p50 {:.0}us p99 {:.0}us",
        percentile(&embed, 50.0),
        percentile(&embed, 99.0),
        percentile(&knn, 50.0),
        percentile(&knn, 99.0),
    );
    println!(
        "{clients} clients x {requests} reqs (int8): {reqs_per_s_i8:.0} req/s  \
         embed p50 {:.0}us p99 {:.0}us  knn p50 {:.0}us p99 {:.0}us",
        percentile(&embed_i8, 50.0),
        percentile(&embed_i8, 99.0),
        percentile(&knn_i8, 50.0),
        percentile(&knn_i8, 99.0),
    );
    println!("snapshot bytes: v1 {v1_bytes}  v2 {v2_bytes}  ({size_ratio:.2}x smaller quantized)");
    let (f32_p50, i8_p50) = (percentile(&embed, 50.0), percentile(&embed_i8, 50.0));
    if i8_p50 >= f32_p50 {
        eprintln!(
            "WARNING: int8 embed p50 ({i8_p50:.1}us) is not faster than f32 ({f32_p50:.1}us) — \
             quantized inference regressed"
        );
    }
    println!(
        "server: {} requests, {} batches (max {}), cache {}/{} hit/miss",
        report.requests, report.batches, report.max_batch, report.cache_hits, report.cache_misses
    );
    println!(
        "saturation: {sat_clients} clients, {} answered / {} shed of {} offered \
         ({:.1}% shed), {:.0} req/s, p99 {:.0}us",
        sat_ok.len(),
        sat_rejected,
        sat_offered,
        sat_rejected_rate * 100.0,
        sat_rate,
        percentile(&sat_ok, 99.0),
    );
    println!("wrote BENCH_serve.json");
    edsr_par::emit_pool_metrics();
    edsr_obs::flush();
    Ok(())
}
