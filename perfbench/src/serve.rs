//! The serving workloads: closed-loop embed + kNN traffic from two
//! connections against `edsr-serve`, on the f32 or the int8 backend.
//!
//! The snapshot has the `boundary` shape: a 300-dim DomainNet-geometry
//! encoder (model seed `seed + 1000`) and 960 replay rows, 64 from each
//! of the 15 increments of a `domainnet-sim` stream built from `seed`.
//! Every answer is checked against a direct `Engine` call on the same
//! snapshot: embeddings bit for bit, kNN answers by neighbour ids.
//!
//! Traced runs send the same traffic through three paths, so the latency
//! splits into engine forward, batching wait and wire: `Engine` calls
//! alone, then a `Batcher` with one `Submitter` per connection, then the
//! TCP server. All three go through [`Stream::send`], which times and
//! checks every request the same way.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use edsr_cl::{quantize_serve_snapshot, ContinualModel, ModelConfig, ServeSnapshot};
use edsr_linalg::{Metric, Neighbor};
use edsr_serve::{
    serve, Batcher, Client, Engine, ServeHandle, ServerConfig, ServerReport, Submitter, WireMetric,
};
use edsr_tensor::rng::seeded;
use edsr_tensor::Matrix;

use crate::report::{self, Outcome};
use crate::stats::Samples;

/// Client connections, each a closed loop with one request in flight.
const CONNECTIONS: usize = 2;
/// Embeds per connection in one round (the unit `run_s` times).
const ROUND: usize = 1000;
/// Every 4th embed is followed by a kNN on the returned embedding.
const KNN_EVERY: usize = 4;
/// Every 8th embed repeats the input sent 4 requests earlier on the same
/// connection; at most ~8 inserts separate the two, well inside the cache.
const REPEAT_EVERY: usize = 8;
const REPEAT_BACK: usize = 4;
/// Distinct fresh inputs per connection. A fresh input recurs only after
/// ~1,000 cache inserts, so it has left the 256-entry LRU: fresh inputs
/// miss and only the deliberate repeats hit.
const POOL: usize = 512;
/// The server's default embedding-cache capacity.
const CACHE: usize = 256;
const K: usize = 5;
/// Embeds per connection sent untimed after each server start.
const WARMUP: usize = 32;
/// Set-ups per run; `setup_s` is their median. Quantizing includes the
/// leave-one-out kNN accuracy gate over all 960 rows, which makes single
/// int8 set-ups noisy.
const SETUPS: usize = 9;
/// Replay rows per increment (the paper's DomainNet budget of 960 / 15).
const MEMORY_PER_TASK: usize = 64;

/// What a serving workload runs.
pub struct Spec {
    quantized: bool,
}

/// The named serving workload, if `name` is one.
pub fn spec(name: &str) -> Option<Spec> {
    match name {
        "serve_f32" => Some(Spec { quantized: false }),
        "serve_int8" => Some(Spec { quantized: true }),
        _ => None,
    }
}

/// Everything generated from the seed: the snapshot's memory inputs and
/// each connection's pool of request inputs.
struct Inputs {
    memory: Matrix,
    memory_tasks: Vec<u64>,
    pools: Vec<Matrix>,
}

fn make_inputs(seed: u64) -> Inputs {
    let seq = edsr_data::domainnet_sim().build(&mut seeded(seed));
    let mut memory_rows = Vec::new();
    let mut memory_tasks = Vec::new();
    let mut rest = Vec::new();
    for (t, task) in seq.tasks.iter().enumerate() {
        let train = &task.train.inputs;
        for r in 0..train.rows() {
            if r < MEMORY_PER_TASK {
                memory_rows.push(train.row(r));
                memory_tasks.push(t as u64);
            } else {
                rest.push(train.row(r));
            }
        }
        rest.extend((0..task.test.inputs.rows()).map(|r| task.test.inputs.row(r)));
    }
    assert!(rest.len() >= CONNECTIONS * POOL, "domainnet-sim too small");
    let pools = (0..CONNECTIONS)
        .map(|c| {
            let rows: Vec<&[f32]> = (0..POOL).map(|i| rest[i * CONNECTIONS + c]).collect();
            Matrix::from_rows(&rows)
        })
        .collect();
    Inputs {
        memory: Matrix::from_rows(&memory_rows),
        memory_tasks,
        pools,
    }
}

/// The per-connection request sequence: fresh pool rows in order, every
/// 8th request a repeat of an input the cache still holds, every 4th
/// embed followed by a kNN.
#[derive(Default)]
struct Traffic {
    sent: usize,
    fresh: usize,
    recent: [usize; REPEAT_BACK],
}

impl Traffic {
    /// The next embed's pool row, and whether a kNN follows it.
    fn next(&mut self) -> (usize, bool) {
        let i = self.sent;
        let row = if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
            self.recent[i % REPEAT_BACK]
        } else {
            self.fresh += 1;
            (self.fresh - 1) % POOL
        };
        self.recent[i % REPEAT_BACK] = row;
        self.sent += 1;
        (row, i % KNN_EVERY == KNN_EVERY - 1)
    }
}

fn capture(inputs: &Inputs, seed: u64) -> Result<ServeSnapshot, String> {
    let dim = inputs.memory.cols();
    let model = ContinualModel::new(&ModelConfig::image(dim), &mut seeded(seed + 1000));
    let reprs = model.represent_eval(&inputs.memory, 0);
    let tasks = inputs.memory_tasks.len() / MEMORY_PER_TASK;
    ServeSnapshot::capture(
        &model,
        reprs,
        inputs.memory_tasks.clone(),
        "domainnet-sim",
        tasks,
    )
    .map_err(|e| format!("capture snapshot: {e}"))
}

fn engine(spec: &Spec, snapshot: &ServeSnapshot, cache: usize) -> Result<Engine, String> {
    let engine = if spec.quantized {
        let quant = quantize_serve_snapshot(snapshot).map_err(|e| format!("quantize: {e}"))?;
        Engine::from_quant_snapshot(quant, cache)
    } else {
        Engine::from_snapshot(snapshot.clone(), cache)
    };
    engine.map_err(|e| format!("restore engine: {e}"))
}

/// One path that answers the workload's requests.
trait Answer {
    /// Embeds `input` for task 0 into `out`.
    fn embed_row(&mut self, input: &[f32], out: &mut Vec<f32>) -> Result<(), String>;
    /// The ids of the `K` replay rows nearest to `query` (cosine), into `ids`.
    fn knn_ids(&mut self, query: &[f32], ids: &mut Vec<usize>) -> Result<(), String>;
}

fn ids_of(neighbors: &[Neighbor], ids: &mut Vec<usize>) {
    ids.clear();
    ids.extend(neighbors.iter().map(|n| n.index));
}

/// `Engine::embed_into` / `knn_into`, called directly.
struct Direct {
    engine: Engine,
    neighbors: Vec<Neighbor>,
}

impl Answer for Direct {
    fn embed_row(&mut self, input: &[f32], out: &mut Vec<f32>) -> Result<(), String> {
        self.engine.embed_into(0, input, out).map(drop)
    }

    fn knn_ids(&mut self, query: &[f32], ids: &mut Vec<usize>) -> Result<(), String> {
        self.engine
            .knn_into(query, K, Metric::Cosine, &mut self.neighbors)?;
        ids_of(&self.neighbors, ids);
        Ok(())
    }
}

/// A `Submitter` of an in-process `Batcher`, with kNN under the engine
/// lock as the server runs it: everything the TCP path does but the wire.
struct InProcess<'a> {
    batcher: &'a Batcher,
    submitter: Submitter,
    input: Vec<f32>,
    neighbors: Vec<Neighbor>,
}

impl Answer for InProcess<'_> {
    fn embed_row(&mut self, input: &[f32], out: &mut Vec<f32>) -> Result<(), String> {
        self.input.clear();
        self.input.extend_from_slice(input);
        self.submitter
            .embed(0, &mut self.input, out)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn knn_ids(&mut self, query: &[f32], ids: &mut Vec<usize>) -> Result<(), String> {
        let neighbors = &mut self.neighbors;
        self.batcher
            .with_engine(|e| e.knn_into(query, K, Metric::Cosine, neighbors))?;
        ids_of(neighbors, ids);
        Ok(())
    }
}

impl Answer for Client {
    fn embed_row(&mut self, input: &[f32], out: &mut Vec<f32>) -> Result<(), String> {
        *out = self.embed(0, input).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn knn_ids(&mut self, query: &[f32], ids: &mut Vec<usize>) -> Result<(), String> {
        let neighbors = self
            .knn(query, K as u32, WireMetric::Cosine)
            .map_err(|e| e.to_string())?;
        ids.clear();
        ids.extend(neighbors.iter().map(|n| n.index as usize));
        Ok(())
    }
}

/// What a direct `Engine` call answers for every pool row.
struct Expected {
    embed: Vec<Vec<Vec<f32>>>,
    knn: Vec<Vec<Vec<usize>>>,
}

fn expected(spec: &Spec, inputs: &Inputs, seed: u64) -> Result<Expected, String> {
    let mut direct = Direct {
        engine: engine(spec, &capture(inputs, seed)?, 0)?,
        neighbors: Vec::new(),
    };
    let mut out = Expected {
        embed: Vec::new(),
        knn: Vec::new(),
    };
    for pool in &inputs.pools {
        let (mut embeds, mut knns) = (Vec::new(), Vec::new());
        for r in 0..pool.rows() {
            let (mut emb, mut ids) = (Vec::new(), Vec::new());
            direct.embed_row(pool.row(r), &mut emb)?;
            direct.knn_ids(&emb, &mut ids)?;
            embeds.push(emb);
            knns.push(ids);
        }
        out.embed.push(embeds);
        out.knn.push(knns);
    }
    Ok(out)
}

/// Latencies and failures, over one or more connections.
#[derive(Default)]
struct Lats {
    embed_us: Samples,
    knn_us: Samples,
    attempted: u64,
    failed: u64,
    /// First few failures, for the report.
    errors: Vec<String>,
}

impl Lats {
    fn merge(&mut self, other: Lats) {
        self.embed_us.extend(&other.embed_us);
        self.knn_us.extend(&other.knn_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            self.note(e);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    fn note(&mut self, why: String) {
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// One connection's request stream and what its answers measured.
struct Stream {
    id: usize,
    traffic: Traffic,
    emb: Vec<f32>,
    ids: Vec<usize>,
    lats: Lats,
}

impl Stream {
    fn new(id: usize) -> Self {
        Self {
            id,
            traffic: Traffic::default(),
            emb: Vec::new(),
            ids: Vec::new(),
            lats: Lats::default(),
        }
    }

    /// Sends the next embed, and the kNN that may follow it, through
    /// `via`; times each call and checks each answer against `want`.
    fn send(&mut self, via: &mut impl Answer, inputs: &Inputs, want: &Expected) {
        let (c, (row, knn)) = (self.id, self.traffic.next());
        self.lats.attempted += 1;
        let t0 = Instant::now();
        let res = via.embed_row(inputs.pools[c].row(row), &mut self.emb);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if let Err(e) = res {
            self.lats.fail(format!("conn {c} row {row}: embed: {e}"));
            return;
        }
        self.lats.embed_us.push(us);
        let expected = &want.embed[c][row];
        let same_bits = self.emb.len() == expected.len()
            && self
                .emb
                .iter()
                .zip(expected)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bits {
            self.lats
                .fail(format!("conn {c} row {row}: embedding differs"));
        }
        if !knn {
            return;
        }
        self.lats.attempted += 1;
        let t0 = Instant::now();
        let res = via.knn_ids(&self.emb, &mut self.ids);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match res {
            Err(e) => self.lats.fail(format!("conn {c} row {row}: knn: {e}")),
            Ok(()) => {
                self.lats.knn_us.push(us);
                if self.ids != want.knn[c][row] {
                    self.lats
                        .fail(format!("conn {c} row {row}: kNN ids differ"));
                }
            }
        }
    }
}

/// A started server with its connected, warmed-up clients.
struct Running {
    handle: ServeHandle,
    conns: Vec<(Stream, Client)>,
}

fn start(spec: &Spec, inputs: &Inputs, seed: u64, want: &Expected) -> Result<Running, String> {
    let snapshot = capture(inputs, seed)?;
    let engine = engine(spec, &snapshot, CACHE)?;
    let handle = serve(engine, ("127.0.0.1", 0), ServerConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let mut stream = Stream::new(c);
        let mut client = connect(handle.addr())?;
        for _ in 0..WARMUP {
            stream.send(&mut client, inputs, want);
        }
        if let Some(e) = stream.lats.errors.first() {
            return Err(format!("warm-up: {e}"));
        }
        stream.lats = Lats::default();
        conns.push((stream, client));
    }
    Ok(Running { handle, conns })
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect: {e}"))
}

fn stop(running: Running) -> Result<ServerReport, String> {
    let addr = running.handle.addr();
    drop(running.conns);
    connect(addr)?
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    running.handle.join().map_err(|e| format!("join: {e}"))
}

/// Closed-loop rounds over TCP until `budget` is spent (at least one);
/// returns the latencies and each round's wall time.
fn tcp_phase(
    running: &mut Running,
    inputs: &Inputs,
    want: &Expected,
    budget: Duration,
) -> (Lats, Samples) {
    let start = Instant::now();
    let mut walls = Samples::default();
    loop {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (stream, client) in &mut running.conns {
                s.spawn(move || {
                    for _ in 0..ROUND {
                        stream.send(client, inputs, want);
                    }
                });
            }
        });
        walls.push(t0.elapsed().as_secs_f64());
        let per_round = start.elapsed().as_secs_f64() / walls.len() as f64;
        if start.elapsed().as_secs_f64() + per_round > budget.as_secs_f64() {
            break;
        }
    }
    let mut lats = Lats::default();
    for (stream, _) in &mut running.conns {
        lats.merge(std::mem::take(&mut stream.lats));
    }
    (lats, walls)
}

/// `Engine` calls alone on a fresh engine, one thread, the connections'
/// requests interleaved as the server would see them.
fn engine_phase(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    want: &Expected,
    budget: Duration,
) -> Result<Lats, String> {
    let mut direct = Direct {
        engine: engine(spec, &capture(inputs, seed)?, CACHE)?,
        neighbors: Vec::new(),
    };
    let mut streams: Vec<Stream> = (0..CONNECTIONS).map(Stream::new).collect();
    let start = Instant::now();
    while streams[0].traffic.sent < ROUND || start.elapsed() < budget {
        for stream in &mut streams {
            stream.send(&mut direct, inputs, want);
        }
    }
    let mut lats = Lats::default();
    for stream in streams {
        lats.merge(stream.lats);
    }
    Ok(lats)
}

/// The same traffic through an in-process `Batcher`, one `Submitter` and
/// thread per connection, on a fresh engine.
fn batcher_phase(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    want: &Expected,
    budget: Duration,
) -> Result<Lats, String> {
    let batcher = Batcher::with_config(
        engine(spec, &capture(inputs, seed)?, CACHE)?,
        &ServerConfig::default(),
    );
    let batcher = &batcher;
    let mut lats = Lats::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut via = InProcess {
                        batcher,
                        submitter: batcher.submitter(),
                        input: Vec::new(),
                        neighbors: Vec::new(),
                    };
                    let mut stream = Stream::new(c);
                    let start = Instant::now();
                    while stream.traffic.sent < ROUND || start.elapsed() < budget {
                        stream.send(&mut via, inputs, want);
                    }
                    stream.lats
                })
            })
            .collect();
        for w in workers {
            lats.merge(w.join().expect("submitter thread panicked"));
        }
    });
    Ok(lats)
}

/// Runs a serving workload for about `seconds`.
pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let inputs = make_inputs(seed);
    let want = expected(spec, &inputs, seed)?;
    let mut setup = Samples::default();
    let mut running = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let r = start(spec, &inputs, seed, &want)?;
        setup.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            stop(r)?;
        } else {
            running = Some(r);
        }
    }
    let mut running = running.expect("SETUPS >= 1");
    let mut out = Outcome::default();
    out.set("setup_s", setup.median());
    println!(
        "setup_s median {:.4} over {} set-ups",
        setup.median(),
        setup.len()
    );

    let budget = Duration::from_secs(seconds);
    let phase = if traced { budget / 3 } else { budget };
    let mut all = Lats::default();
    let in_process = if traced {
        let engine_lats = engine_phase(spec, &inputs, seed, &want, phase)?;
        let batcher_lats = batcher_phase(spec, &inputs, seed, &want, phase)?;
        Some((engine_lats, batcher_lats))
    } else {
        None
    };
    let t0 = Instant::now();
    let (tcp, walls) = tcp_phase(&mut running, &inputs, &want, phase);
    let answered = tcp.embed_us.len() + tcp.knn_us.len();
    let req_per_s = answered as f64 / t0.elapsed().as_secs_f64();
    let report = stop(running)?;
    out.set("run_s", walls.median());

    let (embed_p50, embed_p99) = (tcp.embed_us.pct(50.0), tcp.embed_us.pct(99.0));
    let (knn_p50, knn_p99) = (tcp.knn_us.pct(50.0), tcp.knn_us.pct(99.0));
    println!(
        "tcp: {} rounds, run_s median {:.4}, {req_per_s:.0} req/s; \
         embed {embed_p50} {embed_p99}; knn {knn_p50} {knn_p99}",
        walls.len(),
        walls.median()
    );
    let lookups = report.cache_hits + report.cache_misses;
    let batch_mean = report.batched_requests as f64 / report.batches.max(1) as f64;
    println!(
        "server: {} requests, {} batches (mean {batch_mean:.2}, max {}), \
         cache {}/{lookups} hits, rejected {}+{}",
        report.requests,
        report.batches,
        report.max_batch,
        report.cache_hits,
        report.rejected_deadline,
        report.rejected_overload
    );
    if let Some((engine_lats, batcher_lats)) = in_process {
        out.set("serve.embed.p50_us", embed_p50.or_zero());
        out.set("serve.embed.p99_us", embed_p99.or_zero());
        out.set("serve.embed.count", tcp.embed_us.len() as f64);
        out.set("serve.knn.p50_us", knn_p50.or_zero());
        out.set("serve.knn.p99_us", knn_p99.or_zero());
        out.set("serve.knn.count", tcp.knn_us.len() as f64);
        out.set("serve.req_per_s", req_per_s);
        out.set("serve.batch.mean", batch_mean);
        out.set("serve.batch.max", report.max_batch as f64);
        out.set("serve.batches", report.batches as f64);
        out.set(
            "serve.cache.hit_ratio",
            report.cache_hits as f64 / lookups.max(1) as f64,
        );
        out.set("serve.cache.lookups", lookups as f64);
        out.set(
            "serve.rejected",
            (report.rejected_deadline + report.rejected_overload) as f64,
        );
        println!(
            "engine: embed {} knn {}; batcher: embed {} knn {}",
            engine_lats.embed_us.pct(50.0),
            engine_lats.knn_us.pct(50.0),
            batcher_lats.embed_us.pct(50.0),
            batcher_lats.knn_us.pct(50.0)
        );
        let (e_embed, e_knn) = (engine_lats.embed_us.median(), engine_lats.knn_us.median());
        let (b_embed, b_knn) = (batcher_lats.embed_us.median(), batcher_lats.knn_us.median());
        out.set("serve.engine.embed_us", e_embed);
        out.set("serve.engine.knn_us", e_knn);
        out.set("serve.batcher.embed_us", b_embed);
        out.set("serve.batcher.knn_us", b_knn);
        out.set("serve.batcher.wait_us", b_embed - e_embed);
        out.set("serve.wire.embed_us", embed_p50.or_zero() - b_embed);
        out.set("serve.wire.knn_us", knn_p50.or_zero() - b_knn);
        all.merge(engine_lats);
        all.merge(batcher_lats);
    }
    all.merge(tcp);
    for e in &all.errors {
        println!("FAILED: {e}");
    }
    out.attempted = all.attempted;
    out.failed = all.failed;
    out.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_stay_inside_the_cache_and_fresh_inputs_cycle() {
        let mut t = Traffic::default();
        let seq: Vec<(usize, bool)> = (0..4 * POOL).map(|_| t.next()).collect();
        for (i, &(row, knn)) in seq.iter().enumerate() {
            assert_eq!(knn, i % KNN_EVERY == KNN_EVERY - 1);
            if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
                assert_eq!(row, seq[i - REPEAT_BACK].0, "request {i}");
            }
        }
        // A fresh row comes back only after POOL other fresh rows.
        let fresh: Vec<usize> = seq
            .iter()
            .enumerate()
            .filter(|(i, _)| i % REPEAT_EVERY != REPEAT_EVERY - 1)
            .map(|(_, &(row, _))| row)
            .collect();
        for (i, &row) in fresh.iter().enumerate() {
            if let Some(prev) = fresh[..i].iter().rposition(|&r| r == row) {
                assert_eq!(i - prev, POOL);
            }
        }
    }

    #[test]
    fn every_path_answers_like_the_engine_on_both_backends() {
        let inputs = make_inputs(3);
        let short = Duration::from_millis(1);
        for quantized in [false, true] {
            let spec = Spec { quantized };
            let want = expected(&spec, &inputs, 3).expect("expected answers");
            let mut running = start(&spec, &inputs, 3, &want).expect("server starts");
            let (tcp, walls) = tcp_phase(&mut running, &inputs, &want, short);
            let report = stop(running).expect("server stops");
            assert_eq!(walls.len(), 1);
            assert_eq!(tcp.failed, 0, "{:?}", tcp.errors);
            assert_eq!(tcp.knn_us.len(), CONNECTIONS * ROUND / KNN_EVERY);
            let lookups = report.cache_hits + report.cache_misses;
            assert_eq!(lookups as usize, CONNECTIONS * (WARMUP + ROUND));
            assert_eq!(report.cache_hits as usize * REPEAT_EVERY, lookups as usize);
            for lats in [
                engine_phase(&spec, &inputs, 3, &want, short).expect("engine"),
                batcher_phase(&spec, &inputs, 3, &want, short).expect("batcher"),
            ] {
                assert_eq!(lats.failed, 0, "{:?}", lats.errors);
                assert_eq!(lats.embed_us.len(), CONNECTIONS * ROUND);
            }
        }
    }
}
