//! `edsr` — command-line front end for the reproduction.
//!
//! ```text
//! edsr presets                       list the built-in benchmarks
//! edsr run <preset> <method> [opts]  run one continual-learning job
//! edsr tabular <method> [opts]       run the tabular stream (§IV-E)
//! edsr metrics [PATH]                summarize a JSONL metrics file
//! edsr serve <SNAPSHOT> [opts]       serve embeddings + kNN over TCP
//! edsr query <ADDR> <op> [opts]      talk to a running server
//! edsr scenario list                 list the scenario zoo
//! edsr scenario write <name> <dir>   materialize a scenario as shards
//! edsr scenario run <name> <method>  train on a scenario, in RAM or
//!                                    out-of-core (--stream DIR)
//!
//! methods: finetune | si | der | lump | cassle | edsr | compemb | r2r | lin
//!          | multitask
//! options: --seed N         data/model/run seed base   (default 11)
//!          --epochs N       epochs per increment       (preset default)
//!          --memory N       total memory budget        (preset default)
//!          --threads N      compute threads (default: all cores; results
//!                           are bit-identical at any value — DESIGN.md §9)
//!          --save PATH      write the final model checkpoint
//!          --checkpoint DIR snapshot run state after each increment
//!          --resume         continue from the latest valid snapshot
//!          --serve-snapshot DIR  export a serve snapshot after each task
//!          --quantize       export int8 v2 serve snapshots (with
//!                           --serve-snapshot; prints the accuracy gate)
//!          --obs MODE       observability sink: off | ring | jsonl
//!          --obs-path PATH  metrics file for --obs jsonl (metrics.jsonl)
//!
//! serve:   <SNAPSHOT> is a `.snapshot` file (v1 or v2) or a directory
//!          (the latest valid snapshot in it is served)
//!          --port N            TCP port (default 7878; 0 = ephemeral)
//!          --cache N           embedding-cache capacity (default 1024)
//!          --serve-batch N     micro-batch flush size
//!          --serve-window-us N micro-batch coalescing window
//!          --quantized         serve on the int8 backend (quantizes v1
//!                              snapshots in-process; EDSR_SERVE_QUANT)
//!
//! query:   edsr query ADDR embed --input 0.1,0.2,...  [--task N]
//!          edsr query ADDR knn   --input ...  [--k N] [--metric M]
//!          edsr query ADDR stats
//!          edsr query ADDR shutdown
//!          --quantized   assert the server answers on the int8 backend
//!                        (one stats round-trip) before sending the op
//! ```
//!
//! `--threads`, `--checkpoint`, `--resume`, `--obs`, `--obs-path`,
//! `--serve-batch` and `--serve-window-us` also read `EDSR_THREADS` /
//! `EDSR_CHECKPOINT` / `EDSR_RESUME` / `EDSR_OBS` / `EDSR_OBS_PATH` /
//! `EDSR_SERVE_BATCH` / `EDSR_SERVE_WINDOW_US`; the CLI flag wins
//! ([`EnvConfig`] precedence).
//!
//! Every failure (bad flag, divergence after retries, checkpoint
//! corruption) surfaces as a structured error with a non-zero exit, not
//! a panic.

use edsr::cl::{
    latest_valid_serve_snapshot, load_any_serve_snapshot, quantize_serve_snapshot, run_multitask,
    tabular_augmenters, AnyServeSnapshot, CheckpointConfig, ModelConfig, RunBuilder, TrainConfig,
};
use edsr::core::{method_by_name, seeded_run, tabular_method_by_name, EnvConfig, Error};
use edsr::data::{
    build_scenario, cifar100_sim, cifar10_sim, domainnet_sim, tabular_sequence, test_sim,
    tiny_imagenet_sim, write_scenario, Preset, ShardStream, TabularConfig, SCENARIO_NAMES,
    TABULAR_SPECS,
};
use edsr::serve::{
    serve, Client, Engine, RetryPolicy, RotateConfig, ServeError, ServerConfig, WireMetric,
};
use edsr::tensor::rng::seeded;

fn usage() -> ! {
    eprintln!(
        "usage:\n  edsr presets\n  edsr run <preset> <method> [--seed N] [--epochs N] [--memory N] [--threads N] [--save PATH] [--checkpoint DIR] [--resume] [--serve-snapshot DIR] [--quantize] [--obs MODE] [--obs-path PATH]\n  edsr tabular <method> [--seed N] [--epochs N] [--threads N]\n  edsr metrics [PATH]\n  edsr serve <SNAPSHOT-FILE-or-DIR> [--port N] [--cache N] [--serve-batch N] [--serve-window-us N]\n             [--serve-rotate-ms N] [--serve-deadline-ms N] [--serve-queue N]\n             [--serve-read-timeout-ms N] [--serve-stall-ms N] [--quantized] [--chaos-seed N]\n  edsr query <ADDR> embed --input F,F,... [--task N] [--retries N] [--retry-rejections]\n  edsr query <ADDR> knn --input F,F,... [--k N] [--metric euclidean|cosine] [--retries N]\n  edsr query <ADDR> stats | shutdown\n  edsr scenario list [--seed N]\n  edsr scenario write <name> <dir> [--seed N]\n  edsr scenario run <name> <method> [--seed N] [--epochs N] [--stream DIR] [--save PATH]\n\npresets: cifar10 | cifar100 | tiny-imagenet | domainnet | test\nmethods: finetune | si | der | lump | cassle | edsr | compemb | r2r | lin | multitask\nscenarios: class-incremental | blurry | domain-incremental | long-tail\n\n--threads (or EDSR_THREADS) sets the compute thread count; results are\nbit-identical at any value (DESIGN.md \u{a7}9). 1 = pure serial.\n--obs jsonl (or EDSR_OBS=jsonl) streams spans and metrics to --obs-path.\n--serve-snapshot (with `run`) exports a model+memory snapshot per task\nthat `edsr serve` loads read-only (DESIGN.md \u{a7}12)."
    );
    std::process::exit(2);
}

/// Finds `--flag value` or `--flag=value` (matching `EnvConfig`'s CLI
/// grammar, so neither form is silently ignored).
fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter().enumerate().find_map(|(i, a)| {
        if a == flag {
            args.get(i + 1).cloned()
        } else {
            a.strip_prefix(flag)
                .and_then(|rest| rest.strip_prefix('='))
                .map(str::to_owned)
        }
    })
}

/// Parses a numeric flag value, turning bad input into a structured
/// error naming the flag instead of a panic.
fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, Error> {
    value
        .parse()
        .map_err(|_| Error::Data(format!("{flag} expects a number, got {value:?}")))
}

fn preset_by_name(name: &str) -> Option<Preset> {
    match name {
        "cifar10" => Some(cifar10_sim()),
        "cifar100" => Some(cifar100_sim()),
        "tiny-imagenet" | "tiny" => Some(tiny_imagenet_sim()),
        "domainnet" => Some(domainnet_sim()),
        "test" => Some(test_sim()),
        _ => None,
    }
}

fn cmd_presets() {
    println!(
        "{:<15} {:>6} {:>8} {:>11} {:>8} {:>7}",
        "preset", "tasks", "classes", "train/task", "memory", "dim"
    );
    for (name, p) in [
        ("cifar10", cifar10_sim()),
        ("cifar100", cifar100_sim()),
        ("tiny-imagenet", tiny_imagenet_sim()),
        ("domainnet", domainnet_sim()),
        ("test", test_sim()),
    ] {
        println!(
            "{:<15} {:>6} {:>8} {:>11} {:>8} {:>7}",
            name,
            p.num_tasks(),
            p.classes_per_task,
            p.classes_per_task * p.train_per_class,
            p.memory_total,
            p.grid.dim()
        );
    }
}

fn cmd_run(args: &[String], env_cfg: &EnvConfig) -> Result<(), Error> {
    let (Some(preset_name), Some(method_name)) = (args.first(), args.get(1)) else {
        usage()
    };
    let Some(mut preset) = preset_by_name(preset_name) else {
        eprintln!("unknown preset {preset_name:?}");
        usage()
    };
    let seed: u64 = match parse_flag(args, "--seed") {
        Some(v) => parse_num(&v, "--seed")?,
        None => 11,
    };
    if let Some(m) = parse_flag(args, "--memory") {
        preset = preset.with_memory_total(parse_num(&m, "--memory")?);
    }
    let mut cfg = TrainConfig::image();
    if let Some(e) = parse_flag(args, "--epochs") {
        cfg.epochs_per_task = parse_num(&e, "--epochs")?;
    }
    let run_id = format!("{}-{}-s{}", preset.name, method_name, seed);
    let checkpoint = env_cfg
        .checkpoint
        .as_ref()
        .map(|dir| CheckpointConfig::new(dir.display().to_string(), run_id.clone()));
    let serve_snapshot =
        parse_flag(args, "--serve-snapshot").map(|dir| CheckpointConfig::new(dir, run_id.clone()));
    let quantize = args.iter().any(|a| a == "--quantize");
    if quantize && serve_snapshot.is_none() {
        return Err(Error::Data(
            "--quantize requires --serve-snapshot DIR (it selects the v2 export format)".into(),
        ));
    }

    let (mut sequence, augmenters) = preset.build_with_augmenters(&mut seeded(seed));
    let (mut model, mut run_rng) = seeded_run(&ModelConfig::image(preset.grid.dim()), seed);

    if method_name == "multitask" {
        let mt = run_multitask(&mut model, &mut sequence, &augmenters, &cfg, &mut run_rng)?;
        println!(
            "Multitask on {}: Acc {:.2}% ({:.1}s)",
            preset.name,
            mt.acc_pct(),
            mt.seconds
        );
    } else {
        let Some(mut method) = method_by_name(
            method_name,
            preset.per_task_budget(),
            cfg.replay_batch,
            preset.noise_neighbors,
        ) else {
            eprintln!("unknown method {method_name:?}");
            usage()
        };
        let mut builder = RunBuilder::new(&cfg);
        if let Some(ckpt) = checkpoint {
            builder = builder.checkpoint(ckpt);
        }
        if let Some(snap_cfg) = serve_snapshot {
            builder = builder.serve_snapshots(snap_cfg);
            if quantize {
                builder = builder.quantize_serve_snapshots();
            }
        }
        if env_cfg.resume {
            // Without --checkpoint this fails fast with InvalidConfig.
            builder = builder.resume();
        }
        let result = builder.run(
            method.as_mut(),
            &mut model,
            &mut sequence,
            &augmenters,
            &mut run_rng,
        )?;
        println!(
            "{} on {}: Acc {:.2}%  Fgt {:.2}%  ({:.1}s, {} divergence recoveries)",
            result.method,
            preset.name,
            result.final_acc_pct(),
            result.final_fgt_pct(),
            result.total_seconds(),
            result.recoveries
        );
        for i in 0..result.matrix.num_increments() {
            println!(
                "  after task {i:>2}: Acc_i {:5.1}%  Fgt_i {:4.1}%  (new-task {:5.1}%)",
                result.matrix.acc_at(i) * 100.0,
                result.matrix.fgt_at(i) * 100.0,
                result.matrix.get(i, i) * 100.0
            );
        }
    }
    if let Some(path) = parse_flag(args, "--save") {
        model.save(&path)?;
        println!("checkpoint written to {path}");
    }
    Ok(())
}

fn cmd_tabular(args: &[String]) -> Result<(), Error> {
    let Some(method_name) = args.first() else {
        usage()
    };
    let seed: u64 = match parse_flag(args, "--seed") {
        Some(v) => parse_num(&v, "--seed")?,
        None => 1,
    };
    let mut cfg = TrainConfig::tabular();
    if let Some(e) = parse_flag(args, "--epochs") {
        cfg.epochs_per_task = parse_num(&e, "--epochs")?;
    }
    let mut sequence = tabular_sequence(&TabularConfig::default(), &mut seeded(seed));
    let augmenters = tabular_augmenters(&mut sequence, 0.4)?;
    let input_dims: Vec<usize> = TABULAR_SPECS.iter().map(|s| s.input_dim).collect();
    let (mut model, mut run_rng) = seeded_run(&ModelConfig::tabular(input_dims), seed);

    if method_name == "multitask" {
        let mt = run_multitask(&mut model, &mut sequence, &augmenters, &cfg, &mut run_rng)?;
        println!(
            "Multitask on tabular-sim: Acc {:.2}% ({:.1}s)",
            mt.acc_pct(),
            mt.seconds
        );
        return Ok(());
    }
    let Some(mut method) = tabular_method_by_name(method_name, &sequence, cfg.replay_batch) else {
        eprintln!("unknown method {method_name:?}");
        usage()
    };
    let result = RunBuilder::new(&cfg).run(
        method.as_mut(),
        &mut model,
        &mut sequence,
        &augmenters,
        &mut run_rng,
    )?;
    println!(
        "{} on tabular-sim: Acc {:.2}%  Fgt {:.2}%  ({:.1}s)",
        result.method,
        result.final_acc_pct(),
        result.final_fgt_pct(),
        result.total_seconds()
    );
    Ok(())
}

/// `edsr metrics [PATH]` — parse a JSONL metrics file and print a
/// five-number summary per metric name (span enters excluded).
fn cmd_metrics(args: &[String], env_cfg: &EnvConfig) -> Result<(), Error> {
    let path = args
        .first()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| env_cfg.obs_path.clone());
    let text = std::fs::read_to_string(&path)?;
    let events = edsr::obs::parse_jsonl(&text)
        .map_err(|e| Error::Data(format!("{}: {e}", path.display())))?;
    let mut names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "{:<24} {:>8} {:>14} {:>14} {:>14}",
        "name", "count", "min", "mean", "max"
    );
    for name in names {
        if let Some(s) = edsr::obs::summarize(&events, name) {
            println!(
                "{:<24} {:>8} {:>14.4} {:>14.4} {:>14.4}",
                name, s.count, s.min, s.mean, s.max
            );
        }
    }
    println!("{} events in {}", events.len(), path.display());
    Ok(())
}

fn serve_err(e: ServeError) -> Error {
    Error::Data(e.to_string())
}

/// `edsr serve <SNAPSHOT>` — load a serve snapshot (a file, or the latest
/// valid one in a directory) and answer embed/kNN requests over TCP
/// until a wire shutdown arrives.
fn cmd_serve(args: &[String], env_cfg: &EnvConfig) -> Result<(), Error> {
    let Some(target) = args.first() else { usage() };
    let path = std::path::Path::new(target);
    let (snap_path, snapshot) = if path.is_dir() {
        // An unreadable candidate (not merely corrupt) aborts with the
        // offending file's path rather than being silently skipped.
        latest_valid_serve_snapshot(path)
            .map_err(|e| Error::Data(e.to_string()))?
            .ok_or_else(|| Error::Data(format!("no valid serve snapshot in {}", path.display())))?
    } else {
        (path.to_path_buf(), load_any_serve_snapshot(path)?)
    };
    // --quantized / EDSR_SERVE_QUANT: serve on the int8 backend. A v1
    // snapshot is quantized in-process; v2 snapshots are already int8.
    let snapshot = match snapshot {
        AnyServeSnapshot::V1(snap) if env_cfg.serve_quant => {
            AnyServeSnapshot::V2(Box::new(quantize_serve_snapshot(&snap)?))
        }
        other => other,
    };
    let port: u16 = match parse_flag(args, "--port") {
        Some(v) => parse_num(&v, "--port")?,
        None => 7878,
    };
    let cache: usize = match parse_flag(args, "--cache") {
        Some(v) => parse_num(&v, "--cache")?,
        None => 1024,
    };
    let mut cfg = ServerConfig::default();
    if let Some(n) = env_cfg.serve_batch {
        cfg.max_batch = n;
    }
    if let Some(us) = env_cfg.serve_window_us {
        cfg.window = std::time::Duration::from_micros(us);
    }
    if let Some(ms) = env_cfg.serve_deadline_ms {
        // 0 explicitly disables the deadline (the default).
        cfg.deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(n) = env_cfg.serve_queue {
        cfg.queue_cap = n;
    }
    if let Some(ms) = env_cfg.serve_read_timeout_ms {
        cfg.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = env_cfg.serve_stall_ms {
        cfg.stall_cap = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = parse_flag(args, "--chaos-seed") {
        cfg.fault_seed = Some(parse_num(&v, "--chaos-seed")?);
    }
    // Serving a directory enables live rotation: the watcher polls for
    // newer valid snapshots (e.g. from a concurrent `edsr run
    // --serve-snapshot`) and swaps them in between micro-batch flushes.
    if path.is_dir() {
        let poll_ms = env_cfg.serve_rotate_ms.unwrap_or(1000);
        cfg.rotate = Some(RotateConfig {
            dir: path.to_path_buf(),
            poll: std::time::Duration::from_millis(poll_ms),
            cache_capacity: cache,
            current: Some(snap_path.clone()),
            quantize: env_cfg.serve_quant,
        });
    }

    let engine = Engine::from_any(snapshot, cache)?;
    println!(
        "serving {} ({} tasks, repr_dim {}, {} memory rows, {} backend) from {}",
        engine.benchmark(),
        engine.completed_tasks(),
        engine.repr_dim(),
        engine.memory_rows(),
        if engine.quantized() { "int8" } else { "f32" },
        snap_path.display()
    );
    let (max_batch, window) = (cfg.max_batch, cfg.window);
    let handle = serve(engine, ("127.0.0.1", port), cfg).map_err(serve_err)?;
    println!(
        "listening on {} (batch {max_batch}, window {window:?}) — stop with: edsr query {} shutdown",
        handle.addr(),
        handle.addr()
    );
    let report = handle.join().map_err(serve_err)?;
    println!(
        "drained: {} requests, {} batches (max {}), cache {}/{} hit/miss, {} rotations, rejected {}/{} deadline/overload",
        report.requests,
        report.batches,
        report.max_batch,
        report.cache_hits,
        report.cache_misses,
        report.rotations,
        report.rejected_deadline,
        report.rejected_overload
    );
    Ok(())
}

/// Parses `--input 0.1,0.2,...` (commas and/or whitespace).
fn parse_input(args: &[String]) -> Result<Vec<f32>, Error> {
    let Some(raw) = parse_flag(args, "--input") else {
        return Err(Error::Data("--input F,F,... is required".into()));
    };
    raw.split([',', ' '])
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse::<f32>()
                .map_err(|_| Error::Data(format!("--input: bad float {s:?}")))
        })
        .collect()
}

/// `edsr query <ADDR> <op>` — one-shot client for a running server.
fn cmd_query(args: &[String], env_cfg: &EnvConfig) -> Result<(), Error> {
    let (Some(addr), Some(op)) = (args.first(), args.get(1)) else {
        usage()
    };
    let mut policy = RetryPolicy::none();
    if let Some(v) = parse_flag(args, "--retries") {
        policy = RetryPolicy::retries(parse_num(&v, "--retries")?);
    }
    if args.iter().any(|a| a == "--retry-rejections") {
        // Under chaos, a corrupted request frame surfaces as a server-side
        // rejection; idempotent ops may simply resend it.
        policy.retry_rejections = true;
    }
    let mut client = Client::connect_with(addr.as_str(), policy).map_err(serve_err)?;
    if env_cfg.serve_quant {
        // --quantized: the caller demands int8 answers — assert the
        // server's backend before sending the real request.
        let s = client.stats().map_err(serve_err)?;
        if s.quantized != 1 {
            return Err(Error::Data(format!(
                "--quantized: server at {addr} answers on the f32 backend, not int8 \
                 (restart it with `edsr serve --quantized` or a v2 snapshot)"
            )));
        }
    }
    match op.as_str() {
        "embed" => {
            let input = parse_input(args)?;
            let task: u32 = match parse_flag(args, "--task") {
                Some(v) => parse_num(&v, "--task")?,
                None => 0,
            };
            let emb = client.embed(task, &input).map_err(serve_err)?;
            let rendered: Vec<String> = emb.iter().map(|v| format!("{v:.6}")).collect();
            println!("[{}]", rendered.join(", "));
        }
        "knn" => {
            let query = parse_input(args)?;
            let k: u32 = match parse_flag(args, "--k") {
                Some(v) => parse_num(&v, "--k")?,
                None => 5,
            };
            let metric = match parse_flag(args, "--metric").as_deref() {
                None | Some("euclidean") => WireMetric::Euclidean,
                Some("cosine") => WireMetric::Cosine,
                Some(m) => {
                    return Err(Error::Data(format!(
                        "--metric: expected euclidean | cosine, got {m:?}"
                    )))
                }
            };
            let neighbors = client.knn(&query, k, metric).map_err(serve_err)?;
            for n in neighbors {
                println!("memory[{}]  score {:.6}", n.index, n.score);
            }
        }
        "stats" => {
            let s = client.stats().map_err(serve_err)?;
            println!(
                "requests {}  batches {}  batched {}  max_batch {}\ncache hits {}  misses {}  memory rows {}  repr_dim {}\nrotations {}  rejected deadline {}  rejected overload {}  quantized {}",
                s.requests,
                s.batches,
                s.batched_requests,
                s.max_batch,
                s.cache_hits,
                s.cache_misses,
                s.memory_rows,
                s.repr_dim,
                s.rotations,
                s.rejected_deadline,
                s.rejected_overload,
                s.quantized
            );
        }
        "shutdown" => {
            client.shutdown().map_err(serve_err)?;
            println!("server acknowledged shutdown");
        }
        _ => usage(),
    }
    Ok(())
}

/// `edsr scenario list | write <name> <dir> | run <name> <method> …`.
///
/// `write` materializes a scenario-zoo stream as an `EDSRDS01` shard
/// directory; `run` trains on a scenario either in RAM (default) or
/// out-of-core from a shard directory (`--stream DIR`). Both paths are
/// bit-identical by construction (DESIGN.md §16) — `--save` makes that
/// checkable with a plain `cmp` of the two checkpoints.
fn cmd_scenario(args: &[String]) -> Result<(), Error> {
    let seed: u64 = match parse_flag(args, "--seed") {
        Some(v) => parse_num(&v, "--seed")?,
        None => 11,
    };
    match args.first().map(String::as_str) {
        Some("list") => {
            for name in SCENARIO_NAMES {
                let data = build_scenario(name, seed).expect("listed scenario builds");
                println!(
                    "{:<20} {:>2} increments, dim {}",
                    name,
                    data.seq.len(),
                    data.seq.tasks[0].train.dim()
                );
            }
            Ok(())
        }
        Some("write") => {
            let (Some(name), Some(dir)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let n = write_scenario(name, seed, dir)?;
            println!("wrote {n} shards to {dir} (scenario {name}, seed {seed})");
            Ok(())
        }
        Some("run") => {
            let (Some(name), Some(method_name)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let data = build_scenario(name, seed)
                .ok_or_else(|| Error::Data(format!("unknown scenario {name:?}")))?;
            let mut cfg = TrainConfig::image();
            cfg.epochs_per_task = match parse_flag(args, "--epochs") {
                Some(e) => parse_num(&e, "--epochs")?,
                None => 8,
            };
            let Some(mut method) = method_by_name(
                method_name,
                data.preset.per_task_budget(),
                cfg.replay_batch,
                data.preset.noise_neighbors,
            ) else {
                eprintln!("unknown method {method_name:?}");
                usage()
            };
            let (mut model, mut run_rng) =
                seeded_run(&ModelConfig::image(data.preset.grid.dim()), seed);
            // The augmenters come from the in-RAM generator either way:
            // they are part of the scenario definition (deterministic in
            // the seed), not of the storage backend.
            let result = match parse_flag(args, "--stream") {
                Some(dir) => {
                    let mut stream = ShardStream::open(&dir).map_err(edsr::cl::TrainError::from)?;
                    let r = RunBuilder::new(&cfg).run(
                        method.as_mut(),
                        &mut model,
                        &mut stream,
                        &data.augmenters,
                        &mut run_rng,
                    )?;
                    println!(
                        "streamed from {dir}: resident peak {}, {} prefetch hits, {} sync loads",
                        stream.resident_peak(),
                        stream.prefetch_hits(),
                        stream.sync_loads()
                    );
                    r
                }
                None => RunBuilder::new(&cfg).run(
                    method.as_mut(),
                    &mut model,
                    &mut &data.seq,
                    &data.augmenters,
                    &mut run_rng,
                )?,
            };
            println!(
                "{} on {}: Acc {:.2}%  Fgt {:.2}%  ({:.1}s)",
                result.method,
                name,
                result.final_acc_pct(),
                result.final_fgt_pct(),
                result.total_seconds(),
            );
            if let Some(path) = parse_flag(args, "--save") {
                model.save(&path)?;
                println!("checkpoint written to {path}");
            }
            Ok(())
        }
        _ => usage(),
    }
}

fn main() {
    // One reader for every knob: CLI > env > default (DESIGN.md §11).
    let env_cfg = match EnvConfig::from_process() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = env_cfg.apply() {
        eprintln!("error: could not install metrics sink: {e}");
        std::process::exit(1);
    }
    let args = &env_cfg.rest;
    let result = match args.first().map(String::as_str) {
        Some("presets") => {
            cmd_presets();
            Ok(())
        }
        Some("run") => cmd_run(&args[1..], &env_cfg),
        Some("tabular") => cmd_tabular(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..], &env_cfg),
        Some("serve") => cmd_serve(&args[1..], &env_cfg),
        Some("query") => cmd_query(&args[1..], &env_cfg),
        Some("scenario") => cmd_scenario(&args[1..]),
        _ => usage(),
    };
    // Pool occupancy is cumulative over the whole run; emit it last so
    // the JSONL tail carries the final busy-time split, then flush.
    edsr::par::emit_pool_metrics();
    edsr::obs::flush();
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
