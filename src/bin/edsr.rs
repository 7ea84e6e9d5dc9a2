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
//!          --obs MODE       observability sink: off | jsonl
//!          --obs-path PATH  metrics file for --obs jsonl (metrics.jsonl)
//!
//! serve:   <SNAPSHOT> is a `.snapshot` file (v1 or v2) or a directory
//!          (the latest valid snapshot in it is served)
//!          --port N            TCP port (default 7878; 0 = ephemeral)
//!          --cache N           embedding-cache capacity (default 1024)
//!          --serve-batch N     micro-batch flush size
//!          --serve-window-us N micro-batch coalescing window
//!          --quantized         serve on the int8 backend (quantizes v1
//!                              snapshots in-process)
//!
//! query:   edsr query ADDR embed --input 0.1,0.2,...  [--task N]
//!          edsr query ADDR knn   --input ...  [--k N] [--metric M]
//!          edsr query ADDR stats
//!          edsr query ADDR shutdown
//!          --quantized   assert the server answers on the int8 backend
//!                        (one stats round-trip) before sending the op
//! ```
//!
//! Each subcommand declares the flags it reads and the most positionals
//! it takes ([`grammar`]); any other flag, a valued flag without its
//! value, a switch given `=value` or a stray positional prints
//! `error: edsr <subcommand>: …` and exits 2 before any data is built or
//! file written. Every subcommand also takes `--threads`,
//! `--obs` and `--obs-path`, which fall back to `EDSR_THREADS` /
//! `EDSR_OBS` / `EDSR_OBS_PATH` ([`EnvConfig`]). `presets` and `metrics`
//! install no metrics sink, so `metrics` never truncates what it reads.
//!
//! Every other failure (a bad flag value, divergence after retries,
//! checkpoint corruption) surfaces as a structured error with exit 1, not
//! a panic.

use std::fmt::Display;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

use edsr::cl::{
    latest_valid_serve_snapshot, load_any_serve_snapshot, quantize_serve_snapshot, run_multitask,
    tabular_augmenters, AnyServeSnapshot, CheckpointConfig, ModelConfig, RunBuilder, TrainConfig,
};
use edsr::core::{
    method_by_name, seeded_run, tabular_method_by_name, Args, EnvConfig, Error, Grammar,
};
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
        "usage:\n  edsr presets\n  edsr run <preset> <method> [--seed N] [--epochs N] [--memory N] [--threads N] [--save PATH] [--checkpoint DIR] [--resume] [--serve-snapshot DIR] [--quantize] [--obs off|jsonl] [--obs-path PATH]\n  edsr tabular <method> [--seed N] [--epochs N] [--threads N]\n  edsr metrics [PATH]\n  edsr serve <SNAPSHOT-FILE-or-DIR> [--port N] [--cache N] [--serve-batch N] [--serve-window-us N]\n             [--serve-rotate-ms N] [--serve-deadline-ms N] [--serve-queue N]\n             [--serve-stall-ms N] [--quantized] [--chaos-seed N]\n  edsr query <ADDR> embed --input F,F,... [--task N] [--retries N] [--retry-rejections]\n  edsr query <ADDR> knn --input F,F,... [--k N] [--metric euclidean|cosine] [--retries N]\n  edsr query <ADDR> stats | shutdown\n  edsr scenario list [--seed N]\n  edsr scenario write <name> <dir> [--seed N]\n  edsr scenario run <name> <method> [--seed N] [--epochs N] [--stream DIR] [--save PATH]\n\npresets: cifar10 | cifar100 | tiny-imagenet | domainnet | test\nmethods: finetune | si | der | lump | cassle | edsr | compemb | r2r | lin | multitask\nscenarios: class-incremental | blurry | domain-incremental | long-tail\n\n--threads (or EDSR_THREADS) sets the compute thread count; results are\nbit-identical at any value (DESIGN.md \u{a7}9). 1 = pure serial.\n--obs jsonl (or EDSR_OBS=jsonl) streams spans and metrics to --obs-path.\n--serve-snapshot (with `run`) exports a model+memory snapshot per task\nthat `edsr serve` loads read-only (DESIGN.md \u{a7}12)."
    );
    std::process::exit(2);
}

/// The grammar of `edsr <cmd>`: the flags it reads and the most
/// positionals it takes. `scenario` has one grammar per first argument
/// `sub`, which counts as a positional. `None` for an unknown subcommand.
/// One subcommand per line.
#[rustfmt::skip]
fn grammar(cmd: &str, sub: Option<&str>) -> Option<Grammar<'static>> {
    let (name, values, switches, max_positionals): (_, &[_], &[_], _) = match (cmd, sub) {
        ("presets", _) => ("edsr presets", &[], &[], 0),
        ("run", _) => ("edsr run",
            &["--seed", "--epochs", "--memory", "--save", "--checkpoint", "--serve-snapshot"],
            &["--resume", "--quantize"], 2),
        ("tabular", _) => ("edsr tabular", &["--seed", "--epochs"], &[], 1),
        ("metrics", _) => ("edsr metrics", &[], &[], 1),
        ("serve", _) => ("edsr serve",
            &["--port", "--cache", "--serve-batch", "--serve-window-us", "--serve-rotate-ms",
              "--serve-deadline-ms", "--serve-queue", "--serve-stall-ms", "--chaos-seed"],
            &["--quantized"], 1),
        ("query", _) => ("edsr query",
            &["--input", "--task", "--k", "--metric", "--retries"],
            &["--retry-rejections", "--quantized"], 2),
        ("scenario", Some("list")) => ("edsr scenario list", &["--seed"], &[], 1),
        ("scenario", Some("write")) => ("edsr scenario write", &["--seed"], &[], 3),
        ("scenario", Some("run")) => ("edsr scenario run",
            &["--seed", "--epochs", "--stream", "--save"], &[], 3),
        _ => return None,
    };
    Some(Grammar { name, values, switches, max_positionals })
}

/// The value of `flag` as a `T`, `None` when the flag is absent. A value
/// that does not parse is a structured error naming the flag; a count
/// that must be at least 1 is read as a `NonZero` type.
fn num<T: FromStr<Err: Display>>(args: &Args, flag: &str) -> Result<Option<T>, Error> {
    let parse = |v: &str| {
        v.trim()
            .parse()
            .map_err(|e| Error::Data(format!("{flag}: {e}, got {v:?}")))
    };
    args.value(flag).map(parse).transpose()
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

fn cmd_run(args: &Args) -> Result<(), Error> {
    let [preset_name, method_name, ..] = args.positionals.as_slice() else {
        usage()
    };
    let Some(mut preset) = preset_by_name(preset_name) else {
        eprintln!("unknown preset {preset_name:?}");
        usage()
    };
    let seed: u64 = num(args, "--seed")?.unwrap_or(11);
    if let Some(m) = num(args, "--memory")? {
        preset = preset.with_memory_total(m);
    }
    let mut cfg = TrainConfig::image();
    if let Some(e) = num(args, "--epochs")? {
        cfg.epochs_per_task = e;
    }
    let run_id = format!("{}-{}-s{}", preset.name, method_name, seed);
    let checkpoint = args
        .value("--checkpoint")
        .map(|dir| CheckpointConfig::new(dir, run_id.clone()));
    let serve_snapshot = args
        .value("--serve-snapshot")
        .map(|dir| CheckpointConfig::new(dir, run_id.clone()));
    let quantize = args.switch("--quantize");
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
        if args.switch("--resume") {
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
    if let Some(path) = args.value("--save") {
        model.save(path)?;
        println!("checkpoint written to {path}");
    }
    Ok(())
}

fn cmd_tabular(args: &Args) -> Result<(), Error> {
    let Some(method_name) = args.positionals.first() else {
        usage()
    };
    let seed: u64 = num(args, "--seed")?.unwrap_or(1);
    let mut cfg = TrainConfig::tabular();
    if let Some(e) = num(args, "--epochs")? {
        cfg.epochs_per_task = e;
    }
    let mut sequence = tabular_sequence(&TabularConfig::default(), &mut seeded(seed));
    let augmenters = tabular_augmenters(&mut sequence)?;
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

/// `edsr metrics [PATH]` — parse a JSONL metrics file (by default the
/// metrics path, `default`) and print a five-number summary per metric
/// name (span enters excluded).
fn cmd_metrics(args: &Args, default: &Path) -> Result<(), Error> {
    let path = args.positionals.first().map_or(default, Path::new);
    let text = std::fs::read_to_string(path)?;
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

/// `edsr serve`'s tuning flags over [`ServerConfig::default`], and the
/// rotation poll interval for a served directory (default 1 s).
fn server_config(args: &Args) -> Result<(ServerConfig, Duration), Error> {
    let mut cfg = ServerConfig::default();
    if let Some(n) = num::<NonZeroUsize>(args, "--serve-batch")? {
        cfg.max_batch = n.get();
    }
    if let Some(us) = num(args, "--serve-window-us")? {
        cfg.window = Duration::from_micros(us);
    }
    if let Some(ms) = num(args, "--serve-deadline-ms")? {
        // 0 explicitly disables the deadline (the default).
        cfg.deadline = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(n) = num::<NonZeroUsize>(args, "--serve-queue")? {
        cfg.queue_cap = n.get();
    }
    if let Some(ms) = num::<NonZeroU64>(args, "--serve-stall-ms")? {
        cfg.stall_cap = Duration::from_millis(ms.get());
    }
    cfg.fault_seed = num(args, "--chaos-seed")?;
    let poll = num(args, "--serve-rotate-ms")?.map_or(1000, NonZeroU64::get);
    Ok((cfg, Duration::from_millis(poll)))
}

/// `edsr serve <SNAPSHOT>` — load a serve snapshot (a file, or the latest
/// valid one in a directory) and answer embed/kNN requests over TCP
/// until a wire shutdown arrives.
fn cmd_serve(args: &Args) -> Result<(), Error> {
    let Some(target) = args.positionals.first() else {
        usage()
    };
    let port: u16 = num(args, "--port")?.unwrap_or(7878);
    let cache: usize = num(args, "--cache")?.unwrap_or(1024);
    let quantized = args.switch("--quantized");
    let (mut cfg, poll) = server_config(args)?;
    let path = Path::new(target);
    let (snap_path, snapshot) = if path.is_dir() {
        // An unreadable candidate (not merely corrupt) aborts with the
        // offending file's path rather than being silently skipped.
        latest_valid_serve_snapshot(path)
            .map_err(|e| Error::Data(e.to_string()))?
            .ok_or_else(|| Error::Data(format!("no valid serve snapshot in {}", path.display())))?
    } else {
        (path.to_path_buf(), load_any_serve_snapshot(path)?)
    };
    // --quantized: serve on the int8 backend. A v1 snapshot is quantized
    // in-process; v2 snapshots are already int8.
    let snapshot = match snapshot {
        AnyServeSnapshot::V1(snap) if quantized => {
            AnyServeSnapshot::V2(Box::new(quantize_serve_snapshot(&snap)?))
        }
        other => other,
    };
    // Serving a directory enables live rotation: the watcher polls for
    // newer valid snapshots (e.g. from a concurrent `edsr run
    // --serve-snapshot`) and swaps them in between micro-batch flushes.
    if path.is_dir() {
        cfg.rotate = Some(RotateConfig {
            dir: path.to_path_buf(),
            poll,
            cache_capacity: cache,
            current: Some(snap_path.clone()),
            quantize: quantized,
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
fn parse_input(args: &Args) -> Result<Vec<f32>, Error> {
    let Some(raw) = args.value("--input") else {
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
fn cmd_query(args: &Args) -> Result<(), Error> {
    let [addr, op, ..] = args.positionals.as_slice() else {
        usage()
    };
    let mut policy = RetryPolicy::none();
    if let Some(n) = num(args, "--retries")? {
        policy = RetryPolicy::retries(n);
    }
    if args.switch("--retry-rejections") {
        // Under chaos, a corrupted request frame surfaces as a server-side
        // rejection; idempotent ops may simply resend it.
        policy.retry_rejections = true;
    }
    let mut client = Client::connect_with(addr.as_str(), policy).map_err(serve_err)?;
    if args.switch("--quantized") {
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
            let task: u32 = num(args, "--task")?.unwrap_or(0);
            let emb = client.embed(task, &input).map_err(serve_err)?;
            let rendered: Vec<String> = emb.iter().map(|v| format!("{v:.6}")).collect();
            println!("[{}]", rendered.join(", "));
        }
        "knn" => {
            let query = parse_input(args)?;
            let k: u32 = num(args, "--k")?.unwrap_or(5);
            let metric = match args.value("--metric") {
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
fn cmd_scenario(args: &Args) -> Result<(), Error> {
    let seed: u64 = num(args, "--seed")?.unwrap_or(11);
    let positionals: Vec<&str> = args.positionals.iter().map(String::as_str).collect();
    match positionals[..] {
        ["list", ..] => {
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
        ["write", name, dir, ..] => {
            let n = write_scenario(name, seed, dir)?;
            println!("wrote {n} shards to {dir} (scenario {name}, seed {seed})");
            Ok(())
        }
        ["run", name, method_name, ..] => {
            let data = build_scenario(name, seed)
                .ok_or_else(|| Error::Data(format!("unknown scenario {name:?}")))?;
            let mut cfg = TrainConfig::image();
            cfg.epochs_per_task = num(args, "--epochs")?.unwrap_or(8);
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
            let result = match args.value("--stream") {
                Some(dir) => {
                    let mut stream = ShardStream::open(dir).map_err(edsr::cl::TrainError::from)?;
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
            if let Some(path) = args.value("--save") {
                model.save(path)?;
                println!("checkpoint written to {path}");
            }
            Ok(())
        }
        _ => usage(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map_or("", String::as_str);
    let Some(grammar) = grammar(cmd, argv.get(1).map(String::as_str)) else {
        usage()
    };
    // The subcommand's flags and the process knobs, CLI > env > default
    // (DESIGN.md §11), all read before anything runs.
    let env_cfg = EnvConfig::resolve(|k| std::env::var(k).ok(), &grammar, &argv[1..])
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    // `presets` and `metrics` only read: a metrics sink would truncate
    // the very file `metrics` summarizes.
    if !matches!(cmd, "presets" | "metrics") {
        if let Err(e) = env_cfg.apply() {
            eprintln!("error: could not install metrics sink: {e}");
            std::process::exit(1);
        }
    }
    let args = &env_cfg.rest;
    let result = match cmd {
        "presets" => {
            cmd_presets();
            Ok(())
        }
        "run" => cmd_run(args),
        "tabular" => cmd_tabular(args),
        "metrics" => cmd_metrics(args, &env_cfg.obs_path),
        "serve" => cmd_serve(args),
        "query" => cmd_query(args),
        _ => cmd_scenario(args),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `edsr serve`'s arguments as `main` reads them.
    fn serve_args(list: &[&str]) -> Args {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        grammar("serve", None).unwrap().parse(&args).unwrap()
    }

    #[test]
    fn serve_flags_default_to_the_server_defaults() {
        let (cfg, poll) = server_config(&serve_args(&["snaps"])).unwrap();
        let default = ServerConfig::default();
        assert_eq!(cfg.max_batch, default.max_batch);
        assert_eq!(cfg.window, default.window);
        assert_eq!(cfg.deadline, None);
        assert_eq!(cfg.queue_cap, default.queue_cap);
        assert_eq!(cfg.stall_cap, default.stall_cap);
        assert_eq!(cfg.fault_seed, None);
        assert_eq!(poll, Duration::from_secs(1));
    }

    #[test]
    fn serve_flags_set_the_server_config() {
        let (cfg, poll) = server_config(&serve_args(&[
            "--serve-batch",
            "4",
            "--serve-window-us=1000",
            "--serve-deadline-ms",
            "40",
            "--serve-queue=8",
            "--serve-stall-ms",
            "300",
            "--serve-rotate-ms",
            "50",
            "--chaos-seed",
            "5",
        ]))
        .unwrap();
        assert_eq!(cfg.max_batch, 4);
        assert_eq!(cfg.window, Duration::from_micros(1000));
        assert_eq!(cfg.deadline, Some(Duration::from_millis(40)));
        assert_eq!(cfg.queue_cap, 8);
        assert_eq!(cfg.stall_cap, Duration::from_millis(300));
        assert_eq!(cfg.fault_seed, Some(5));
        assert_eq!(poll, Duration::from_millis(50));
        // A zero window is valid: flush as soon as a request lands.
        let (cfg, _) = server_config(&serve_args(&["--serve-window-us", "0"])).unwrap();
        assert_eq!(cfg.window, Duration::ZERO);
        // A zero deadline explicitly disables it.
        let (cfg, _) = server_config(&serve_args(&["--serve-deadline-ms", "0"])).unwrap();
        assert_eq!(cfg.deadline, None);
    }

    #[test]
    fn bad_serve_flag_values_are_errors_naming_the_flag() {
        for (flag, value) in [
            // A zero batch or queue could never admit a request, and a
            // zero rotation poll or stall cap would spin.
            ("--serve-batch", "0"),
            ("--serve-queue", "0"),
            ("--serve-rotate-ms", "0"),
            ("--serve-stall-ms", "0"),
            ("--serve-batch", "lots"),
            ("--serve-window-us", "-5"),
            ("--serve-deadline-ms", "soon"),
            ("--serve-stall-ms", "1.5"),
            ("--chaos-seed", "x"),
        ] {
            let err = server_config(&serve_args(&[flag, value]))
                .map(|_| ())
                .unwrap_err()
                .to_string();
            assert!(err.contains(flag), "{flag} {value}: {err}");
        }
    }
}
