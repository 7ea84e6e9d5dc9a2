//! The continual-run workloads: a full EDSR stream through
//! `RunBuilder::run`, timed from outside, and (traced) re-run through the
//! timing wrappers.
//!
//! Each unit of work builds its data and model from the seed (data seed
//! `seed`, model seed `seed + 1000`, run seed `seed + 2000`, as in every
//! bench binary) and runs the whole stream, so every unit of one process
//! must produce the same accuracy matrix bit for bit.

use std::time::{Duration, Instant};

use edsr_cl::{ContinualModel, ModelConfig, RunBuilder, RunResult, TrainConfig};
use edsr_core::Edsr;
use edsr_data::{Augmenter, Preset, TaskSequence};
use edsr_tensor::rng::seeded;

use crate::report::{self, Outcome};
use crate::stats::Samples;
use crate::trace::{Layer, Span, TimedMethod, TimedSource};

/// Set-ups timed after the first unit (on top of one per unit) until
/// there are this many or [`SETUP_BUDGET`] is spent, so the reported
/// median rests on several even when only two units fit.
const MIN_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// What a training workload runs.
pub struct Spec {
    preset: Preset,
    cfg: TrainConfig,
}

/// The named training workload, if `name` is one.
pub fn spec(name: &str) -> Option<Spec> {
    match name {
        // The paper's headline configuration: 20 increments x 60 epochs,
        // batch 64 (3,600 steps). Train-step bound.
        "train" => Some(Spec {
            preset: edsr_data::cifar100_sim(),
            cfg: TrainConfig::image(),
        }),
        // DomainNet geometry (15 x 8 classes, 300-dim), 200 train / 50
        // test rows per class, the paper's 960-row memory, one epoch:
        // selection and the O(T^2) evaluation matrix dominate.
        "boundary" => {
            let mut preset = edsr_data::domainnet_sim().with_memory_total(960);
            preset.train_per_class = 200;
            preset.test_per_class = 50;
            let cfg = TrainConfig {
                epochs_per_task: 1,
                ..TrainConfig::image()
            };
            Some(Spec { preset, cfg })
        }
        _ => None,
    }
}

struct Prepared {
    seq: TaskSequence,
    augs: Vec<Augmenter>,
    model: ContinualModel,
    method: Edsr,
}

/// Builds the data, model and method for one unit; returns them with the
/// data-build and total set-up seconds.
fn prepare(spec: &Spec, seed: u64) -> (Prepared, f64, f64) {
    let t0 = Instant::now();
    let (seq, augs) = spec.preset.build_with_augmenters(&mut seeded(seed));
    let build_s = t0.elapsed().as_secs_f64();
    let model = ContinualModel::new(
        &ModelConfig::image(spec.preset.grid.dim()),
        &mut seeded(seed + 1000),
    );
    let method = Edsr::paper_default(
        spec.preset.per_task_budget(),
        spec.cfg.replay_batch,
        spec.preset.noise_neighbors,
    );
    let prepared = Prepared {
        seq,
        augs,
        model,
        method,
    };
    (prepared, build_s, t0.elapsed().as_secs_f64())
}

/// One continual run.
struct Unit {
    run_s: f64,
    result: Result<RunResult, String>,
    memory_rows: usize,
    /// Spans of a traced run, with the run's end in ns from its origin.
    trace: Option<(Vec<Span>, u64)>,
}

fn run_unit(spec: &Spec, mut p: Prepared, seed: u64, traced: bool) -> Unit {
    let mut rng = seeded(seed + 2000);
    let builder = RunBuilder::new(&spec.cfg);
    let (run_s, result, trace) = if traced {
        let steps_hint = p.seq.tasks.len() * (spec.cfg.epochs_per_task + 1) * 64;
        let origin = Instant::now();
        let mut method = TimedMethod::new(&mut p.method, origin, 2 * steps_hint);
        let mut source = TimedSource::new(&mut p.seq, origin, 1024);
        let t0 = Instant::now();
        let result = builder.run(&mut method, &mut p.model, &mut source, &p.augs, &mut rng);
        let run_s = t0.elapsed().as_secs_f64();
        let end_ns = origin.elapsed().as_nanos() as u64;
        let mut spans = method.into_spans();
        spans.extend(source.into_spans());
        spans.sort_by_key(|s| s.start_ns);
        (run_s, result, Some((spans, end_ns)))
    } else {
        let t0 = Instant::now();
        let result = builder.run(&mut p.method, &mut p.model, &mut p.seq, &p.augs, &mut rng);
        (t0.elapsed().as_secs_f64(), result, None)
    };
    Unit {
        run_s,
        result: result.map_err(|e| e.to_string()),
        memory_rows: p.method.memory_len(),
        trace,
    }
}

/// Why a finished run is wrong, if it is.
fn check(spec: &Spec, unit: &Unit, reference: Option<&RunResult>) -> Result<(), String> {
    let run = unit
        .result
        .as_ref()
        .map_err(|e| format!("run failed: {e}"))?;
    let tasks = spec.preset.num_tasks();
    if run.matrix.num_increments() != tasks {
        return Err(format!(
            "{} matrix rows for {tasks} increments",
            run.matrix.num_increments()
        ));
    }
    if run
        .matrix
        .rows()
        .iter()
        .flatten()
        .any(|a| !(0.0..=1.0).contains(a))
    {
        return Err("accuracy cell outside [0, 1]".into());
    }
    let chance = 100.0 / spec.preset.classes_per_task as f32;
    if run.final_acc_pct() <= chance {
        return Err(format!(
            "final Acc {:.2}% is not above chance ({chance:.1}%)",
            run.final_acc_pct()
        ));
    }
    let budget = spec.preset.per_task_budget() * tasks;
    if unit.memory_rows != budget {
        return Err(format!(
            "replay memory holds {} rows, budget {budget}",
            unit.memory_rows
        ));
    }
    if let Some(first) = reference {
        // Same seed, same program: the matrix must repeat bit for bit
        // (the wrappers consume no RNG, so this covers traced runs too).
        let bits = |r: &RunResult| -> Vec<u32> {
            r.matrix
                .rows()
                .iter()
                .flatten()
                .map(|a| a.to_bits())
                .collect()
        };
        if bits(run) != bits(first) {
            return Err(format!(
                "accuracy matrix differs from the first run (Acc {} vs {}, Fgt {} vs {})",
                run.final_acc_pct(),
                first.final_acc_pct(),
                run.final_fgt_pct(),
                first.final_fgt_pct()
            ));
        }
    }
    Ok(())
}

/// Runs a training workload for about `seconds`: untraced units only, or
/// (with a `trace_path`) untraced and traced units alternating, at least
/// one of each, with the first traced unit's spans written to the path.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace_path: Option<&str>,
) -> Result<Outcome, String> {
    let traced = trace_path.is_some();
    let mut setup = Samples::default();
    let mut build = Samples::default();
    let mut peak_rss_mb = None;
    let budget = seconds as f64;
    let start = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    loop {
        let (prepared, build_s, setup_s) = prepare(spec, seed);
        build.push(build_s);
        setup.push(setup_s);
        let traced_unit = traced && units.len() % 2 == 1;
        units.push(run_unit(spec, prepared, seed, traced_unit));
        if peak_rss_mb.is_none() {
            // The first unit's peak: later set-ups and units only add
            // allocator fragmentation, and how many fit depends on the host.
            peak_rss_mb = Some(report::peak_rss_mb()?);
            let extra = Instant::now();
            while setup.len() < MIN_SETUPS && extra.elapsed() < SETUP_BUDGET {
                let (_, build_s, setup_s) = prepare(spec, seed);
                build.push(build_s);
                setup.push(setup_s);
            }
        }
        // Start another unit only if it is expected to end in budget.
        let elapsed = start.elapsed().as_secs_f64();
        let per_unit = elapsed / units.len() as f64;
        let need_traced = traced && units.len() < 2;
        if !need_traced && elapsed + per_unit > budget {
            break;
        }
    }

    let mut out = Outcome::default();
    let reference = units.iter().find_map(|u| u.result.as_ref().ok()).cloned();
    for (i, unit) in units.iter().enumerate() {
        out.attempted += 1;
        let kind = if unit.trace.is_some() {
            "traced"
        } else {
            "untraced"
        };
        match check(spec, unit, reference.as_ref()) {
            Ok(()) => {
                let r = unit.result.as_ref().expect("checked");
                println!(
                    "unit {i} ({kind}): run_s {:.3}  Acc {:.4}%  Fgt {:.4}%  memory {} rows",
                    unit.run_s,
                    r.final_acc_pct(),
                    r.final_fgt_pct(),
                    unit.memory_rows
                );
            }
            Err(why) => {
                out.failed += 1;
                println!("unit {i} ({kind}): FAILED: {why}");
            }
        }
    }
    let untraced_s = median_of(&units, false);
    out.set("setup_s", setup.median());
    out.set("run_s", untraced_s);
    out.set(
        "peak_rss_mb",
        peak_rss_mb.expect("set after the first unit"),
    );
    println!(
        "setup_s median {:.4} over {} set-ups (data build {:.4})",
        setup.median(),
        setup.len(),
        build.median()
    );
    if let Some(path) = trace_path {
        layer_metrics(spec, &units, untraced_s, &mut out);
        out.set("data.build.s", build.median());
        if let Some((spans, _)) = units.iter().find_map(|u| u.trace.as_ref()) {
            write_spans(path, spans)?;
        }
    }
    Ok(out)
}

/// One JSON line per span, in start order.
fn write_spans(path: &str, spans: &[Span]) -> Result<(), String> {
    use std::io::Write as _;
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            w,
            "{{\"span\": \"{}\", \"task\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.layer.name(),
            s.task,
            s.start_ns,
            s.end_ns
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn median_of(units: &[Unit], traced: bool) -> f64 {
    let mut s = Samples::default();
    for u in units.iter().filter(|u| u.trace.is_some() == traced) {
        s.push(u.run_s);
    }
    s.median()
}

/// Per-layer numbers from the first traced unit's spans.
fn layer_metrics(spec: &Spec, units: &[Unit], untraced_s: f64, out: &mut Outcome) {
    let Some(unit) = units.iter().find(|u| u.trace.is_some()) else {
        return;
    };
    let (spans, end_ns) = unit.trace.as_ref().expect("found traced");
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
    let total = |layer: Layer| of(layer).map(Span::secs).sum::<f64>();

    let mut step_us = Samples::with_capacity(of(Layer::TrainStep).count());
    for s in of(Layer::TrainStep) {
        step_us.push(s.secs() * 1e6);
    }
    let (step_s, optim_s) = (total(Layer::TrainStep), total(Layer::OptimStep));
    let (p50, p99) = (step_us.pct(50.0), step_us.pct(99.0));
    println!("cl.train_step: {}  {}", p50, p99);
    out.set("cl.train_step.s", step_s);
    out.set("cl.train_step.count", step_us.len() as f64);
    out.set("cl.train_step.p50_us", p50.or_zero());
    out.set("cl.train_step.p99_us", p99.or_zero());
    out.set("cl.train_step.self_s", step_s - optim_s);
    out.set("nn.optim.s", optim_s);
    out.set("nn.optim.count", of(Layer::OptimStep).count() as f64);
    out.set("core.begin_task.s", total(Layer::BeginTask));
    out.set("core.end_task.s", total(Layer::EndTask));
    out.set("core.end_task.count", of(Layer::EndTask).count() as f64);
    let budget = spec.preset.per_task_budget() * spec.preset.num_tasks();
    out.set("core.memory.fill", unit.memory_rows as f64 / budget as f64);
    out.set("core.memory.budget", budget as f64);
    let eval_s = eval_seconds(spans, *end_ns);
    out.set("cl.eval.s", eval_s);
    let fetch_s = total(Layer::Fetch);
    out.set("data.fetch.s", fetch_s);
    out.set("data.fetch.count", of(Layer::Fetch).count() as f64);
    if let Ok(r) = &unit.result {
        out.set("cl.acc_pct", f64::from(r.final_acc_pct()));
        out.set("cl.fgt_pct", f64::from(r.final_fgt_pct()));
    }
    // Top-level spans only: optimizer steps sit inside train steps.
    let covered = step_s + total(Layer::BeginTask) + total(Layer::EndTask) + eval_s + fetch_s;
    let traced_s = median_of(units, true);
    out.set("trace.run_s", traced_s);
    out.set("trace.coverage", covered / unit.run_s);
    out.set("trace.overhead", traced_s / untraced_s - 1.0);
    println!(
        "traced run_s {:.3}: train_step {:.1}%  eval {:.1}%  end_task {:.1}%  coverage {:.4}",
        unit.run_s,
        100.0 * step_s / unit.run_s,
        100.0 * eval_s / unit.run_s,
        100.0 * total(Layer::EndTask) / unit.run_s,
        covered / unit.run_s
    );
}

/// Evaluation time: from each `end_task` return to the next `begin_task`
/// (or the run's end), minus the fetches inside that interval.
fn eval_seconds(spans: &[Span], end_ns: u64) -> f64 {
    let mut total = 0.0;
    for (i, done) in spans.iter().enumerate() {
        if done.layer != Layer::EndTask {
            continue;
        }
        let until = spans[i + 1..]
            .iter()
            .find(|s| s.layer == Layer::BeginTask)
            .map_or(end_ns, |s| s.start_ns);
        let fetch: f64 = spans[i + 1..]
            .iter()
            .filter(|s| s.layer == Layer::Fetch && s.start_ns >= done.end_ns && s.end_ns <= until)
            .map(Span::secs)
            .sum();
        total += (until - done.end_ns) as f64 * 1e-9 - fetch;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrapped run must give the same result as an unwrapped one: the
    /// wrappers forward every trait method and consume no RNG.
    #[test]
    fn wrapped_run_matches_unwrapped_run() {
        let spec = Spec {
            preset: edsr_data::test_sim(),
            cfg: TrainConfig {
                epochs_per_task: 2,
                ..TrainConfig::image()
            },
        };
        let seed = 7;
        let plain = run_unit(&spec, prepare(&spec, seed).0, seed, false);
        let wrapped = run_unit(&spec, prepare(&spec, seed).0, seed, true);
        let (a, b) = (
            plain.result.expect("plain"),
            wrapped.result.expect("wrapped"),
        );
        assert_eq!(a.matrix.rows(), b.matrix.rows());
        assert_eq!(a.method, b.method);
        assert_eq!(a.task_losses, b.task_losses);
        assert_eq!(plain.memory_rows, wrapped.memory_rows);

        let (spans, end_ns) = wrapped.trace.expect("traced");
        let count = |l: Layer| spans.iter().filter(|s| s.layer == l).count();
        let tasks = spec.preset.num_tasks();
        assert_eq!(count(Layer::BeginTask), tasks);
        assert_eq!(count(Layer::EndTask), tasks);
        assert_eq!(count(Layer::TrainStep), count(Layer::OptimStep));
        // One fetch to train each increment, then one per evaluation cell.
        assert_eq!(count(Layer::Fetch), tasks + tasks * (tasks + 1) / 2);
        assert!(eval_seconds(&spans, end_ns) > 0.0);
    }

    #[test]
    fn eval_interval_excludes_fetches() {
        let span = |layer, start_ns, end_ns| Span {
            layer,
            task: 0,
            start_ns,
            end_ns,
        };
        let spans = [
            span(Layer::BeginTask, 0, 10),
            span(Layer::EndTask, 20, 30),
            span(Layer::Fetch, 40, 45),
            span(Layer::Fetch, 60, 70),
            span(Layer::BeginTask, 80, 90),
            span(Layer::EndTask, 100, 110),
        ];
        let s = eval_seconds(&spans, 200);
        assert!((s - ((50.0 - 15.0) + 90.0) * 1e-9).abs() < 1e-15);
    }
}
