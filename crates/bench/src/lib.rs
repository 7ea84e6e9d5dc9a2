//! # edsr-bench
//!
//! Experiment harness for the EDSR reproduction: one binary per paper
//! table (DESIGN.md §4; `table3` also writes Figs. 4, 5 and 9, which are
//! views of its runs) plus the `bench` and `scenarios` benchmarks that
//! write the `BENCH_*.json` files. Serving is measured end to end by
//! perfbench's `serve_f32`/`serve_int8` workloads (BENCHMARK.json), not
//! here.
//!
//! Binaries print the same rows/series the paper reports, with paper
//! values shown alongside for shape comparison (absolute numbers differ by
//! design — the substrate is a simulator, see DESIGN.md §2).
//!
//! Run e.g. `cargo run --release -p edsr-bench --bin table3`. Results are
//! written under `results/` as plain text as well. Every binary that does
//! work starts with [`start`], so the process knobs
//! (`--quick`/`EDSR_BENCH_QUICK`, `--threads`, `--obs`/`EDSR_OBS`, …)
//! work the same in each; `exp_all`, which only launches the others,
//! checks them with [`resolve`] and passes them on. The experiments fan
//! their seeds out only through [`sweep`]; the benchmarks time code only
//! through [`sample`] and write JSON only through [`write_json`].

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use edsr_cl::metrics::mean_std;
use edsr_cl::{
    run_multitask, Method, ModelConfig, MultitaskResult, RunBuilder, RunResult, TrainConfig,
    TrainError,
};
use edsr_core::prelude::seeded;
use edsr_core::{method_by_name, seeded_run, EnvConfig, Grammar};
use edsr_data::Preset;

/// Seeds used for image experiments (paper: 4 runs).
pub const IMAGE_SEEDS: [u64; 4] = [11, 22, 33, 44];

/// Seeds used for tabular experiments (paper: 10 runs).
pub const TABULAR_SEEDS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// Aggregated Acc/Fgt over seeds, in percent.
#[derive(Debug, Clone, Copy)]
pub struct AccFgt {
    /// Mean final accuracy (percent).
    pub acc: f32,
    /// Std of final accuracy.
    pub acc_std: f32,
    /// Mean final forgetting (percent).
    pub fgt: f32,
    /// Std of final forgetting.
    pub fgt_std: f32,
    /// Mean wall-clock seconds per run.
    pub seconds: f64,
}

impl AccFgt {
    /// The aggregate of zero surviving seeds: NaN statistics, which the
    /// cell formatters render as `n/a`.
    const NONE: AccFgt = AccFgt {
        acc: f32::NAN,
        acc_std: f32::NAN,
        fgt: f32::NAN,
        fgt_std: f32::NAN,
        seconds: f64::NAN,
    };

    /// Formats as the paper's `acc ± std` cell (`n/a` when every seed
    /// of the sweep failed).
    pub fn acc_cell(&self) -> String {
        if self.acc.is_nan() {
            return "     n/a    ".into();
        }
        format!("{:5.2} ± {:.2}", self.acc, self.acc_std)
    }

    /// Formats as the paper's `fgt ± std` cell (`n/a` when every seed
    /// of the sweep failed).
    pub fn fgt_cell(&self) -> String {
        if self.fgt.is_nan() {
            return "     n/a    ".into();
        }
        format!("{:5.2} ± {:.2}", self.fgt, self.fgt_std)
    }
}

/// Aggregates per-seed run results. An empty slice (every seed failed)
/// yields NaN statistics, which the cell formatters render as `n/a`.
pub fn aggregate(runs: &[RunResult]) -> AccFgt {
    if runs.is_empty() {
        return AccFgt::NONE;
    }
    let accs: Vec<f32> = runs.iter().map(RunResult::final_acc_pct).collect();
    let fgts: Vec<f32> = runs.iter().map(RunResult::final_fgt_pct).collect();
    let (acc, acc_std) = mean_std(&accs);
    let (fgt, fgt_std) = mean_std(&fgts);
    let seconds = runs.iter().map(RunResult::total_seconds).sum::<f64>() / runs.len() as f64;
    AccFgt {
        acc,
        acc_std,
        fgt,
        fgt_std,
        seconds,
    }
}

/// One seed's structured failure inside a sweep.
#[derive(Debug)]
pub struct SeedFailure {
    /// The seed that failed.
    pub seed: u64,
    /// Why (Diverged carries the failing increment).
    pub error: TrainError,
}

/// Per-seed outcomes of one [`sweep`]: the successful results plus every
/// failed seed's structured error. A failing seed does not abort the
/// sweep — it is recorded and the remaining seeds run.
#[derive(Debug)]
pub struct Sweep<T = RunResult> {
    /// Successful results, in seed order.
    pub runs: Vec<T>,
    /// Failed seeds with their errors, in seed order.
    pub failures: Vec<SeedFailure>,
}

impl<T> Sweep<T> {
    /// Writes one `!!` line per failed seed into the report, naming the
    /// method/seed/increment, and returns how many failed.
    pub fn report_failures(&self, report: &mut Report, label: &str) -> usize {
        for f in &self.failures {
            report.line(format!("  !! {label} seed {}: {}", f.seed, f.error));
        }
        self.failures.len()
    }
}

impl Sweep {
    /// Aggregated Acc/Fgt of the successful seeds (NaN cells when none).
    pub fn aggregate(&self) -> AccFgt {
        aggregate(&self.runs)
    }
}

impl Sweep<MultitaskResult> {
    /// Mean ± std Multitask accuracy of the successful seeds, with NaN
    /// forgetting (the joint bound reports none); NaN accuracy too when
    /// every seed failed, so [`AccFgt::acc_cell`] prints `n/a`.
    pub fn aggregate(&self) -> AccFgt {
        if self.runs.is_empty() {
            return AccFgt::NONE;
        }
        let accs: Vec<f32> = self.runs.iter().map(MultitaskResult::acc_pct).collect();
        let (acc, acc_std) = mean_std(&accs);
        let seconds = self.runs.iter().map(|r| r.seconds).sum::<f64>() / self.runs.len() as f64;
        AccFgt {
            acc,
            acc_std,
            seconds,
            ..AccFgt::NONE
        }
    }
}

/// Runs `run` once per seed and returns every outcome in seed order: the
/// one place the experiments fan their seeds out.
///
/// Seeds go over the `edsr-par` pool. Each seed must be self-contained —
/// its own data, model, RNG streams and method, built from the seed alone
/// (by [`seeded_run`]'s convention) — so every result is identical to the
/// serial loop's at any thread count. A seed whose closure panics is
/// recorded as [`TrainError::Worker`], and the remaining seeds still run.
pub fn sweep<T: Send>(
    seeds: &[u64],
    run: impl Fn(u64) -> Result<T, TrainError> + Sync,
) -> Sweep<T> {
    // Each seed is a whole run: always worth a pool hand-off.
    let outcomes = edsr_par::par_map_collect(seeds.len(), usize::MAX, |i| {
        edsr_par::catch_panic(|| run(seeds[i])).unwrap_or_else(|msg| Err(TrainError::Worker(msg)))
    });
    let mut sweep = Sweep {
        runs: Vec::new(),
        failures: Vec::new(),
    };
    for (&seed, outcome) in seeds.iter().zip(outcomes) {
        match outcome {
            Ok(run) => sweep.runs.push(run),
            Err(error) => sweep.failures.push(SeedFailure { seed, error }),
        }
    }
    sweep
}

/// Builds the standard image model config for a preset.
pub fn image_model_config(preset: &Preset) -> ModelConfig {
    ModelConfig::image(preset.grid.dim())
}

/// The method with display name `name` (`CaSSLe`, `EDSR`, …) and its
/// paper defaults ([`method_by_name`]), sized for `preset` under `cfg`.
/// The tables name their methods with string literals, so an unknown name
/// is a bug and panics (inside a [`sweep`], the seed then fails with
/// [`TrainError::Worker`]).
pub fn paper_method(name: &str, preset: &Preset, cfg: &TrainConfig) -> Box<dyn Method> {
    method_by_name(
        &name.to_ascii_lowercase(),
        preset.per_task_budget(),
        cfg.replay_batch,
        preset.noise_neighbors,
    )
    .unwrap_or_else(|| panic!("no method named {name:?}"))
}

/// One seed of a continual run of `method` on `preset` with the model
/// `model_cfg`: the data from `seed`, the model and run RNG by
/// [`seeded_run`].
pub fn continual_run(
    preset: &Preset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
    mut method: Box<dyn Method>,
    seed: u64,
) -> Result<RunResult, TrainError> {
    let (mut seq, augs) = preset.build_with_augmenters(&mut seeded(seed));
    let (mut model, mut run_rng) = seeded_run(model_cfg, seed);
    RunBuilder::new(cfg).run(method.as_mut(), &mut model, &mut seq, &augs, &mut run_rng)
}

/// One seed of the Multitask upper bound on `preset`, seeded like
/// [`continual_run`].
pub fn multitask_run(
    preset: &Preset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
    seed: u64,
) -> Result<MultitaskResult, TrainError> {
    let (mut seq, augs) = preset.build_with_augmenters(&mut seeded(seed));
    let (mut model, mut run_rng) = seeded_run(model_cfg, seed);
    run_multitask(&mut model, &mut seq, &augs, cfg, &mut run_rng)
}

/// A [`sweep`] of [`continual_run`] with the preset's image model and a
/// fresh method per seed.
pub fn run_method_over_seeds(
    preset: &Preset,
    cfg: &TrainConfig,
    seeds: &[u64],
    make_method: impl Fn() -> Box<dyn Method> + Sync,
) -> Sweep {
    let model_cfg = image_model_config(preset);
    sweep(seeds, |seed| {
        continual_run(preset, &model_cfg, cfg, make_method(), seed)
    })
}

/// A writer that tees output to stdout and `results/<name>.txt`.
///
/// File problems never abort a sweep (stdout still carries the rows),
/// but they are surfaced on stderr exactly once instead of being
/// silently swallowed.
pub struct Report {
    file: Option<std::fs::File>,
    start: Instant,
}

impl Report {
    /// Creates `results/` on demand, opens `results/<name>.txt`, and
    /// starts the clock. Directory/file errors are reported to stderr
    /// and the report continues stdout-only.
    pub fn new(name: &str) -> Self {
        let file = match std::fs::create_dir_all("results") {
            Ok(()) => {
                let path = format!("results/{name}.txt");
                match std::fs::File::create(&path) {
                    Ok(f) => Some(f),
                    Err(e) => {
                        eprintln!("warning: cannot create {path}: {e}; writing to stdout only");
                        None
                    }
                }
            }
            Err(e) => {
                eprintln!("warning: cannot create results/: {e}; writing to stdout only");
                None
            }
        };
        Self {
            file,
            start: Instant::now(),
        }
    }

    /// Writes one line to stdout and the report file. A failed file
    /// write is reported once and the file is dropped (stdout keeps
    /// going).
    pub fn line(&mut self, text: impl AsRef<str>) {
        let text = text.as_ref();
        println!("{text}");
        if let Some(f) = &mut self.file {
            if let Err(e) = writeln!(f, "{text}") {
                eprintln!("warning: report write failed: {e}; continuing on stdout only");
                self.file = None;
            }
        }
    }

    /// Writes the closing timing line and flushes the metrics sink: the
    /// process-global sink lives in a `static` and is never dropped, so
    /// buffered events would otherwise be lost at exit.
    pub fn finish(&mut self) {
        let elapsed = self.start.elapsed().as_secs_f64();
        self.line(format!("\n[completed in {elapsed:.1}s]"));
        edsr_obs::flush();
    }
}

/// Fig. 4 rows for one method: the forgetting matrix `F` of the first
/// run in `runs` (the first seed's, unless that seed failed), each cell
/// the log10 of percent forgetting (`--` marks F ≤ 0.1%, the paper's
/// lightest shade), under a header with the mean off-diagonal `F`.
pub fn fig4_lines(name: &str, runs: &[RunResult]) -> Vec<String> {
    let Some(first) = runs.first() else {
        return vec![format!("-- {name}: all seeds failed --")];
    };
    let f = first.matrix.forgetting_matrix();
    let off_diagonal: Vec<f32> = f
        .iter()
        .enumerate()
        .flat_map(|(i, row)| row[..i].to_vec())
        .collect();
    let mean_f = if off_diagonal.is_empty() {
        0.0
    } else {
        off_diagonal.iter().sum::<f32>() / off_diagonal.len() as f32
    };
    let mut lines = vec![format!(
        "-- {name} (mean off-diagonal F {:.2}%) --",
        mean_f * 100.0
    )];
    for (i, row) in f.iter().enumerate() {
        let cells: Vec<String> = row
            .iter()
            .map(|&v| {
                let pct = v * 100.0;
                if pct <= 0.1 {
                    "  --".into()
                } else {
                    format!("{:4.1}", pct.log10())
                }
            })
            .collect();
        lines.push(format!("  i={:2} | {}", i, cells.join(" ")));
    }
    lines
}

/// Fig. 5 rows for one method: new-task accuracy `A_{i,i}` per increment
/// as mean ± std over `runs`, then the mean of those stds (the paper's
/// variance argument).
pub fn fig5_lines(name: &str, runs: &[RunResult]) -> Vec<String> {
    let Some(first) = runs.first() else {
        return vec![format!("{name:<9}: all seeds failed")];
    };
    let per_increment: Vec<(f32, f32)> = (0..first.matrix.num_increments())
        .map(|i| {
            let vals: Vec<f32> = runs.iter().map(|r| r.matrix.get(i, i) * 100.0).collect();
            mean_std(&vals)
        })
        .collect();
    let series: Vec<String> = per_increment
        .iter()
        .map(|(m, s)| format!("{m:5.1}±{s:4.1}"))
        .collect();
    let stds: Vec<f32> = per_increment.iter().map(|&(_, s)| s).collect();
    let (mean_of_stds, _) = mean_std(&stds);
    vec![
        format!("{name:<9}: {}", series.join(" ")),
        format!(
            "{:<9}  mean new-task std over increments: {mean_of_stds:.2}",
            ""
        ),
    ]
}

/// The Fig. 9 row for one method: mean wall-clock seconds per run against
/// the `acc ± std` cell.
pub fn fig9_line(name: &str, runs: &[RunResult]) -> String {
    let agg = aggregate(runs);
    format!(
        "{:<10} | {:>10.1} | {:>16}",
        name,
        agg.seconds,
        agg.acc_cell()
    )
}

/// Median and fastest wall time of one timed configuration, in ns per
/// call. Noise on a shared host only ever adds time, so `min` is the
/// stable estimate of what the code costs; `median` is the typical cost.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median sample.
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
}

impl Timing {
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Timing {
            median: samples[samples.len() / 2],
            min: samples[0],
        }
    }
}

/// A sample runs enough calls to last at least this long (1 ms), so a
/// microsecond-scale op is not read off timer noise.
const MIN_SAMPLE_NS: f64 = 1e6;

/// Mean ns per call of `calls` calls of `f` at `threads`, timed after an
/// untimed call at the same setting: caches then hold what this setting
/// leaves behind (and the pool is spawned), not what the previous
/// configuration left.
fn time_calls(threads: usize, calls: usize, f: &mut dyn FnMut()) -> f64 {
    edsr_par::with_threads(threads, || {
        f();
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        t0.elapsed().as_nanos() as f64 / calls as f64
    })
}

/// Times every configuration of one bench row — each variant (an
/// implementation of the op) at each thread count — and returns their
/// timings as `[variant][thread count]`. The configurations are sampled
/// round-robin, one sample each per round for `iters` rounds, so host
/// noise hits all of them alike instead of poisoning whichever one ran
/// during a burst. Each sample runs enough calls to last at least 1 ms,
/// calibrated per variant at the first thread count.
pub fn sample(
    iters: usize,
    threads: &[usize],
    variants: &mut [&mut dyn FnMut()],
) -> Vec<Vec<Timing>> {
    let calls: Vec<usize> = variants
        .iter_mut()
        .map(|f| (MIN_SAMPLE_NS / time_calls(threads[0], 1, *f).max(1.0)).ceil() as usize)
        .collect();
    let mut samples = vec![vec![Vec::with_capacity(iters); threads.len()]; variants.len()];
    for _ in 0..iters {
        for (v, f) in variants.iter_mut().enumerate() {
            for (t, &n) in threads.iter().enumerate() {
                samples[v][t].push(time_calls(n, calls[v], *f));
            }
        }
    }
    samples
        .into_iter()
        .map(|per_thread| per_thread.into_iter().map(Timing::of).collect())
        .collect()
}

/// A JSON value for the `BENCH_*.json` files (there is no serde in the
/// workspace). Objects and arrays of scalars print on one line; an array
/// holding containers puts each on its own line, two spaces deeper than
/// the line the array opens on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(u64),
    /// A number printed with a fixed count of decimals; a non-finite
    /// value prints as `null`.
    Num(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in the order given.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Writes the value, which starts on a line indented by `indent`.
    fn write(&self, out: &mut impl Write, indent: usize) -> std::io::Result<()> {
        match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Num(v, _) if !v.is_finite() => write!(out, "null"),
            Json::Num(v, decimals) => write!(out, "{v:.decimals$}"),
            Json::Str(s) => write_str(out, s),
            Json::Obj(fields) => {
                write!(out, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    write!(out, "{}", if i == 0 { "" } else { ", " })?;
                    write_str(out, key)?;
                    write!(out, ": ")?;
                    value.write(out, indent)?;
                }
                write!(out, "}}")
            }
            Json::Arr(items) => {
                let nested = items
                    .iter()
                    .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)));
                let (sep, pad) = if nested {
                    (",", format!("\n{:w$}", "", w = indent + 2))
                } else {
                    (", ", String::new())
                };
                write!(out, "[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(out, "{}{pad}", if i == 0 { "" } else { sep })?;
                    item.write(out, indent + 2)?;
                }
                if nested {
                    write!(out, "\n{:indent$}", "")?;
                }
                write!(out, "]")
            }
        }
    }
}

fn write_str(out: &mut impl Write, s: &str) -> std::io::Result<()> {
    write!(out, "\"")?;
    edsr_obs::write_escaped(out, s)?;
    write!(out, "\"")
}

/// The bytes [`write_json`] writes.
fn write_doc(out: &mut impl Write, fields: &[(&'static str, Json)]) -> std::io::Result<()> {
    write!(out, "{{")?;
    for (i, (key, value)) in fields.iter().enumerate() {
        write!(out, "{}\n  ", if i == 0 { "" } else { "," })?;
        write_str(out, key)?;
        write!(out, ": ")?;
        value.write(out, 2)?;
    }
    writeln!(out, "\n}}")
}

/// Writes the document `fields` to `path`: a header object with one key
/// per line, each value laid out as [`Json`] describes (so a `records`
/// array puts one record per line), and a trailing newline.
pub fn write_json(path: &str, fields: &[(&'static str, Json)]) -> std::io::Result<()> {
    let mut out = Vec::new();
    write_doc(&mut out, fields)?;
    std::fs::write(path, out)
}

/// What [`start`] resolved for this process.
#[derive(Debug)]
pub struct Setup {
    /// The process knobs, already applied to the runtime.
    pub env: EnvConfig,
    /// Shrink the workload to a smoke run (`--quick`/`EDSR_BENCH_QUICK`).
    pub quick: bool,
    /// Most seeds a sweep may use.
    seed_cap: usize,
}

impl Setup {
    /// The leading seeds of `all` this process runs: one in quick mode,
    /// `EDSR_SEEDS` of them when that is set, otherwise every seed.
    pub fn seeds(&self, all: &[u64]) -> Vec<u64> {
        all[..self.seed_cap.min(all.len())].to_vec()
    }
}

/// Resolves the process knobs ([`EnvConfig`], CLI > env > default), quick
/// mode and the `EDSR_SEEDS` seed count without applying them. Bench
/// binaries take no positionals and no flag but `--quick` and the process
/// flags. An argument or knob that does not parse prints `error: …` and
/// exits 2.
pub fn resolve() -> Setup {
    let argv: Vec<String> = std::env::args().collect();
    let program = argv.first().map_or("", String::as_str);
    let name = Path::new(program).file_name().and_then(|n| n.to_str());
    let args = argv.get(1..).unwrap_or_default();
    resolve_from(|k| std::env::var(k).ok(), name.unwrap_or(program), args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// [`resolve`] over an environment lookup and the arguments of the binary
/// `name` (program name excluded).
fn resolve_from(
    env: impl Fn(&str) -> Option<String>,
    name: &str,
    args: &[String],
) -> Result<Setup, String> {
    let grammar = Grammar {
        name,
        values: &[],
        switches: &["--quick"],
        max_positionals: 0,
    };
    let env_cfg = EnvConfig::resolve(&env, &grammar, args)?;
    let quick =
        env_cfg.rest.switch("--quick") || env("EDSR_BENCH_QUICK").is_some_and(|v| truthy(&v));
    let seed_cap =
        seed_cap(quick, env("EDSR_SEEDS").as_deref()).map_err(|e| format!("{name}: {e}"))?;
    Ok(Setup {
        env: env_cfg,
        quick,
        seed_cap,
    })
}

/// Start-up shared by every bench binary: [`resolve`], then apply the
/// knobs — thread count and metrics sink. A runtime that cannot take the
/// config (an unwritable metrics file) prints `error: …` and exits 1.
pub fn start() -> Setup {
    let setup = resolve();
    if let Err(e) = setup.env.apply() {
        eprintln!("error: cannot apply the process knobs: {e}");
        std::process::exit(1);
    }
    setup
}

/// Is an environment value truthy? Empty, `0`, `false` and `off`
/// (case-insensitive) are not.
fn truthy(value: &str) -> bool {
    !matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "false" | "off"
    )
}

/// The seed cap for quick mode and an `EDSR_SEEDS` value: one seed in
/// quick mode, the `EDSR_SEEDS` count when set, otherwise no cap. A value
/// that is not a count >= 1 is an error naming the knob, even in quick
/// mode.
fn seed_cap(quick: bool, seeds: Option<&str>) -> Result<usize, String> {
    let cap = match seeds {
        None => usize::MAX,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("EDSR_SEEDS: expected a seed count >= 1, got {v:?}")),
        },
    };
    Ok(if quick { 1 } else { cap })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_cl::metrics::AccuracyMatrix;

    /// A synthetic run whose accuracy matrix has the given rows, one
    /// second per increment.
    fn run_with_rows(rows: &[&[f32]]) -> RunResult {
        let mut matrix = AccuracyMatrix::new();
        for row in rows {
            matrix.push_row(row.to_vec());
        }
        RunResult {
            method: "m".into(),
            benchmark: "b".into(),
            matrix,
            task_seconds: vec![1.0; rows.len()],
            task_losses: vec![0.0; rows.len()],
            recoveries: 0,
        }
    }

    /// Constant-accuracy history: row i repeats `accs[i]` i+1 times.
    fn run_result(accs: &[f32]) -> RunResult {
        let rows: Vec<Vec<f32>> = accs
            .iter()
            .enumerate()
            .map(|(i, &a)| vec![a; i + 1])
            .collect();
        let rows: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        run_with_rows(&rows)
    }

    #[test]
    fn aggregates_give_paper_cells_and_n_a_when_every_seed_failed() {
        let runs = vec![run_result(&[0.8, 0.8]), run_result(&[0.6, 0.6])];
        let agg = aggregate(&runs);
        assert!((agg.acc - 70.0).abs() < 1e-4);
        assert!((agg.acc_std - 10.0).abs() < 1e-4);
        assert_eq!(agg.fgt, 0.0);
        assert!((agg.seconds - 2.0).abs() < 1e-9);
        assert_eq!(
            [agg.acc_cell(), agg.fgt_cell()],
            ["70.00 ± 10.00", " 0.00 ± 0.00"]
        );
        assert_eq!(aggregate(&[]).acc_cell(), "     n/a    ");

        // The Multitask row has no forgetting, and prints n/a when every
        // seed failed.
        let failed: Sweep<MultitaskResult> = sweep(&[1, 2], |_| {
            Err(TrainError::InvalidConfig("no increments".into()))
        });
        assert_eq!(failed.failures.len(), 2);
        assert_eq!(failed.aggregate().acc_cell(), "     n/a    ");
        let one = Sweep {
            runs: vec![MultitaskResult {
                per_task_acc: vec![0.5, 0.75],
                acc: 0.625,
                seconds: 1.0,
            }],
            failures: Vec::new(),
        };
        let agg = one.aggregate();
        assert_eq!(
            [agg.acc_cell(), agg.fgt_cell()],
            ["62.50 ± 0.00", "     n/a    "]
        );
    }

    #[test]
    fn sweep_keeps_seed_order_and_records_a_panicking_seed_as_a_worker_failure() {
        let out = edsr_par::with_threads(4, || {
            sweep(&[5, 3, 9, 1, 7], |seed| {
                assert_ne!(seed, 9, "seed {seed} exploded");
                Ok(seed * 10)
            })
        });
        assert_eq!(out.runs, [50, 30, 10, 70]);
        let [SeedFailure {
            seed: 9,
            error: TrainError::Worker(msg),
        }] = &out.failures[..]
        else {
            panic!("expected seed 9 to fail as a worker: {:?}", out.failures);
        };
        assert!(msg.contains("seed 9 exploded"), "{msg}");
    }

    #[test]
    fn sweeps_are_bit_identical_at_one_and_two_threads() {
        let preset = edsr_data::test_sim();
        let mut cfg = TrainConfig::image();
        cfg.epochs_per_task = 1;
        let model_cfg = image_model_config(&preset);
        // The bits of every accuracy and loss a continual and a Multitask
        // sweep produce, and the pool hand-offs they took.
        let at = |threads| {
            edsr_par::with_threads(threads, || {
                let before = edsr_par::handoffs();
                let runs = run_method_over_seeds(&preset, &cfg, &[11, 12], || {
                    paper_method("EDSR", &preset, &cfg)
                });
                let mt = sweep(&[11, 12], |seed| {
                    multitask_run(&preset, &model_cfg, &cfg, seed)
                });
                assert!(runs.failures.is_empty() && mt.failures.is_empty());
                let continual = runs
                    .runs
                    .iter()
                    .flat_map(|r| r.matrix.rows().iter().flatten().chain(&r.task_losses));
                let multitask = mt
                    .runs
                    .iter()
                    .flat_map(|r| r.per_task_acc.iter().chain([&r.acc]));
                let bits: Vec<u32> = continual.chain(multitask).map(|v| v.to_bits()).collect();
                (bits, edsr_par::handoffs() - before)
            })
        };
        let (serial, _) = at(1);
        let (pooled, handoffs) = at(2);
        assert_eq!(serial, pooled);
        if edsr_par::pool_workers() > 0 {
            // Each sweep handed its two seeds to the pool in one call.
            assert_eq!(handoffs, 2);
        }
    }

    #[test]
    fn fig4_prints_the_first_runs_log_forgetting_matrix() {
        let runs = [
            run_with_rows(&[&[0.9], &[0.5, 0.8], &[0.5, 0.8, 0.7]]),
            run_result(&[0.2, 0.2, 0.2]),
        ];
        assert_eq!(
            fig4_lines("EDSR", &runs),
            [
                "-- EDSR (mean off-diagonal F 26.67%) --",
                "  i= 0 |   --",
                "  i= 1 |  1.6   --",
                "  i= 2 |  1.6   --   --",
            ]
        );
        assert_eq!(fig4_lines("SI", &[]), ["-- SI: all seeds failed --"]);
    }

    #[test]
    fn fig5_gives_new_task_accuracy_mean_and_std_per_increment() {
        let runs = [
            run_with_rows(&[&[0.8], &[0.1, 0.6]]),
            run_with_rows(&[&[0.6], &[0.3, 0.8]]),
        ];
        assert_eq!(
            fig5_lines("EDSR", &runs),
            [
                "EDSR     :  70.0±10.0  70.0±10.0",
                "           mean new-task std over increments: 10.00",
            ]
        );
        assert_eq!(fig5_lines("LUMP", &[]), ["LUMP     : all seeds failed"]);
    }

    #[test]
    fn fig9_gives_mean_seconds_against_acc() {
        let runs = [run_result(&[0.8, 0.8]), run_result(&[0.6, 0.6])];
        assert_eq!(
            fig9_line("SI", &runs),
            "SI         |        2.0 |    70.00 ± 10.00"
        );
    }

    #[test]
    fn sampler_takes_iters_samples_of_every_configuration_round_robin() {
        let log = std::cell::RefCell::new(Vec::new());
        // Each call outlasts the 1 ms sample floor, so every sample is one
        // untimed call plus one timed call.
        let call = |variant: usize| {
            log.borrow_mut().push((variant, edsr_par::thread_count()));
            std::thread::sleep(std::time::Duration::from_micros(1100));
        };
        let (mut a, mut b) = (|| call(0), || call(1));
        let (iters, threads) = (3, [1, 3]);
        let timings = sample(iters, &threads, &mut [&mut a, &mut b]);

        assert_eq!(timings.len(), 2);
        for per_thread in &timings {
            assert_eq!(per_thread.len(), threads.len());
            for t in per_thread {
                assert!(t.min >= 1.1e6 && t.median >= t.min, "{t:?}");
            }
        }
        // Calibration: one warm and one timed call per variant at the
        // first thread count. Then `iters` rounds, each visiting every
        // (variant, thread count) once.
        let mut expected = vec![(0, 1), (0, 1), (1, 1), (1, 1)];
        for _ in 0..iters {
            for v in 0..2 {
                for n in threads {
                    expected.extend([(v, n), (v, n)]);
                }
            }
        }
        assert_eq!(*log.borrow(), expected);
    }

    #[test]
    fn json_puts_the_header_and_records_one_per_line() {
        let record = |op: &str, ns: f64| {
            Json::Obj(vec![("op", Json::Str(op.into())), ("ns", Json::Num(ns, 1))])
        };
        let doc = [
            ("threads", Json::Int(2)),
            ("quick", Json::Bool(true)),
            ("seeds", Json::Arr(vec![Json::Int(11), Json::Int(12)])),
            (
                "records",
                Json::Arr(vec![record("a\"b\\c", 12.345), record("d", f64::NAN)]),
            ),
            (
                "groups",
                Json::Arr(vec![Json::Obj(vec![
                    ("name", Json::Str("g".into())),
                    ("rows", Json::Arr(vec![record("e", 1.0)])),
                ])]),
            ),
            ("empty", Json::Arr(Vec::new())),
        ];
        let mut out = Vec::new();
        write_doc(&mut out, &doc).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            r#"{
  "threads": 2,
  "quick": true,
  "seeds": [11, 12],
  "records": [
    {"op": "a\"b\\c", "ns": 12.3},
    {"op": "d", "ns": null}
  ],
  "groups": [
    {"name": "g", "rows": [
      {"op": "e", "ns": 1.0}
    ]}
  ],
  "empty": []
}
"#
        );
    }

    fn setup(quick: bool, seeds: Option<&str>) -> Result<Setup, String> {
        Ok(Setup {
            env: EnvConfig::default(),
            quick,
            seed_cap: seed_cap(quick, seeds)?,
        })
    }

    /// [`resolve_from`] for the binary `table5`.
    fn table5(env: impl Fn(&str) -> Option<String>, list: &[&str]) -> Result<Setup, String> {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        resolve_from(env, "table5", &args)
    }

    #[test]
    fn bench_quick_cli_beats_env() {
        let env = |k: &str| (k == "EDSR_BENCH_QUICK").then(|| "0".to_string());
        // env says off...
        assert!(!table5(env, &[]).unwrap().quick);
        // ...but the flag forces it on.
        assert!(table5(env, &["--quick"]).unwrap().quick);
        let env_on = |k: &str| (k == "EDSR_BENCH_QUICK").then(|| "1".to_string());
        assert!(table5(env_on, &[]).unwrap().quick);
    }

    #[test]
    fn bench_binaries_reject_other_arguments() {
        let no_env = |_: &str| None;
        let err = |list: &[&str]| table5(no_env, list).unwrap_err();
        assert_eq!(err(&["--bogus"]), "table5: unknown flag --bogus");
        assert_eq!(err(&["--quick=1"]), "table5: --quick takes no value");
        assert_eq!(err(&["extra"]), "table5: unexpected argument \"extra\"");
        let setup = table5(no_env, &["--quick", "--threads", "1"]).unwrap();
        assert_eq!(setup.env.threads, Some(1));
        let seeds = |k: &str| (k == "EDSR_SEEDS").then(|| "two".to_string());
        let err = table5(seeds, &[]).unwrap_err();
        assert!(err.starts_with("table5: EDSR_SEEDS:"), "{err}");
    }

    #[test]
    fn seeds_follow_quick_mode_and_edsr_seeds() {
        let all = setup(false, None).unwrap().seeds(&IMAGE_SEEDS);
        assert_eq!(all, IMAGE_SEEDS.to_vec());
        assert_eq!(
            setup(false, Some("2")).unwrap().seeds(&IMAGE_SEEDS),
            [11, 22]
        );
        assert_eq!(
            setup(false, Some(" 9 ")).unwrap().seeds(&IMAGE_SEEDS).len(),
            4
        );
        // Quick mode runs one seed whatever EDSR_SEEDS asks for.
        assert_eq!(setup(true, None).unwrap().seeds(&TABULAR_SEEDS), [1]);
        assert_eq!(setup(true, Some("3")).unwrap().seeds(&IMAGE_SEEDS), [11]);
    }

    #[test]
    fn bad_edsr_seeds_is_an_error_naming_the_knob() {
        for bad in ["two", "0", "", "-1"] {
            for quick in [false, true] {
                let err = setup(quick, Some(bad)).unwrap_err();
                assert!(err.starts_with("EDSR_SEEDS:"), "{bad:?}: {err}");
            }
        }
    }

    #[test]
    fn report_writes_results_file() {
        let mut report = Report::new("unit-test-report");
        report.line("hello");
        report.finish();
        let content = std::fs::read_to_string("results/unit-test-report.txt").expect("file");
        assert!(content.contains("hello"));
        assert!(content.contains("completed in"));
        let _ = std::fs::remove_file("results/unit-test-report.txt");
    }
}
