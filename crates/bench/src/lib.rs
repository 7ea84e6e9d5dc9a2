//! # edsr-bench
//!
//! Experiment harness for the EDSR reproduction: one binary per paper
//! table/figure (DESIGN.md §4) plus the `bench`, `kernels` and
//! `scenarios` benchmarks that write the `BENCH_*.json` files. Serving is
//! measured end to end by perfbench's `serve_f32`/`serve_int8` workloads
//! (BENCHMARK.json), not here.
//!
//! Binaries print the same rows/series the paper reports, with paper
//! values shown alongside for shape comparison (absolute numbers differ by
//! design — the substrate is a simulator, see DESIGN.md §2).
//!
//! Run e.g. `cargo run --release -p edsr-bench --bin table3`. Results are
//! written under `results/` as plain text as well. Every binary that does
//! work starts with [`start`], so the process knobs
//! (`--quick`/`EDSR_BENCH_QUICK`, `--threads`, `--isa`, `--obs`/`EDSR_OBS`,
//! …) work the same in each; `exp_all`, which only launches the others,
//! checks them with [`resolve`] and passes them on.

use std::io::Write as _;
use std::time::Instant;

use edsr_cl::metrics::mean_std;
use edsr_cl::{
    run_multitask, ContinualModel, Method, ModelConfig, MultitaskResult, RunBuilder, RunResult,
    TrainConfig, TrainError,
};
use edsr_core::prelude::seeded;
use edsr_core::EnvConfig;
use edsr_data::Preset;

/// A named factory producing fresh method instances per seed. `Sync`
/// because sweeps fan seeds out over the `edsr-par` pool and every worker
/// constructs its own method instance from the shared factory.
pub type MethodFactory<'a> = (&'a str, Box<dyn Fn() -> Box<dyn Method> + Sync>);

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
        return AccFgt {
            acc: f32::NAN,
            acc_std: f32::NAN,
            fgt: f32::NAN,
            fgt_std: f32::NAN,
            seconds: f64::NAN,
        };
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

/// Per-seed outcomes of one method x preset sweep: the successful runs
/// plus every failed seed's structured error. A failing seed no longer
/// aborts the sweep — it is recorded and the remaining seeds run.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Successful runs, in seed order.
    pub runs: Vec<RunResult>,
    /// Failed seeds with their errors, in seed order.
    pub failures: Vec<SeedFailure>,
}

impl Sweep {
    /// Aggregated Acc/Fgt of the successful seeds (NaN cells when none).
    pub fn aggregate(&self) -> AccFgt {
        aggregate(&self.runs)
    }

    /// Writes one `!!` line per failed seed into the report, naming the
    /// method/seed/increment, and returns how many failed.
    pub fn report_failures(&self, report: &mut Report, label: &str) -> usize {
        for f in &self.failures {
            report.line(format!("  !! {label} seed {}: {}", f.seed, f.error));
        }
        self.failures.len()
    }
}

/// Builds the standard image model config for a preset.
pub fn image_model_config(preset: &Preset) -> ModelConfig {
    ModelConfig::image(preset.grid.dim())
}

/// Runs one method over one preset for the given seeds, building fresh
/// data/model per seed (data seed = seed, model seed = seed + 1000,
/// training stream seed = seed + 2000, matching all experiments).
///
/// Seeds fan out over the `edsr-par` pool. Every seed is fully
/// self-contained (own data, model, RNG streams, method instance), so the
/// per-seed results are identical to the serial loop at any thread count;
/// they are collected back in seed order. A panicking seed is recorded as
/// [`TrainError::Worker`] and the remaining seeds still run.
pub fn run_method_over_seeds(
    preset: &Preset,
    cfg: &TrainConfig,
    seeds: &[u64],
    make_method: impl Fn() -> Box<dyn Method> + Sync,
) -> Sweep {
    run_method_over_seeds_with_model(
        preset,
        cfg,
        seeds,
        &image_model_config(preset),
        &make_method,
    )
}

/// As [`run_method_over_seeds`] with an explicit model config (Table VI
/// swaps the SSL variant).
pub fn run_method_over_seeds_with_model(
    preset: &Preset,
    cfg: &TrainConfig,
    seeds: &[u64],
    model_cfg: &ModelConfig,
    make_method: &(dyn Fn() -> Box<dyn Method> + Sync),
) -> Sweep {
    // Each seed is a whole continual run: always worth a pool hand-off.
    let outcomes = edsr_par::par_map_collect(seeds.len(), usize::MAX, |si| {
        let seed = seeds[si];
        edsr_par::catch_panic(|| {
            let mut data_rng = seeded(seed);
            let (mut seq, augs) = preset.build_with_augmenters(&mut data_rng);
            let mut model = ContinualModel::new(model_cfg, &mut seeded(seed + 1000));
            let mut run_rng = seeded(seed + 2000);
            let mut method = make_method();
            RunBuilder::new(cfg).run(method.as_mut(), &mut model, &mut seq, &augs, &mut run_rng)
        })
        .unwrap_or_else(|msg| Err(TrainError::Worker(msg)))
    });
    let mut sweep = Sweep::default();
    for (&seed, outcome) in seeds.iter().zip(outcomes) {
        match outcome {
            Ok(run) => sweep.runs.push(run),
            Err(error) => sweep.failures.push(SeedFailure { seed, error }),
        }
    }
    sweep
}

/// Runs the Multitask upper bound over seeds, returning mean/std percent
/// plus the per-seed results and any per-seed failures (NaN mean when
/// every seed failed). Seeds fan out over the `edsr-par` pool exactly as
/// in [`run_method_over_seeds`].
pub fn run_multitask_over_seeds(
    preset: &Preset,
    cfg: &TrainConfig,
    seeds: &[u64],
) -> (f32, f32, Vec<MultitaskResult>, Vec<SeedFailure>) {
    // Each seed is a whole continual run: always worth a pool hand-off.
    let outcomes = edsr_par::par_map_collect(seeds.len(), usize::MAX, |si| {
        let seed = seeds[si];
        edsr_par::catch_panic(|| {
            let mut data_rng = seeded(seed);
            let (mut seq, augs) = preset.build_with_augmenters(&mut data_rng);
            let model_cfg = image_model_config(preset);
            let mut model = ContinualModel::new(&model_cfg, &mut seeded(seed + 1000));
            let mut run_rng = seeded(seed + 2000);
            run_multitask(&mut model, &mut seq, &augs, cfg, &mut run_rng)
        })
        .unwrap_or_else(|msg| Err(TrainError::Worker(msg)))
    });
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for (&seed, outcome) in seeds.iter().zip(outcomes) {
        match outcome {
            Ok(r) => results.push(r),
            Err(error) => failures.push(SeedFailure { seed, error }),
        }
    }
    if results.is_empty() {
        return (f32::NAN, f32::NAN, results, failures);
    }
    let accs: Vec<f32> = results.iter().map(MultitaskResult::acc_pct).collect();
    let (m, s) = mean_std(&accs);
    (m, s, results, failures)
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

/// What [`start`] resolved for this process.
#[derive(Debug)]
pub struct Setup {
    /// The process knobs, already applied to the runtime.
    pub env: EnvConfig,
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

/// Resolves the process knobs ([`EnvConfig`], CLI > env > default) and
/// the `EDSR_SEEDS` seed count without applying them. A knob that does not
/// parse prints `error: …` and exits 2.
pub fn resolve() -> Setup {
    let resolved = EnvConfig::from_process().and_then(|env| {
        let seeds = std::env::var("EDSR_SEEDS").ok();
        let seed_cap = seed_cap(env.bench_quick, seeds.as_deref())?;
        Ok(Setup { env, seed_cap })
    });
    resolved.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Start-up shared by every bench binary: [`resolve`], then apply the
/// knobs — thread count, SIMD ISA and metrics sink. A runtime that cannot
/// take the config (an ISA the host lacks, an unwritable metrics file)
/// prints `error: …` and exits 1.
pub fn start() -> Setup {
    let setup = resolve();
    if let Err(e) = setup.env.apply() {
        eprintln!("error: cannot apply the process knobs: {e}");
        std::process::exit(1);
    }
    setup
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

    fn run_result(accs: &[f32]) -> RunResult {
        let mut matrix = AccuracyMatrix::new();
        for (i, &a) in accs.iter().enumerate() {
            // Constant-accuracy history: row i repeats `a` i+1 times.
            matrix.push_row(vec![a; i + 1]);
        }
        RunResult {
            method: "m".into(),
            benchmark: "b".into(),
            matrix,
            task_seconds: vec![1.0; accs.len()],
            task_losses: vec![0.0; accs.len()],
            recoveries: 0,
        }
    }

    #[test]
    fn aggregate_means_and_stds() {
        let runs = vec![run_result(&[0.8, 0.8]), run_result(&[0.6, 0.6])];
        let agg = aggregate(&runs);
        assert!((agg.acc - 70.0).abs() < 1e-4);
        assert!((agg.acc_std - 10.0).abs() < 1e-4);
        assert_eq!(agg.fgt, 0.0);
        assert!((agg.seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cells_format_like_the_paper() {
        let runs = vec![run_result(&[0.9])];
        let agg = aggregate(&runs);
        assert!(agg.acc_cell().contains('±'));
        assert!(agg.fgt_cell().contains('±'));
    }

    fn setup(quick: bool, seeds: Option<&str>) -> Result<Setup, String> {
        Ok(Setup {
            env: EnvConfig::default(),
            seed_cap: seed_cap(quick, seeds)?,
        })
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
