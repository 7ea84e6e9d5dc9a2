//! Runs every table/figure binary in sequence, one child process each;
//! each writes its report under `results/`. Mirrors DESIGN.md §4's
//! experiment index.
//!
//! A failing or unlaunchable experiment no longer aborts the suite: it
//! is recorded, the remaining experiments run, and the process exits
//! non-zero with a summary of what failed.
//!
//! Usage: `cargo run --release -p edsr-bench --bin exp_all`
//! Set `EDSR_BENCH_QUICK=1` (or pass `--quick`) for a single-seed smoke
//! pass. Environment knobs and arguments reach every experiment, which
//! resolves them itself (`edsr_bench::start`); a knob that does not parse
//! stops the suite before the first experiment. With `EDSR_OBS=jsonl` (or
//! `--obs jsonl`) each experiment writes its own metrics file, named after
//! the metrics path with the experiment inserted before the extension
//! (`metrics.jsonl` -> `metrics.table3.jsonl`, …): an experiment recreates
//! the file it writes, so a shared file would keep only the last one's
//! events.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::Command;

use edsr_obs::ObsMode;

/// `path` with `.{exp}` inserted before its extension.
fn per_experiment(path: &Path, exp: &str) -> PathBuf {
    let mut name = path.file_stem().unwrap_or_default().to_os_string();
    name.push(format!(".{exp}"));
    if let Some(ext) = path.extension() {
        name.push(".");
        name.push(ext);
    }
    path.with_file_name(name)
}

fn main() {
    let env = edsr_bench::resolve().env;
    let exe_dir = match std::env::current_exe() {
        Ok(p) => match p.parent() {
            Some(dir) => dir.to_path_buf(),
            None => {
                eprintln!("error: current executable has no parent directory");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("error: cannot locate current executable: {e}");
            std::process::exit(1);
        }
    };
    let experiments = [
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "ablation",
        "arch_ablation",
    ];
    let mut failed: Vec<String> = Vec::new();
    for exp in experiments {
        println!("\n########## {exp} ##########");
        let mut cmd = Command::new(exe_dir.join(exp));
        cmd.args(std::env::args_os().skip(1));
        if env.obs == ObsMode::Jsonl {
            // Last on the command line, so it beats a forwarded
            // `--obs-path` as well as `EDSR_OBS_PATH`.
            let mut flag = OsString::from("--obs-path=");
            flag.push(per_experiment(&env.obs_path, exp));
            cmd.arg(flag);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{exp} exited with {status}");
                failed.push(format!("{exp} ({status})"));
            }
            Err(e) => {
                eprintln!("failed to launch {exp}: {e}");
                failed.push(format!("{exp} (launch: {e})"));
            }
        }
    }
    if failed.is_empty() {
        println!("\nAll experiments complete; reports in results/.");
    } else {
        eprintln!(
            "\n{} experiment(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_experiment_gets_its_own_metrics_file() {
        let named = |p: &str| per_experiment(Path::new(p), "table7");
        assert_eq!(
            named("metrics.jsonl"),
            PathBuf::from("metrics.table7.jsonl")
        );
        assert_eq!(
            named("out/run.x.jsonl"),
            PathBuf::from("out/run.x.table7.jsonl")
        );
        assert_eq!(named("out/metrics"), PathBuf::from("out/metrics.table7"));
    }
}
