//! The `edsr` binary's argument grammar, end to end.
//!
//! Every subcommand declares the flags it reads and the most positionals
//! it takes; anything else is an `error:` line naming the argument and
//! exit 2, before any data is built or any file is written. `edsr
//! metrics` only reads: it installs no metrics sink, so it cannot
//! truncate the file it summarizes. Every run here is the `test` preset
//! at one epoch, in a scratch directory of its own.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty scratch directory unique to this process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edsr-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `edsr args` in `dir` with the process environment's `EDSR_OBS*`
/// variables replaced by `env`.
fn edsr(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_edsr"));
    cmd.current_dir(dir)
        .args(args)
        .env_remove("EDSR_OBS")
        .env_remove("EDSR_OBS_PATH")
        .envs(env.iter().copied());
    cmd.output().expect("launch edsr")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The per-increment rows of an `edsr run` report (the headline line
/// carries wall time).
fn rows(out: &Output) -> Vec<String> {
    let stdout = text(&out.stdout);
    let rows: Vec<String> = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("after task"))
        .map(str::to_owned)
        .collect();
    assert!(!rows.is_empty(), "no per-task rows in {stdout:?}");
    rows
}

/// `line` split into arguments.
fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

#[test]
fn undeclared_or_malformed_flags_exit_2_before_any_work() {
    let dir = scratch("probes");
    let probes = [
        ("run test edsr --sed 5 --bogus 3", "--sed"),
        ("run test edsr --seed 3 --epochs", "--epochs"),
        (
            "run test edsr --epochs 1 --quick --serve-queue 4 --obs ring",
            "--quick",
        ),
        ("presets --bogus", "--bogus"),
        // The third probe's flags one at a time.
        ("run test edsr --epochs 1 --serve-queue 4", "--serve-queue"),
        ("run test edsr --epochs 1 --obs ring", "--obs"),
        // A switch given a value, a flag another subcommand reads, and a
        // flag with no value before the next flag.
        ("run test edsr --resume=yes", "--resume"),
        ("tabular lin --epochs 1 --memory 8", "--memory"),
        ("metrics --obs-path", "--obs-path"),
        // A positional past the subcommand's count.
        ("presets extra", "\"extra\""),
        ("run test edsr extra --epochs 1", "\"extra\""),
        ("scenario list extra", "\"extra\""),
        ("tabular lin extra --epochs 1", "\"extra\""),
    ];
    for (probe, flag) in probes {
        // Each probe alone, then with a checkpoint directory and a metrics
        // file asked for: neither may appear.
        let with_outputs = format!("{probe} --checkpoint ckpt");
        for (args, env) in [
            (words(probe), &[][..]),
            (words(&with_outputs), &[("EDSR_OBS", "jsonl")][..]),
        ] {
            let out = edsr(&dir, &args, env);
            let stderr = text(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            let error = stderr.lines().find(|l| l.starts_with("error:"));
            assert!(
                error.is_some_and(|l| l.contains(flag)),
                "{args:?}: no `error:` line naming {flag} in {stderr:?}"
            );
            let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
            assert!(written.is_empty(), "{args:?} wrote {written:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_well_formed_run_still_trains_and_the_last_flag_wins() {
    let dir = scratch("run");
    let out = edsr(&dir, &words("run test edsr --epochs 1 --seed 3"), &[]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    // Both value forms, each flag given twice: the last occurrence wins.
    let respelled = words("run test edsr --seed=9 --epochs 2 --epochs=1 --seed 3");
    let respelled = edsr(&dir, &respelled, &[]);
    assert!(respelled.status.success(), "{}", text(&respelled.stderr));
    assert_eq!(rows(&out), rows(&respelled));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_reads_its_input_without_truncating_it() {
    let dir = scratch("metrics");
    let obs = [("EDSR_OBS", "jsonl"), ("EDSR_OBS_PATH", "m.jsonl")];
    let out = edsr(&dir, &words("run test edsr --epochs 1"), &obs);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let before = std::fs::read(dir.join("m.jsonl")).expect("the run wrote m.jsonl");
    let events = text(&before)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();
    assert!(events > 0, "the run wrote no events");
    let want = format!("{events} events in m.jsonl");
    for (args, env) in [
        ("metrics m.jsonl", &[][..]),
        ("metrics m.jsonl", &obs),
        ("metrics m.jsonl --obs jsonl --obs-path m.jsonl", &[]),
        // Without an argument, `metrics` reads the metrics path.
        ("metrics", &obs),
    ] {
        let out = edsr(&dir, &words(args), env);
        let stdout = text(&out.stdout);
        assert!(
            out.status.success(),
            "{args:?} {env:?}: {}",
            text(&out.stderr)
        );
        assert!(
            stdout.lines().any(|l| l == want),
            "{args:?} {env:?}: expected {want:?} in {stdout:?}"
        );
        let after = std::fs::read(dir.join("m.jsonl")).expect("m.jsonl survives");
        assert!(after == before, "{args:?} {env:?} changed m.jsonl");
    }
    // `presets` installs no sink either.
    let out = edsr(&dir, &words("presets"), &[("EDSR_OBS", "jsonl")]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(!dir.join("metrics.jsonl").exists(), "presets wrote metrics");
    std::fs::remove_dir_all(&dir).ok();
}
