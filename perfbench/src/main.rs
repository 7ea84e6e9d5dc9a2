//! End-to-end benchmark for the EDSR reproduction.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|boundary|serve_f32|serve_int8> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints the host facts, one line per
//! measured unit, and as its last line a JSON object with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end set untraced
//! (`--trace 0`), the per-layer set traced (`--trace 1`). Traced runs also
//! write their spans to `perfbench/out/`. See `perfbench/README.md`.

mod host;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

const USAGE: &str = "usage: perfbench --workload <train|boundary|serve_f32|serve_int8> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
    };
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        traced,
    })
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    if let Some(spec) = train::spec(&args.workload) {
        let trace_path = args.traced.then(|| {
            format!(
                "perfbench/out/{}-seed{}.trace.jsonl",
                args.workload, args.seed
            )
        });
        train::run(&spec, args.seed, args.seconds, trace_path.as_deref())
    } else if let Some(spec) = serve::spec(&args.workload) {
        serve::run(&spec, args.seed, args.seconds, args.traced)
    } else {
        Err(format!("unknown workload {:?}", args.workload))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = match host::Facts::collect() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    println!("host {}", host.json());
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "failed_frac {} ({} of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    match outcome.result_line(args.traced) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
