//! One reader for every process-level knob.
//!
//! Before this module, configuration was scattered: `EDSR_THREADS` read in
//! `edsr-par`, `EDSR_BENCH_QUICK` read ad-hoc in each bench binary, and the
//! CLI parsed `--threads`/`--checkpoint`/`--resume` by hand. [`EnvConfig`]
//! resolves all of them in one place with documented precedence:
//!
//! **CLI flag > environment variable > default.**
//!
//! | knob | CLI | env | default |
//! |------|-----|-----|---------|
//! | threads | `--threads N` | `EDSR_THREADS` | auto (pool picks) |
//! | SIMD ISA | `--isa LEVEL` | `EDSR_ISA` | `auto` (detect) |
//! | bench quick mode | `--quick` | `EDSR_BENCH_QUICK` | off |
//! | checkpoint dir | `--checkpoint DIR` | `EDSR_CHECKPOINT` | none |
//! | resume | `--resume` | `EDSR_RESUME` | off |
//! | observability mode | `--obs MODE` | `EDSR_OBS` | `off` |
//! | metrics path | `--obs-path PATH` | `EDSR_OBS_PATH` | `metrics.jsonl` |
//! | serve batch cap | `--serve-batch N` | `EDSR_SERVE_BATCH` | server default |
//! | serve window (µs) | `--serve-window-us N` | `EDSR_SERVE_WINDOW_US` | server default |
//! | serve rotation poll (ms) | `--serve-rotate-ms N` | `EDSR_SERVE_ROTATE_MS` | server default |
//! | serve deadline (ms, 0 = off) | `--serve-deadline-ms N` | `EDSR_SERVE_DEADLINE_MS` | off |
//! | serve queue cap | `--serve-queue N` | `EDSR_SERVE_QUEUE` | server default |
//! | serve read timeout (ms) | `--serve-read-timeout-ms N` | `EDSR_SERVE_READ_TIMEOUT_MS` | server default |
//! | serve stall cap (ms) | `--serve-stall-ms N` | `EDSR_SERVE_STALL_MS` | server default |
//! | serve int8 quantized | `--quantized` | `EDSR_SERVE_QUANT` | off |
//!
//! Boolean env vars are truthy unless empty, `0`, `false`, or `off`
//! (case-insensitive). [`EnvConfig::resolve`] is pure — the environment is
//! passed in as a lookup function — so each knob has an isolated unit test
//! that cannot race other tests through the process environment.
//! [`EnvConfig::from_process`] binds the real `std::env`, and
//! [`EnvConfig::apply`] pushes the resolved values into the runtime
//! (`edsr_par::set_threads`, `edsr_tensor::simd::set_isa`,
//! `edsr_obs::install_mode`).

use std::path::PathBuf;

use edsr_obs::ObsMode;
use edsr_par::parse_threads;
use edsr_tensor::simd::IsaRequest;

/// Resolved process configuration; see the module docs for the knob table.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// Compute thread count (`None` = let the pool auto-detect).
    pub threads: Option<usize>,
    /// SIMD kernel ISA (`auto | scalar | avx2 | avx512`; `None` = let the
    /// dispatch layer resolve `EDSR_ISA` / auto-detect on first use).
    pub isa: Option<IsaRequest>,
    /// Shrink benchmark workloads to a smoke run.
    pub bench_quick: bool,
    /// Directory for run-state snapshots.
    pub checkpoint: Option<PathBuf>,
    /// Resume from the latest valid snapshot in `checkpoint`.
    pub resume: bool,
    /// Observability sink mode.
    pub obs: ObsMode,
    /// Metrics file path for [`ObsMode::Jsonl`].
    pub obs_path: PathBuf,
    /// Micro-batcher flush size for `edsr serve` (`None` = server default).
    pub serve_batch: Option<usize>,
    /// Micro-batcher coalescing window in microseconds for `edsr serve`
    /// (`None` = server default).
    pub serve_window_us: Option<u64>,
    /// Snapshot-rotation poll interval in milliseconds for `edsr serve`
    /// (`None` = server default; rotation itself is enabled by serving a
    /// snapshot *directory* rather than a single file).
    pub serve_rotate_ms: Option<u64>,
    /// Per-request deadline in milliseconds for `edsr serve`
    /// (`None` = unset, `Some(0)` = explicitly disabled).
    pub serve_deadline_ms: Option<u64>,
    /// Bounded submit-queue capacity for `edsr serve` (`None` = server
    /// default). Requests beyond it are shed with `ERR_OVERLOADED`.
    pub serve_queue: Option<usize>,
    /// Per-connection socket read timeout in milliseconds for
    /// `edsr serve` (`None` = server default).
    pub serve_read_timeout_ms: Option<u64>,
    /// Slow-peer stall cap in milliseconds for `edsr serve`: a
    /// connection idle mid-frame longer than this is dropped
    /// (`None` = server default).
    pub serve_stall_ms: Option<u64>,
    /// Serve on the int8 quantized backend: `edsr serve` quantizes v1
    /// snapshots in-process (v2 snapshots always serve quantized) and
    /// `edsr query` asserts the server is quantized before sending.
    pub serve_quant: bool,
    /// Arguments `resolve` did not consume (positionals and unknown
    /// flags), in their original order, for the caller's own parser.
    pub rest: Vec<String>,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self {
            threads: None,
            isa: None,
            bench_quick: false,
            checkpoint: None,
            resume: false,
            obs: ObsMode::Off,
            obs_path: PathBuf::from("metrics.jsonl"),
            serve_batch: None,
            serve_window_us: None,
            serve_rotate_ms: None,
            serve_deadline_ms: None,
            serve_queue: None,
            serve_read_timeout_ms: None,
            serve_stall_ms: None,
            serve_quant: false,
            rest: Vec::new(),
        }
    }
}

/// Is an env-var value truthy? Empty, `0`, `false`, and `off` are not.
fn truthy(value: &str) -> bool {
    !matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "false" | "off"
    )
}

impl EnvConfig {
    /// Resolves configuration from an environment lookup and CLI args,
    /// with precedence CLI > env > default. `args` excludes the program
    /// name. Unrecognised arguments are preserved in [`rest`](Self::rest).
    ///
    /// Errors are human-readable strings naming the offending knob
    /// (unparseable `--threads`, unknown `--obs` mode, missing flag value).
    pub fn resolve(env: impl Fn(&str) -> Option<String>, args: &[String]) -> Result<Self, String> {
        let mut cfg = Self::default();

        // Environment layer.
        if let Some(v) = env("EDSR_THREADS") {
            cfg.threads = Some(parse_threads("EDSR_THREADS", &v)?);
        }
        if let Some(v) = env("EDSR_ISA") {
            cfg.isa = Some(parse_isa("EDSR_ISA", &v)?);
        }
        if let Some(v) = env("EDSR_BENCH_QUICK") {
            cfg.bench_quick = truthy(&v);
        }
        if let Some(v) = env("EDSR_CHECKPOINT") {
            if !v.is_empty() {
                cfg.checkpoint = Some(PathBuf::from(v));
            }
        }
        if let Some(v) = env("EDSR_RESUME") {
            cfg.resume = truthy(&v);
        }
        if let Some(v) = env("EDSR_OBS") {
            cfg.obs = ObsMode::parse(&v).ok_or_else(|| bad_obs("EDSR_OBS", &v))?;
        }
        if let Some(v) = env("EDSR_OBS_PATH") {
            if !v.is_empty() {
                cfg.obs_path = PathBuf::from(v);
            }
        }
        if let Some(v) = env("EDSR_SERVE_BATCH") {
            cfg.serve_batch = Some(parse_count("EDSR_SERVE_BATCH", &v)?);
        }
        if let Some(v) = env("EDSR_SERVE_WINDOW_US") {
            cfg.serve_window_us = Some(parse_window("EDSR_SERVE_WINDOW_US", &v)?);
        }
        if let Some(v) = env("EDSR_SERVE_ROTATE_MS") {
            cfg.serve_rotate_ms = Some(parse_ms_nonzero("EDSR_SERVE_ROTATE_MS", &v)?);
        }
        if let Some(v) = env("EDSR_SERVE_DEADLINE_MS") {
            cfg.serve_deadline_ms = Some(parse_ms("EDSR_SERVE_DEADLINE_MS", &v)?);
        }
        if let Some(v) = env("EDSR_SERVE_QUEUE") {
            cfg.serve_queue = Some(parse_count("EDSR_SERVE_QUEUE", &v)?);
        }
        if let Some(v) = env("EDSR_SERVE_READ_TIMEOUT_MS") {
            cfg.serve_read_timeout_ms = Some(parse_ms_nonzero("EDSR_SERVE_READ_TIMEOUT_MS", &v)?);
        }
        if let Some(v) = env("EDSR_SERVE_STALL_MS") {
            cfg.serve_stall_ms = Some(parse_ms_nonzero("EDSR_SERVE_STALL_MS", &v)?);
        }
        if let Some(v) = env("EDSR_SERVE_QUANT") {
            cfg.serve_quant = truthy(&v);
        }

        // CLI layer (wins). Both `--flag value` and `--flag=value` work.
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
                _ => (arg.as_str(), None),
            };
            let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
                inline
                    .clone()
                    .or_else(|| it.next().cloned())
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag {
                "--threads" => {
                    let v = value(&mut it)?;
                    cfg.threads = Some(parse_threads("--threads", &v)?);
                }
                "--isa" => {
                    let v = value(&mut it)?;
                    cfg.isa = Some(parse_isa("--isa", &v)?);
                }
                "--quick" => cfg.bench_quick = true,
                "--checkpoint" => cfg.checkpoint = Some(PathBuf::from(value(&mut it)?)),
                "--resume" => cfg.resume = true,
                "--obs" => {
                    let v = value(&mut it)?;
                    cfg.obs = ObsMode::parse(&v).ok_or_else(|| bad_obs("--obs", &v))?;
                }
                "--obs-path" => cfg.obs_path = PathBuf::from(value(&mut it)?),
                "--serve-batch" => {
                    let v = value(&mut it)?;
                    cfg.serve_batch = Some(parse_count("--serve-batch", &v)?);
                }
                "--serve-window-us" => {
                    let v = value(&mut it)?;
                    cfg.serve_window_us = Some(parse_window("--serve-window-us", &v)?);
                }
                "--serve-rotate-ms" => {
                    let v = value(&mut it)?;
                    cfg.serve_rotate_ms = Some(parse_ms_nonzero("--serve-rotate-ms", &v)?);
                }
                "--serve-deadline-ms" => {
                    let v = value(&mut it)?;
                    cfg.serve_deadline_ms = Some(parse_ms("--serve-deadline-ms", &v)?);
                }
                "--serve-queue" => {
                    let v = value(&mut it)?;
                    cfg.serve_queue = Some(parse_count("--serve-queue", &v)?);
                }
                "--serve-read-timeout-ms" => {
                    let v = value(&mut it)?;
                    cfg.serve_read_timeout_ms =
                        Some(parse_ms_nonzero("--serve-read-timeout-ms", &v)?);
                }
                "--serve-stall-ms" => {
                    let v = value(&mut it)?;
                    cfg.serve_stall_ms = Some(parse_ms_nonzero("--serve-stall-ms", &v)?);
                }
                "--quantized" => cfg.serve_quant = true,
                _ => cfg.rest.push(arg.clone()),
            }
        }
        Ok(cfg)
    }

    /// [`resolve`](Self::resolve) against the real process environment
    /// and `std::env::args` (program name skipped).
    pub fn from_process() -> Result<Self, String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::resolve(|k| std::env::var(k).ok(), &args)
    }

    /// Pushes the resolved config into the runtime: sets the `edsr-par`
    /// thread count (when requested), installs the SIMD kernel ISA
    /// (`edsr_tensor::simd::set_isa` — a pinned ISA the host cannot
    /// execute is reported as an error rather than silently downgraded),
    /// and installs the observability sink. Returns the ring sink when
    /// `obs = ring`, so the caller can drain it; `Err` also means the
    /// JSONL metrics file could not be created.
    pub fn apply(&self) -> std::io::Result<Option<edsr_obs::RingSink>> {
        if let Some(n) = self.threads {
            edsr_par::set_threads(n);
        }
        if let Some(req) = self.isa {
            edsr_tensor::simd::set_isa(req)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::Unsupported, e.to_string()))?;
        }
        edsr_obs::install_mode(self.obs, &self.obs_path)
    }
}

fn parse_isa(source: &str, value: &str) -> Result<IsaRequest, String> {
    IsaRequest::parse(value.trim())
        .ok_or_else(|| format!("{source}: expected auto | scalar | avx2 | avx512, got {value:?}"))
}

fn parse_count(source: &str, value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{source}: expected a count >= 1, got {value:?}")),
    }
}

fn parse_window(source: &str, value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("{source}: expected microseconds (u64), got {value:?}"))
}

fn parse_ms(source: &str, value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("{source}: expected milliseconds (u64), got {value:?}"))
}

fn parse_ms_nonzero(source: &str, value: &str) -> Result<u64, String> {
    match value.trim().parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{source}: expected milliseconds >= 1, got {value:?}"
        )),
    }
}

fn bad_obs(source: &str, value: &str) -> String {
    format!("{source}: expected off | ring | jsonl, got {value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_nothing_set() {
        let cfg = EnvConfig::resolve(no_env, &[]).unwrap();
        assert_eq!(cfg, EnvConfig::default());
        assert_eq!(cfg.obs_path, PathBuf::from("metrics.jsonl"));
    }

    #[test]
    fn threads_cli_beats_env() {
        let env = |k: &str| (k == "EDSR_THREADS").then(|| "8".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--threads", "2"])).unwrap();
        assert_eq!(cfg.threads, Some(2));
        let cfg = EnvConfig::resolve(env, &[]).unwrap();
        assert_eq!(cfg.threads, Some(8));
        assert!(EnvConfig::resolve(env, &args(&["--threads", "zero"])).is_err());
        assert!(EnvConfig::resolve(no_env, &args(&["--threads", "0"])).is_err());
    }

    #[test]
    fn isa_cli_beats_env_and_validates() {
        use edsr_tensor::simd::{Isa, IsaRequest};
        let env = |k: &str| (k == "EDSR_ISA").then(|| "scalar".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--isa", "avx2"])).unwrap();
        assert_eq!(cfg.isa, Some(IsaRequest::Fixed(Isa::Avx2)));
        let cfg = EnvConfig::resolve(env, &[]).unwrap();
        assert_eq!(cfg.isa, Some(IsaRequest::Fixed(Isa::Scalar)));
        assert_eq!(EnvConfig::resolve(no_env, &[]).unwrap().isa, None);
        let cfg = EnvConfig::resolve(no_env, &args(&["--isa=auto"])).unwrap();
        assert_eq!(cfg.isa, Some(IsaRequest::Auto));
        let cfg = EnvConfig::resolve(no_env, &args(&["--isa", "avx512"])).unwrap();
        assert_eq!(cfg.isa, Some(IsaRequest::Fixed(Isa::Avx512)));
        assert!(EnvConfig::resolve(no_env, &args(&["--isa", "sse9"])).is_err());
        let bad = |k: &str| (k == "EDSR_ISA").then(|| "neon".to_string());
        assert!(EnvConfig::resolve(bad, &[]).is_err());
        assert!(EnvConfig::resolve(no_env, &args(&["--isa"])).is_err());
    }

    #[test]
    fn bench_quick_cli_beats_env() {
        let env = |k: &str| (k == "EDSR_BENCH_QUICK").then(|| "0".to_string());
        // env says off...
        assert!(!EnvConfig::resolve(env, &[]).unwrap().bench_quick);
        // ...but the flag forces it on.
        assert!(
            EnvConfig::resolve(env, &args(&["--quick"]))
                .unwrap()
                .bench_quick
        );
        let env_on = |k: &str| (k == "EDSR_BENCH_QUICK").then(|| "1".to_string());
        assert!(EnvConfig::resolve(env_on, &[]).unwrap().bench_quick);
    }

    #[test]
    fn checkpoint_cli_beats_env() {
        let env = |k: &str| (k == "EDSR_CHECKPOINT").then(|| "/tmp/env-ckpt".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--checkpoint", "/tmp/cli-ckpt"])).unwrap();
        assert_eq!(cfg.checkpoint, Some(PathBuf::from("/tmp/cli-ckpt")));
        let cfg = EnvConfig::resolve(env, &[]).unwrap();
        assert_eq!(cfg.checkpoint, Some(PathBuf::from("/tmp/env-ckpt")));
        assert!(EnvConfig::resolve(no_env, &args(&["--checkpoint"])).is_err());
    }

    #[test]
    fn resume_env_and_flag() {
        let env = |k: &str| (k == "EDSR_RESUME").then(|| "false".to_string());
        assert!(!EnvConfig::resolve(env, &[]).unwrap().resume);
        assert!(
            EnvConfig::resolve(env, &args(&["--resume"]))
                .unwrap()
                .resume
        );
        let env_on = |k: &str| (k == "EDSR_RESUME").then(|| "yes".to_string());
        assert!(EnvConfig::resolve(env_on, &[]).unwrap().resume);
    }

    #[test]
    fn obs_mode_cli_beats_env() {
        let env = |k: &str| (k == "EDSR_OBS").then(|| "ring".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--obs", "jsonl"])).unwrap();
        assert_eq!(cfg.obs, ObsMode::Jsonl);
        assert_eq!(EnvConfig::resolve(env, &[]).unwrap().obs, ObsMode::Ring);
        assert!(EnvConfig::resolve(no_env, &args(&["--obs", "tracing"])).is_err());
    }

    #[test]
    fn obs_path_cli_beats_env() {
        let env = |k: &str| (k == "EDSR_OBS_PATH").then(|| "env.jsonl".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--obs-path=cli.jsonl"])).unwrap();
        assert_eq!(cfg.obs_path, PathBuf::from("cli.jsonl"));
        assert_eq!(
            EnvConfig::resolve(env, &[]).unwrap().obs_path,
            PathBuf::from("env.jsonl")
        );
    }

    #[test]
    fn serve_batch_cli_beats_env_and_validates() {
        let env = |k: &str| (k == "EDSR_SERVE_BATCH").then(|| "16".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--serve-batch", "4"])).unwrap();
        assert_eq!(cfg.serve_batch, Some(4));
        assert_eq!(EnvConfig::resolve(env, &[]).unwrap().serve_batch, Some(16));
        assert_eq!(EnvConfig::resolve(no_env, &[]).unwrap().serve_batch, None);
        assert!(EnvConfig::resolve(no_env, &args(&["--serve-batch", "0"])).is_err());
        let bad = |k: &str| (k == "EDSR_SERVE_BATCH").then(|| "lots".to_string());
        assert!(EnvConfig::resolve(bad, &[]).is_err());
    }

    #[test]
    fn serve_window_cli_beats_env_and_validates() {
        let env = |k: &str| (k == "EDSR_SERVE_WINDOW_US").then(|| "250".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--serve-window-us=1000"])).unwrap();
        assert_eq!(cfg.serve_window_us, Some(1000));
        assert_eq!(
            EnvConfig::resolve(env, &[]).unwrap().serve_window_us,
            Some(250)
        );
        // Zero is a valid window: flush immediately once a request lands.
        let cfg = EnvConfig::resolve(no_env, &args(&["--serve-window-us", "0"])).unwrap();
        assert_eq!(cfg.serve_window_us, Some(0));
        assert!(EnvConfig::resolve(no_env, &args(&["--serve-window-us", "-5"])).is_err());
    }

    #[test]
    fn serve_rotate_cli_beats_env_and_validates() {
        let env = |k: &str| (k == "EDSR_SERVE_ROTATE_MS").then(|| "500".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--serve-rotate-ms", "50"])).unwrap();
        assert_eq!(cfg.serve_rotate_ms, Some(50));
        assert_eq!(
            EnvConfig::resolve(env, &[]).unwrap().serve_rotate_ms,
            Some(500)
        );
        assert_eq!(
            EnvConfig::resolve(no_env, &[]).unwrap().serve_rotate_ms,
            None
        );
        // A zero poll interval would spin; reject it.
        assert!(EnvConfig::resolve(no_env, &args(&["--serve-rotate-ms", "0"])).is_err());
    }

    #[test]
    fn serve_deadline_cli_beats_env_and_zero_means_disabled() {
        let env = |k: &str| (k == "EDSR_SERVE_DEADLINE_MS").then(|| "250".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--serve-deadline-ms=40"])).unwrap();
        assert_eq!(cfg.serve_deadline_ms, Some(40));
        assert_eq!(
            EnvConfig::resolve(env, &[]).unwrap().serve_deadline_ms,
            Some(250)
        );
        // Zero is a valid setting: it explicitly disables the deadline.
        let cfg = EnvConfig::resolve(no_env, &args(&["--serve-deadline-ms", "0"])).unwrap();
        assert_eq!(cfg.serve_deadline_ms, Some(0));
        assert!(EnvConfig::resolve(no_env, &args(&["--serve-deadline-ms", "soon"])).is_err());
    }

    #[test]
    fn serve_queue_cli_beats_env_and_validates() {
        let env = |k: &str| (k == "EDSR_SERVE_QUEUE").then(|| "64".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--serve-queue", "8"])).unwrap();
        assert_eq!(cfg.serve_queue, Some(8));
        assert_eq!(EnvConfig::resolve(env, &[]).unwrap().serve_queue, Some(64));
        assert_eq!(EnvConfig::resolve(no_env, &[]).unwrap().serve_queue, None);
        assert!(EnvConfig::resolve(no_env, &args(&["--serve-queue", "0"])).is_err());
    }

    #[test]
    fn serve_read_timeout_cli_beats_env_and_validates() {
        let env = |k: &str| (k == "EDSR_SERVE_READ_TIMEOUT_MS").then(|| "100".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--serve-read-timeout-ms", "5"])).unwrap();
        assert_eq!(cfg.serve_read_timeout_ms, Some(5));
        assert_eq!(
            EnvConfig::resolve(env, &[]).unwrap().serve_read_timeout_ms,
            Some(100)
        );
        // A zero read timeout means "block forever" to the socket layer,
        // which would defeat the poll loop; reject it.
        assert!(EnvConfig::resolve(no_env, &args(&["--serve-read-timeout-ms", "0"])).is_err());
    }

    #[test]
    fn serve_stall_cli_beats_env_and_validates() {
        let env = |k: &str| (k == "EDSR_SERVE_STALL_MS").then(|| "2000".to_string());
        let cfg = EnvConfig::resolve(env, &args(&["--serve-stall-ms=300"])).unwrap();
        assert_eq!(cfg.serve_stall_ms, Some(300));
        assert_eq!(
            EnvConfig::resolve(env, &[]).unwrap().serve_stall_ms,
            Some(2000)
        );
        assert!(EnvConfig::resolve(no_env, &args(&["--serve-stall-ms", "0"])).is_err());
    }

    #[test]
    fn serve_quant_env_and_flag() {
        let env = |k: &str| (k == "EDSR_SERVE_QUANT").then(|| "off".to_string());
        assert!(!EnvConfig::resolve(env, &[]).unwrap().serve_quant);
        assert!(
            EnvConfig::resolve(env, &args(&["--quantized"]))
                .unwrap()
                .serve_quant
        );
        let env_on = |k: &str| (k == "EDSR_SERVE_QUANT").then(|| "1".to_string());
        assert!(EnvConfig::resolve(env_on, &[]).unwrap().serve_quant);
        assert!(!EnvConfig::resolve(no_env, &[]).unwrap().serve_quant);
    }

    #[test]
    fn unknown_args_preserved_in_order() {
        let cfg = EnvConfig::resolve(
            no_env,
            &args(&["run", "cifar10", "--threads", "3", "edsr", "--seed", "7"]),
        )
        .unwrap();
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.rest, args(&["run", "cifar10", "edsr", "--seed", "7"]));
    }

    #[test]
    fn inline_equals_form_accepted() {
        let cfg = EnvConfig::resolve(no_env, &args(&["--threads=4", "--obs=jsonl"])).unwrap();
        assert_eq!(cfg.threads, Some(4));
        assert_eq!(cfg.obs, ObsMode::Jsonl);
    }
}
