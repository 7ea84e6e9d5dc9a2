//! One argument grammar for every binary, and the process knobs every
//! binary honours.
//!
//! Each binary, and each `edsr` subcommand, declares the flags it reads
//! once, as a [`Grammar`], and [`Grammar::parse`] reads its arguments:
//!
//! - a flag that takes a value is `--name value` or `--name=value`; the
//!   value may start with `-` (`--input -0.5,0.1`), and one that starts
//!   with `--` must use the `=` form;
//! - a switch is a bare `--name`;
//! - the last occurrence of a flag wins;
//! - every argument that does not start with `--` is a positional, kept
//!   in order, up to the grammar's `max_positionals`.
//!
//! A flag the grammar does not declare, a valued flag with no value, a
//! switch given `=value` and a positional past `max_positionals` are
//! errors that name the grammar and the argument.
//! Binaries print them as `error: …` and exit 2 before they build data or
//! write a file.
//!
//! [`EnvConfig`] resolves the three knobs every binary honours, with
//! precedence **CLI flag > environment variable > default**:
//!
//! | knob | CLI | env | default |
//! |------|-----|-----|---------|
//! | threads | `--threads N` | `EDSR_THREADS` | auto (pool picks) |
//! | observability mode | `--obs off\|jsonl` | `EDSR_OBS` | `off` |
//! | metrics path | `--obs-path PATH` | `EDSR_OBS_PATH` | `metrics.jsonl` |
//!
//! Every other flag is read from argv only, where it is used: the `edsr`
//! subcommands read their own, and `edsr_bench::resolve` reads `--quick`
//! (with `EDSR_BENCH_QUICK`) and `EDSR_SEEDS`. [`EnvConfig::resolve`] is
//! pure — the environment is passed in as a lookup function — so each
//! knob has an isolated unit test that cannot race other tests through the
//! process environment. [`EnvConfig::apply`] pushes the resolved values
//! into the runtime (`edsr_par::set_threads`, `edsr_obs::install_mode`).

use std::path::PathBuf;

use edsr_obs::ObsMode;
use edsr_par::parse_threads;

/// The flags one binary or subcommand reads; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Grammar<'a> {
    /// What errors name: the binary, or `edsr <subcommand>`.
    pub name: &'a str,
    /// Flags that take a value.
    pub values: &'a [&'static str],
    /// Flags that take none.
    pub switches: &'a [&'static str],
    /// The most positionals it accepts.
    pub max_positionals: usize,
}

/// Arguments read by [`Grammar::parse`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Each flag given, with its value (`None` for a switch), in order.
    flags: Vec<(&'static str, Option<String>)>,
    /// The arguments that do not start with `--`, in order.
    pub positionals: Vec<String>,
}

impl Args {
    /// The value of the last `flag` given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(f, _)| *f == flag)?;
        value.as_deref()
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }
}

impl Grammar<'_> {
    /// Reads `args` (program name excluded) under this grammar.
    pub fn parse(&self, args: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if out.positionals.len() == self.max_positionals {
                    return Err(format!("{}: unexpected argument {arg:?}", self.name));
                }
                out.positionals.push(arg.clone());
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let declared = |list: &[&'static str]| list.iter().copied().find(|&f| f == name);
            if let Some(flag) = declared(self.values) {
                let value = inline.or_else(|| it.next_if(|v| !v.starts_with("--")).cloned());
                let Some(value) = value else {
                    return Err(format!("{}: {name} requires a value", self.name));
                };
                out.flags.push((flag, Some(value)));
            } else if let Some(flag) = declared(self.switches) {
                if inline.is_some() {
                    return Err(format!("{}: {name} takes no value", self.name));
                }
                out.flags.push((flag, None));
            } else {
                return Err(format!("{}: unknown flag {name}", self.name));
            }
        }
        Ok(out)
    }
}

/// The flags of [`EnvConfig`]'s knobs, which every grammar accepts.
const PROCESS_FLAGS: [&str; 3] = ["--threads", "--obs", "--obs-path"];

/// The resolved process knobs; see the module docs for the table.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// Compute thread count (`None` = let the pool auto-detect).
    pub threads: Option<usize>,
    /// Observability sink mode.
    pub obs: ObsMode,
    /// Metrics file path for [`ObsMode::Jsonl`].
    pub obs_path: PathBuf,
    /// The binary's own arguments: its positionals and the flags of its
    /// grammar, without the process flags.
    pub rest: Args,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self {
            threads: None,
            obs: ObsMode::Off,
            obs_path: PathBuf::from("metrics.jsonl"),
            rest: Args::default(),
        }
    }
}

impl EnvConfig {
    /// Reads `args` (program name excluded) under `grammar` plus the
    /// process flags, and resolves the process knobs from them and the
    /// environment lookup `env`, with precedence CLI > env > default.
    ///
    /// Errors are human-readable strings naming the grammar and the
    /// offending flag or variable.
    pub fn resolve(
        env: impl Fn(&str) -> Option<String>,
        grammar: &Grammar,
        args: &[String],
    ) -> Result<Self, String> {
        let values = [grammar.values, &PROCESS_FLAGS[..]].concat();
        let mut rest = Grammar {
            values: &values,
            ..*grammar
        }
        .parse(args)?;
        let knob = |e: String| format!("{}: {e}", grammar.name);
        let mut cfg = Self::default();

        // Environment layer.
        if let Some(v) = env("EDSR_THREADS") {
            cfg.threads = Some(parse_threads("EDSR_THREADS", &v).map_err(knob)?);
        }
        if let Some(v) = env("EDSR_OBS") {
            cfg.obs = parse_obs("EDSR_OBS", &v).map_err(knob)?;
        }
        if let Some(v) = env("EDSR_OBS_PATH").filter(|v| !v.is_empty()) {
            cfg.obs_path = PathBuf::from(v);
        }

        // CLI layer (wins).
        if let Some(v) = rest.value("--threads") {
            cfg.threads = Some(parse_threads("--threads", v).map_err(knob)?);
        }
        if let Some(v) = rest.value("--obs") {
            cfg.obs = parse_obs("--obs", v).map_err(knob)?;
        }
        if let Some(v) = rest.value("--obs-path") {
            cfg.obs_path = PathBuf::from(v);
        }
        rest.flags.retain(|(f, _)| !PROCESS_FLAGS.contains(f));
        cfg.rest = rest;
        Ok(cfg)
    }

    /// Pushes the resolved config into the runtime: sets the `edsr-par`
    /// thread count (when requested) and installs the observability sink.
    /// `Err` means the JSONL metrics file could not be created.
    pub fn apply(&self) -> std::io::Result<()> {
        if let Some(n) = self.threads {
            edsr_par::set_threads(n);
        }
        edsr_obs::install_mode(self.obs, &self.obs_path)
    }
}

fn parse_obs(source: &str, value: &str) -> Result<ObsMode, String> {
    ObsMode::parse(value).ok_or_else(|| format!("{source}: expected off | jsonl, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: Grammar = Grammar {
        name: "edsr run",
        values: &["--seed", "--input", "--save"],
        switches: &["--resume"],
        max_positionals: 4,
    };

    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn resolve(env: impl Fn(&str) -> Option<String>, list: &[&str]) -> Result<EnvConfig, String> {
        EnvConfig::resolve(env, &RUN, &args(list))
    }

    #[test]
    fn both_value_forms_and_switches_parse() {
        let parsed = RUN
            .parse(&args(&["--seed", "3", "--save=out.bin", "--resume"]))
            .unwrap();
        assert_eq!(parsed.value("--seed"), Some("3"));
        assert_eq!(parsed.value("--save"), Some("out.bin"));
        assert!(parsed.switch("--resume"));
        assert_eq!(parsed.value("--input"), None);
        assert!(!RUN.parse(&[]).unwrap().switch("--resume"));
        // `=` splits once: the value keeps any later `=`.
        let parsed = RUN.parse(&args(&["--save=a=b"])).unwrap();
        assert_eq!(parsed.value("--save"), Some("a=b"));
    }

    #[test]
    fn last_occurrence_wins() {
        let parsed = RUN
            .parse(&args(&["--seed", "3", "--seed=5", "--seed", "7"]))
            .unwrap();
        assert_eq!(parsed.value("--seed"), Some("7"));
    }

    #[test]
    fn values_may_start_with_a_dash() {
        let parsed = RUN
            .parse(&args(&["--input", "-0.5,0.1", "--seed", "-1"]))
            .unwrap();
        assert_eq!(parsed.value("--input"), Some("-0.5,0.1"));
        assert_eq!(parsed.value("--seed"), Some("-1"));
        // A value that starts with `--` takes the `=` form.
        let parsed = RUN.parse(&args(&["--save=--odd-name"])).unwrap();
        assert_eq!(parsed.value("--save"), Some("--odd-name"));
    }

    #[test]
    fn positionals_keep_their_order() {
        let parsed = RUN
            .parse(&args(&[
                "test", "--seed", "3", "edsr", "-x", "--resume", "last",
            ]))
            .unwrap();
        assert_eq!(parsed.positionals, args(&["test", "edsr", "-x", "last"]));
    }

    #[test]
    fn errors_name_the_grammar_and_the_flag() {
        let err = |list: &[&str]| RUN.parse(&args(list)).unwrap_err();
        assert_eq!(err(&["--sed", "5"]), "edsr run: unknown flag --sed");
        assert_eq!(err(&["--bogus=1"]), "edsr run: unknown flag --bogus");
        assert_eq!(err(&["--seed"]), "edsr run: --seed requires a value");
        // The next flag is not taken as the value.
        assert_eq!(
            err(&["--seed", "--resume"]),
            "edsr run: --seed requires a value"
        );
        assert_eq!(err(&["--resume=yes"]), "edsr run: --resume takes no value");
        assert_eq!(
            err(&["a", "b", "--seed", "3", "c", "d", "e"]),
            "edsr run: unexpected argument \"e\""
        );
        // A process flag is a flag of the grammar only through `EnvConfig`.
        assert_eq!(err(&["--threads", "2"]), "edsr run: unknown flag --threads");
    }

    #[test]
    fn defaults_when_nothing_set() {
        let cfg = resolve(no_env, &[]).unwrap();
        assert_eq!(cfg, EnvConfig::default());
        assert_eq!(cfg.obs_path, PathBuf::from("metrics.jsonl"));
    }

    #[test]
    fn threads_cli_beats_env() {
        let env = |k: &str| (k == "EDSR_THREADS").then(|| "8".to_string());
        let cfg = resolve(env, &["--threads", "2"]).unwrap();
        assert_eq!(cfg.threads, Some(2));
        let cfg = resolve(env, &[]).unwrap();
        assert_eq!(cfg.threads, Some(8));
        assert!(resolve(env, &["--threads", "zero"]).is_err());
        assert!(resolve(no_env, &["--threads", "0"]).is_err());
    }

    #[test]
    fn obs_mode_cli_beats_env() {
        let env = |k: &str| (k == "EDSR_OBS").then(|| "jsonl".to_string());
        let cfg = resolve(env, &["--obs", "off"]).unwrap();
        assert_eq!(cfg.obs, ObsMode::Off);
        assert_eq!(resolve(env, &[]).unwrap().obs, ObsMode::Jsonl);
        assert!(resolve(no_env, &["--obs", "tracing"]).is_err());
        // The in-memory ring is for tests and examples, not a process mode.
        let err = resolve(no_env, &["--obs", "ring"]).unwrap_err();
        assert!(err.starts_with("edsr run: --obs:"), "{err}");
        let ring = |k: &str| (k == "EDSR_OBS").then(|| "ring".to_string());
        let err = resolve(ring, &[]).unwrap_err();
        assert!(err.starts_with("edsr run: EDSR_OBS:"), "{err}");
    }

    #[test]
    fn obs_path_cli_beats_env() {
        let env = |k: &str| (k == "EDSR_OBS_PATH").then(|| "env.jsonl".to_string());
        let cfg = resolve(env, &["--obs-path=cli.jsonl"]).unwrap();
        assert_eq!(cfg.obs_path, PathBuf::from("cli.jsonl"));
        assert_eq!(
            resolve(env, &[]).unwrap().obs_path,
            PathBuf::from("env.jsonl")
        );
    }

    #[test]
    fn leftover_arguments_keep_their_order() {
        let cfg = resolve(
            no_env,
            &[
                "cifar10",
                "--threads",
                "3",
                "edsr",
                "--seed",
                "7",
                "--resume",
            ],
        )
        .unwrap();
        assert_eq!(cfg.threads, Some(3));
        let want = RUN
            .parse(&args(&["cifar10", "edsr", "--seed", "7", "--resume"]))
            .unwrap();
        assert_eq!(cfg.rest, want);
        assert_eq!(
            resolve(no_env, &["--bogus"]).unwrap_err(),
            "edsr run: unknown flag --bogus"
        );
    }

    #[test]
    fn inline_equals_form_accepted() {
        let cfg = resolve(no_env, &["--threads=4", "--obs=jsonl"]).unwrap();
        assert_eq!(cfg.threads, Some(4));
        assert_eq!(cfg.obs, ObsMode::Jsonl);
    }
}
