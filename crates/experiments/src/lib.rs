//! # experiments — regenerating the paper's evaluation
//!
//! One in-process driver, [`paper`], regenerates the paper's eight
//! artifacts: an [`paper::Artifact`] per figure or table (`fig2`,
//! `table2` … `table7`, `fig3`), each with a one-line binary of the same
//! name, and `run_all`, which renders them all in this process, training
//! each distinct cell once. The driver is built on three pieces:
//!
//! * [`scenario`] — builds the shared experimental world: the map, the
//!   per-vehicle route-conditioned datasets, the evaluation set (a fixed
//!   sample of the training frames, for the Fig. 2/3 training loss), the
//!   mobility trace, identical model initializations, and the RSU
//!   deployment sites.
//! * [`methods`] — constructs and runs any of the compared methods (LbChat
//!   and its ablations, SCO, ProxSkip, RSU-L, DFL-DDS, DP) on a scenario
//!   under a given wireless-loss condition.
//! * [`report`] — paper-style text tables and CSV output under `results/`.
//!
//! Each invocation also records a [`manifest`] — a structured JSONL event
//! stream under `results/runs/` (schema in `docs/OBSERVABILITY.md`) —
//! which the extra `summarize_runs` binary renders side by side.
//!
//! Scales: every binary accepts `--quick` (smoke test), defaults to a
//! laptop-friendly reduced scale, and accepts `--paper` for the paper's
//! full counts (32 vehicles, 1 h of data; expect hours of wall time).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod manifest;
pub mod methods;
pub mod paper;
pub mod report;
pub mod scenario;

pub use manifest::RunManifest;
pub use methods::{run_method, Condition, Method, RunOutput};
pub use report::{write_csv, Table};
pub use scenario::{Scale, Scenario};

/// Unwraps a runtime result in an experiment binary: prints the typed
/// [`RuntimeError`](lbchat::prelude::RuntimeError) and exits nonzero
/// instead of panicking with a backtrace.
pub fn exit_on_error<T>(result: Result<T, lbchat::prelude::RuntimeError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("runtime error: {e}");
            std::process::exit(2);
        }
    }
}

use lbchat::exec;

/// Command-line arguments shared by every experiment binary.
///
/// ```text
/// --quick | --paper      scale preset (default: laptop-friendly reduced)
/// --seed N               override the scenario base seed
/// --jobs N               worker threads (also LBCHAT_JOBS; 1 = serial)
/// --methods a,b,c        method subset for comparison binaries
/// ```
///
/// Flags accept both `--flag value` and `--flag=value`. Results are
/// bit-identical for any `--jobs` setting — parallelism only changes wall
/// time.
#[derive(Debug, Clone)]
pub struct Args {
    /// Scenario scale, with any `--seed` override applied.
    pub scale: Scale,
    /// `--jobs` value, if given ([`Args::parse`] already applied it to the
    /// worker pool via [`lbchat::exec::set_jobs`]).
    pub jobs: Option<usize>,
    /// `--methods` subset, if given.
    pub methods: Option<Vec<Method>>,
}

impl Args {
    /// The usage text printed by `--help` and on parse errors.
    pub const USAGE: &'static str = "\
usage: <experiment> [--quick | --paper] [--seed N] [--jobs N] [--methods a,b,c]

  --quick          smoke-test scale (seconds of wall time)
  --paper          the paper's full counts (hours of wall time)
  --seed N         override the scenario base seed (default 42)
  --jobs N         worker threads; 1 = serial (env: LBCHAT_JOBS)
  --methods a,b,c  method subset for comparison binaries; keys:
                   lbchat, sco, proxskip, rsul, dfl-dds, dp,
                   equal-comp, avg-agg, coreset:N";

    /// Parses `std::env::args()`, applies `--jobs` to the worker pool, and
    /// exits with a message on `--help` or malformed flags.
    pub fn parse() -> Args {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        if raw.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Self::USAGE);
            std::process::exit(0);
        }
        match Self::try_parse(raw) {
            Ok(args) => {
                if let Some(jobs) = args.jobs {
                    exec::set_jobs(jobs);
                }
                args
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{}", Self::USAGE);
                std::process::exit(2);
            }
        }
    }

    /// Pure parser (no process exit, no global effects) — what
    /// [`Args::parse`] wraps, kept separate so tests can exercise it.
    pub fn try_parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut scale: Option<Scale> = None;
        let mut seed: Option<u64> = None;
        let mut jobs: Option<usize> = None;
        let mut methods: Option<Vec<Method>> = None;
        let mut it = raw.into_iter();
        while let Some(arg) = it.next() {
            // Accept --flag=value by splitting once.
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut value = |name: &str| -> Result<String, String> {
                inline
                    .clone()
                    .or_else(|| it.next())
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--quick" => scale = Some(Scale::quick()),
                "--paper" => scale = Some(Scale::paper()),
                "--seed" => {
                    let v = value("--seed")?;
                    seed = Some(v.parse().map_err(|_| format!("bad --seed value {v:?}"))?);
                }
                "--jobs" => {
                    let v = value("--jobs")?;
                    let n: usize =
                        v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    jobs = Some(n);
                }
                "--methods" => {
                    let v = value("--methods")?;
                    let parsed: Result<Vec<Method>, String> = v
                        .split(',')
                        .filter(|k| !k.trim().is_empty())
                        .map(|k| {
                            Method::from_key(k)
                                .ok_or_else(|| format!("unknown method key {k:?}"))
                        })
                        .collect();
                    let parsed = parsed?;
                    if parsed.is_empty() {
                        return Err("--methods needs at least one key".into());
                    }
                    methods = Some(parsed);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let mut scale = scale.unwrap_or_else(Scale::default_scale);
        if let Some(seed) = seed {
            scale.seed = seed;
        }
        Ok(Args { scale, jobs, methods })
    }

    /// The selected methods, or `default` when `--methods` was not given.
    pub fn methods_or(&self, default: &[Method]) -> Vec<Method> {
        self.methods.clone().unwrap_or_else(|| default.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn default_scale_with_no_flags() {
        let a = Args::try_parse(strs(&[])).unwrap();
        assert_eq!(a.scale.n_vehicles, Scale::default_scale().n_vehicles);
        assert_eq!(a.jobs, None);
        assert!(a.methods.is_none());
        assert_eq!(a.methods_or(&Method::MAIN), Method::MAIN.to_vec());
    }

    #[test]
    fn scale_seed_and_jobs_flags() {
        let a = Args::try_parse(strs(&["--quick", "--seed", "7", "--jobs", "3"])).unwrap();
        assert_eq!(a.scale.n_vehicles, Scale::quick().n_vehicles);
        assert_eq!(a.scale.seed, 7);
        assert_eq!(a.jobs, Some(3));
        let b = Args::try_parse(strs(&["--paper", "--seed=9", "--jobs=2"])).unwrap();
        assert_eq!(b.scale.n_vehicles, Scale::paper().n_vehicles);
        assert_eq!(b.scale.seed, 9);
        assert_eq!(b.jobs, Some(2));
    }

    #[test]
    fn methods_subset_parses_keys() {
        let a = Args::try_parse(strs(&["--methods", "lbchat,sco,coreset:40"])).unwrap();
        assert_eq!(
            a.methods,
            Some(vec![Method::LbChat, Method::Sco, Method::LbChatCoreset(40)])
        );
    }

    #[test]
    fn malformed_flags_are_rejected() {
        assert!(Args::try_parse(strs(&["--frobnicate"])).is_err());
        assert!(Args::try_parse(strs(&["--seed"])).is_err());
        assert!(Args::try_parse(strs(&["--seed", "banana"])).is_err());
        assert!(Args::try_parse(strs(&["--jobs", "0"])).is_err());
        assert!(Args::try_parse(strs(&["--methods", "lbchat,warp-drive"])).is_err());
        assert!(Args::try_parse(strs(&["--methods", ""])).is_err());
        assert!(Args::try_parse(strs(&["--fleet", "1k"])).is_err());
    }
}
