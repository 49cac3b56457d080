//! `lbchat_e2e` — the repository's end-to-end benchmark.
//!
//! ```text
//! lbchat_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! lbchat_e2e --workload <name> --aa K [--seed N] [--seconds S]
//! lbchat_e2e --list
//! ```
//!
//! One run is one process: it builds the workload's fixture, runs a warm-up
//! pass and at least three timed passes of fixed work, checks every cell,
//! and prints one JSON object as the last line of standard output. With
//! `--trace 1` it instead runs one untraced and one traced pass plus the
//! direct layer probes and prints the per-layer metrics. See `README.md`
//! beside this package for the metric and workload tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aa;
mod probes;
mod procfs;
mod run;
mod spec;
mod stats;
mod toy;
mod trace;
mod workloads;

use run::RunArgs;
use std::time::Instant;
use workloads::Kind;

const USAGE: &str = "\
usage: lbchat_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       lbchat_e2e --workload <name> --aa K [--seed N] [--seconds S]
       lbchat_e2e --list

  --workload NAME  lbchat_w | baselines_wo | fleet256_w | table2_small
  --seed N         seed of everything drawn after the world is built (default 42)
  --seconds S      keep making timed passes until S seconds were measured
                   (default 12; at least three passes; work per pass is fixed)
  --trace 0|1      0: end-to-end metrics (default); 1: per-layer metrics
  --smoke          horizons / 5 and 1 + 1 passes (a functional check)
  --aa K           run 2 x K child runs alternating sets A and B over seeds
                   N .. N+K-1 and compare the two sets
  --list           print every workload and every metric with its unit";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Cli {
    List,
    Run { args: RunArgs, trace: bool },
    Aa { args: RunArgs, k: usize },
}

fn parse_cli(raw: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut workload: Option<Kind> = None;
    let mut seed = 42u64;
    let mut seconds = 12.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut aa: Option<usize> = None;
    let mut list = false;
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--list" => list = true,
            "--smoke" => smoke = true,
            "--workload" => {
                let v = value("--workload")?;
                workload =
                    Some(Kind::from_name(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| format!("bad --seed value {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .map_err(|_| format!("bad --seconds value {v:?}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("bad --seconds value {v:?}"));
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--aa" => {
                let v = value("--aa")?;
                let k: usize = v.parse().map_err(|_| format!("bad --aa value {v:?}"))?;
                if k == 0 {
                    return Err("--aa needs at least 1".into());
                }
                aa = Some(k);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if list {
        return Ok(Cli::List);
    }
    let kind = workload.ok_or("--workload is required")?;
    let args = RunArgs {
        kind,
        seed,
        seconds,
        smoke,
    };
    Ok(match aa {
        Some(k) => Cli::Aa { args, k },
        None => Cli::Run { args, trace },
    })
}

/// Where the span tree of a traced run goes: `lbchat_e2e/` in the build
/// directory the executable runs from (`target/`, or `$CARGO_TARGET_DIR`),
/// so never inside the source tree.
fn spans_path(kind: Kind) -> std::path::PathBuf {
    let build_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| std::path::PathBuf::from("target"));
    build_dir
        .join("lbchat_e2e")
        .join(format!("spans-{}.json", kind.name()))
}

fn main() {
    let process_start = Instant::now();
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    // One client, one worker: LBCHAT_JOBS is ignored on purpose.
    lbchat::exec::set_jobs(1);
    match cli {
        Cli::List => print!("{}", spec::list()),
        Cli::Run { args, trace } => {
            println!(
                "lbchat_e2e: workload {} seed {} trace {} {}",
                args.kind.name(),
                args.seed,
                u8::from(trace),
                if args.smoke { "(smoke)" } else { "" }
            );
            let outcome = if trace {
                run::run_traced(&args, &spans_path(args.kind))
            } else {
                run::run_untraced(&args, process_start)
            };
            for (name, value, unit) in &outcome.metrics {
                println!("{name:<34} {value:>14.4} {unit}");
            }
            println!("{}", outcome.to_json());
        }
        Cli::Aa { args, k } => {
            if let Err(e) = aa::run(&args, k) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let got = cli(&[
            "--workload",
            "fleet256_w",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]);
        let args = RunArgs {
            kind: Kind::Fleet256W,
            seed: 7,
            seconds: 12.0,
            smoke: false,
        };
        assert_eq!(got, Ok(Cli::Run { args, trace: true }));
    }

    #[test]
    fn defaults_list_and_aa() {
        let args = RunArgs {
            kind: Kind::LbchatW,
            seed: 42,
            seconds: 12.0,
            smoke: false,
        };
        assert_eq!(
            cli(&["--workload", "lbchat_w"]),
            Ok(Cli::Run { args, trace: false })
        );
        assert_eq!(cli(&["--list"]), Ok(Cli::List));
        assert_eq!(
            cli(&["--workload", "lbchat_w", "--aa", "5"]),
            Ok(Cli::Aa { args, k: 5 })
        );
        let smoke = RunArgs {
            smoke: true,
            ..args
        };
        assert_eq!(
            cli(&["--smoke", "--workload", "lbchat_w"]),
            Ok(Cli::Run {
                args: smoke,
                trace: false
            })
        );
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        assert!(cli(&[]).is_err(), "a run needs a workload");
        assert!(cli(&["--workload", "table2_j2"]).is_err());
        assert!(cli(&["--workload"]).is_err());
        assert!(cli(&["--workload", "lbchat_w", "--seed", "banana"]).is_err());
        assert!(cli(&["--workload", "lbchat_w", "--seconds", "-1"]).is_err());
        assert!(cli(&["--workload", "lbchat_w", "--trace", "2"]).is_err());
        assert!(cli(&["--workload", "lbchat_w", "--aa", "0"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
