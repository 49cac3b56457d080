//! `lbchat-bench`: runs the deterministic benchmark suite and writes a
//! machine-readable `BENCH_<name>.json` result file.
//!
//! ```text
//! cargo run --release -p lbchat-bench -- [--smoke] [--filter SUBSTR]
//!     [--out DIR] [--name LABEL]
//! ```
//!
//! Defaults: full sampling, all cells, output under `results/bench/`,
//! label `current`. See `docs/BENCHMARKS.md` for the workflow.

use lbchat_bench::results::BenchRun;
use lbchat_bench::suite::{self, SuiteOpts};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    opts: SuiteOpts,
    out: PathBuf,
    name: String,
}

const USAGE: &str = "usage: lbchat-bench [--smoke] [--filter SUBSTR] [--out DIR] [--name LABEL]";

/// `Ok(None)` is a request for the usage text.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        opts: SuiteOpts::default(),
        out: PathBuf::from("results/bench"),
        name: "current".to_string(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => args.opts.smoke = true,
            "--filter" => args.opts.filter = Some(value("--filter")?),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--name" => args.name = value("--name")?,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "running {} suite{}",
        args.opts.mode(),
        args.opts
            .filter
            .as_deref()
            .map(|f| format!(", filter `{f}`"))
            .unwrap_or_default(),
    );
    let results = suite::run(&args.opts);
    if results.is_empty() {
        eprintln!("no benchmarks matched");
        return ExitCode::FAILURE;
    }
    for r in &results {
        eprintln!("{:<44} mean {:?}  ({} iters)", r.id, r.mean, r.iters);
    }
    let run = BenchRun::from_results(&args.name, args.opts.mode(), &results);
    match run.write_to(&args.out) {
        Ok(path) => {
            println!("{}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write results: {e}");
            ExitCode::FAILURE
        }
    }
}
