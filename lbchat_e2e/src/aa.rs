//! `--aa K`: the same commit against itself.
//!
//! Runs the workload as 2 × K child processes of this executable,
//! alternating set A and set B; run `i` of either set uses seed `base + i`,
//! so each set sees the same K seeds — the shape of the acceptance check
//! (ten seeds, twice). Prints, per end-to-end metric, both medians, their
//! relative difference, each set's quartile spread, and the bound.

use crate::run::RunArgs;
use crate::spec::{Better, END_TO_END};
use crate::stats::{median, quartile_spread};
use lbchat::obs::Json;
use std::process::Command;

/// The end-to-end values of one child run, in catalogue order.
fn child_run(args: &RunArgs, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.kind.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(args.smoke.then_some("--smoke"))
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !output.status.success() {
        return Err(format!("child run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_result_line(stdout.lines().last().unwrap_or(""))
}

/// Reads the end-to-end values from a run's result line; an incorrect run
/// is an error (its numbers mean nothing).
fn parse_result_line(line: &str) -> Result<Vec<f64>, String> {
    let json = lbchat::obs::parse(line).map_err(|e| format!("bad result line {line:?}: {e:?}"))?;
    if json.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("child run was not correct: {line}"));
    }
    END_TO_END
        .iter()
        .map(|m| {
            json.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result line lacks {}", m.name))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Runs the A/A comparison and prints its table.
pub fn run(args: &RunArgs, k: usize) -> Result<(), String> {
    let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..k {
        for (set, label) in sets.iter_mut().zip(["A", "B"]) {
            let seed = args.seed + i as u64;
            let values = child_run(args, seed)?;
            println!("{label}{} seed {seed}: {values:?}", i + 1);
            set.push(values);
        }
    }
    println!(
        "\nA/A of {} over seeds {}..={} ({k} runs a set, alternating A, B)",
        args.kind.name(),
        args.seed,
        args.seed + k as u64 - 1
    );
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>10} {:>9} {:>9} {:>6}  verdict",
        "metric", "unit", "median A", "median B", "B worse by", "spread A", "spread B", "bound"
    );
    for (col, m) in END_TO_END.iter().enumerate() {
        let column = |set: &[Vec<f64>]| -> Vec<f64> { set.iter().map(|run| run[col]).collect() };
        let (a, b) = (column(&sets[0]), column(&sets[1]));
        let worse = worse_by(m.better, median(&a), median(&b));
        let (spread_a, spread_b) = (quartile_spread(&a), quartile_spread(&b));
        // setup_s is held to the median rule only, as in the acceptance check.
        let spread_ok = m.name == "setup_s" || spread_a.max(spread_b) <= m.bound;
        println!(
            "{:<12} {:>6} {:>12.4} {:>12.4} {:>+9.2}% {:>8.2}% {:>8.2}% {:>6}  {}",
            m.name,
            m.unit,
            median(&a),
            median(&b),
            worse * 100.0,
            spread_a * 100.0,
            spread_b * 100.0,
            m.bound,
            if worse <= m.bound && spread_ok {
                "within"
            } else {
                "OUTSIDE"
            }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_in_catalogue_order() {
        let line = r#"{"correct": true, "attempted": 4, "failed": 0, "metrics": {"run_wall_s": {"value": 4.5, "unit": "s"}, "setup_s": {"value": 5.25, "unit": "s"}, "peak_rss_mb": {"value": 37.5, "unit": "MiB"}, "recv_rate": {"value": 0.875, "unit": "ratio"}}}"#;
        assert_eq!(parse_result_line(line), Ok(vec![5.25, 4.5, 37.5, 0.875]));
        assert!(parse_result_line(&line.replace("true", "false")).is_err());
        assert!(parse_result_line("pass 1: 4.5 s").is_err());
        assert!(parse_result_line(&line.replace("recv_rate", "recv")).is_err());
    }

    #[test]
    fn worse_by_follows_the_metric_s_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 0.5, 0.45) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 10.0, 9.0) < 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), 0.0);
    }
}
