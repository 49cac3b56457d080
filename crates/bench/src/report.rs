//! Diffing two benchmark result files and flagging regressions.
//!
//! Rows are matched by benchmark id. The speedup of a row is
//! `old_mean / new_mean` (> 1 means the new run is faster). A row
//! *regresses* only when both the mean and the minimum slow down beyond
//! the noise threshold — wall-clock means are noisy under load, but the
//! minimum per-iteration time is a robust lower bound, so requiring both
//! (`new_mean > old_mean·(1+τ)` **and** `new_min > old_min·(1+τ/2)`)
//! suppresses scheduler-noise false positives while still catching real
//! slowdowns. The default threshold τ is [`DEFAULT_THRESHOLD`]; the policy
//! is documented in `docs/BENCHMARKS.md`.

use crate::results::{BenchRun, Entry};

/// Default noise threshold τ (fractional slowdown tolerated before a row
/// counts as a regression).
pub const DEFAULT_THRESHOLD: f64 = 0.20;

/// Verdict for one matched row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Faster than the old run beyond the threshold.
    Improved,
    /// Within the noise band.
    Unchanged,
    /// Slower beyond the threshold on both mean and min.
    Regressed,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark id.
    pub id: String,
    /// Mean from the old run, nanoseconds.
    pub old_mean_ns: u64,
    /// Mean from the new run, nanoseconds.
    pub new_mean_ns: u64,
    /// `old_mean / new_mean`; > 1 is a speedup.
    pub speedup: f64,
    /// The verdict under the threshold policy.
    pub verdict: Verdict,
}

/// A full comparison of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Matched rows, in the new run's order.
    pub rows: Vec<Row>,
    /// Ids present only in the old run (removed benchmarks).
    pub only_old: Vec<String>,
    /// Ids present only in the new run (new benchmarks).
    pub only_new: Vec<String>,
    /// The threshold the verdicts used.
    pub threshold: f64,
}

impl Report {
    /// Number of regressed rows.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.verdict == Verdict::Regressed).count()
    }

    /// Whether the new run is acceptable (no regressions).
    pub fn clean(&self) -> bool {
        self.regressions() == 0
    }
}

/// Compares `new` against `old` under threshold `tau`.
pub fn compare(old: &BenchRun, new: &BenchRun, tau: f64) -> Report {
    let verdict = |o: &Entry, n: &Entry| -> Verdict {
        let mean_regressed = n.mean_ns as f64 > o.mean_ns as f64 * (1.0 + tau);
        let min_regressed = n.min_ns as f64 > o.min_ns as f64 * (1.0 + tau / 2.0);
        if mean_regressed && min_regressed {
            Verdict::Regressed
        } else if (n.mean_ns as f64) < o.mean_ns as f64 / (1.0 + tau) {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        }
    };
    let rows = new
        .entries
        .iter()
        .filter_map(|n| {
            old.entry(&n.id).map(|o| Row {
                id: n.id.clone(),
                old_mean_ns: o.mean_ns,
                new_mean_ns: n.mean_ns,
                speedup: o.mean_ns as f64 / (n.mean_ns as f64).max(1.0),
                verdict: verdict(o, n),
            })
        })
        .collect();
    let only_old = old
        .entries
        .iter()
        .filter(|o| new.entry(&o.id).is_none())
        .map(|o| o.id.clone())
        .collect();
    let only_new = new
        .entries
        .iter()
        .filter(|n| old.entry(&n.id).is_none())
        .map(|n| n.id.clone())
        .collect();
    Report { rows, only_old, only_new, threshold: tau }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Renders the comparison as an aligned text table.
pub fn render(old: &BenchRun, new: &BenchRun, report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "comparing {} ({}) -> {} ({}), threshold {:.0}%\n\n",
        old.name,
        old.mode,
        new.name,
        new.mode,
        report.threshold * 100.0,
    ));
    out.push_str(&format!(
        "{:<44} {:>12} {:>12} {:>9}  {}\n",
        "benchmark", "old mean", "new mean", "speedup", "verdict"
    ));
    for row in &report.rows {
        let verdict = match row.verdict {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "ok",
            Verdict::Regressed => "REGRESSED",
        };
        out.push_str(&format!(
            "{:<44} {:>12} {:>12} {:>8.2}x  {}\n",
            row.id,
            fmt_ns(row.old_mean_ns),
            fmt_ns(row.new_mean_ns),
            row.speedup,
            verdict
        ));
    }
    for id in &report.only_old {
        out.push_str(&format!("{id:<44} (only in old run)\n"));
    }
    for id in &report.only_new {
        out.push_str(&format!("{id:<44} (only in new run)\n"));
    }
    out.push_str(&format!(
        "\n{} rows compared, {} regressions\n",
        report.rows.len(),
        report.regressions()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::BenchRun;

    fn run(entries: &[(&str, u64, u64)]) -> BenchRun {
        BenchRun {
            name: "t".into(),
            mode: "smoke".into(),
            entries: entries
                .iter()
                .map(|&(id, mean, min)| Entry {
                    id: id.into(),
                    mean_ns: mean,
                    min_ns: min,
                    max_ns: mean * 2,
                    iters: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn self_diff_is_clean() {
        let a = run(&[("x", 1000, 900), ("y", 5000, 4500)]);
        let report = compare(&a, &a, DEFAULT_THRESHOLD);
        assert!(report.clean());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert!(report.only_old.is_empty() && report.only_new.is_empty());
    }

    #[test]
    fn slowdown_on_mean_and_min_regresses() {
        let old = run(&[("x", 1000, 900)]);
        let new = run(&[("x", 1500, 1400)]);
        let report = compare(&old, &new, 0.20);
        assert_eq!(report.rows[0].verdict, Verdict::Regressed);
        assert_eq!(report.regressions(), 1);
        assert!(!report.clean());
    }

    #[test]
    fn noisy_mean_with_stable_min_does_not_regress() {
        // Mean blew past the threshold but the minimum held: load noise.
        let old = run(&[("x", 1000, 900)]);
        let new = run(&[("x", 1500, 905)]);
        let report = compare(&old, &new, 0.20);
        assert_eq!(report.rows[0].verdict, Verdict::Unchanged);
        assert!(report.clean());
    }

    #[test]
    fn speedup_is_reported_as_improved() {
        let old = run(&[("x", 3000, 2800)]);
        let new = run(&[("x", 1000, 950)]);
        let report = compare(&old, &new, 0.20);
        assert_eq!(report.rows[0].verdict, Verdict::Improved);
        assert!((report.rows[0].speedup - 3.0).abs() < 1e-9);
    }

    #[test]
    fn unmatched_ids_are_listed_not_compared() {
        let old = run(&[("gone", 1000, 900), ("kept", 1000, 900)]);
        let new = run(&[("kept", 1000, 900), ("added", 1000, 900)]);
        let report = compare(&old, &new, 0.20);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.only_old, vec!["gone".to_string()]);
        assert_eq!(report.only_new, vec!["added".to_string()]);
        let text = render(&old, &new, &report);
        assert!(text.contains("only in old run") && text.contains("only in new run"));
    }
}
