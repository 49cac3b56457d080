//! The paper's eight evaluation artifacts and their one driver.
//!
//! Each [`Artifact`] is one figure or table of §IV: a declared list of
//! cells, [`Artifact::cells`], and a renderer over their outputs. [`run`]
//! regenerates a list of artifacts on a built [`Scenario`] under one
//! [`RunManifest`]: it trains and evaluates each distinct (method,
//! condition) pair of their cells once, in one fan-out, then prints each
//! artifact in order, records its tables and writes its CSVs under
//! `results/`. Each artifact's binary is a one-line call to [`main`];
//! `run_all` passes [`Artifact::ALL`] to the same [`run`].

use crate::harness::{task_table, train_and_evaluate_obs, CellOutput, TaskCell};
use crate::report::{curve_csv, write_csv, Table};
use crate::{exit_on_error, Args, Condition, Method, RunManifest, Scenario};
use lbchat::exec;
use lbchat::prelude::Metrics;

/// One figure or table of the paper's evaluation, declared in
/// [`Artifact::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Fig. 2 — loss vs time for the main methods, plus §IV-C's receiving rates.
    Fig2,
    /// Table II — driving success rate, no wireless loss.
    Table2,
    /// Table III — driving success rate with wireless loss.
    Table3,
    /// Table IV — LbChat with 10x and 1/10 the default coreset size.
    Table4,
    /// Table V — ablation: equal compression ratios instead of Eq. (7).
    Table5,
    /// Table VI — ablation: plain-average aggregation instead of Eq. (8).
    Table6,
    /// Table VII — SCO: sharing coresets only.
    Table7,
    /// Fig. 3 — loss vs time and convergence-time ratio, LbChat vs SCO.
    Fig3,
}

const BOTH: [Condition; 2] = [Condition::NoLoss, Condition::WithLoss];

impl Artifact {
    /// Every artifact, in the order `run_all` renders them.
    pub const ALL: [Artifact; 8] = [
        Artifact::Fig2,
        Artifact::Table2,
        Artifact::Table3,
        Artifact::Table4,
        Artifact::Table5,
        Artifact::Table6,
        Artifact::Table7,
        Artifact::Fig3,
    ];

    /// The artifact's binary, manifest and CSV stem (`"fig2"`, `"table4"`, …).
    pub fn name(self) -> &'static str {
        ["fig2", "table2", "table3", "table4", "table5", "table6", "table7", "fig3"][self as usize]
    }

    /// The cells the artifact renders: a table's columns, or a figure's
    /// curves, panel (a)'s before (b)'s. Fig. 2 and Tables II/III take the
    /// `--methods` subset of `args`; Table IV's sizes follow `args.scale`.
    pub fn cells(self, args: &Args) -> Vec<TaskCell> {
        let per_method = |methods: &[Method], conditions: &[Condition]| -> Vec<TaskCell> {
            let column = |c: Condition| methods.iter().map(move |&m| (m.name().to_string(), m, c));
            conditions.iter().flat_map(|&c| column(c)).collect()
        };
        let per_condition = |m: Method| BOTH.map(|c| (c.label().to_string(), m, c)).to_vec();
        let main = args.methods_or(&Method::MAIN);
        let size = args.scale.coreset_size;
        match self {
            Artifact::Fig2 => per_method(&main, &BOTH),
            Artifact::Table2 => per_method(&main, &[Condition::NoLoss]),
            Artifact::Table3 => per_method(&main, &[Condition::WithLoss]),
            Artifact::Table4 => BOTH
                .into_iter()
                .flat_map(|c| {
                    let tag = if c == Condition::NoLoss { "W/O" } else { "W" };
                    let cell = |n| (format!("{n} ({tag})"), Method::LbChatCoreset(n), c);
                    [size * 10, (size / 10).max(2)].map(cell)
                })
                .collect(),
            Artifact::Table5 => per_condition(Method::LbChatEqualComp),
            Artifact::Table6 => per_condition(Method::LbChatAvgAgg),
            Artifact::Table7 => per_condition(Method::Sco),
            Artifact::Fig3 => per_method(&[Method::LbChat, Method::Sco], &BOTH),
        }
    }

    /// Prints the artifact from its `columns` (each cell with its output),
    /// records its tables and writes its CSVs. Returns whether every CSV
    /// was written.
    fn render(self, columns: &[(&TaskCell, &CellOutput)], run: &RunManifest) -> bool {
        let title = match self {
            Artifact::Table2 => "Table II — driving success rate on average (W/O wireless loss) (%)",
            Artifact::Table3 => "Table III — driving success rate on average (W wireless loss) (%)",
            Artifact::Table4 => "Table IV — driving success rate with different coreset size (%)",
            Artifact::Table5 => "Table V — driving success rate with equal comp. ratio (%)",
            Artifact::Table6 => "Table VI — driving success rate with avg. aggregation (%)",
            Artifact::Table7 => "Table VII — driving success rate with sharing coreset only (%)",
            Artifact::Fig2 | Artifact::Fig3 => return self.loss_curves(columns, run),
        };
        let table = task_table(title, columns);
        println!("{}", table.render());
        if self == Artifact::Table3 {
            println!("Successful model receiving rates:");
            for ((_, m, _), out) in columns {
                println!("  {:<10} {:.0}%", m.name(), out.metrics.model_receiving_rate() * 100.0);
            }
        }
        run.record_table(&table);
        write_csv(&format!("{}.csv", self.name()), &table.to_csv())
    }

    /// Figs. 2 and 3: prints each panel's loss curves and writes
    /// `<name><panel>.csv`. Fig. 2 adds the receiving-rate table under
    /// panel (b); Fig. 3 prints each panel's SCO/LbChat convergence-time
    /// ratio and records both.
    fn loss_curves(self, columns: &[(&TaskCell, &CellOutput)], run: &RunManifest) -> bool {
        let fig3 = self == Artifact::Fig3;
        let (number, heading) =
            if fig3 { (3, "LbChat vs SCO") } else { (2, "training loss vs time") };
        let mut ratios = Vec::new();
        let mut saved = true;
        for (panel, condition) in ["a", "b"].into_iter().zip(BOTH) {
            println!("=== Fig. {number}({panel}) — {heading}, {} ===", condition.label());
            let shown: Vec<(&str, &Metrics)> = columns
                .iter()
                .filter(|((_, _, c), _)| *c == condition)
                .map(|((label, _, _), out)| (label.as_str(), &out.metrics))
                .collect();
            let curves: Vec<(&str, &[(f64, f64)])> =
                shown.iter().map(|&(n, m)| (n, &m.loss_curve[..])).collect();
            let names: String = curves.iter().map(|(n, _)| format!("{n:>10}")).collect();
            println!("{:<10} {names}", "time(s)");
            for (k, &(t, _)) in curves[0].1.iter().enumerate() {
                print!("{t:<10.0}");
                for (_, c) in &curves {
                    print!("{:>10.4}", c.get(k).map_or(f64::NAN, |p| p.1));
                }
                println!();
            }
            if fig3 {
                ratios.push(convergence_ratio(shown[0].1, shown[1].1));
            } else if condition == Condition::WithLoss {
                println!("\nSuccessful model receiving rate (W wireless loss):");
                let mut rates = Table::new(
                    "Fig. 2 — successful model receiving rate (W wireless loss) (%)",
                    shown.iter().map(|(n, _)| (*n).to_string()).collect(),
                );
                let pct: Vec<f64> =
                    shown.iter().map(|(_, m)| m.model_receiving_rate() * 100.0).collect();
                rates.row_pct("receiving rate", &pct);
                for ((n, _), r) in shown.iter().zip(&pct) {
                    println!("  {n:<10} {r:.0}%");
                }
                run.record_table(&rates);
            }
            saved &= write_csv(&format!("{}{panel}.csv", self.name()), &curve_csv(&curves));
            println!();
        }
        if fig3 {
            let columns = BOTH.map(|c| c.label().to_string()).to_vec();
            let mut table = Table::new("Fig. 3 — convergence-time ratio SCO/LbChat", columns);
            table.row("SCO/LbChat", ratios);
            run.record_table(&table);
        }
        saved
    }
}

/// Builds the scenario `args` selects, announcing it on stderr.
pub fn scenario(args: &Args) -> Scenario {
    eprintln!("building scenario ({} vehicles)...", args.scale.n_vehicles);
    Scenario::build(args.scale.clone())
}

/// The whole of an artifact's binary: parse the shared CLI, build the
/// scenario and [`run`] `artifact` on it.
pub fn main(artifact: Artifact) {
    let args = Args::parse();
    run(artifact.name(), &[artifact], &scenario(&args), &args);
}

/// Regenerates `artifacts` on `s` under one manifest named `name` (see the
/// module docs); a cell's index is its position among the distinct cells.
/// Exits with status 2 if a cell fails, or, once everything is printed
/// and the manifest finished, if a CSV could not be written.
pub fn run(name: &str, artifacts: &[Artifact], s: &Scenario, args: &Args) {
    let run = RunManifest::start(name, &s.scale);
    let plan: Vec<Vec<TaskCell>> = artifacts.iter().map(|a| a.cells(args)).collect();
    let (distinct, slots) = distinct_cells(&plan);
    let outputs: Vec<CellOutput> =
        exec::par_map_traced(run.sink(), "cell", &distinct, |idx, &(m, c)| {
            eprintln!("  [{}] training + evaluating {} ...", c.label(), m.name());
            train_and_evaluate_obs(m, s, c, run.sink(), idx)
        })
        .into_iter()
        .map(exit_on_error)
        .collect();
    let mut saved = true;
    for ((artifact, cells), slots) in artifacts.iter().zip(&plan).zip(slots) {
        let columns: Vec<_> = cells.iter().zip(slots).map(|(c, i)| (c, &outputs[i])).collect();
        saved &= artifact.render(&columns, &run);
    }
    run.finish();
    if !saved {
        std::process::exit(2);
    }
}

/// The distinct (method, condition) pairs of `plan` in first-seen order,
/// and each planned cell's position among them.
fn distinct_cells(plan: &[Vec<TaskCell>]) -> (Vec<(Method, Condition)>, Vec<Vec<usize>>) {
    let mut distinct = Vec::new();
    let mut slot = |&(_, m, c): &TaskCell| {
        distinct.iter().position(|&p| p == (m, c)).unwrap_or_else(|| {
            distinct.push((m, c));
            distinct.len() - 1
        })
    };
    let slots = plan.iter().map(|cells| cells.iter().map(&mut slot).collect()).collect();
    (distinct, slots)
}

/// Prints and returns the SCO/LbChat convergence-time ratio at a common
/// threshold, 1.25x LbChat's final loss, or `n/a` if either never gets
/// there.
fn convergence_ratio(lbchat: &Metrics, sco: &Metrics) -> String {
    let reached = lbchat.final_loss().map(|l| l * 1.25).map(|thresh| {
        (thresh, lbchat.time_to_loss(thresh), sco.time_to_loss(thresh))
    });
    match reached {
        Some((thresh, Some(tl), Some(ts))) if tl > 0.0 => {
            println!("convergence-time ratio SCO/LbChat at loss {thresh:.4}: {:.2}x", ts / tl);
            format!("{:.2}x", ts / tl)
        }
        _ => {
            println!("SCO did not reach LbChat's convergence threshold in this window");
            "n/a".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_plans_each_distinct_cell_once() {
        for flags in [&["--quick"][..], &[], &["--paper"], &["--methods", "lbchat,lbchat"]] {
            let args = Args::try_parse(flags.iter().map(|f| (*f).to_string())).unwrap();
            let plan: Vec<Vec<TaskCell>> = Artifact::ALL.iter().map(|a| a.cells(&args)).collect();
            let (distinct, slots) = distinct_cells(&plan);
            let planned = plan.iter().flatten().map(|&(_, m, c)| (m, c));
            assert!(planned.eq(slots.iter().flatten().map(|&i| distinct[i])), "{flags:?}");
            let expected = if args.methods.is_some() { 12 } else { 20 };
            assert_eq!(distinct.len(), expected, "{flags:?}: {distinct:?}");
            // One LbChat cell per condition, however often the plan names it.
            assert_eq!(distinct.iter().filter(|(m, _)| *m == Method::LbChat).count(), 2);
        }
    }
}
