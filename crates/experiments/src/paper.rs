//! The paper's eight evaluation artifacts as one table.
//!
//! Each [`Artifact`] is one figure or table of §IV, and [`Artifact::run`]
//! regenerates it on a built [`Scenario`]: it opens the artifact's
//! [`RunManifest`], trains the cells, prints the paper-shaped result,
//! records the rendered table, writes the CSV under `results/` and
//! finishes the manifest. Each artifact's binary is a one-line call to
//! [`main`]; `run_all` parses [`Args`] once, builds one [`Scenario`] and
//! runs [`Artifact::ALL`] in-process. Tables II–VII are lists of
//! [`TaskCell`]s for [`task_table_obs`]; Figs. 2 and 3 share the
//! loss-curve driver.

use crate::harness::{run_cell_obs, task_table_obs, TaskCell};
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
    /// Every artifact, in the order `run_all` runs them.
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

    /// Regenerates the artifact on `s` under its own manifest (see the
    /// module docs). Fig. 2 and Tables II/III train the `--methods`
    /// subset of `args`. Exits the process if a cell fails to run.
    pub fn run(self, s: &Scenario, args: &Args) {
        let run = RunManifest::start(self.name(), &s.scale);
        match self.task_cells(s, args) {
            Some((title, cells)) => task_table(self, title, &cells, s, &run),
            None => loss_curves(self, args, s, &run),
        }
        run.finish();
    }

    /// The title and cells of a task-shaped table; `None` for a figure.
    fn task_cells(self, s: &Scenario, args: &Args) -> Option<(&'static str, Vec<TaskCell>)> {
        let per_method = |c: Condition| {
            let methods = args.methods_or(&Method::MAIN);
            methods.into_iter().map(|m| (m.name().to_string(), m, c)).collect()
        };
        let per_condition = |m: Method| BOTH.map(|c| (c.label().to_string(), m, c)).to_vec();
        let (big, small) = (s.scale.coreset_size * 10, (s.scale.coreset_size / 10).max(2));
        Some(match self {
            Artifact::Table2 => (
                "Table II — driving success rate on average (W/O wireless loss) (%)",
                per_method(Condition::NoLoss),
            ),
            Artifact::Table3 => (
                "Table III — driving success rate on average (W wireless loss) (%)",
                per_method(Condition::WithLoss),
            ),
            Artifact::Table4 => (
                "Table IV — driving success rate with different coreset size (%)",
                BOTH.into_iter()
                    .flat_map(|c| [big, small].map(|size| (size, c)))
                    .map(|(size, c)| {
                        let tag = if c == Condition::NoLoss { "W/O" } else { "W" };
                        (format!("{size} ({tag})"), Method::LbChatCoreset(size), c)
                    })
                    .collect(),
            ),
            Artifact::Table5 => (
                "Table V — driving success rate with equal comp. ratio (%)",
                per_condition(Method::LbChatEqualComp),
            ),
            Artifact::Table6 => (
                "Table VI — driving success rate with avg. aggregation (%)",
                per_condition(Method::LbChatAvgAgg),
            ),
            Artifact::Table7 => (
                "Table VII — driving success rate with sharing coreset only (%)",
                per_condition(Method::Sco),
            ),
            Artifact::Fig2 | Artifact::Fig3 => return None,
        })
    }
}

/// Builds the scenario `args` selects, announcing it on stderr.
pub fn scenario(args: &Args) -> Scenario {
    eprintln!("building scenario ({} vehicles)...", args.scale.n_vehicles);
    Scenario::build(args.scale.clone())
}

/// The whole of an artifact's binary: parse the shared CLI, build the
/// scenario and run `artifact` on it.
pub fn main(artifact: Artifact) {
    let args = Args::parse();
    artifact.run(&scenario(&args), &args);
}

/// Tables II–VII: trains and evaluates the cells, prints the table (and
/// Table III's receiving rates), records it and writes `<name>.csv`.
fn task_table(table: Artifact, title: &str, cells: &[TaskCell], s: &Scenario, run: &RunManifest) {
    let (rendered, outputs) = exit_on_error(task_table_obs(title, cells, s, run.sink()));
    println!("{}", rendered.render());
    if table == Artifact::Table3 {
        println!("Successful model receiving rates:");
        for ((_, m, _), out) in cells.iter().zip(&outputs) {
            println!("  {:<10} {:.0}%", m.name(), out.metrics.model_receiving_rate() * 100.0);
        }
    }
    run.record_table(&rendered);
    let path = write_csv(&format!("{}.csv", table.name()), &rendered.to_csv()).expect("write CSV");
    eprintln!("wrote {}", path.display());
}

/// Figs. 2 and 3: trains the figure's methods without and with wireless
/// loss, prints each panel's loss curves and writes `<name><panel>.csv`.
/// Fig. 2 adds the receiving-rate table under panel (b); Fig. 3 prints
/// each panel's SCO/LbChat convergence-time ratio and records both.
fn loss_curves(fig: Artifact, args: &Args, s: &Scenario, run: &RunManifest) {
    let (methods, number, heading) = match fig {
        Artifact::Fig3 => (vec![Method::LbChat, Method::Sco], 3, "LbChat vs SCO"),
        _ => (args.methods_or(&Method::MAIN), 2, "training loss vs time"),
    };
    let mut ratios = Vec::new();
    for (panel, condition) in ["a", "b"].into_iter().zip(BOTH) {
        println!("=== Fig. {number}({panel}) — {heading}, {} ===", condition.label());
        let outs: Vec<Metrics> = exec::par_map_traced(run.sink(), "cell", &methods, |idx, &m| {
            eprintln!("  running {} ...", m.name());
            run_cell_obs(m, s, condition, run.sink(), idx)
        })
        .into_iter()
        .map(exit_on_error)
        .collect();
        let curves: Vec<(&str, &[(f64, f64)])> =
            methods.iter().zip(&outs).map(|(m, o)| (m.name(), &o.loss_curve[..])).collect();
        let names: String = curves.iter().map(|(n, _)| format!("{n:>10}")).collect();
        println!("{:<10} {names}", "time(s)");
        for (k, &(t, _)) in curves[0].1.iter().enumerate() {
            print!("{t:<10.0}");
            for (_, c) in &curves {
                print!("{:>10.4}", c.get(k).map_or(f64::NAN, |p| p.1));
            }
            println!();
        }
        if fig == Artifact::Fig3 {
            ratios.push(convergence_ratio(&outs[0], &outs[1]));
        } else if condition == Condition::WithLoss {
            println!("\nSuccessful model receiving rate (W wireless loss):");
            let mut rates = Table::new(
                "Fig. 2 — successful model receiving rate (W wireless loss) (%)",
                methods.iter().map(|m| m.name().to_string()).collect(),
            );
            let pct: Vec<f64> =
                outs.iter().map(|o| o.model_receiving_rate() * 100.0).collect();
            rates.row_pct("receiving rate", &pct);
            for (m, r) in methods.iter().zip(&pct) {
                println!("  {:<10} {r:.0}%", m.name());
            }
            run.record_table(&rates);
        }
        let path = write_csv(&format!("{}{panel}.csv", fig.name()), &curve_csv(&curves))
            .expect("write CSV");
        eprintln!("wrote {}", path.display());
        println!();
    }
    if fig == Artifact::Fig3 {
        let columns = BOTH.map(|c| c.label().to_string()).to_vec();
        let mut table = Table::new("Fig. 3 — convergence-time ratio SCO/LbChat", columns);
        table.row("SCO/LbChat", ratios);
        run.record_table(&table);
    }
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
