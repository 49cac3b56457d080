//! Compares run manifests side by side.
//!
//! Reads the JSONL manifests the experiment binaries write under
//! `results/runs/` (see `docs/OBSERVABILITY.md`) and prints one column
//! per run: configuration, wall time, counter totals, and the final loss
//! of every training cell. `--tables` additionally re-renders the
//! tables each run recorded.
//!
//! ```text
//! usage: summarize_runs [--tables] [MANIFEST.jsonl ...]
//! ```
//!
//! With no paths, all of `results/runs/*.jsonl` is read.

use std::collections::BTreeMap;
use std::path::PathBuf;

use experiments::manifest::RUNS_DIR;
use experiments::report::Table;
use lbchat::obs::{parse_jsonl, Counter, Event, EventKind, Gauge, Json};

const USAGE: &str = "\
usage: summarize_runs [--tables] [MANIFEST.jsonl ...]

  --tables   also re-render the tables each run recorded
  MANIFEST   paths to run-manifest .jsonl files
             (default: all of results/runs/*.jsonl)";

/// Everything `summarize_runs` extracts from one manifest.
struct RunSummary {
    /// Column header: `<name> seed=<seed>`.
    header: String,
    started_unix_ms: u64,
    /// Simple one-value facts in display order.
    facts: Vec<(String, String)>,
    /// Final loss per cell label, from `cell_finish` events.
    final_losses: BTreeMap<String, String>,
    /// Recorded `table` events, re-rendered.
    tables: Vec<Table>,
}

fn main() {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut show_tables = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--tables" => show_tables = true,
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other:?}\n\n{USAGE}");
                std::process::exit(2);
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        paths = default_manifests();
        if paths.is_empty() {
            eprintln!(
                "no manifests found under {RUNS_DIR}/ — run any experiment binary \
                 (e.g. table2 --quick) first"
            );
            std::process::exit(1);
        }
    }

    let mut runs: Vec<RunSummary> = Vec::new();
    for path in &paths {
        match read_manifest(path) {
            Ok(summary) => runs.push(summary),
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    if runs.is_empty() {
        eprintln!("no readable manifests among {} path(s)", paths.len());
        std::process::exit(1);
    }
    runs.sort_by_key(|r| r.started_unix_ms);

    // Rows = union of fact keys (in first-seen order) then cell labels.
    let mut fact_keys: Vec<String> = Vec::new();
    for run in &runs {
        for (k, _) in &run.facts {
            if !fact_keys.iter().any(|x| x == k) {
                fact_keys.push(k.clone());
            }
        }
    }
    let mut cell_labels: Vec<String> = runs
        .iter()
        .flat_map(|r| r.final_losses.keys().cloned())
        .collect();
    cell_labels.sort();
    cell_labels.dedup();

    let mut table = Table::new(
        format!("Run comparison — {} manifest(s)", runs.len()),
        runs.iter().map(|r| r.header.clone()).collect(),
    )
    .corner("Metric");
    for key in &fact_keys {
        let cells = runs
            .iter()
            .map(|r| {
                r.facts
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or_else(|| "-".to_string(), |(_, v)| v.clone())
            })
            .collect();
        table.row(key.clone(), cells);
    }
    for label in &cell_labels {
        let cells = runs
            .iter()
            .map(|r| r.final_losses.get(label).cloned().unwrap_or_else(|| "-".to_string()))
            .collect();
        table.row(format!("loss {label}"), cells);
    }
    println!("{}", table.render());

    if show_tables {
        for run in &runs {
            for t in &run.tables {
                println!("[{}] {}", run.header, t.render());
            }
        }
    }
}

fn default_manifests() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(RUNS_DIR)
        .map(|rd| {
            rd.filter_map(std::result::Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
                .collect()
        })
        .unwrap_or_default();
    paths.sort();
    paths
}

fn read_manifest(path: &std::path::Path) -> Result<RunSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let events = parse_jsonl(&text)?;
    let start = events
        .iter()
        .find(|e| e.is(EventKind::RunStart))
        .ok_or("manifest has no run_start event")?;
    let end = events.iter().find(|e| e.is(EventKind::RunEnd));

    let name = start.str_field("name").unwrap_or("?");
    let seed = start.get("seed").and_then(Json::as_u64).unwrap_or(0);
    let mut facts: Vec<(String, String)> = Vec::new();
    let mut push = |k: &str, v: String| facts.push((k.to_string(), v));
    push("jobs", fmt_opt_u64(start.get("jobs")));
    push("git", short_rev(start.str_field("git_rev").unwrap_or("unknown")));
    push("isa", start.str_field("isa").unwrap_or("-").to_string());
    if let Some(scale) = start.get("scale") {
        push("vehicles", fmt_opt_u64(scale.get("n_vehicles")));
        push("train_s", fmt_opt_num(scale.get("train_seconds")));
    }
    if let Some(end) = end {
        push("wall_s", fmt_opt_secs(end.num("wall_ms")));
        push("events", fmt_opt_u64(end.get("events")));
        if let Some(counters) = end.get("counters").and_then(Json::as_obj) {
            let total = |c: Counter| counters.iter().find(|(k, _)| k == c.name()).map(|(_, v)| v);
            for c in [
                Counter::Sessions,
                Counter::Chats,
                Counter::Rounds,
                Counter::Trials,
                Counter::Collisions,
                Counter::Timeouts,
                Counter::OffRoutes,
                Counter::TransfersFailed,
            ] {
                if let Some(v) = total(c) {
                    push(c.name(), v.to_string());
                }
            }
            for c in [Counter::BytesTx, Counter::BytesDelivered] {
                if let Some(Json::UInt(b)) = total(c) {
                    push(c.name(), format!("{:.1} MB", *b as f64 / 1e6));
                }
            }
        }
        if let Some(gauges) = end.get("gauges").and_then(Json::as_obj) {
            if let Some((_, psi)) = gauges.iter().find(|(k, _)| k == Gauge::Psi.name()) {
                push("psi mean", fmt_opt_num(psi.get("mean")));
            }
        }
    } else {
        push("wall_s", "incomplete".to_string());
    }

    let mut final_losses = BTreeMap::new();
    for e in events.iter().filter(|e| e.is(EventKind::CellFinish)) {
        if let Some(cell) = e.str_field("cell") {
            final_losses.insert(cell.to_string(), fmt_opt_num(e.get("final_loss")));
        }
    }

    Ok(RunSummary {
        header: format!("{name} seed={seed}"),
        started_unix_ms: start.get("started_unix_ms").and_then(Json::as_u64).unwrap_or(0),
        facts,
        final_losses,
        tables: events
            .iter()
            .filter(|e| e.is(EventKind::Table))
            .filter_map(rebuild_table)
            .collect(),
    })
}

fn rebuild_table(e: &Event) -> Option<Table> {
    let columns: Vec<String> = e
        .get("columns")?
        .as_arr()?
        .iter()
        .filter_map(|c| c.as_str().map(str::to_string))
        .collect();
    let mut t = Table::new(e.str_field("title")?.to_string(), columns);
    for row in e.get("rows")?.as_arr()? {
        let cells: Vec<String> =
            row.as_arr()?.iter().filter_map(|c| c.as_str().map(str::to_string)).collect();
        let (label, rest) = cells.split_first()?;
        t.row(label.clone(), rest.to_vec());
    }
    Some(t)
}

fn fmt_opt_u64(v: Option<&Json>) -> String {
    v.and_then(Json::as_u64).map_or_else(|| "-".to_string(), |u| u.to_string())
}

fn fmt_opt_num(v: Option<&Json>) -> String {
    v.and_then(Json::as_f64).map_or_else(|| "-".to_string(), |n| format!("{n:.4}"))
}

fn fmt_opt_secs(ms: Option<f64>) -> String {
    ms.map_or_else(|| "-".to_string(), |m| format!("{:.1}", m / 1e3))
}

fn short_rev(rev: &str) -> String {
    if rev.len() >= 10 && rev.chars().all(|c| c.is_ascii_hexdigit()) {
        rev[..10].to_string()
    } else {
        rev.to_string()
    }
}
