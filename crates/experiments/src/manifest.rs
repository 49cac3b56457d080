//! Run manifests: one JSONL event stream per experiment invocation.
//!
//! A [`RunManifest`] wraps a recording [`ObsSink`] for the lifetime of an
//! experiment binary. On [`RunManifest::start`] it emits a `run_start`
//! event (config snapshot, seed, jobs, git revision); the binary then
//! threads [`RunManifest::sink`] through the harness so every cell,
//! round, transfer, and trial lands in the same stream; rendered tables
//! are recorded with [`RunManifest::record_table`]; and
//! [`RunManifest::finish`] appends a `run_end` event (counter and gauge
//! totals) and writes the whole stream to
//! `results/runs/<name>-seed<seed>-<unix_ms>.jsonl`.
//!
//! Setting `LBCHAT_OBS=0` in the environment disables recording entirely
//! — the binaries run exactly as before and no file is written.
//! `docs/OBSERVABILITY.md` specifies the event schema; the
//! `summarize_runs` binary renders manifests side by side.

use std::path::PathBuf;
use std::time::Instant;

use crate::report::Table;
use crate::scenario::Scale;
use lbchat::exec;
use lbchat::obs::{EventKind, Json, ObsSink};

/// Environment variable: set to `0` to disable run-manifest recording.
pub const OBS_ENV: &str = "LBCHAT_OBS";

/// Directory (relative to the working directory) manifests are written
/// to, alongside the CSV outputs under `results/`.
pub const RUNS_DIR: &str = "results/runs";

/// Version tag stamped into `run_start`, bumped on breaking schema
/// changes (see `docs/OBSERVABILITY.md`).
pub const SCHEMA_VERSION: u64 = 1;

/// The observability session of one experiment invocation; see the
/// module docs.
pub struct RunManifest {
    sink: ObsSink,
    name: String,
    seed: u64,
    started_unix_ms: u64,
    started: Instant,
}

impl RunManifest {
    /// Opens a manifest named after the invoking binary (`"table2"`,
    /// `"fig3"`, …) and emits the `run_start` event snapshotting `scale`.
    /// Recording is on unless the `LBCHAT_OBS` environment variable is
    /// `0`.
    #[expect(clippy::disallowed_methods, reason = "feeds wall_ms, a documented TIMING_FIELDS key the result comparators strip")]
    pub fn start(name: &str, scale: &Scale) -> RunManifest {
        let enabled = std::env::var(OBS_ENV).map_or(true, |v| v.trim() != "0");
        let sink = if enabled { ObsSink::recording() } else { ObsSink::disabled() };
        let started_unix_ms = unix_ms();
        if sink.enabled() {
            sink.emit(
                EventKind::RunStart,
                &[
                    ("schema", SCHEMA_VERSION.into()),
                    ("name", name.into()),
                    ("seed", scale.seed.into()),
                    ("jobs", exec::jobs().into()),
                    ("git_rev", git_rev().into()),
                    ("scale", scale_json(scale)),
                    ("started_unix_ms", started_unix_ms.into()),
                ],
            );
        }
        RunManifest {
            sink,
            name: name.to_string(),
            seed: scale.seed,
            started_unix_ms,
            started: Instant::now(),
        }
    }

    /// The sink to thread through the harness (`success_table_obs`,
    /// `run_cell_obs`, …). Disabled when recording is off.
    pub fn sink(&self) -> &ObsSink {
        &self.sink
    }

    /// Records a rendered table as a `table` event — the manifest's copy
    /// of the final numbers the binary printed.
    pub fn record_table(&self, table: &Table) {
        if !self.sink.enabled() {
            return;
        }
        let rows: Vec<Json> = table
            .rows()
            .iter()
            .map(|(label, cells)| {
                Json::Arr(
                    std::iter::once(label.as_str())
                        .chain(cells.iter().map(String::as_str))
                        .map(Json::from)
                        .collect(),
                )
            })
            .collect();
        self.sink.emit(
            EventKind::Table,
            &[
                ("title", table.title().into()),
                ("columns", Json::Arr(table.columns().iter().map(|c| c.as_str().into()).collect())),
                ("rows", Json::Arr(rows)),
            ],
        );
    }

    /// Emits `run_end` (event count, counter totals, gauge summaries,
    /// wall time), writes the manifest under [`RUNS_DIR`], and prints the
    /// path to stderr. Returns the path, or `None` when recording is
    /// disabled. Failure to write is reported on stderr, not fatal — the
    /// experiment's printed results must survive a read-only `results/`.
    pub fn finish(self) -> Option<PathBuf> {
        if !self.sink.enabled() {
            return None;
        }
        let counters = Json::Obj(
            self.sink.counters().into_iter().map(|(k, v)| (k, Json::UInt(v))).collect(),
        );
        let gauges = Json::Obj(
            self.sink
                .gauges()
                .into_iter()
                .map(|(k, g)| {
                    (
                        k,
                        Json::Obj(vec![
                            ("n".to_string(), Json::UInt(g.n)),
                            ("mean".to_string(), Json::Num(g.mean())),
                            ("min".to_string(), Json::Num(g.min)),
                            ("max".to_string(), Json::Num(g.max)),
                        ]),
                    )
                })
                .collect(),
        );
        self.sink.emit(
            EventKind::RunEnd,
            &[
                ("name", self.name.as_str().into()),
                // +1 for this run_end event itself.
                ("events", (self.sink.event_count() + 1).into()),
                ("counters", counters),
                ("gauges", gauges),
                ("wall_ms", Json::Num(self.started.elapsed().as_secs_f64() * 1e3)),
            ],
        );
        let path = PathBuf::from(RUNS_DIR)
            .join(format!("{}-seed{}-{}.jsonl", self.name, self.seed, self.started_unix_ms));
        match self.sink.write_jsonl(&path) {
            Ok(()) => {
                eprintln!("wrote run manifest: {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("could not write run manifest {}: {e}", path.display());
                None
            }
        }
    }
}

fn scale_json(s: &Scale) -> Json {
    Json::Obj(vec![
        ("n_vehicles".to_string(), s.n_vehicles.into()),
        ("n_background".to_string(), s.n_background.into()),
        ("n_pedestrians".to_string(), s.n_pedestrians.into()),
        ("data_seconds".to_string(), s.data_seconds.into()),
        ("train_seconds".to_string(), s.train_seconds.into()),
        ("eval_every".to_string(), s.eval_every.into()),
        ("eval_per_vehicle".to_string(), s.eval_per_vehicle.into()),
        ("trials".to_string(), s.trials.into()),
        ("iters_per_second".to_string(), s.iters_per_second.into()),
        ("model_wire_bytes".to_string(), s.model_wire_bytes.into()),
        ("coreset_size".to_string(), s.coreset_size.into()),
        ("lr".to_string(), s.lr.into()),
        ("seed".to_string(), s.seed.into()),
        ("codec".to_string(), s.codec.name().into()),
        ("fleet".to_string(), s.fleet.key().into()),
    ])
}

#[expect(
    clippy::disallowed_methods,
    reason = "feeds started_unix_ms, a documented TIMING_FIELDS key the result comparators strip"
)]
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Best-effort current git revision, read straight from `.git` (the
/// workspace has no process-spawning helpers and no libgit): resolves
/// `HEAD` through one level of ref indirection, consulting
/// `packed-refs` when the loose ref file is absent. Returns
/// `"unknown"` outside a git checkout.
fn git_rev() -> String {
    fn read(path: &std::path::Path) -> Option<String> {
        std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
    }
    // Walk up from the current directory to find `.git` (the binaries
    // may run from a subdirectory of the checkout).
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            let head = match read(&git.join("HEAD")) {
                Some(h) => h,
                None => break,
            };
            if let Some(refname) = head.strip_prefix("ref: ") {
                if let Some(sha) = read(&git.join(refname)) {
                    return sha;
                }
                if let Some(packed) = read(&git.join("packed-refs")) {
                    for line in packed.lines() {
                        if let Some(sha) = line.strip_suffix(refname) {
                            return sha.trim().to_string();
                        }
                    }
                }
                break;
            }
            return head; // detached HEAD: the SHA itself
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_resolves_in_this_checkout() {
        // The repo this test runs in is a git checkout; a 40-hex SHA (or
        // "unknown" in exported tarballs) are the two valid shapes.
        let rev = git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected git rev {rev:?}"
        );
    }

    #[test]
    fn scale_snapshot_covers_every_field() {
        let s = crate::scenario::Scale::quick();
        let snap = scale_json(&s);
        let obj = snap.as_obj().unwrap();
        assert_eq!(obj.len(), 15, "update scale_json when Scale gains fields");
        assert_eq!(snap.get("seed").and_then(Json::as_u64), Some(s.seed));
        assert_eq!(
            snap.get("codec").and_then(Json::as_str),
            Some(s.codec.name()),
            "manifest must record the share codec"
        );
        assert_eq!(
            snap.get("fleet").and_then(Json::as_str),
            Some(s.fleet.key()),
            "manifest must record the fleet scale"
        );
        assert_eq!(snap.get("n_vehicles").and_then(Json::as_u64), Some(s.n_vehicles as u64));
    }
}
