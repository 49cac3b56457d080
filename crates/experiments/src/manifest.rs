//! Run manifests: one JSONL event stream per experiment invocation.
//!
//! A [`RunManifest`] wraps a recording [`ObsSink`] for one
//! [`crate::paper::run`]: a single artifact's binary, or `run_all` over
//! every artifact. On [`RunManifest::start`] it emits a
//! `run_start` event (config snapshot, seed, jobs, git revision, ISA); the
//! driver then threads [`RunManifest::sink`] through the harness so every
//! cell, round, transfer, and trial lands in the same stream; rendered
//! tables are recorded with [`RunManifest::record_table`]; and
//! [`RunManifest::finish`] appends a `run_end` event (counter and gauge
//! totals) and writes the whole stream to
//! `results/runs/<name>-seed<seed>-<unix_ms>.jsonl`.
//!
//! Setting `LBCHAT_OBS=0` in the environment disables recording entirely
//! — the binaries run exactly as before and no file is written.
//! `docs/OBSERVABILITY.md` specifies the event schema; the
//! `summarize_runs` binary renders manifests side by side.

use std::path::{Path, PathBuf};
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
    /// Opens a manifest named after the invocation (`"table2"`, `"fig3"`,
    /// `"run_all"`, …) and emits the `run_start` event snapshotting
    /// `scale`. Recording is on unless the `LBCHAT_OBS` environment
    /// variable is `0`.
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
                    ("isa", isa().into()),
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
    /// `train_and_evaluate_obs`, …). Disabled when recording is off.
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

/// The instruction set this binary was compiled for, decided by
/// compile-time `cfg!` alone: `"x86-64-v3"` when AVX2 and FMA are both
/// enabled (the repository default, `.cargo/config.toml`), otherwise the
/// target architecture (`"x86_64"` for a baseline build, `"aarch64"`, …).
/// Results do not depend on it; wall times do.
fn isa() -> &'static str {
    if cfg!(all(target_feature = "avx2", target_feature = "fma")) {
        "x86-64-v3"
    } else {
        std::env::consts::ARCH
    }
}

/// Best-effort git revision of the checkout holding the current directory
/// (the binaries may run from a subdirectory of it), or `"unknown"`.
fn git_rev() -> String {
    std::env::current_dir().ok().and_then(|d| git_rev_from(&d)).unwrap_or_else(|| "unknown".into())
}

/// The git revision of the checkout holding `start`, read straight from
/// `.git` (the workspace has no process-spawning helpers and no libgit):
/// the nearest `.git` directory, or `gitdir:` file as in a worktree or a
/// submodule, up from `start`. A symbolic `HEAD` resolves through one ref
/// under the common directory (`commondir`), loose or in `packed-refs`.
fn git_rev_from(start: &Path) -> Option<String> {
    let read = |path: &Path| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let git_dir = start.ancestors().find_map(|d| {
        let git = d.join(".git");
        if git.is_dir() {
            return Some(git);
        }
        read(&git)?.strip_prefix("gitdir:").map(|p| d.join(p.trim()))
    })?;
    let head = read(&git_dir.join("HEAD"))?;
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head); // detached HEAD: the SHA itself
    };
    let common = read(&git_dir.join("commondir")).map_or(git_dir.clone(), |c| git_dir.join(c));
    read(&common.join(refname)).or_else(|| {
        read(&common.join("packed-refs"))?.lines().find_map(|line| {
            let (sha, name) = line.split_once(' ')?;
            (name == refname).then(|| sha.to_string())
        })
    })
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

    /// Writes `files` (path, content) under a fresh temp directory and
    /// returns its root.
    fn layout(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("git-rev-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (path, content) in files {
            let path = root.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, content).unwrap();
        }
        root
    }

    const A: &str = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
    const B: &str = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb";

    #[test]
    fn git_rev_reads_a_loose_ref_from_a_subdirectory() {
        let root = layout(
            "loose",
            &[(".git/HEAD", "ref: refs/heads/main\n"), (".git/refs/heads/main", &format!("{A}\n"))],
        );
        assert_eq!(git_rev_from(&root.join("crates/experiments")).as_deref(), Some(A));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn git_rev_matches_a_packed_ref_name_exactly() {
        // The decoy's name ends with the target's: only an exact match may
        // resolve HEAD.
        let packed = format!(
            "# pack-refs with: peeled fully-peeled sorted\n\
             {A} refs/remotes/mirror/refs/heads/main\n{B} refs/heads/main\n^{A}\n"
        );
        let root = layout(
            "packed",
            &[(".git/HEAD", "ref: refs/heads/main\n"), (".git/packed-refs", &packed)],
        );
        assert_eq!(git_rev_from(&root).as_deref(), Some(B));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn git_rev_follows_a_worktrees_gitdir_file() {
        // A worktree checked out inside another checkout: its `.git` is a
        // file naming its git directory, whose HEAD is the worktree's
        // branch; refs live in the main repository (`commondir`).
        let root = layout(
            "worktree",
            &[
                (".git/HEAD", "ref: refs/heads/main\n"),
                (".git/refs/heads/main", &format!("{A}\n")),
                (".git/refs/heads/feature", &format!("{B}\n")),
                (".git/worktrees/wt/HEAD", "ref: refs/heads/feature\n"),
                (".git/worktrees/wt/commondir", "../..\n"),
            ],
        );
        let gitdir = format!("gitdir: {}\n", root.join(".git/worktrees/wt").display());
        std::fs::create_dir_all(root.join("nested/wt/src")).unwrap();
        std::fs::write(root.join("nested/wt/.git"), gitdir).unwrap();
        assert_eq!(git_rev_from(&root.join("nested/wt/src")).as_deref(), Some(B));
        assert_eq!(git_rev_from(&root.join("nested")).as_deref(), Some(A));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn scale_snapshot_covers_every_field() {
        let s = crate::scenario::Scale::quick();
        let snap = scale_json(&s);
        let obj = snap.as_obj().unwrap();
        // Every field but `codec` and `fleet`, which nothing reads: top-k is
        // the only codec and the world has no fleet axis.
        assert_eq!(obj.len(), 13, "update scale_json when Scale gains fields");
        assert_eq!(snap.get("seed").and_then(Json::as_u64), Some(s.seed));
        assert!(snap.get("codec").is_none(), "the manifest records no codec");
        assert!(snap.get("fleet").is_none(), "the manifest records no fleet");
        assert_eq!(snap.get("n_vehicles").and_then(Json::as_u64), Some(s.n_vehicles as u64));
    }
}
