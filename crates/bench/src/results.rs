//! The `BENCH_<name>.json` result format.
//!
//! One file per suite run, schema `lbchat-bench/v1`:
//!
//! ```json
//! {
//!   "schema": "lbchat-bench/v1",
//!   "name": "current",
//!   "mode": "full",
//!   "results": [
//!     {"id": "coreset/construct_10k_to_150", "mean_ns": 1234567,
//!      "min_ns": 1200000, "max_ns": 1300000, "iters": 40}
//!   ]
//! }
//! ```
//!
//! Durations are integer nanoseconds ([`lbchat::obs::json::Json::UInt`], so
//! they round-trip exactly), and `bench_report` matches rows across files
//! purely by `id`. Files recorded while the suite still had a reference
//! arm carry an extra `impl` field; it is ignored on read.

use crate::timer::BenchResult;
use lbchat::obs::json::{parse, Json};
use std::path::{Path, PathBuf};

/// One benchmark row as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Benchmark id (`group/name`).
    pub id: String,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: u64,
    /// Fastest per-iteration time in nanoseconds.
    pub min_ns: u64,
    /// Slowest per-iteration time in nanoseconds.
    pub max_ns: u64,
    /// Total timed iterations.
    pub iters: u64,
}

/// A full suite run: metadata plus all rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Run label (the `<name>` of `BENCH_<name>.json`).
    pub name: String,
    /// Sampling mode: `"full"` or `"smoke"`.
    pub mode: String,
    /// All recorded rows, in execution order.
    pub entries: Vec<Entry>,
}

/// Schema tag written to and required from every result file.
pub const SCHEMA: &str = "lbchat-bench/v1";

impl BenchRun {
    /// Wraps suite results under run metadata.
    pub fn from_results(name: &str, mode: &str, results: &[BenchResult]) -> Self {
        Self {
            name: name.to_string(),
            mode: mode.to_string(),
            entries: results
                .iter()
                .map(|r| Entry {
                    id: r.id.clone(),
                    mean_ns: r.mean.as_nanos() as u64,
                    min_ns: r.min.as_nanos() as u64,
                    max_ns: r.max.as_nanos() as u64,
                    iters: r.iters,
                })
                .collect(),
        }
    }

    /// The row with the given id, if present.
    pub fn entry(&self, id: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Serializes to the schema above.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("name".into(), Json::Str(self.name.clone())),
            ("mode".into(), Json::Str(self.mode.clone())),
            (
                "results".into(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("id".into(), Json::Str(e.id.clone())),
                                ("mean_ns".into(), Json::UInt(e.mean_ns)),
                                ("min_ns".into(), Json::UInt(e.min_ns)),
                                ("max_ns".into(), Json::UInt(e.max_ns)),
                                ("iters".into(), Json::UInt(e.iters)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a value produced by [`BenchRun::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let obj = match v {
            Json::Obj(pairs) => pairs,
            _ => return Err("result file is not a JSON object".into()),
        };
        let field = |key: &str| -> Result<&Json, String> {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let string = |key: &str| -> Result<String, String> {
            match field(key)? {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(format!("field `{key}` is not a string")),
            }
        };
        let schema = string("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (expected `{SCHEMA}`)"));
        }
        let rows = match field("results")? {
            Json::Arr(rows) => rows,
            _ => return Err("field `results` is not an array".into()),
        };
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            let row_obj = match row {
                Json::Obj(pairs) => pairs,
                _ => return Err("results entry is not an object".into()),
            };
            let get = |key: &str| -> Result<&Json, String> {
                row_obj
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("results entry missing `{key}`"))
            };
            let uint = |key: &str| -> Result<u64, String> {
                get(key)?.as_u64().ok_or_else(|| format!("`{key}` is not an integer"))
            };
            let id = match get("id")? {
                Json::Str(s) => s.clone(),
                _ => return Err("results entry `id` is not a string".into()),
            };
            entries.push(Entry {
                id,
                mean_ns: uint("mean_ns")?,
                min_ns: uint("min_ns")?,
                max_ns: uint("max_ns")?,
                iters: uint("iters")?,
            });
        }
        Ok(Self {
            name: string("name")?,
            mode: string("mode")?,
            entries,
        })
    }

    /// Writes `BENCH_<name>.json` under `dir`, creating it if needed, and
    /// returns the path written.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = bench_path(dir, &self.name);
        let mut out = String::new();
        self.to_json().write(&mut out);
        out.push('\n');
        std::fs::write(&path, out)?;
        Ok(path)
    }

    /// Reads and parses a result file.
    pub fn read_from(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let v = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The canonical file name for a run label: `BENCH_<name>.json` in `dir`.
pub fn bench_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("BENCH_{name}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_run() -> BenchRun {
        BenchRun::from_results(
            "unit",
            "smoke",
            &[
                BenchResult {
                    id: "coreset/construct_10k_to_150".into(),
                    mean: Duration::from_nanos(1_234_567),
                    min: Duration::from_nanos(1_200_000),
                    max: Duration::from_nanos(1_300_000),
                    iters: 40,
                },
                BenchResult {
                    id: "bev/rasterize_24".into(),
                    mean: Duration::from_micros(9),
                    min: Duration::from_micros(8),
                    max: Duration::from_micros(11),
                    iters: 1000,
                },
            ],
        )
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let run = sample_run();
        let mut text = String::new();
        run.to_json().write(&mut text);
        let back = BenchRun::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(run, back);
    }

    #[test]
    fn file_roundtrip_via_bench_path() {
        let dir = std::env::temp_dir().join("lbchat_bench_results_test");
        let run = sample_run();
        let path = run.write_to(&dir).unwrap();
        assert_eq!(path, bench_path(&dir, "unit"));
        let back = BenchRun::read_from(&path).unwrap();
        assert_eq!(run, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = r#"{"schema": "other/v9", "name": "x", "mode": "full", "impl": "optimized", "results": []}"#;
        let err = BenchRun::from_json(&parse(text).unwrap()).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn entry_lookup_by_id() {
        let run = sample_run();
        assert_eq!(run.entry("bev/rasterize_24").unwrap().iters, 1000);
        assert!(run.entry("missing").is_none());
    }
}
