//! Keeps the prose honest: every `--flag`, `--bin NAME`, and
//! `--example NAME` mentioned in the user-facing documentation must
//! refer to something that actually exists in the tree, and the event
//! kinds, counters and gauges `lbchat::obs` registers must be the set
//! `docs/OBSERVABILITY.md` documents, each recorded somewhere. Docs rot
//! silently when a bin is renamed, a flag removed or a counter added;
//! these tests make that rot a CI failure instead.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lbchat::obs::{Counter, EventKind, Gauge};

/// Every long flag the documentation is allowed to mention: the
/// experiment CLI ([`experiments::Args`]), `summarize_runs`'s own
/// flags, and the cargo flags that appear in quoted commands.
const KNOWN_FLAGS: &[&str] = &[
    // experiments::Args (see crates/experiments/src/lib.rs)
    "quick", "paper", "seed", "jobs", "methods", "help",
    // summarize_runs
    "tables",
    // cargo itself
    "release", "bin", "example", "workspace", "no-deps", "all-targets", "test", "package",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md"]
        .iter()
        .map(|f| root.join(f))
        .filter(|p| p.is_file())
        .collect();
    if let Ok(rd) = std::fs::read_dir(root.join("docs")) {
        let mut extra: Vec<PathBuf> = rd
            .filter_map(std::result::Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "md"))
            .collect();
        extra.sort();
        files.extend(extra);
    }
    assert!(files.len() >= 3, "expected the core docs to exist, found {files:?}");
    files
}

/// A `--bin NAME` reference resolves if any workspace crate has
/// `src/bin/{name}.rs`.
fn bin_exists(root: &Path, name: &str) -> bool {
    std::fs::read_dir(root.join("crates")).is_ok_and(|rd| {
        rd.filter_map(std::result::Result::ok)
            .any(|entry| entry.path().join(format!("src/bin/{name}.rs")).is_file())
    })
}

/// Yields every `--token` in `text` together with the word that follows
/// it (for `--bin fig2`-style references).
fn long_flags(text: &str) -> Vec<(String, Option<String>)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < bytes.len() {
        // A flag starts at `--` preceded by start-of-text or a non-dash
        // non-word byte, and is followed by a lowercase letter.
        let boundary = i == 0 || !(bytes[i - 1] == b'-' || bytes[i - 1].is_ascii_alphanumeric());
        if boundary && bytes[i] == b'-' && bytes[i + 1] == b'-' && bytes[i + 2].is_ascii_lowercase()
        {
            let start = i + 2;
            let mut end = start;
            while end < bytes.len()
                && (bytes[end].is_ascii_lowercase() || bytes[end].is_ascii_digit() || bytes[end] == b'-')
            {
                end += 1;
            }
            let flag = text[start..end].to_string();
            // Grab the next whitespace-separated word, trimmed of
            // punctuation, as the flag's argument (if any).
            let rest = text[end..].trim_start_matches(['=', ' ']);
            let arg: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            out.push((flag, (!arg.is_empty()).then_some(arg)));
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

#[test]
fn docs_reference_only_real_flags_bins_and_examples() {
    let root = repo_root();
    let mut problems = Vec::new();
    for path in doc_files(&root) {
        let text = std::fs::read_to_string(&path).unwrap();
        let rel = path.strip_prefix(&root).unwrap_or(&path).display().to_string();
        for (flag, arg) in long_flags(&text) {
            if !KNOWN_FLAGS.contains(&flag.as_str()) {
                problems.push(format!("{rel}: unknown flag --{flag}"));
                continue;
            }
            match (flag.as_str(), arg) {
                ("bin", Some(name)) if !bin_exists(&root, &name) => {
                    problems.push(format!(
                        "{rel}: --bin {name} has no crates/*/src/bin/{name}.rs"
                    ));
                }
                ("bin", None) => problems.push(format!("{rel}: --bin without a name")),
                ("example", Some(name)) => {
                    let src = root.join(format!("examples/{name}.rs"));
                    if !src.is_file() {
                        problems.push(format!("{rel}: --example {name} has no {}", src.display()));
                    }
                }
                ("example", None) => problems.push(format!("{rel}: --example without a name")),
                _ => {}
            }
        }
    }
    assert!(problems.is_empty(), "stale documentation references:\n{}", problems.join("\n"));
}

#[test]
fn flag_scanner_parses_the_shapes_docs_use() {
    let flags = long_flags("run `cargo run --release --bin fig2 -- --quick --jobs=4` --no-deps");
    let names: Vec<&str> = flags.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(names, ["release", "bin", "quick", "jobs", "no-deps"]);
    assert_eq!(flags[1].1.as_deref(), Some("fig2"));
    assert_eq!(flags[3].1.as_deref(), Some("4"));
    // em-dash-as-double-hyphen prose must not register
    assert!(long_flags("trains the model--quickly, too").is_empty());
}

/// Every registered name as `(category, name)`, with the variant a call
/// site spells: the three `ALL` arrays of `lbchat::obs`.
fn registered_obs_names() -> BTreeMap<(&'static str, String), String> {
    let events = EventKind::ALL.map(|k| (("event", k.name().into()), format!("EventKind::{k:?}")));
    let counters = Counter::ALL.map(|c| (("counter", c.name().into()), format!("Counter::{c:?}")));
    let gauges = Gauge::ALL.map(|g| (("gauge", g.name().into()), format!("Gauge::{g:?}")));
    events.into_iter().chain(counters).chain(gauges).collect()
}

/// The non-test source of every `.rs` file under `dir`, whitespace
/// removed: comment lines dropped, and each file cut at its first
/// `#[cfg(test)]` item with a body (a one-line `#[cfg(test)] mod x;` is
/// skipped alone).
fn non_test_sources(dir: &Path, out: &mut Vec<String>) {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            non_test_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines = text.lines().filter(|l| !l.trim_start().starts_with("//"));
            let mut live = String::new();
            while let Some(line) = lines.next() {
                if line.contains("#[cfg(test)]") {
                    match lines.next() {
                        Some(item) if item.trim_end().ends_with(';') => continue,
                        _ => break,
                    }
                }
                live.extend(line.chars().filter(|c| !c.is_whitespace()));
            }
            out.push(live);
        }
    }
}

/// Whether some source records `variant`: a call `emit(` / `open_span(`
/// (event kinds), `add(` (counters) or `observe(` (gauges) whose first
/// argument is the variant, spelled `Enum::Variant`.
fn is_emitted(sources: &[String], category: &str, variant: &str) -> bool {
    let calls: &[&str] = match category {
        "event" => &["emit(", "open_span("],
        "counter" => &["add("],
        _ => &["observe("],
    };
    let needles: Vec<String> = calls.iter().map(|call| format!("{call}{variant},")).collect();
    sources.iter().any(|src| needles.iter().any(|n| src.contains(n.as_str())))
}

/// The names docs/OBSERVABILITY.md documents, with their 1-based line:
/// event kinds from `` ### `kind` `` headings, counters and gauges from
/// the first backticked cell of each row of the `| Counter |` and
/// `| Gauge |` tables.
fn documented_obs_names(doc: &str) -> BTreeMap<(&'static str, String), usize> {
    let mut out = BTreeMap::new();
    let mut table: Option<&'static str> = None;
    for (i, line) in doc.lines().enumerate() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("### `") {
            if let Some(end) = rest.find('`') {
                out.insert(("event", rest[..end].to_string()), i + 1);
            }
            table = None;
        } else if t.starts_with('#') || !t.starts_with('|') {
            table = None;
        } else if t.starts_with("| Counter") {
            table = Some("counter");
        } else if t.starts_with("| Gauge") {
            table = Some("gauge");
        } else if let (Some(category), Some(rest)) = (table, t.strip_prefix("| `")) {
            if let Some(end) = rest.find('`') {
                out.insert((category, rest[..end].to_string()), i + 1);
            }
        }
    }
    out
}

#[test]
fn obs_names_in_code_and_observability_doc_agree() {
    let root = repo_root();
    let doc = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md"))
        .expect("docs/OBSERVABILITY.md is the event schema");
    let documented = documented_obs_names(&doc);
    let registered = registered_obs_names();
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            non_test_sources(&src, &mut sources);
        }
    }
    let mut problems = Vec::new();
    for ((category, name), variant) in &registered {
        if !documented.contains_key(&(*category, name.clone())) {
            problems.push(format!(
                "{variant}: {category} `{name}` is registered but not documented in \
                 docs/OBSERVABILITY.md"
            ));
        }
        if !is_emitted(&sources, category, variant) {
            problems.push(format!(
                "{variant}: {category} `{name}` is registered but no non-test code under \
                 crates/*/src records it"
            ));
        }
    }
    for ((category, name), line) in &documented {
        if !registered.contains_key(&(*category, name.clone())) {
            problems.push(format!(
                "docs/OBSERVABILITY.md:{line}: {category} `{name}` is documented but not in \
                 lbchat::obs's registry"
            ));
        }
    }
    assert!(problems.is_empty(), "observability names out of sync:\n{}", problems.join("\n"));
}

#[test]
fn observability_doc_parser_reads_headings_and_tables() {
    let listed = |names: BTreeMap<(&str, String), usize>| -> Vec<String> {
        names.into_iter().map(|((category, name), line)| format!("{category} {name} {line}")).collect()
    };
    let doc = "### `round` — x\n\n## Counters\n\n| Counter | By |\n| --- | --- |\n| `sessions` | runtime |\n\n| Gauge | At |\n| --- | --- |\n| `psi` | chat |\n\nProse ends a table.\n| `stray` | row |\n";
    assert_eq!(listed(documented_obs_names(doc)), ["counter sessions 7", "event round 1", "gauge psi 11"]);
}
