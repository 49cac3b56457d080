//! Keeps the prose honest: every `--flag`, `--bin NAME`, and
//! `--example NAME` mentioned in the user-facing documentation must
//! refer to something that actually exists in the tree. Docs rot
//! silently when a bin is renamed or a flag removed; this test makes
//! that rot a CI failure instead.

use std::path::{Path, PathBuf};

/// Every long flag the documentation is allowed to mention: the
/// experiment CLI ([`experiments::Args`]), `summarize_runs`'s own
/// flags, and the cargo flags that appear in quoted commands.
const KNOWN_FLAGS: &[&str] = &[
    // experiments::Args (see crates/experiments/src/lib.rs)
    "quick", "paper", "seed", "jobs", "methods", "codec", "fleet", "help",
    // summarize_runs
    "tables",
    // lbchat-bench / bench_report (see crates/bench/src/main.rs and
    // crates/bench/src/bin/bench_report.rs)
    "smoke", "filter", "out", "name", "threshold",
    // lbchat-audit (see crates/audit/src/main.rs)
    "root", "baseline", "list-lints", "explain", "github", "write-reference-manifest",
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
/// `src/bin/{name}.rs`, or if `name` is a package whose `src/main.rs`
/// is its default bin (the `lbchat-bench` case).
fn bin_exists(root: &Path, name: &str) -> bool {
    let crates = match std::fs::read_dir(root.join("crates")) {
        Ok(rd) => rd,
        Err(_) => return false,
    };
    for entry in crates.filter_map(std::result::Result::ok) {
        let dir = entry.path();
        if dir.join(format!("src/bin/{name}.rs")).is_file() {
            return true;
        }
        if dir.join("src/main.rs").is_file()
            && std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|t| t.contains(&format!("name = \"{name}\"")))
        {
            return true;
        }
    }
    false
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
                // `--codec NAME` (all-caps) is the usage-string placeholder
                // convention, like `--seed N`; anything else must parse.
                ("codec", Some(name))
                    if name.chars().any(|c| c.is_ascii_lowercase())
                        && lbchat::compress::Codec::from_key(&name).is_none() =>
                {
                    problems.push(format!("{rel}: --codec {name} is not a codec key"));
                }
                // `--fleet SCALE` follows the same placeholder convention.
                ("fleet", Some(name))
                    if name.chars().any(|c| c.is_ascii_lowercase())
                        && simworld::world::FleetScale::parse(&name).is_none() =>
                {
                    problems.push(format!("{rel}: --fleet {name} is not a fleet scale key"));
                }
                _ => {}
            }
        }
    }
    assert!(problems.is_empty(), "stale documentation references:\n{}", problems.join("\n"));
}

/// Yields every audit-lint-shaped token (`D001`, `T002`, …) in `text`:
/// one of the lint family letters followed by exactly three digits, with
/// identifier boundaries on both sides.
fn lint_ids(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for i in 0..bytes.len().saturating_sub(3) {
        if !matches!(bytes[i], b'D' | b'P' | b'O' | b'A' | b'T' | b'W' | b'R') {
            continue;
        }
        if !(bytes[i + 1].is_ascii_digit() && bytes[i + 2].is_ascii_digit() && bytes[i + 3].is_ascii_digit()) {
            continue;
        }
        let left_ok = i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        let right_ok =
            bytes.get(i + 4).map_or(true, |b| !(b.is_ascii_alphanumeric() || *b == b'_'));
        if left_ok && right_ok {
            out.push(text[i..i + 4].to_string());
        }
    }
    out
}

#[test]
fn lint_ids_in_prose_exist_in_the_audit_binary() {
    let root = repo_root();
    let known: Vec<&str> = lbchat_audit::LINTS.iter().map(|l| l.id).collect();
    let mut problems = Vec::new();
    for path in doc_files(&root) {
        let text = std::fs::read_to_string(&path).unwrap();
        let rel = path.strip_prefix(&root).unwrap_or(&path).display().to_string();
        for id in lint_ids(&text) {
            if !known.contains(&id.as_str()) {
                problems.push(format!("{rel}: lint id {id} does not exist in lbchat-audit"));
            }
        }
    }
    assert!(problems.is_empty(), "stale lint ids in prose:\n{}", problems.join("\n"));
    // The catalogue doc must actually name every lint the binary knows.
    let audit_doc = std::fs::read_to_string(root.join("docs/AUDIT.md")).expect("docs/AUDIT.md");
    for id in known {
        assert!(audit_doc.contains(id), "docs/AUDIT.md is missing lint {id}");
    }
}

#[test]
fn codec_names_in_prose_and_binary_agree() {
    use lbchat::compress::Codec;
    let root = repo_root();
    // The wire-format contract must name every codec the binary ships…
    let doc = std::fs::read_to_string(root.join("docs/COMPRESSION.md"))
        .expect("docs/COMPRESSION.md is the normative codec spec");
    for codec in Codec::ALL {
        assert!(
            doc.contains(&format!("`{}`", codec.name())),
            "docs/COMPRESSION.md is missing codec `{}`",
            codec.name()
        );
    }
    // …and every backticked codec-key-shaped token in it must resolve.
    for token in doc.split('`').skip(1).step_by(2) {
        if let Some(rest) = token.strip_prefix("--codec ") {
            assert!(
                Codec::from_key(rest).is_some(),
                "docs/COMPRESSION.md mentions `--codec {rest}`, not a real key"
            );
        }
    }
}

#[test]
fn lint_id_scanner_respects_boundaries() {
    assert_eq!(lint_ids("fires D001 once"), ["D001"]);
    assert_eq!(lint_ids("`P004`/`A002`"), ["P004", "A002"]);
    assert_eq!(lint_ids("T001 walks; W001 checks; R001 pins"), ["T001", "W001", "R001"]);
    assert!(lint_ids("ID0012 and XP004 and P04 and P0045").is_empty());
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
