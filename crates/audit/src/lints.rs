//! The lint catalogue, the per-file and cross-file checks, and the
//! `audit:allow` suppression machinery.
//!
//! Lints are grouped in families (see `docs/AUDIT.md` for the full
//! catalogue):
//!
//! | Family | Concern | Scope |
//! |---|---|---|
//! | `D` | determinism | seeded crates ([`Profile::seeded`]) |
//! | `P` | panic-safety | hot paths ([`Profile::hot`]) |
//! | `O` | observability schema | all scanned files + the obs doc |
//! | `A` | suppression hygiene | everywhere allows appear |
//!
//! Test code never fires D/P lints and never contributes O-lint names:
//! files under `tests/`, `examples/`, or `benches/`, and `#[cfg(test)]` /
//! `mod tests` regions, are exempt by construction (the lexer tracks the
//! regions). `assert!`-family macros are deliberately out of scope for
//! P-lints — they state contracts; the lint families target *accidental*
//! panic and nondeterminism paths.

use crate::lexer::{FileScan, ObsName};

/// One entry of the lint catalogue.
#[derive(Debug, Clone, Copy)]
pub struct LintSpec {
    /// Stable id, e.g. `"D001"`.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description (shown by `--list-lints` and in docs).
    pub summary: &'static str,
    /// Why the lint exists — what breaks when it is violated
    /// (shown by `--explain`).
    pub rationale: &'static str,
    /// A minimal offending snippet (shown by `--explain`).
    pub example: &'static str,
    /// The suppression policy: how (or whether) `audit:allow` applies.
    pub suppression: &'static str,
}

/// Every lint the scanner knows, in id order.
pub const LINTS: &[LintSpec] = &[
    LintSpec {
        id: "D001",
        name: "wall-clock-read",
        summary: "Instant::now / SystemTime::now in a seeded crate outside the obs/bench timing layers",
        rationale: "Seeded crates promise output that is a pure function of the seed; a wall-clock read is ambient state that can leak into results and break the jobs=1 == jobs=N bit-identity guarantee.",
        example: "let t = std::time::Instant::now(); // in crates/core/src/",
        suppression: "audit:allow(D001): <reason> on the offending line; legitimate only in timing layers that never feed results (the obs/ subtree is already exempt).",
    },
    LintSpec {
        id: "D002",
        name: "unordered-collection",
        summary: "HashMap/HashSet in a seeded crate: iteration order can leak into results; use BTreeMap/BTreeSet or sort at iteration",
        rationale: "HashMap iteration order depends on RandomState and can differ between runs and builds; any fold over it becomes nondeterministic.",
        example: "let peers: HashMap<NodeId, Score> = HashMap::new();",
        suppression: "audit:allow(D002): <reason> — acceptable only when the map is never iterated or the iteration is explicitly sorted.",
    },
    LintSpec {
        id: "D003",
        name: "ambient-entropy",
        summary: "thread_rng / OsRng / from_entropy / getrandom in a seeded crate: all randomness must flow from derive_seed",
        rationale: "Every stochastic choice must be reproducible from the experiment seed; OS entropy makes a run unrepeatable.",
        example: "let mut rng = rand::thread_rng();",
        suppression: "audit:allow(D003): <reason> — there is no known legitimate use inside the seeded set; prefer plumbing a seeded StdRng.",
    },
    LintSpec {
        id: "D004",
        name: "wall-clock-payload",
        summary: "epoch/date timestamps (UNIX_EPOCH, Utc::now, ...) in a seeded crate: wall-clock values must not enter result payloads",
        rationale: "A timestamp embedded in a result payload diffs on every run, defeating golden fixtures and the run differ.",
        example: "manifest.started = SystemTime::now().duration_since(UNIX_EPOCH);",
        suppression: "audit:allow(D004): <reason> — acceptable for fields explicitly excluded from fixtures and diffs.",
    },
    LintSpec {
        id: "P001",
        name: "hot-path-unwrap",
        summary: ".unwrap() in a runtime/exec/node/simnet hot path: convert to Result or justify with an allow",
        rationale: "A panic in the session runtime or worker pool aborts the whole experiment mid-run; hot paths must degrade through Result instead.",
        example: "let next = queue.pop().unwrap();",
        suppression: "audit:allow(P001): <reason> stating the invariant that makes the unwrap infallible.",
    },
    LintSpec {
        id: "P002",
        name: "hot-path-expect",
        summary: ".expect(...) in a runtime/exec/node/simnet hot path: convert to Result or justify with an allow",
        rationale: "Same failure mode as P001; the message string does not make the abort less fatal.",
        example: "let cfg = table.get(&id).expect(\"id registered\");",
        suppression: "audit:allow(P002): <reason> stating the invariant that makes the expect infallible.",
    },
    LintSpec {
        id: "P003",
        name: "hot-path-panic",
        summary: "panic!/unreachable!/todo!/unimplemented! in a hot path",
        rationale: "Explicit panic macros in the hot path turn recoverable protocol states into aborts.",
        example: "_ => unreachable!(\"unknown packet\"),",
        suppression: "audit:allow(P003): <reason> — acceptable only for states the type system cannot rule out and tests pin as impossible.",
    },
    LintSpec {
        id: "P004",
        name: "inline-index-arithmetic",
        summary: "slice/array index computed inline (x[i * n + j]) in a hot path: hoist with a bounds argument or justify with an allow",
        rationale: "Inline index arithmetic hides bounds reasoning and is where off-by-one panics breed; hoisting the index next to its bounds makes the proof local.",
        example: "let v = grid[y * width + x];",
        suppression: "audit:allow(P004): <reason> pointing at the bounds argument.",
    },
    LintSpec {
        id: "P005",
        name: "panic-reachability",
        summary: "panic-family token outside the hot set transitively reachable from an audit:entry(hot) function",
        rationale: "P001-P004 only see text inside the hot directories; a hot entry point calling into a helper crate still aborts the run if that helper unwraps. The call-graph walk closes the gap.",
        example: "// audit:entry(hot)\npub fn step(&mut self) { encode_all(); } // encode_all() -> .expect(...) elsewhere",
        suppression: "audit:allow(P005): <reason> on the panic site's line, stating why the path cannot be taken or cannot fail.",
    },
    LintSpec {
        id: "O001",
        name: "undocumented-obs-name",
        summary: "event kind / counter / gauge emitted via lbchat::obs but missing from docs/OBSERVABILITY.md",
        rationale: "The observability doc is the schema consumers parse; an undocumented name is an API change nobody reviewed.",
        example: "obs::counter(\"mystery.total\").inc();",
        suppression: "not suppressable — document the name or stop emitting it.",
    },
    LintSpec {
        id: "O002",
        name: "orphaned-obs-doc",
        summary: "event kind / counter / gauge documented in docs/OBSERVABILITY.md but never emitted",
        rationale: "Dead schema entries mislead consumers into waiting for data that never comes.",
        example: "| `ghost.counter` | documented, emitted nowhere |",
        suppression: "not suppressable — delete the row or emit the name.",
    },
    LintSpec {
        id: "T001",
        name: "phase-purity",
        summary: "audit:phase(intent) function can reach an RNG draw through the call graph",
        rationale: "The two-phase tick is bit-identical across --jobs only because the parallel intent phase draws no randomness; one draw behind a helper call reintroduces schedule-dependent streams. T001 proves RNG-freedom statically instead of relying on proptests to notice.",
        example: "// audit:phase(intent)\nfn intent_for(..) { self.ped_hazard(..) } // ped_hazard() -> rng.random_range(..)",
        suppression: "audit:allow(T001): <reason> on the annotated fn's declaration line; prefer moving the draw to the apply phase.",
    },
    LintSpec {
        id: "T002",
        name: "seeded-entropy-taint",
        summary: "ambient entropy outside the seeded set transitively reachable from an audit:entry(seeded) function",
        rationale: "D001-D004 only see text inside the seeded directories; a seeded entry point calling a helper crate that reads the clock or spins up thread_rng is just as nondeterministic. The call-graph walk extends the guarantee across crate boundaries.",
        example: "// audit:entry(seeded)\nfn run_cell(..) { helper() } // helper() -> SystemTime::now() in a non-seeded crate",
        suppression: "audit:allow(T002): <reason> on the entropy site's line, stating why the value cannot reach results.",
    },
    LintSpec {
        id: "W001",
        name: "wire-contract",
        summary: "codec registry out of sync with docs/COMPRESSION.md: keys, magic bytes, ALL/decode arms, or layout constants disagree",
        rationale: "docs/COMPRESSION.md is the normative wire contract; a codec whose magic byte, key, or decode arm drifts from it ships buffers peers cannot (or wrongly do) decode.",
        example: "| `int8` | `0x39` | ... |  // code says magic::INT8 = 0x38",
        suppression: "not suppressable — fix the code or the doc; the contract must hold in both directions.",
    },
    LintSpec {
        id: "R001",
        name: "reference-drift",
        summary: "a retained-verbatim reference oracle's content hash no longer matches the committed manifest",
        rationale: "Optimized paths are proptested bit-identical to retained reference modules; if an oracle is edited, every equivalence proof against it silently weakens. The manifest pin makes oracle edits a reviewed, explicit act.",
        example: "edit crates/simworld/src/reference.rs without re-running --write-reference-manifest",
        suppression: "not suppressable — re-pin deliberately with `lbchat-audit --write-reference-manifest`.",
    },
    LintSpec {
        id: "A001",
        name: "unused-allow",
        summary: "audit:allow comment that suppresses nothing (stale after the code was fixed)",
        rationale: "Stale allows are camouflage: the next real finding on that line would be silently swallowed.",
        example: "// audit:allow(P001): was needed before the refactor\nfn now_clean() {}",
        suppression: "not suppressable — delete the stale comment.",
    },
    LintSpec {
        id: "A002",
        name: "malformed-allow",
        summary: "audit:allow / audit:phase / audit:entry comment with an unknown id or value, or a missing `: reason`",
        rationale: "A suppression or annotation that does not parse does nothing; failing loudly beats a typo silently disabling the check it names.",
        example: "// audit:allow(P001)  <- missing \": reason\"",
        suppression: "not suppressable — fix the comment.",
    },
];

/// Looks up a lint id in the catalogue.
pub fn lint_spec(id: &str) -> Option<&'static LintSpec> {
    LINTS.iter().find(|l| l.id == id)
}

/// What the scanner checks where. Paths are workspace-relative prefixes
/// with forward slashes; a file matches a set if any prefix matches.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Crate directory names under `crates/` excluded from the walk
    /// entirely (the vendored stand-ins: they *implement* the clock and
    /// entropy APIs the lints police).
    pub exclude_crates: Vec<String>,
    /// Additional path prefixes to skip (committed bad-snippet fixtures).
    pub skip_paths: Vec<String>,
    /// D-lint scope: crates whose output must be a pure function of the
    /// seed.
    pub seeded: Vec<String>,
    /// D001 exemption inside the seeded set: the timing layer itself.
    pub d001_exempt: Vec<String>,
    /// P-lint scope: the simulation hot paths.
    pub hot: Vec<String>,
    /// The observability schema document, workspace-relative.
    pub obs_doc: String,
    /// The wire-format source file W001 parses (codec registry).
    pub wire_code: String,
    /// The normative wire-format document W001 cross-references.
    pub wire_doc: String,
    /// The committed reference-oracle hash manifest (R001).
    pub reference_manifest: String,
    /// The retained-verbatim oracles R001 pins.
    pub reference_modules: Vec<crate::refs::RefModule>,
}

impl Profile {
    /// The repository's production profile.
    pub fn lbchat() -> Self {
        let s = |v: &[&str]| v.iter().map(|p| (*p).to_string()).collect();
        Profile {
            exclude_crates: s(&["rand", "proptest"]),
            skip_paths: s(&["crates/audit/tests/fixtures/"]),
            seeded: s(&[
                "crates/core/src/",
                "crates/simnet/src/",
                "crates/simworld/src/",
                "crates/vnn/src/",
                "crates/driving/src/",
                "crates/baselines/src/",
                "crates/experiments/src/",
            ]),
            d001_exempt: s(&["crates/core/src/obs/"]),
            hot: s(&[
                "crates/core/src/runtime",
                "crates/core/src/exec.rs",
                "crates/core/src/node.rs",
                "crates/simnet/src/",
                "crates/simworld/src/",
            ]),
            obs_doc: "docs/OBSERVABILITY.md".to_string(),
            wire_code: "crates/core/src/compress.rs".to_string(),
            wire_doc: "docs/COMPRESSION.md".to_string(),
            reference_manifest: "crates/audit/reference_manifest.txt".to_string(),
            reference_modules: vec![
                crate::refs::RefModule {
                    name: "coreset::reference".to_string(),
                    file: "crates/core/src/coreset.rs".to_string(),
                    inline_mod: Some("reference".to_string()),
                },
                crate::refs::RefModule {
                    name: "bev::reference".to_string(),
                    file: "crates/simworld/src/bev.rs".to_string(),
                    inline_mod: Some("reference".to_string()),
                },
                crate::refs::RefModule {
                    name: "runtime::reference".to_string(),
                    file: "crates/core/src/runtime/reference.rs".to_string(),
                    inline_mod: None,
                },
                crate::refs::RefModule {
                    name: "simworld::reference".to_string(),
                    file: "crates/simworld/src/reference.rs".to_string(),
                    inline_mod: None,
                },
            ],
        }
    }

    /// A fixture profile: every scanned file is both seeded and hot.
    /// Used by the scanner's own tests.
    pub fn everything() -> Self {
        Profile {
            exclude_crates: Vec::new(),
            skip_paths: Vec::new(),
            seeded: vec![String::new()],
            d001_exempt: Vec::new(),
            hot: vec![String::new()],
            obs_doc: "docs/OBSERVABILITY.md".to_string(),
            wire_code: "crates/core/src/compress.rs".to_string(),
            wire_doc: "docs/COMPRESSION.md".to_string(),
            reference_manifest: "crates/audit/reference_manifest.txt".to_string(),
            reference_modules: Vec::new(),
        }
    }

    fn in_seeded(&self, rel: &str) -> bool {
        matches_prefix(&self.seeded, rel)
    }

    fn d001_exempt(&self, rel: &str) -> bool {
        matches_prefix(&self.d001_exempt, rel)
    }

    fn in_hot(&self, rel: &str) -> bool {
        matches_prefix(&self.hot, rel)
    }
}

fn matches_prefix(prefixes: &[String], rel: &str) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}

/// One lint hit, before or after suppression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Lint id (`"D001"`, …).
    pub lint: String,
    /// Human message.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A finding that an `audit:allow` comment suppressed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppressed {
    /// Workspace-relative file of the suppressed finding.
    pub path: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// Lint id.
    pub lint: String,
    /// The justification given in the allow comment.
    pub reason: String,
}

/// A parsed `audit:allow` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// File the comment lives in.
    pub path: String,
    /// Line the comment starts on.
    pub decl_line: usize,
    /// Line the allow applies to (its own line for trailing comments,
    /// the next code line for comment-only lines).
    pub target_line: usize,
    /// Lint id it suppresses.
    pub id: String,
    /// The stated reason.
    pub reason: String,
    /// Set when the comment does not parse (unknown id, missing reason).
    pub malformed: Option<String>,
}

const D001_TOKENS: &[&str] = &["Instant::now", "SystemTime::now"];
const D002_TOKENS: &[&str] = &["HashMap", "HashSet"];
const D003_TOKENS: &[&str] =
    &["thread_rng", "from_entropy", "OsRng", "from_os_rng", "getrandom"];
const D004_TOKENS: &[&str] =
    &["UNIX_EPOCH", "Utc::now", "Local::now", "OffsetDateTime", "NaiveDateTime"];
const P003_TOKENS: &[&str] = &["panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Runs the per-file D and P lints over non-test lines. Returns raw
/// findings; suppression is applied later by [`apply_allows`].
pub fn check_file(scan: &FileScan, profile: &Profile) -> Vec<Finding> {
    let mut out = Vec::new();
    let seeded = profile.in_seeded(&scan.rel);
    let d001 = seeded && !profile.d001_exempt(&scan.rel);
    let hot = profile.in_hot(&scan.rel);
    if !seeded && !hot {
        return out;
    }
    for line in 1..=scan.line_starts.len() {
        if scan.is_test_line(line) {
            continue;
        }
        let code = scan.code_line(line);
        if code.trim().is_empty() {
            continue;
        }
        let mut push = |lint: &str, message: String| {
            out.push(Finding {
                path: scan.rel.clone(),
                line,
                lint: lint.to_string(),
                message,
                snippet: scan.raw_line(line).trim().to_string(),
            });
        };
        if d001 {
            if let Some(t) = first_token(code, D001_TOKENS) {
                push("D001", format!("`{t}` reads the wall clock in a seeded crate"));
            }
        }
        if seeded {
            if let Some(t) = first_token(code, D002_TOKENS) {
                push(
                    "D002",
                    format!("`{t}` has nondeterministic iteration order; use the BTree equivalent or sort at iteration"),
                );
            }
            if let Some(t) = first_token(code, D003_TOKENS) {
                push("D003", format!("`{t}` draws ambient entropy in a seeded crate"));
            }
            if let Some(t) = first_token(code, D004_TOKENS) {
                push("D004", format!("`{t}` puts wall-clock time within reach of result payloads"));
            }
        }
        if hot {
            if first_token(code, &[".unwrap()"]).is_some() {
                push("P001", "`.unwrap()` can panic in a hot path; convert to Result".to_string());
            }
            if first_token(code, &[".expect("]).is_some() {
                push("P002", "`.expect(...)` can panic in a hot path; convert to Result".to_string());
            }
            if let Some(t) = first_token(code, P003_TOKENS) {
                push("P003", format!("`{}` in a hot path", t.trim_end_matches('(')));
            }
            if let Some(expr) = inline_index_arithmetic(code) {
                push("P004", format!("index `[{expr}]` computed inline; hoist it next to its bounds argument"));
            }
        }
    }
    out
}

/// The first token from `tokens` present in `code` with identifier
/// boundaries respected on both sides.
fn first_token<'t>(code: &str, tokens: &[&'t str]) -> Option<&'t str> {
    tokens.iter().copied().find(|t| has_token(code, t))
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `code` contains `token` with identifier boundaries respected
/// on both sides (shared with the taint lints' source-site scan).
pub fn has_token(code: &str, token: &str) -> bool {
    let code_b = code.as_bytes();
    let tok_b = token.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        from = at + 1;
        if at > 0 && is_ident(tok_b[0]) && is_ident(code_b[at - 1]) {
            continue; // mid-identifier prefix
        }
        let end = at + tok_b.len();
        if end < code_b.len()
            && is_ident(tok_b[tok_b.len() - 1])
            && is_ident(code_b[end])
        {
            continue; // mid-identifier suffix
        }
        return true;
    }
    false
}

/// Finds an index expression with inline arithmetic: a `[` that follows
/// an identifier (or `)`/`]`), whose bracketed content — on the same
/// line — contains an arithmetic operator. Returns the content.
fn inline_index_arithmetic(code: &str) -> Option<String> {
    let b = code.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'['
            && i > 0
            && (is_ident(b[i - 1]) || b[i - 1] == b')' || b[i - 1] == b']')
        {
            let mut depth = 1;
            let mut j = i + 1;
            while j < b.len() && depth > 0 {
                match b[j] {
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            if depth == 0 {
                let content = &code[i + 1..j - 1];
                if content_has_arithmetic(content) {
                    return Some(content.trim().to_string());
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    None
}

/// Whether a bracketed index expression contains arithmetic. `->` (in
/// closure types) and `..`/`..=` range punctuation are not arithmetic.
fn content_has_arithmetic(content: &str) -> bool {
    let b = content.as_bytes();
    (0..b.len()).any(|i| match b[i] {
        b'+' | b'*' | b'/' | b'%' => true,
        b'-' => b.get(i + 1) != Some(&b'>'),
        _ => false,
    })
}

/// Extracts every `audit:allow` comment from non-test regions.
///
/// A comment is a suppression only when its text *starts* with
/// `audit:allow` (one allow per comment) — prose that merely mentions
/// the syntax, like this sentence or the backticked examples in doc
/// comments, is ignored.
pub fn collect_allows(scan: &FileScan) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &scan.comments {
        if scan.is_test_line(c.line) {
            continue;
        }
        let t = c.text.trim_start_matches(['/', '!']).trim_start();
        if let Some(after) = t.strip_prefix("audit:allow") {
            out.push(parse_allow(scan, c.line, after));
        }
    }
    out
}

fn parse_allow(scan: &FileScan, decl_line: usize, after: &str) -> Allow {
    let mut allow = Allow {
        path: scan.rel.clone(),
        decl_line,
        target_line: allow_target(scan, decl_line),
        id: String::new(),
        reason: String::new(),
        malformed: None,
    };
    let Some(open) = after.strip_prefix('(') else {
        allow.malformed = Some("expected `audit:allow(<lint-id>): <reason>`".to_string());
        return allow;
    };
    let Some(close) = open.find(')') else {
        allow.malformed = Some("unclosed `(` in audit:allow".to_string());
        return allow;
    };
    allow.id = open[..close].trim().to_string();
    if lint_spec(&allow.id).is_none() {
        allow.malformed = Some(format!("unknown lint id `{}`", allow.id));
        return allow;
    }
    let rest = &open[close + 1..];
    let Some(reason) = rest.strip_prefix(':') else {
        allow.malformed =
            Some(format!("audit:allow({}) is missing its `: <reason>`", allow.id));
        return allow;
    };
    let reason = reason.trim().to_string();
    if reason.is_empty() {
        allow.malformed =
            Some(format!("audit:allow({}) has an empty reason", allow.id));
        return allow;
    }
    allow.reason = reason;
    allow
}

/// The line an allow on `decl_line` applies to: its own line when that
/// line has code, otherwise the next line carrying code (chaining over
/// blank and comment-only lines).
fn allow_target(scan: &FileScan, decl_line: usize) -> usize {
    if !scan.code_line(decl_line).trim().is_empty() {
        return decl_line;
    }
    let n = scan.line_starts.len();
    let mut line = decl_line + 1;
    while line <= n && scan.code_line(line).trim().is_empty() {
        line += 1;
    }
    line.min(n)
}

/// Section-aware parse of the observability document: event kinds from
/// `` ### `kind` `` headings, counter and gauge names from the first
/// backticked cell of rows in tables headed `| Counter |` / `| Gauge |`.
pub fn doc_obs_names(doc: &str) -> Vec<(String, &'static str, usize)> {
    let mut out = Vec::new();
    let mut table: Option<&'static str> = None;
    for (idx, line) in doc.lines().enumerate() {
        let lineno = idx + 1;
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("### `") {
            if let Some(end) = rest.find('`') {
                out.push((rest[..end].to_string(), "event", lineno));
            }
            table = None;
            continue;
        }
        if t.starts_with("#") {
            table = None;
            continue;
        }
        if t.starts_with("| Counter") {
            table = Some("counter");
            continue;
        }
        if t.starts_with("| Gauge") {
            table = Some("gauge");
            continue;
        }
        if let (Some(kind), Some(rest)) = (table, t.strip_prefix("| `")) {
            if let Some(end) = rest.find('`') {
                out.push((rest[..end].to_string(), kind, lineno));
            }
        } else if table.is_some() && !t.starts_with('|') {
            table = None;
        }
    }
    out
}

/// Cross-references the emitted names against the documented ones:
/// O001 for emitted-but-undocumented, O002 for documented-but-unemitted.
pub fn check_obs(doc_rel: &str, doc: &str, emitted: &[ObsName]) -> Vec<Finding> {
    let documented = doc_obs_names(doc);
    let mut out = Vec::new();
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for e in emitted {
        if seen.contains(&(e.category, e.name.as_str())) {
            continue;
        }
        seen.push((e.category, e.name.as_str()));
        if !documented.iter().any(|(n, c, _)| *c == e.category && n == &e.name) {
            out.push(Finding {
                path: e.path.clone(),
                line: e.line,
                lint: "O001".to_string(),
                message: format!(
                    "{} `{}` is emitted here but not documented in {doc_rel}",
                    e.category, e.name
                ),
                snippet: String::new(),
            });
        }
    }
    for (name, category, lineno) in &documented {
        if !emitted.iter().any(|e| e.category == *category && &e.name == name) {
            out.push(Finding {
                path: doc_rel.to_string(),
                line: *lineno,
                lint: "O002".to_string(),
                message: format!("{category} `{name}` is documented but never emitted"),
                snippet: String::new(),
            });
        }
    }
    out
}

/// Applies the collected allows to the raw findings: matched findings
/// move to the suppressed list; unused allows become A001 findings and
/// malformed allows A002 (A-lints are themselves unsuppressable). Both
/// outputs come back sorted.
pub fn apply_allows(
    raw: Vec<Finding>,
    allows: Vec<Allow>,
) -> (Vec<Finding>, Vec<Suppressed>) {
    let mut used = vec![false; allows.len()];
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for f in raw {
        let hit = allows.iter().enumerate().find(|(_, a)| {
            a.malformed.is_none()
                && a.id == f.lint
                && a.path == f.path
                && a.target_line == f.line
        });
        match hit {
            Some((i, a)) => {
                used[i] = true;
                suppressed.push(Suppressed {
                    path: f.path,
                    line: f.line,
                    lint: f.lint,
                    reason: a.reason.clone(),
                });
            }
            None => findings.push(f),
        }
    }
    for (i, a) in allows.iter().enumerate() {
        if let Some(why) = &a.malformed {
            findings.push(Finding {
                path: a.path.clone(),
                line: a.decl_line,
                lint: "A002".to_string(),
                message: why.clone(),
                snippet: String::new(),
            });
        } else if !used[i] {
            findings.push(Finding {
                path: a.path.clone(),
                line: a.decl_line,
                lint: "A001".to_string(),
                message: format!(
                    "audit:allow({}) suppresses nothing; delete the stale comment",
                    a.id
                ),
                snippet: String::new(),
            });
        }
    }
    findings.sort();
    suppressed.sort();
    (findings, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> FileScan {
        FileScan::new(rel, src)
    }

    fn everything_findings(src: &str) -> Vec<Finding> {
        let s = scan("src/lib.rs", src);
        let raw = check_file(&s, &Profile::everything());
        let (f, _) = apply_allows(raw, collect_allows(&s));
        f
    }

    #[test]
    fn d_lints_fire_on_their_tokens() {
        let f = everything_findings("fn f() { let t = std::time::Instant::now(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "D001");
        let f = everything_findings("use std::collections::HashMap;\n");
        assert_eq!(f[0].lint, "D002");
        let f = everything_findings("let r = rand::thread_rng();\n");
        assert_eq!(f[0].lint, "D003");
        let f = everything_findings("let t = std::time::UNIX_EPOCH;\n");
        assert_eq!(f[0].lint, "D004");
    }

    #[test]
    fn tokens_respect_identifier_boundaries() {
        assert!(everything_findings("struct MyHashMapLike;\n").is_empty());
        assert!(everything_findings("fn unwrap_all() {}\n").is_empty());
        let f = everything_findings("let x = map.get(&k).unwrap();\n");
        assert_eq!(f[0].lint, "P001");
    }

    #[test]
    fn strings_and_comments_never_fire() {
        assert!(everything_findings("let s = \"uses HashMap and .unwrap()\";\n").is_empty());
        assert!(everything_findings("// HashMap would be wrong here\nlet x = 1;\n").is_empty());
    }

    #[test]
    fn p004_catches_inline_index_arithmetic() {
        let f = everything_findings("fn f(v: &[f64], i: usize, n: usize) -> f64 { v[i * n + 1] }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "P004");
        assert!(f[0].message.contains("i * n + 1"));
        // Plain indices, attributes, array types, and ranges stay quiet.
        assert!(everything_findings("fn f(v: &[f64], i: usize) -> f64 { v[i] }\n").is_empty());
        assert!(everything_findings("#[cfg(feature = \"x\")]\nfn f() {}\n").is_empty());
        assert!(everything_findings("fn f() -> [f32; 4] { [0.0; 4] }\n").is_empty());
        assert!(everything_findings("fn f(v: &[u8]) -> &[u8] { &v[1..3] }\n").is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_and_is_used() {
        let s = scan(
            "src/lib.rs",
            "fn f() { x.unwrap(); } // audit:allow(P001): x is checked non-empty above\n",
        );
        let (f, sup) = apply_allows(check_file(&s, &Profile::everything()), collect_allows(&s));
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].lint, "P001");
        assert_eq!(sup[0].reason, "x is checked non-empty above");
    }

    #[test]
    fn preceding_line_allow_reaches_next_code_line() {
        let s = scan(
            "src/lib.rs",
            "// audit:allow(P001): checked by caller\n// more prose\nfn f() { x.unwrap(); }\n",
        );
        let (f, sup) = apply_allows(check_file(&s, &Profile::everything()), collect_allows(&s));
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(sup.len(), 1);
    }

    #[test]
    fn unused_allow_is_a001() {
        let f = everything_findings("// audit:allow(P001): stale\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "A001");
    }

    #[test]
    fn malformed_allow_is_a002() {
        let f = everything_findings("fn f() {} // audit:allow(P001)\n");
        assert_eq!(f[0].lint, "A002");
        let f = everything_findings("fn f() {} // audit:allow(Z999): nope\n");
        assert_eq!(f[0].lint, "A002");
    }

    #[test]
    fn doc_parse_reads_kinds_counters_gauges() {
        let doc = "# Doc\n\n### `round` — x\n\n## Counters and gauges\n\n| Counter | By |\n| --- | --- |\n| `sessions` | runtime |\n\n| Gauge | At |\n| --- | --- |\n| `psi` | chat |\n";
        let names = doc_obs_names(doc);
        assert!(names.contains(&("round".to_string(), "event", 3)));
        assert!(names.contains(&("sessions".to_string(), "counter", 9)));
        assert!(names.contains(&("psi".to_string(), "gauge", 13)));
    }

    #[test]
    fn obs_cross_reference_finds_both_directions() {
        let doc = "### `round` — x\n\n| Counter | By |\n| --- | --- |\n| `ghost` | nothing |\n";
        let emitted = vec![
            ObsName { category: "event", name: "round".into(), path: "src/a.rs".into(), line: 3 },
            ObsName { category: "event", name: "mystery".into(), path: "src/a.rs".into(), line: 9 },
        ];
        let f = check_obs("docs/OBSERVABILITY.md", doc, &emitted);
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.lint == "O001" && x.message.contains("mystery")));
        assert!(f.iter().any(|x| x.lint == "O002" && x.message.contains("ghost")));
    }

    #[test]
    fn profile_scoping_limits_families() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); x.unwrap(); }\n";
        let mut p = Profile::everything();
        p.hot.clear();
        let s = scan("src/lib.rs", src);
        let raw = check_file(&s, &p);
        assert!(raw.iter().all(|f| f.lint.starts_with('D')), "{raw:?}");
        p.hot = vec![String::new()];
        p.seeded.clear();
        let raw = check_file(&s, &p);
        assert!(raw.iter().all(|f| f.lint.starts_with('P')), "{raw:?}");
    }

    #[test]
    fn catalogue_ids_are_unique_and_well_formed() {
        let mut seen: Vec<&str> = Vec::new();
        for l in LINTS {
            assert_eq!(l.id.len(), 4, "{} must be a letter + 3 digits", l.id);
            assert!(matches!(l.id.as_bytes()[0], b'D' | b'P' | b'O' | b'A' | b'T' | b'W' | b'R'));
            assert!(l.id[1..].bytes().all(|b| b.is_ascii_digit()));
            assert!(!seen.contains(&l.id), "duplicate id {}", l.id);
            seen.push(l.id);
            for (field, text) in [
                ("rationale", l.rationale),
                ("example", l.example),
                ("suppression", l.suppression),
            ] {
                assert!(!text.trim().is_empty(), "{} has an empty {field}", l.id);
            }
        }
    }
}
