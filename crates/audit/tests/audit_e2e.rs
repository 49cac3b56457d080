//! End-to-end tests of the `lbchat-audit` binary: each committed
//! bad-snippet fixture must make the binary exit nonzero with exactly
//! one finding of its lint id, the suppression fixture must come back
//! clean, the `--baseline` ratchet must pass on no-change and fail on
//! new findings, and the live tree itself must be audit-clean.

use lbchat_audit::Report;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Builds a throwaway workspace whose only source file is `content`,
/// placed at `crates/core/src/runtime.rs` — a path that is in both the
/// seeded and hot sets of the production profile the binary uses.
fn build_tree(test: &str, content: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("lbchat-audit-e2e-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/core/src")).expect("mkdir");
    std::fs::create_dir_all(root.join("docs")).expect("mkdir docs");
    std::fs::write(root.join("crates/core/src/runtime.rs"), content).expect("write fixture");
    std::fs::write(root.join("docs/OBSERVABILITY.md"), "# Observability\n").expect("write doc");
    root
}

/// Builds a throwaway workspace from several `(rel_path, content)` files,
/// for the graph lints that need an entry point and a source site in
/// different profile regions.
fn build_multi_tree(test: &str, files: &[(&str, &str)]) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("lbchat-audit-e2e-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("docs")).expect("mkdir docs");
    std::fs::write(root.join("docs/OBSERVABILITY.md"), "# Observability\n").expect("write doc");
    for (rel, content) in files {
        let abs = root.join(rel);
        std::fs::create_dir_all(abs.parent().expect("parent")).expect("mkdir");
        std::fs::write(&abs, content).expect("write fixture file");
    }
    root
}

/// Runs the real binary and returns (exit code, parsed report, stdout).
fn run_audit(root: &Path, extra: &[&str]) -> (i32, Report, String) {
    let out_path = root.join("report.json");
    let output = Command::new(env!("CARGO_BIN_EXE_lbchat-audit"))
        .arg("--root")
        .arg(root)
        .arg("--out")
        .arg(&out_path)
        .args(extra)
        .output()
        .expect("spawn lbchat-audit");
    let code = output.status.code().expect("exit code");
    let text = std::fs::read_to_string(&out_path).expect("report written");
    let report = Report::from_json(&text).expect("report parses");
    (code, report, String::from_utf8_lossy(&output.stdout).into_owned())
}

fn assert_fires_once(fixture_name: &str, lint: &str) {
    let root = build_tree(lint, &fixture(fixture_name));
    let (code, report, stdout) = run_audit(&root, &[]);
    assert_eq!(code, 1, "{fixture_name}: bad snippet must exit 1\n{stdout}");
    assert_eq!(
        report.findings.len(),
        1,
        "{fixture_name}: exactly one finding expected, got {:?}",
        report.findings
    );
    assert_eq!(report.findings[0].lint, lint, "{fixture_name}");
    assert!(stdout.contains(lint), "{fixture_name}: human output names the lint\n{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn each_bad_fixture_fires_its_lint_exactly_once() {
    for (file, lint) in [
        ("d001_wall_clock.rs", "D001"),
        ("d002_hash_map.rs", "D002"),
        ("d003_entropy.rs", "D003"),
        ("d004_wall_clock_payload.rs", "D004"),
        ("p001_unwrap.rs", "P001"),
        ("p002_expect.rs", "P002"),
        ("p003_panic.rs", "P003"),
        ("p004_index_arithmetic.rs", "P004"),
        ("a001_unused_allow.rs", "A001"),
        ("a002_malformed_allow.rs", "A002"),
        ("o001_undocumented_obs.rs", "O001"),
        ("t001_phase_rng.rs", "T001"),
    ] {
        assert_fires_once(file, lint);
    }
}

/// T002: a seeded entry in `crates/core` reaches a wall-clock read that
/// lives outside the seeded set (where D001 never looks).
#[test]
fn ambient_entropy_reachable_from_seeded_entry_fires_t002() {
    let entry = "// audit:entry(seeded)\npub fn seeded_run() -> u64 {\n    wall_stamp()\n}\n";
    let root = build_multi_tree(
        "T002",
        &[
            ("crates/core/src/runtime.rs", entry),
            ("crates/bench/src/lib.rs", &fixture("t002_ambient_entropy.rs")),
        ],
    );
    let (code, report, stdout) = run_audit(&root, &[]);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].lint, "T002");
    assert_eq!(report.findings[0].path, "crates/bench/src/lib.rs");
    assert!(report.findings[0].message.contains("seeded_run"), "{:?}", report.findings);
    let _ = std::fs::remove_dir_all(&root);
}

/// P005: a hot entry reaches an unwrap that lives outside the hot
/// directories (where P001 never looks).
#[test]
fn panic_reachable_from_hot_entry_fires_p005() {
    let entry = "// audit:entry(hot)\npub fn hot_run(v: &[f32]) -> f32 {\n    head(v)\n}\n";
    let root = build_multi_tree(
        "P005",
        &[
            ("crates/core/src/runtime.rs", entry),
            ("crates/vnn/src/lib.rs", &fixture("p005_reachable_panic.rs")),
        ],
    );
    let (code, report, stdout) = run_audit(&root, &[]);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].lint, "P005");
    assert_eq!(report.findings[0].path, "crates/vnn/src/lib.rs");
    assert!(report.findings[0].message.contains("hot_run"), "{:?}", report.findings);
    let _ = std::fs::remove_dir_all(&root);
}

/// W001: the committed registry fixture says `TOPK = 0x4B` but the doc
/// table claims `0x4C` — one finding, anchored at the doc row.
#[test]
fn wire_contract_drift_fires_w001_at_the_doc_row() {
    let doc = "# Compression wire format\n\n| key | magic | meaning |\n| --- | --- | --- |\n| `topk` | `0x4C` | top-k sparsification |\n";
    let root = build_multi_tree(
        "W001",
        &[("crates/core/src/compress.rs", &fixture("w001_wire_drift.rs"))],
    );
    std::fs::write(root.join("docs/COMPRESSION.md"), doc).expect("write wire doc");
    let (code, report, stdout) = run_audit(&root, &[]);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].lint, "W001");
    assert_eq!(report.findings[0].path, "docs/COMPRESSION.md");
    let _ = std::fs::remove_dir_all(&root);
}

/// The ISSUE's acceptance scenario: inject an RNG draw into a
/// `audit:phase(intent)` fn shaped like `World::intent_for` and the
/// audit catches it statically — no simulation run needed.
#[test]
fn injected_rng_draw_in_intent_for_is_caught_statically() {
    let world = "use rand::{Rng, RngExt};\n\npub struct World;\n\nimpl World {\n    // audit:phase(intent)\n    fn intent_for(&self, rng: &mut rand::rngs::StdRng) -> f32 {\n        rng.random_range(0.0..1.0)\n    }\n}\n";
    let root = build_multi_tree("intent-inject", &[("crates/simworld/src/world.rs", world)]);
    let (code, report, stdout) = run_audit(&root, &[]);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].lint, "T001");
    assert_eq!(report.findings[0].path, "crates/simworld/src/world.rs");
    assert!(report.findings[0].message.contains("intent_for"), "{:?}", report.findings);
    let _ = std::fs::remove_dir_all(&root);
}

/// R001: a pinned reference file with no committed manifest fails; the
/// `--write-reference-manifest` flow pins it and the tree comes back
/// clean.
#[test]
fn reference_manifest_missing_then_pinned() {
    let root = build_multi_tree(
        "R001",
        &[("crates/simworld/src/reference.rs", "//! Golden oracle.\n\n/// Reference path.\npub fn golden() {}\n")],
    );
    let (code, report, stdout) = run_audit(&root, &[]);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].lint, "R001");

    let output = Command::new(env!("CARGO_BIN_EXE_lbchat-audit"))
        .arg("--root")
        .arg(&root)
        .arg("--write-reference-manifest")
        .output()
        .expect("spawn lbchat-audit");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stdout));
    let manifest = std::fs::read_to_string(root.join("crates/audit/reference_manifest.txt"))
        .expect("manifest written");
    assert!(manifest.contains("simworld::reference crates/simworld/src/reference.rs"), "{manifest}");

    let (code, report, stdout) = run_audit(&root, &[]);
    assert_eq!(code, 0, "{stdout}");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn orphaned_doc_entry_fires_o002() {
    let root = build_tree("O002", "pub fn quiet() {}\n");
    std::fs::write(
        root.join("docs/OBSERVABILITY.md"),
        "# Observability\n\n### `phantom` — documented but never emitted\n",
    )
    .expect("write doc");
    let (code, report, _) = run_audit(&root, &[]);
    assert_eq!(code, 1);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].lint, "O002");
    assert_eq!(report.findings[0].path, "docs/OBSERVABILITY.md");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn well_formed_suppression_is_clean_and_counted() {
    let root = build_tree("suppressed", &fixture("suppressed_ok.rs"));
    let (code, report, stdout) = run_audit(&root, &[]);
    assert_eq!(code, 0, "{stdout}");
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].lint, "P001");
    assert!(report.suppressed[0].reason.contains("non-empty roster"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn baseline_ratchet_passes_unchanged_and_fails_on_new() {
    let root = build_tree("baseline", &fixture("p001_unwrap.rs"));
    let (code, baseline_report, _) = run_audit(&root, &[]);
    assert_eq!(code, 1);
    assert_eq!(baseline_report.findings.len(), 1);
    let baseline = root.join("baseline.json");
    std::fs::rename(root.join("report.json"), &baseline).expect("keep baseline");
    let baseline_arg = baseline.to_str().expect("utf-8 path");

    // Unchanged tree: the known finding is ratcheted, exit 0.
    let (code, _, stdout) = run_audit(&root, &["--baseline", baseline_arg]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("no new findings"), "{stdout}");

    // A second panic site appears: the ratchet must catch it.
    let grown = format!("{}{}", fixture("p001_unwrap.rs"), fixture("p002_expect.rs"));
    std::fs::write(root.join("crates/core/src/runtime.rs"), grown).expect("grow fixture");
    let (code, _, stdout) = run_audit(&root, &["--baseline", baseline_arg]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("NEW finding"), "{stdout}");
    assert!(stdout.contains("P002"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn live_tree_is_audit_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new(env!("CARGO_BIN_EXE_lbchat-audit"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spawn lbchat-audit");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "live tree must be audit-clean:\n{stdout}"
    );
    assert!(stdout.contains("audit clean"), "{stdout}");
}

#[test]
fn list_lints_prints_the_catalogue() {
    let output = Command::new(env!("CARGO_BIN_EXE_lbchat-audit"))
        .arg("--list-lints")
        .output()
        .expect("spawn lbchat-audit");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for l in lbchat_audit::LINTS {
        assert!(stdout.contains(l.id), "--list-lints must mention {}", l.id);
    }
}

#[test]
fn explain_prints_the_full_catalogue_entry() {
    for l in lbchat_audit::LINTS {
        let output = Command::new(env!("CARGO_BIN_EXE_lbchat-audit"))
            .args(["--explain", l.id])
            .output()
            .expect("spawn lbchat-audit");
        assert!(output.status.success(), "--explain {} must exit 0", l.id);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(l.id), "--explain {}:\n{stdout}", l.id);
        assert!(stdout.contains(l.name), "--explain {}:\n{stdout}", l.id);
        assert!(stdout.contains(l.summary), "--explain {}:\n{stdout}", l.id);
    }
}

#[test]
fn explain_unknown_lint_exits_2_and_lists_ids() {
    let output = Command::new(env!("CARGO_BIN_EXE_lbchat-audit"))
        .args(["--explain", "Z999"])
        .output()
        .expect("spawn lbchat-audit");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("T001"), "error names the known ids:\n{stderr}");
}

#[test]
fn github_mode_emits_workflow_annotations() {
    let root = build_tree("github", &fixture("p001_unwrap.rs"));
    let (code, _, stdout) = run_audit(&root, &["--github"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("::error file=crates/core/src/runtime.rs,"),
        "annotation names the file:\n{stdout}"
    );
    assert!(stdout.contains("title=P001"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_flag_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_lbchat-audit"))
        .arg("--bogus")
        .output()
        .expect("spawn lbchat-audit");
    assert_eq!(output.status.code(), Some(2));
}
