//! R001: reference-oracle drift detection.
//!
//! The perf story of this tree rests on "retained verbatim" reference
//! modules — `coreset::reference`, `bev::reference`,
//! `runtime::reference`, `simworld::reference` — that the optimized
//! paths are proptested bit-identical against. Nothing stops a refactor
//! from quietly editing an oracle *and* its fixture together, at which
//! point "bit-identical to the reference" proves nothing. This check
//! pins each module's raw text with an FNV-1a-64 content hash in a
//! committed manifest (`crates/audit/reference_manifest.txt`, one
//! `name path hash` line per module); any drift is an R001 finding until
//! the change is deliberately re-pinned with
//! `lbchat-audit --write-reference-manifest`.
//!
//! Inline modules (`pub mod reference { … }` inside a larger file) are
//! hashed over their brace span only, so unrelated edits in the same
//! file do not invalidate the pin. The whole check is skipped when none
//! of the reference files are in the scanned tree (e2e fixture trees).

use crate::lexer::FileScan;
use crate::lints::{Finding, Profile};
use crate::parser::ItemSet;

/// One pinned oracle: logical name, defining file, and the inline `mod`
/// to hash (`None` hashes the whole file).
#[derive(Debug, Clone)]
pub struct RefModule {
    /// Logical name used in the manifest (`coreset::reference`).
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Inline module name when the oracle is a `mod` span inside the
    /// file rather than the whole file.
    pub inline_mod: Option<String>,
}

/// FNV-1a 64-bit over raw bytes — dependency-free and stable.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The current `(name, file, hash, decl_line)` of every reference module
/// found in the tree. Missing files are simply absent; a present file
/// whose inline mod is missing reports hash `None`.
fn current_entries(
    files: &[(FileScan, ItemSet)],
    profile: &Profile,
) -> Vec<(RefModule, Option<(u64, usize)>)> {
    let mut out = Vec::new();
    for rm in &profile.reference_modules {
        let Some((scan, items)) = files
            .iter()
            .find(|(s, _)| s.rel == rm.file)
            .map(|(s, i)| (s, i))
        else {
            continue;
        };
        let hashed = match &rm.inline_mod {
            None => Some((fnv1a64(scan.raw.as_bytes()), 1)),
            Some(name) => items.mods.iter().find(|m| &m.name == name).map(|m| {
                // Blanking preserves byte length, so blanked-code spans
                // index straight into the raw text.
                (fnv1a64(&scan.raw.as_bytes()[m.span.0..=m.span.1]), m.decl_line)
            }),
        };
        out.push((rm.clone(), hashed));
    }
    out
}

/// The regenerated manifest text for the current tree.
pub fn manifest_text(files: &[(FileScan, ItemSet)], profile: &Profile) -> String {
    let mut lines: Vec<String> = current_entries(files, profile)
        .into_iter()
        .filter_map(|(rm, hashed)| {
            hashed.map(|(h, _)| format!("{} {} {:016x}", rm.name, rm.file, h))
        })
        .collect();
    lines.sort();
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// Cross-checks the committed manifest against the tree. `manifest` is
/// the manifest file's text when readable.
pub fn check_references(
    files: &[(FileScan, ItemSet)],
    profile: &Profile,
    manifest: Option<&str>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let entries = current_entries(files, profile);
    if entries.is_empty() {
        return out; // partial tree: no oracles to pin
    }
    let mut push = |path: &str, line: usize, message: String| {
        out.push(Finding {
            path: path.to_string(),
            line,
            lint: "R001".to_string(),
            message,
            snippet: String::new(),
        });
    };
    let Some(manifest) = manifest else {
        push(
            &profile.reference_manifest,
            1,
            format!(
                "reference manifest {} is missing; run `lbchat-audit --write-reference-manifest`",
                profile.reference_manifest
            ),
        );
        return out;
    };
    let pinned: Vec<(usize, &str, &str, &str)> = manifest
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let mut it = l.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some(n), Some(f), Some(h)) => Some((i + 1, n, f, h)),
                _ => None,
            }
        })
        .collect();
    for (rm, hashed) in &entries {
        let pin = pinned.iter().find(|(_, n, _, _)| *n == rm.name);
        let Some((hash, line)) = hashed else {
            push(
                &rm.file,
                1,
                format!(
                    "reference module `{}` (inline mod `{}`) not found in {}",
                    rm.name,
                    rm.inline_mod.as_deref().unwrap_or(""),
                    rm.file
                ),
            );
            continue;
        };
        match pin {
            None => push(
                &rm.file,
                *line,
                format!(
                    "reference module `{}` is not pinned in {}; run `lbchat-audit --write-reference-manifest`",
                    rm.name, profile.reference_manifest
                ),
            ),
            Some((mline, _, pfile, phash)) => {
                let want = format!("{hash:016x}");
                if *pfile != rm.file {
                    push(
                        &profile.reference_manifest,
                        *mline,
                        format!("reference module `{}` moved: pinned at {pfile}, found at {}", rm.name, rm.file),
                    );
                } else if *phash != want {
                    push(
                        &rm.file,
                        *line,
                        format!(
                            "reference module `{}` drifted from its pin ({phash} -> {want}); if intentional, re-pin with `lbchat-audit --write-reference-manifest`",
                            rm.name
                        ),
                    );
                }
            }
        }
    }
    for (mline, name, _, _) in &pinned {
        if !entries.iter().any(|(rm, _)| &rm.name == name) {
            push(
                &profile.reference_manifest,
                *mline,
                format!("manifest pins unknown reference module `{name}`; regenerate with `lbchat-audit --write-reference-manifest`"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_items;

    fn tree(files: &[(&str, &str)]) -> Vec<(FileScan, ItemSet)> {
        files
            .iter()
            .map(|(rel, src)| {
                let scan = FileScan::new(rel, src);
                let items = parse_items(&scan);
                (scan, items)
            })
            .collect()
    }

    fn profile() -> Profile {
        let mut p = Profile::lbchat();
        p.reference_modules = vec![
            RefModule {
                name: "x::reference".into(),
                file: "crates/x/src/lib.rs".into(),
                inline_mod: Some("reference".into()),
            },
            RefModule {
                name: "y::reference".into(),
                file: "crates/y/src/reference.rs".into(),
                inline_mod: None,
            },
        ];
        p
    }

    const X: &str = "fn fast() {}\npub mod reference {\n    pub fn slow() {}\n}\n";
    const Y: &str = "pub fn oracle() -> u32 { 7 }\n";

    #[test]
    fn fresh_manifest_round_trips_clean() {
        let files = tree(&[("crates/x/src/lib.rs", X), ("crates/y/src/reference.rs", Y)]);
        let p = profile();
        let m = manifest_text(&files, &p);
        assert_eq!(m.lines().count(), 2);
        assert!(check_references(&files, &p, Some(&m)).is_empty());
    }

    #[test]
    fn drift_fires_and_repinning_clears() {
        let files = tree(&[("crates/x/src/lib.rs", X), ("crates/y/src/reference.rs", Y)]);
        let p = profile();
        let m = manifest_text(&files, &p);
        let drifted = tree(&[
            ("crates/x/src/lib.rs", X),
            ("crates/y/src/reference.rs", "pub fn oracle() -> u32 { 8 }\n"),
        ]);
        let f = check_references(&drifted, &p, Some(&m));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "R001");
        assert!(f[0].message.contains("y::reference"));
        let repinned = manifest_text(&drifted, &p);
        assert!(check_references(&drifted, &p, Some(&repinned)).is_empty());
    }

    #[test]
    fn inline_mod_hash_ignores_unrelated_edits() {
        let files = tree(&[("crates/x/src/lib.rs", X), ("crates/y/src/reference.rs", Y)]);
        let p = profile();
        let m = manifest_text(&files, &p);
        let edited = tree(&[
            ("crates/x/src/lib.rs", &X.replace("fn fast() {}", "fn faster() {}")),
            ("crates/y/src/reference.rs", Y),
        ]);
        assert!(check_references(&edited, &p, Some(&m)).is_empty());
    }

    #[test]
    fn missing_manifest_and_stale_entry_fire() {
        let files = tree(&[("crates/x/src/lib.rs", X), ("crates/y/src/reference.rs", Y)]);
        let p = profile();
        let f = check_references(&files, &p, None);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("is missing"));
        let m = format!("{}gone::reference crates/z/src/lib.rs 0000000000000000\n", manifest_text(&files, &p));
        let f = check_references(&files, &p, Some(&m));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("gone::reference"));
    }

    #[test]
    fn partial_tree_skips_silently() {
        let files = tree(&[("crates/core/src/runtime.rs", "fn f() {}\n")]);
        assert!(check_references(&files, &profile(), Some("")).is_empty());
    }
}
