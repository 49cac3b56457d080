//! Deterministic workspace file discovery.
//!
//! Collects every `.rs` file under `crates/`, excluding the vendored
//! stand-in crates and any [`crate::lints::Profile::skip_paths`] prefix.
//! Directory entries are sorted at every level — `read_dir` order is
//! filesystem-dependent, and the report must be byte-identical across
//! machines.

use crate::lints::Profile;
use crate::AuditError;
use std::path::Path;

/// Workspace-relative paths (forward slashes) of the files to scan,
/// sorted.
pub fn workspace_files(root: &Path, profile: &Profile) -> Result<Vec<String>, AuditError> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let mut crate_dirs = read_sorted(&crates_dir)?;
    crate_dirs.retain(|name| !profile.exclude_crates.iter().any(|e| e == name));
    for name in crate_dirs {
        let dir = crates_dir.join(&name);
        if dir.is_dir() {
            collect_rs(&dir, &format!("crates/{name}"), profile, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Sorted names of a directory's entries.
fn read_sorted(dir: &Path) -> Result<Vec<String>, AuditError> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| AuditError::Io(dir.display().to_string(), e))?;
    let mut names = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| AuditError::Io(dir.display().to_string(), e))?;
        if let Some(name) = entry.file_name().to_str() {
            names.push(name.to_string());
        }
    }
    names.sort();
    Ok(names)
}

fn collect_rs(
    dir: &Path,
    rel: &str,
    profile: &Profile,
    out: &mut Vec<String>,
) -> Result<(), AuditError> {
    for name in read_sorted(dir)? {
        if name == "target" || name.starts_with('.') {
            continue;
        }
        let child = dir.join(&name);
        let child_rel = format!("{rel}/{name}");
        if profile.skip_paths.iter().any(|p| {
            child_rel.starts_with(p.as_str()) || child_rel == p.trim_end_matches('/')
        }) {
            continue;
        }
        if child.is_dir() {
            collect_rs(&child, &child_rel, profile, out)?;
        } else if name.ends_with(".rs") {
            out.push(child_rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_tree_walk_is_sorted_and_scoped() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let profile = Profile::lbchat();
        let files = workspace_files(&root, &profile).expect("walk");
        assert!(!files.is_empty());
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk output must be sorted");
        assert!(files.iter().all(|f| f.ends_with(".rs")));
        assert!(
            files.iter().all(|f| !f.starts_with("crates/rand/")
                && !f.starts_with("crates/proptest/")),
            "vendored stand-ins are excluded"
        );
        assert!(
            files.iter().all(|f| !f.starts_with("crates/audit/tests/fixtures/")),
            "bad-snippet fixtures are excluded"
        );
        assert!(files.iter().any(|f| f == "crates/core/src/runtime/mod.rs"));
    }
}
