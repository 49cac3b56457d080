//! Deterministic workspace file discovery.
//!
//! Collects every `.rs` file under `crates/`, except in the crates the
//! caller excludes (the vendored stand-ins). Directory entries are sorted
//! at every level — `read_dir` order is filesystem-dependent, and a
//! scan's first-seen locations must be the same on every machine.

use std::io;
use std::path::Path;

/// Workspace-relative paths (forward slashes) of every `.rs` file under
/// `root/crates/*/`, skipping the crate directories named in
/// `exclude_crates`, sorted.
pub fn workspace_files(root: &Path, exclude_crates: &[&str]) -> io::Result<Vec<String>> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    for name in read_sorted(&crates_dir)? {
        let dir = crates_dir.join(&name);
        if dir.is_dir() && !exclude_crates.contains(&name.as_str()) {
            collect_rs(&dir, &format!("crates/{name}"), &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Sorted names of a directory's entries.
fn read_sorted(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        if let Some(name) = entry?.file_name().to_str() {
            names.push(name.to_string());
        }
    }
    names.sort();
    Ok(names)
}

fn collect_rs(dir: &Path, rel: &str, out: &mut Vec<String>) -> io::Result<()> {
    for name in read_sorted(dir)? {
        if name == "target" || name.starts_with('.') {
            continue;
        }
        let child = dir.join(&name);
        let child_rel = format!("{rel}/{name}");
        if child.is_dir() {
            collect_rs(&child, &child_rel, out)?;
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
        let files = workspace_files(&root, &["rand", "proptest"]).expect("walk");
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
            files.iter().all(|f| !f.contains("/target/")),
            "build output is never walked"
        );
        assert!(files.iter().any(|f| f == "crates/core/src/runtime/mod.rs"));
    }
}
