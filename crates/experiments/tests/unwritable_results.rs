//! An artifact binary that cannot write `results/` still prints its result
//! and finishes its manifest before it exits with status 2.

use experiments::manifest::OBS_ENV;
use std::process::Command;

#[test]
fn a_failed_csv_write_exits_2_after_the_table_prints() {
    let dir = std::env::temp_dir().join(format!("unwritable-results-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A plain file where the directory should be: every write under it fails.
    std::fs::write(dir.join("results"), "not a directory\n").expect("write results file");

    let out = Command::new(env!("CARGO_BIN_EXE_table7"))
        .args(["--quick", "--jobs", "1"])
        .current_dir(&dir)
        .env_remove(OBS_ENV)
        .output()
        .expect("spawn table7");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stdout.contains("Table VII"), "the table must still print; stdout:\n{stdout}");
    assert!(
        stderr.contains("results/table7.csv"),
        "the failed CSV must be named; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("could not write run manifest"),
        "the manifest must be finished before the exit; stderr:\n{stderr}"
    );
}
