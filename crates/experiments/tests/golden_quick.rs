//! Golden-value regression test for one harness cell: a reduced-scale
//! LbChat success table must render exactly the committed fixture.
//!
//! The harness seeds every RNG from the scenario seed, so this table is
//! bit-stable on a given platform for any `--jobs` setting (see
//! `determinism.rs`); the fixture pins it across refactors — a hot-path
//! rewrite that perturbs a single weight or RNG draw anywhere in the
//! training/eval pipeline shows up here as a diff. To regenerate after an
//! *intentional* behavior change, run
//! `LBCHAT_GOLDEN_WRITE=1 cargo test -p experiments --test golden_quick`
//! and commit the diff.

use experiments::harness::success_table_obs;
use experiments::{Condition, Method, Scale, Scenario};
use lbchat::prelude::ObsSink;
use std::path::PathBuf;

/// Tiny but end-to-end: two vehicles chat, train, and drive all five
/// evaluation tasks once.
fn golden_scale() -> Scale {
    Scale {
        n_vehicles: 2,
        n_background: 4,
        n_pedestrians: 10,
        data_seconds: 30.0,
        train_seconds: 60.0,
        eval_every: 60.0,
        eval_per_vehicle: 4,
        trials: 1,
        ..Scale::quick()
    }
}

#[test]
fn quick_success_table_matches_golden_fixture() {
    let s = Scenario::build(golden_scale());
    let (table, outputs) = success_table_obs(
        "Golden — LbChat quick cell (no loss)",
        &[Method::LbChat],
        &s,
        Condition::NoLoss,
        &ObsSink::disabled(),
    )
    .expect("scenario fits");
    // Success rates round to integers (and are all zero at this scale), so
    // the rendered table alone would miss most regressions; the appended
    // full-precision metrics make the fixture sensitive to any RNG or
    // float-arithmetic drift anywhere in the pipeline.
    let m = &outputs[0].metrics;
    let rendered = format!(
        "{}\nfinal_loss={:?}\nsessions={} model_receives={} coreset_receives={} bytes_delivered={}\nreceiving_rate={:?} comm_seconds={:?} train_iterations={}\n",
        table.render(),
        m.final_loss(),
        m.sessions,
        m.model_receives,
        m.coreset_receives,
        m.bytes_delivered,
        m.model_receiving_rate(),
        m.comm_seconds,
        m.train_iterations,
    );

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/quick_table.txt");
    if std::env::var_os("LBCHAT_GOLDEN_WRITE").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `LBCHAT_GOLDEN_WRITE=1 cargo test -p experiments --test golden_quick` to record it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "quick-cell table drifted from the committed fixture; if the change is intentional, regenerate it"
    );
}
