//! End-to-end checks on the observability layer (`lbchat::obs`).
//!
//! The run-manifest contract has two halves: the JSONL stream written to
//! disk parses back to the exact events that were recorded, and every
//! event's *content* is a pure function of the configuration — only the
//! fields in [`lbchat::obs::TIMING_FIELDS`] may differ between a serial
//! and a parallel run. This is a single `#[test]` because
//! [`lbchat::exec::set_jobs`] is process-global — two tests toggling it
//! concurrently would race (same pattern as `determinism.rs`).

use experiments::harness::train_and_evaluate_obs;
use experiments::{Condition, Method, Scale, Scenario};
use lbchat::exec;
use lbchat::obs::{parse_jsonl, EventKind, ObsSink, TIMING_FIELDS};

#[test]
fn manifest_events_are_deterministic_modulo_timing() {
    let s = Scenario::build(Scale::quick());

    let run_cell = |jobs: usize| {
        exec::set_jobs(jobs);
        let sink = ObsSink::recording();
        let (rates, _) = train_and_evaluate_obs(Method::LbChat, &s, Condition::NoLoss, &sink, 0)
            .expect("scenario fits");
        (rates, sink)
    };
    let (serial_rates, serial) = run_cell(1);
    let (parallel_rates, parallel) = run_cell(4);
    exec::set_jobs(1);

    assert_eq!(serial_rates, parallel_rates, "rates must not depend on --jobs");

    // The cell emitted a full complement of event kinds.
    let events = serial.events();
    assert!(!events.is_empty(), "a recording cell must produce events");
    for kind in [
        EventKind::CellStart,
        EventKind::CellFinish,
        EventKind::Round,
        EventKind::Session,
        EventKind::Transfer,
        EventKind::Chat,
        EventKind::Trial,
        EventKind::WorkUnit,
    ] {
        assert!(
            events.iter().any(|e| e.is(kind)),
            "expected at least one {kind:?} event, got kinds {:?}",
            events.iter().map(|e| e.kind.clone()).collect::<std::collections::BTreeSet<_>>()
        );
    }

    // Determinism modulo timing: canonical (timing-stripped, sorted)
    // streams are identical between jobs=1 and jobs=4 …
    assert_eq!(
        serial.canonical_events(),
        parallel.canonical_events(),
        "event contents must not depend on --jobs"
    );
    // … and so are the counter totals.
    assert_eq!(serial.counters(), parallel.counters());
    for (key, g1) in serial.gauges() {
        let g4 = parallel.gauges()[&key];
        assert_eq!((g1.n, g1.min, g1.max), (g4.n, g4.min, g4.max), "gauge {key} diverged");
    }

    // Raw streams do differ (timestamps), proving canonicalization is
    // doing real work rather than comparing equal strings.
    let raw = |sink: &ObsSink| {
        let mut lines: Vec<String> = sink.events().iter().map(lbchat::obs::Event::line).collect();
        lines.sort_unstable();
        lines
    };
    assert_ne!(raw(&serial), raw(&parallel), "wall-clock fields should differ between runs");

    // Round-trip: JSONL written out parses back to the identical events.
    let text = serial.to_jsonl();
    let parsed = parse_jsonl(&text).expect("manifest must parse");
    assert_eq!(parsed, events, "serialize → parse must be the identity");

    // …and through a real file, as the manifest writer does it.
    let path = std::env::temp_dir().join(format!("obs-manifest-test-{}.jsonl", std::process::id()));
    serial.write_jsonl(&path).expect("write manifest");
    let from_disk = parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(from_disk, events);

    // The schema promise behind canonicalization: timing fields appear
    // nowhere except as designated.
    let cell_finish = events.iter().find(|e| e.is(EventKind::CellFinish)).unwrap();
    assert!(cell_finish.num("wall_ms").is_some());
    assert!(TIMING_FIELDS.contains(&"wall_ms"));
}

#[test]
fn disabled_sink_changes_nothing_and_records_nothing() {
    // No jobs toggling here, so this can coexist with the test above.
    let s = Scenario::build(Scale::quick());
    let sink = ObsSink::disabled();
    let (rates, out) = train_and_evaluate_obs(Method::Sco, &s, Condition::NoLoss, &sink, 0)
        .expect("scenario fits");
    assert_eq!(sink.events(), vec![], "disabled sink must record zero events");
    assert!(sink.counters().is_empty());
    assert!(sink.gauges().is_empty());

    // And a recording sink gives bit-identical results.
    let (rates2, out2) =
        train_and_evaluate_obs(Method::Sco, &s, Condition::NoLoss, &ObsSink::recording(), 0)
            .expect("scenario fits");
    assert_eq!(rates, rates2);
    assert_eq!(out.metrics.loss_curve, out2.metrics.loss_curve);
}
