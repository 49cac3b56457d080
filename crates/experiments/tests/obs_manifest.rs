//! End-to-end checks on the observability layer (`lbchat::obs`).
//!
//! The run-manifest contract has two halves: the JSONL stream written to
//! disk parses back to the exact events that were recorded, and every
//! event's *content* is a pure function of the configuration — only the
//! fields in [`lbchat::obs::TIMING_FIELDS`] may differ between a serial
//! and a parallel run. This is a single `#[test]` because
//! [`lbchat::exec::set_jobs`] is process-global — two tests toggling it
//! concurrently would race (same pattern as `determinism.rs`).

use driving::Task;
use experiments::harness::{task_table_obs, train_and_evaluate_obs, TaskCell};
use experiments::methods::cell_label;
use experiments::{Condition, Method, Scale, Scenario};
use lbchat::exec;
use lbchat::obs::{parse_jsonl, EventKind, Json, ObsSink, TIMING_FIELDS};
use lbchat::prelude::Metrics;

#[test]
fn manifest_events_are_deterministic_modulo_timing() {
    let s = Scenario::build(Scale::quick());

    let run_cell = |jobs: usize| {
        exec::set_jobs(jobs);
        let sink = ObsSink::recording();
        let out = train_and_evaluate_obs(Method::LbChat, &s, Condition::NoLoss, &sink, 0)
            .expect("scenario fits");
        (out.rates, sink)
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
    let out = train_and_evaluate_obs(Method::Sco, &s, Condition::NoLoss, &sink, 0)
        .expect("scenario fits");
    assert_eq!(sink.events(), vec![], "disabled sink must record zero events");
    assert!(sink.counters().is_empty());
    assert!(sink.gauges().is_empty());

    // And a recording sink gives bit-identical results …
    let recording = ObsSink::recording();
    let out2 = train_and_evaluate_obs(Method::Sco, &s, Condition::NoLoss, &recording, 0)
        .expect("scenario fits");
    assert_eq!(out.rates, out2.rates);
    assert_eq!(metric_bits(&out.metrics), metric_bits(&out2.metrics));
    // … whose rates are, bit for bit, the ones its manifest records.
    let events = parse_jsonl(&recording.to_jsonl()).expect("manifest must parse");
    let finish = events.iter().find(|e| e.is(EventKind::CellFinish)).expect("cell_finish");
    let recorded: Vec<u64> = finish
        .get("rates")
        .and_then(Json::as_arr)
        .expect("rates")
        .iter()
        .map(|r| r.as_f64().expect("numeric rate").to_bits())
        .collect();
    assert_eq!(recorded, out2.rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>());
}

/// Every field of a [`Metrics`] as bits. The exhaustive pattern makes a new
/// field a compile error here until the manifest records it too.
fn metric_bits(m: &Metrics) -> (Vec<[u64; 2]>, [u64; 8]) {
    let Metrics {
        loss_curve,
        model_sends,
        model_receives,
        coreset_sends,
        coreset_receives,
        sessions,
        bytes_delivered,
        comm_seconds,
        train_iterations,
    } = m;
    let curve = loss_curve.iter().map(|&(t, l)| [t.to_bits(), l.to_bits()]).collect();
    let counts = [
        *model_sends,
        *model_receives,
        *coreset_sends,
        *coreset_receives,
        *sessions,
        *bytes_delivered,
        comm_seconds.to_bits(),
        *train_iterations,
    ];
    (curve, counts)
}

#[test]
fn a_cells_result_equals_its_manifest_record() {
    // A finished cell's result is what its manifest holds: the loss curve
    // is the cell's `round` events in order, the counters are its
    // `cell_finish` fields, and the success rates are `cell_finish.rates`.
    let s = Scenario::build(Scale::quick());
    let cells: Vec<TaskCell> = [Method::LbChat, Method::Dp]
        .map(|m| (m.name().to_string(), m, Condition::NoLoss))
        .to_vec();
    let sink = ObsSink::recording();
    let (table, outputs) = task_table_obs("record", &cells, &s, &sink).expect("scenario fits");
    let events = parse_jsonl(&sink.to_jsonl()).expect("manifest must parse");
    assert_eq!(outputs.len(), cells.len());

    for (column, ((_, method, condition), out)) in cells.iter().zip(&outputs).enumerate() {
        let label = cell_label(*method, *condition);
        let mut recorded = Metrics::new();
        for round in events
            .iter()
            .filter(|e| e.is(EventKind::Round) && e.str_field("ctx") == Some(label.as_str()))
        {
            recorded.record_loss(round.num("t").expect("t"), round.num("loss").expect("loss"));
        }
        let finishes: Vec<_> = events
            .iter()
            .filter(|e| e.is(EventKind::CellFinish) && e.str_field("cell") == Some(label.as_str()))
            .collect();
        assert_eq!(finishes.len(), 1, "{label}: one cell_finish per cell");
        let finish = finishes[0];
        let count = |key: &str| finish.get(key).and_then(Json::as_u64).expect(key);
        recorded.sessions = count("sessions");
        recorded.model_sends = count("model_sends");
        recorded.model_receives = count("model_receives");
        recorded.coreset_sends = count("coreset_sends");
        recorded.coreset_receives = count("coreset_receives");
        recorded.bytes_delivered = count("bytes_delivered");
        recorded.train_iterations = count("train_iterations");
        recorded.comm_seconds = finish.num("comm_seconds").expect("comm_seconds");
        assert!(!recorded.loss_curve.is_empty(), "{label}: the cell must record rounds");
        assert_eq!(metric_bits(&recorded), metric_bits(&out.metrics), "{label}");

        // The cell's success rates, as the driver hands them to the table.
        let rates = finish.get("rates").and_then(Json::as_arr).expect("rates");
        assert_eq!(rates.len(), Task::ALL.len(), "{label}");
        assert_eq!(table.rows().len(), Task::ALL.len());
        for ((task, row), rate) in table.rows().iter().zip(rates) {
            let rate = rate.as_f64().expect("numeric rate");
            assert_eq!(row[column], format!("{rate:.0}"), "{label}: {task}");
        }
    }
}
