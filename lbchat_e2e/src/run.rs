//! The two run protocols: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer profile.
//!
//! Both are a closed loop with one client: one process, one worker
//! (`exec::set_jobs(1)`), passes back to back. A pass is the workload's
//! whole fixed work; every time is a raw `Instant` delta — nothing is
//! calibrated, normalised or dropped. Interference shows up in
//! `bench.cpu_share` and `bench.pass_spread_pct`, which are printed on every
//! run and warned about, never corrected for.

use crate::probes::{eval_probes, kernel_probes, net_probes};
use crate::procfs::{cpu_seconds, peak_rss_mib};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, range_spread};
use crate::trace::{Phase, Tracer};
use crate::workloads::{
    build_fixture, build_steps, cell_fault, run_pass, run_traced_pass, same_metrics, Kind,
    PassResult,
};
use lbchat::obs::Json;
use lbchat::prelude::Metrics;
use std::time::Instant;

/// Timed passes an untraced run makes at least.
const MIN_TIMED_PASSES: usize = 3;

/// What the command line selected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// The workload.
    pub kind: Kind,
    /// Seed of everything drawn after the world is built.
    pub seed: u64,
    /// Keep making timed passes until this much time was measured (and at
    /// least three were made). Work per pass does not depend on it.
    pub seconds: f64,
    /// Horizons ÷ 5 and 1 + 1 passes: a functional check, not a measurement.
    pub smoke: bool,
}

/// The result line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether every cell of every pass was correct.
    pub correct: bool,
    /// Cells run, over all passes.
    pub attempted: usize,
    /// Cells that failed.
    pub failed: usize,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The one-line JSON object the driver reads, through the repository's
    /// own JSON writer.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ];
                (name.to_string(), Json::Obj(entry))
            })
            .collect();
        let line = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::UInt(self.attempted as u64)),
            ("failed".to_string(), Json::UInt(self.failed as u64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        let mut out = String::new();
        line.write(&mut out);
        out
    }
}

/// Cell-level bookkeeping across the passes of a run.
#[derive(Default)]
struct Ledger {
    attempted: usize,
    failed: usize,
}

impl Ledger {
    /// Counts a finished pass: every cell is checked on its own, and against
    /// the same cell of `reference` (the first pass of the run) when given.
    fn count(&mut self, what: &str, pass: &PassResult, reference: Option<&PassResult>) {
        for (idx, cell) in pass.cells.iter().enumerate() {
            self.attempted += 1;
            let mismatch = reference.and_then(|r| {
                let same = r
                    .cells
                    .get(idx)
                    .is_some_and(|c| same_metrics(&c.metrics, &cell.metrics));
                (!same).then(|| format!("{}: metrics differ from the first pass", cell.label))
            });
            if let Some(why) = cell_fault(cell).or(mismatch) {
                eprintln!("FAILED cell in {what}: {why}");
                self.failed += 1;
            }
        }
    }

    /// Counts what a pass returned — its cells, or, for a pass that ended
    /// in an error, every cell it should have run as failed.
    fn record(
        &mut self,
        what: &str,
        kind: Kind,
        pass: Result<PassResult, String>,
        reference: Option<&PassResult>,
    ) -> Option<PassResult> {
        match pass {
            Ok(pass) => {
                self.count(what, &pass, reference);
                Some(pass)
            }
            Err(why) => {
                let cells = kind.cells().len().max(1);
                eprintln!("FAILED {what}: {why}");
                self.attempted += cells;
                self.failed += cells;
                None
            }
        }
    }

    fn finish(self, metrics: Vec<(&'static str, f64, &'static str)>) -> Outcome {
        let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
        Outcome {
            correct: self.failed == 0 && self.attempted > 0 && finite,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// The counters of a pass's cells added up (`Metrics::merge`).
fn pass_totals(pass: &PassResult) -> Metrics {
    let mut total = Metrics::new();
    for cell in &pass.cells {
        total.merge(&cell.metrics);
    }
    total
}

/// The gated receiving rate: model and coreset transfers fully delivered
/// over those attempted (1 when nothing was sent, as
/// `Metrics::model_receiving_rate` has it).
fn recv_rate(total: &Metrics) -> f64 {
    let sent = total.model_sends + total.coreset_sends;
    if sent == 0 {
        1.0
    } else {
        (total.model_receives + total.coreset_receives) as f64 / sent as f64
    }
}

fn or_unavailable(what: &str, value: Option<f64>) -> f64 {
    value.unwrap_or_else(|| {
        eprintln!("warning: {what} unavailable on this platform (no /proc); reporting 0");
        0.0
    })
}

/// Prints the interference readings of a run and warns when they say the
/// machine was shared.
fn report_interference(walls: &[f64], cpu_share: Option<f64>) -> (f64, f64) {
    let spread_pct = range_spread(walls) * 100.0;
    for (i, w) in walls.iter().enumerate() {
        println!("pass {}: {w:.4} s", i + 1);
    }
    match cpu_share {
        Some(share) => println!("bench.cpu_share: {share:.4} (CPU time over wall of the passes)"),
        None => println!("bench.cpu_share: unavailable"),
    }
    println!("bench.pass_spread_pct: {spread_pct:.2} % ((max - min) / median of the passes)");
    if cpu_share.is_some_and(|s| s < 0.95) {
        eprintln!("warning: cpu_share < 0.95 — the process did not have a core to itself");
    }
    if spread_pct > 10.0 {
        eprintln!("warning: passes spread {spread_pct:.1} % > 10 % — the machine is noisy");
    }
    (cpu_share.unwrap_or(0.0), spread_pct)
}

fn cpu_share_since(cpu0: Option<f64>, wall_s: f64) -> Option<f64> {
    match (cpu0, cpu_seconds()) {
        (Some(c0), Some(c1)) if wall_s > 0.0 => Some((c1 - c0) / wall_s),
        _ => None,
    }
}

/// The untraced run: fixture, one warm-up pass, then timed passes.
pub fn run_untraced(args: &RunArgs, process_start: Instant) -> Outcome {
    let kind = args.kind;
    let mut ledger = Ledger::default();

    let fixture = build_fixture(kind, args.seed, args.smoke);
    println!("fixture: {:.4} s", process_start.elapsed().as_secs_f64());

    let warm_t = Instant::now();
    let warm = ledger.record(
        "the warm-up pass",
        kind,
        run_pass(kind, &fixture, true),
        None,
    );
    println!(
        "warm-up pass: {:.4} s (untimed; part of setup_s)",
        warm_t.elapsed().as_secs_f64()
    );
    let setup_s = process_start.elapsed().as_secs_f64();

    let min_passes = if args.smoke { 1 } else { MIN_TIMED_PASSES };
    let budget_s = if args.smoke { 0.0 } else { args.seconds };
    let cpu0 = cpu_seconds();
    let measure_t = Instant::now();
    let mut walls = Vec::new();
    let mut last = None;
    while walls.len() < min_passes || measure_t.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        let pass = run_pass(kind, &fixture, true);
        walls.push(t.elapsed().as_secs_f64());
        last = ledger
            .record("a timed pass", kind, pass, warm.as_ref())
            .or(last);
    }
    let measured_s = measure_t.elapsed().as_secs_f64();
    report_interference(&walls, cpu_share_since(cpu0, measured_s));

    let rate = last
        .as_ref()
        .or(warm.as_ref())
        .map_or(0.0, |p| recv_rate(&pass_totals(p)));
    let values = [
        setup_s,
        median(&walls),
        or_unavailable("peak_rss_mb", peak_rss_mib()),
        rate,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    ledger.finish(metrics)
}

/// Greedy longest-first makespan of `cells` on two workers — the schedule
/// bound `exec.ideal_j2_speedup` is computed from, not a measurement.
fn two_worker_makespan(cells: &[f64]) -> f64 {
    let mut sorted = crate::stats::sorted(cells);
    sorted.reverse();
    let mut load = [0.0f64; 2];
    for c in sorted {
        let slot = if load[0] <= load[1] { 0 } else { 1 };
        load[slot] += c;
    }
    load[0].max(load[1])
}

fn pct_over(numerator: f64, base: f64) -> f64 {
    if base > 0.0 {
        (numerator / base - 1.0) * 100.0
    } else {
        0.0
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// A percentile for the report: the value when the sample supports it,
/// otherwise 0 with a note (the rule is in `stats::percentile`).
fn supported_percentile(name: &str, samples: &[f64], p: f64, scale: f64) -> f64 {
    match percentile(samples, p) {
        Some(v) => {
            println!("{name}: {:.3} (n = {})", v * scale, samples.len());
            v * scale
        }
        None => {
            println!(
                "{name}: unavailable (n = {}, fewer than ten samples beyond it)",
                samples.len()
            );
            0.0
        }
    }
}

/// The traced run: fixture, one untraced pass through the real entry
/// points, one traced pass of hand-built cells, then the direct probes.
/// `spans_path` is where the span tree is written at the end.
pub fn run_traced(args: &RunArgs, spans_path: &std::path::Path) -> Outcome {
    let kind = args.kind;
    let mut ledger = Ledger::default();

    let build_t = Instant::now();
    let fixture = build_fixture(kind, args.seed, args.smoke);
    let scenario_build_s = build_t.elapsed().as_secs_f64();
    let fixture_rss = or_unavailable("experiments.fixture_rss_mb", peak_rss_mib());

    // The reference pass: the same entry points the end-to-end run times.
    let cpu0 = cpu_seconds();
    let passes_t = Instant::now();
    let untraced_t = Instant::now();
    let reference = ledger.record(
        "the untraced pass",
        kind,
        run_pass(kind, &fixture, true),
        None,
    );
    let untraced_s = untraced_t.elapsed().as_secs_f64();
    let cell_rss = or_unavailable("experiments.cell_rss_mb", peak_rss_mib()) - fixture_rss;

    // The traced pass must reproduce the reference cell for cell — which
    // also pins the config derivation this file has to duplicate.
    let trace = Tracer::shared();
    let traced_t = Instant::now();
    let traced = run_traced_pass(kind, &fixture, &trace);
    let traced_s = traced_t.elapsed().as_secs_f64();
    let passes_s = passes_t.elapsed().as_secs_f64();
    let traced = ledger
        .record("the traced pass", kind, traced, reference.as_ref())
        .unwrap_or_default();
    let (cpu_share, spread_pct) =
        report_interference(&[untraced_s, traced_s], cpu_share_since(cpu0, passes_s));

    // What recording costs: the same pipeline with the sink disabled.
    let obs_overhead_pct = if kind == Kind::Table2Small {
        let t = Instant::now();
        let pass = run_pass(kind, &fixture, false);
        let disabled_s = t.elapsed().as_secs_f64();
        ledger.record("the sink-disabled pass", kind, pass, reference.as_ref());
        pct_over(untraced_s, disabled_s)
    } else {
        0.0
    };

    let steps = build_steps(&fixture);
    let net = net_probes(kind, &fixture);
    let kernels = kernel_probes(&fixture);
    let eval_kernels = eval_probes(&fixture);

    let t = trace.borrow();
    let pass_s = t.total("pass").0;
    let (run_s, _) = t.total("runtime.run");
    let runtime_self_s = t.total_self("runtime.run");
    let (frames_s, frames_n) = t.total("node.on_frame");
    let (open_s, _) = t.total("node.session_open");
    let (step_s, step_n) = t.total("node.session_step");
    let (close_s, _) = t.total("node.session_close");
    let (curve_s, _) = t.total("node.eval_curve");
    let (training_s, training_n) = t.total("node.local_training");
    let (eval_s, _) = t.total("driving.eval");
    let cells = t.durations("cell");
    let train_steps = t.train_steps();
    let (loss_n, loss_s) = t.loss_total();
    let sum = |f: fn(&Metrics) -> f64| -> f64 { traced.cells.iter().map(|c| f(&c.metrics)).sum() };
    let total = pass_totals(&traced);
    let sessions = total.sessions as f64;
    let n_cells = traced.cells.len() as f64;
    let sim_seconds = kind.horizon(args.smoke) * n_cells;
    let step_ms: Vec<f64> = t.durations("node.session_step");
    let cells_sum: f64 = cells.iter().sum();

    let mut m: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, value: f64| m.push((name, value));
    put("experiments.scenario_build_s", scenario_build_s);
    put("simworld.world_new_s", steps.world_new_s);
    put("driving.collect_s", steps.collect_s);
    put("driving.collect_frames_n", steps.collect_frames as f64);
    put("simworld.record_trace_s", steps.record_trace_s);
    put("simnet.trace_frames_n", steps.trace_frames as f64);
    put("experiments.fixture_rss_mb", fixture_rss);
    put("experiments.cell_rss_mb", cell_rss);
    put(
        "experiments.cell_build_s",
        t.total("experiments.cell_build").0,
    );
    put(
        "experiments.cell_ms_per_sim_s",
        ratio(run_s * 1e3, sim_seconds),
    );
    put(
        "experiments.initial_loss",
        ratio(sum(|m| m.loss_curve.first().map_or(0.0, |p| p.1)), n_cells),
    );
    put(
        "experiments.final_loss",
        ratio(sum(|m| m.final_loss().unwrap_or(0.0)), n_cells),
    );
    put("experiments.model_recv_rate", total.model_receiving_rate());
    put("runtime.run_s", run_s);
    put("runtime.self_s", runtime_self_s);
    put("runtime.self_share", ratio(runtime_self_s, pass_s));
    put("runtime.frames_n", frames_n as f64);
    put(
        "runtime.self_us_per_frame",
        ratio(runtime_self_s * 1e6, frames_n as f64),
    );
    put("runtime.candidates_n", t.candidates() as f64);
    put("runtime.sessions_n", sessions);
    put("runtime.sessions_per_wall_s", ratio(sessions, run_s));
    put("runtime.sched_push_pop_ns", net.sched_push_pop_ns);
    put("simnet.encounters_us", net.encounters_us);
    put("simnet.encounter_hit_ratio", net.encounter_hit_ratio);
    put("simnet.contact_estimate_us", net.contact_estimate_us);
    put("simnet.transfer_100m_us", net.transfer_100m_us);
    put("simnet.transfer_300m_us", net.transfer_300m_us);
    put("simnet.bytes_delivered", total.bytes_delivered as f64);
    put("simnet.comm_sim_s", total.comm_seconds);
    put("node.session_open_s", open_s);
    put("node.session_step_s", step_s);
    put("node.session_step_n", step_n as f64);
    put(
        "node.session_step_ms_p50",
        supported_percentile("node.session_step_ms_p50", &step_ms, 0.50, 1e3),
    );
    put(
        "node.session_step_ms_p90",
        supported_percentile("node.session_step_ms_p90", &step_ms, 0.90, 1e3),
    );
    put("node.session_close_s", close_s);
    put("node.on_frame_s", frames_s);
    put("node.eval_curve_s", curve_s);
    put(
        "node.coreset_recv_ratio",
        ratio(total.coreset_receives as f64, total.coreset_sends as f64),
    );
    put("node.local_training_s", training_s);
    put("node.local_training_n", training_n as f64);
    put("driving.train_step_s", train_steps.iter().sum());
    put("driving.train_step_n", train_steps.len() as f64);
    put(
        "driving.train_step_us_p50",
        supported_percentile("driving.train_step_us_p50", &train_steps, 0.50, 1e6),
    );
    put(
        "driving.train_step_us_p99",
        supported_percentile("driving.train_step_us_p99", &train_steps, 0.99, 1e6),
    );
    put("driving.loss_s", loss_s);
    put("driving.loss_n", loss_n as f64);
    put("driving.loss_us_mean", ratio(loss_s * 1e6, loss_n as f64));
    put("driving.loss_in_session_s", t.loss_in(Phase::Session).1);
    put("driving.loss_in_training_s", t.loss_in(Phase::Training).1);
    put("coreset.construct_us", kernels.construct_us);
    put("coreset.reduce_us", kernels.reduce_us);
    put("valuation.coreset_loss_us", kernels.coreset_loss_us);
    put("phi.sample_us", kernels.phi_sample_us);
    put("optimize.solve_us", kernels.solve_us);
    put("compress.apply_us", kernels.compress_apply_us);
    put("compress.wire_roundtrip_us", kernels.wire_roundtrip_us);
    put("aggregate.merge_us", kernels.merge_us);
    put("driving.eval_s", eval_s);
    put("driving.eval_trials_n", traced.eval.trials as f64);
    put(
        "driving.eval_ms_per_trial",
        ratio(eval_s * 1e3, traced.eval.trials as f64),
    );
    put(
        "driving.eval_success_pct",
        ratio(
            traced.eval.successes as f64 * 100.0,
            traced.eval.trials as f64,
        ),
    );
    put("simworld.step_us", eval_kernels.step_us);
    put("simworld.bev_us", eval_kernels.bev_us);
    put("vnn.predict_us", eval_kernels.predict_us);
    put(
        "obs.events_n",
        reference.as_ref().map_or(0.0, |p| p.obs_events as f64),
    );
    put(
        "obs.jsonl_kib",
        reference
            .as_ref()
            .map_or(0.0, |p| p.jsonl_bytes as f64 / 1024.0),
    );
    put("obs.overhead_pct", obs_overhead_pct);
    put("exec.cells_serial_sum_s", cells_sum);
    put(
        "exec.longest_cell_s",
        cells.iter().copied().fold(0.0, f64::max),
    );
    put(
        "exec.ideal_j2_speedup",
        ratio(cells_sum, two_worker_makespan(&cells)),
    );
    put("trace.overhead_pct", pct_over(traced_s, untraced_s));
    put("trace.spans_n", t.spans().len() as f64);
    put(
        "trace.unattributed_pct",
        ratio(
            (t.total_self("pass") + t.total_self("cell")) * 100.0,
            pass_s,
        ),
    );
    put("bench.cpu_share", cpu_share);
    put("bench.pass_spread_pct", spread_pct);
    put("bench.traced_pass_s", traced_s);

    match std::fs::create_dir_all(spans_path.parent().unwrap_or(std::path::Path::new(".")))
        .and_then(|()| std::fs::write(spans_path, t.to_json()))
    {
        Ok(()) => println!(
            "spans: {} ({} spans)",
            spans_path.display(),
            t.spans().len()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", spans_path.display()),
    }

    assert!(
        m.iter()
            .map(|(n, _)| *n)
            .eq(PER_LAYER.iter().map(|s| s.name)),
        "the traced run reports exactly the catalogue's per-layer metrics, in order"
    );
    let metrics = m
        .into_iter()
        .zip(&PER_LAYER)
        .map(|((n, v), s)| (n, v, s.unit))
        .collect();
    ledger.finish(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(kind: Kind) -> RunArgs {
        RunArgs {
            kind,
            seed: 42,
            seconds: 0.0,
            smoke: true,
        }
    }

    #[test]
    fn two_worker_makespan_is_longest_first() {
        assert_eq!(two_worker_makespan(&[3.0, 3.0, 2.0, 2.0, 2.0]), 7.0);
        assert_eq!(two_worker_makespan(&[5.0]), 5.0);
        assert_eq!(two_worker_makespan(&[]), 0.0);
    }

    #[test]
    fn outcome_json_is_one_parseable_line_with_the_four_keys() {
        let out = Outcome {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s"), ("run_wall_s", 1.25, "s")],
        };
        let line = out.to_json();
        assert!(!line.contains('\n'));
        let json = lbchat::obs::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = json
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = json
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(lbchat::obs::Json::as_f64),
            Some(0.8127)
        );
        assert_eq!(
            setup.get("unit").and_then(lbchat::obs::Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn a_failed_or_mismatching_cell_makes_the_run_incorrect() {
        use crate::workloads::CellResult;
        let cell = |last: f64| {
            let mut m = Metrics::new();
            m.record_loss(0.0, 2.0);
            m.record_loss(9.0, last);
            CellResult {
                label: "x@wo".into(),
                metrics: m,
            }
        };
        let good = PassResult {
            cells: vec![cell(1.0)],
            ..PassResult::default()
        };
        let drifted = PassResult {
            cells: vec![cell(0.5)],
            ..PassResult::default()
        };
        let stuck = PassResult {
            cells: vec![cell(2.0)],
            ..PassResult::default()
        };

        let mut ledger = Ledger::default();
        ledger.count("a", &good, None);
        ledger.count("b", &good, Some(&good));
        assert_eq!((ledger.attempted, ledger.failed), (2, 0));
        ledger.count("c", &drifted, Some(&good));
        ledger.count("d", &stuck, None);
        assert_eq!((ledger.attempted, ledger.failed), (4, 2));
        let out = ledger.finish(vec![("run_wall_s", 1.0, "s")]);
        assert!(!out.correct);

        let mut ledger = Ledger::default();
        let lost = ledger.record("e", Kind::BaselinesWo, Err("trace too small".into()), None);
        assert!(lost.is_none());
        assert_eq!((ledger.attempted, ledger.failed), (4, 4));
    }

    /// Each workload completes under `--smoke` with `"correct": true`, in
    /// both protocols, and reports exactly the catalogue's metrics.
    #[test]
    fn every_workload_smokes_correct_in_both_protocols() {
        lbchat::exec::set_jobs(1);
        for kind in Kind::ALL {
            let t = Instant::now();
            let out = run_untraced(&smoke(kind), Instant::now());
            let took = t.elapsed().as_secs_f64();
            assert!(out.correct, "{}: {out:?}", kind.name());
            assert_eq!(out.failed, 0);
            assert_eq!(out.attempted, 2 * kind.cells().len().max(1), "1 + 1 passes");
            let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| *n).collect();
            assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
            for (name, value, _) in &out.metrics {
                assert!(
                    *value > 0.0,
                    "{}: end-to-end metric {name} must never be 0",
                    kind.name()
                );
            }
            // Generous: the optimised build takes well under 2 s; this only
            // catches a smoke size that stopped being a smoke size.
            assert!(took < 30.0, "{} smoke took {took:.1} s", kind.name());

            let spans =
                std::env::temp_dir().join(format!("lbchat_e2e-test-spans-{}.json", kind.name()));
            let out = run_traced(&smoke(kind), &spans);
            assert!(out.correct, "{} traced: {out:?}", kind.name());
            assert_eq!(out.metrics.len(), PER_LAYER.len());
            let text = std::fs::read_to_string(&spans).expect("spans file written");
            let parsed = lbchat::obs::parse(&text).expect("spans file is JSON");
            assert!(parsed.as_arr().is_some_and(|a| !a.is_empty()));
            let _ = std::fs::remove_file(&spans);
        }
    }

    #[test]
    fn fixtures_are_deterministic_in_the_seed() {
        lbchat::exec::set_jobs(1);
        let kind = Kind::Fleet256W;
        let run = |seed| {
            let f = build_fixture(kind, seed, true);
            run_pass(kind, &f, true).expect("pass runs")
        };
        let (p1, p2, q) = (run(7), run(7), run(8));
        assert!(same_metrics(&p1.cells[0].metrics, &p2.cells[0].metrics));
        assert!(
            !same_metrics(&p1.cells[0].metrics, &q.cells[0].metrics),
            "the seed changes inputs"
        );
    }
}
