//! The benchmark's catalogue: every workload and every metric, by name.
//!
//! `--list` prints this catalogue and `BENCHMARK.json` repeats it; a test
//! holds the two to the same names, units, directions and bounds. Later
//! issues cite these names, so a rename here is an interface change.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work counts).
    Lower,
    /// Larger is better (rates, ratios of useful outcomes).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a fixed amount of work per (workload, seed).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why it exists (which layers it loads, which it bypasses).
    pub why: &'static str,
}

/// One end-to-end metric, gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Definition, one line.
    pub what: &'static str,
}

/// One per-layer metric from the traced run (no bound).
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "lbchat_w",
        why: "LbChat under the lossy radio, default-scale fleet: sessions (valuation, phi, coreset, compression) are over half the pass, local training a third, the runtime itself under 2 %",
    },
    WorkloadSpec {
        name: "baselines_wo",
        why: "ProxSkip, RSU-L, DFL-DDS and DP on the loss-free radio: local training is over three quarters of the pass and no coreset/valuation/phi code runs, so an LbChat-only gain must not show here",
    },
    WorkloadSpec {
        name: "fleet256_w",
        why: "256 vehicles gossiping a two-parameter model: node work is near zero, so grid encounters, route cache, contact estimate, priority sort, event queue and transfers are over 90 % of the pass",
    },
    WorkloadSpec {
        name: "table2_small",
        why: "the real Table II pipeline (success_table_obs over the five main methods, recording sink, closed-loop evaluation) on a 4-vehicle fleet, where per-cell construction and the sink matter",
    },
];

/// The four gated end-to-end metrics; every workload reports all of them.
pub const END_TO_END: [EndToEndSpec; 4] = [
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "process start to the start of the first timed pass: fixture build plus the warm-up pass",
    },
    EndToEndSpec {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall time of the timed passes (at least three)",
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of the single-threaded process at exit",
    },
    EndToEndSpec {
        name: "recv_rate",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
        what: "transfers fully delivered over transfers attempted (models and coresets), summed over the pass's cells",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const TO_SETUP: &str = "setup_s on every workload, once it reaches a tenth of a pass";
const TO_RSS: &str = "peak_rss_mb on every workload";
const TO_CELL: &str = "run_wall_s on table2_small (five constructions a pass)";
const TO_RUNTIME: &str = "run_wall_s on fleet256_w (>= 90 %); < 2 % elsewhere";
const TO_SIMNET: &str = "runtime.self_s, then run_wall_s on fleet256_w";
const TO_SESSION: &str =
    "run_wall_s on lbchat_w and LbChat's cell of table2_small; on_frame on baselines_wo";
const TO_TRAIN: &str = "run_wall_s on baselines_wo, lbchat_w, table2_small; none on fleet256_w";
const TO_LOSS: &str = "node.session_step_s, then run_wall_s on lbchat_w";
const TO_KERNEL: &str =
    "node.session_step_s, then run_wall_s on lbchat_w; no change on baselines_wo, fleet256_w";
const TO_EVAL: &str = "run_wall_s on table2_small only";
const TO_OBS: &str = "run_wall_s on table2_small only (the sink is disabled elsewhere)";
const TO_NOTHING: &str = "nothing at jobs=1; the baseline a later parallelism issue starts from";
const HEALTH: &str = "the benchmark's own health";
const QUALITY: &str = "recv_rate; a correctness signal, not a speed";

/// Every per-layer metric of the traced run, grouped by layer.
pub const PER_LAYER: [LayerSpec; 76] = [
    // Fixture: the public steps Scenario::build is made of.
    layer("experiments.scenario_build_s", "s", Lower, TO_SETUP),
    layer("simworld.world_new_s", "s", Lower, TO_SETUP),
    layer("driving.collect_s", "s", Lower, TO_SETUP),
    layer("driving.collect_frames_n", "count", Lower, TO_SETUP),
    layer("simworld.record_trace_s", "s", Lower, TO_SETUP),
    layer("simnet.trace_frames_n", "count", Lower, TO_SETUP),
    // Memory.
    layer("experiments.fixture_rss_mb", "MiB", Lower, TO_RSS),
    layer("experiments.cell_rss_mb", "MiB", Lower, TO_RSS),
    // The cell: learners + dataset clones + algorithm constructor, then run.
    layer("experiments.cell_build_s", "s", Lower, TO_CELL),
    layer("experiments.cell_ms_per_sim_s", "ms/sim-s", Lower, TO_CELL),
    layer("experiments.initial_loss", "loss", Lower, QUALITY),
    layer("experiments.final_loss", "loss", Lower, QUALITY),
    layer("experiments.model_recv_rate", "ratio", Higher, QUALITY),
    // The runtime: Runtime::run minus the algorithm's callbacks.
    layer("runtime.run_s", "s", Lower, TO_RUNTIME),
    layer("runtime.self_s", "s", Lower, TO_RUNTIME),
    layer("runtime.self_share", "ratio", Lower, TO_RUNTIME),
    layer("runtime.frames_n", "count", Lower, TO_RUNTIME),
    layer("runtime.self_us_per_frame", "us", Lower, TO_RUNTIME),
    layer("runtime.candidates_n", "count", Lower, TO_RUNTIME),
    layer("runtime.sessions_n", "count", Higher, TO_RUNTIME),
    layer("runtime.sessions_per_wall_s", "1/s", Higher, TO_RUNTIME),
    layer("runtime.sched_push_pop_ns", "ns", Lower, TO_RUNTIME),
    // The network substrate, probed on the workload's own trace.
    layer("simnet.encounters_us", "us", Lower, TO_SIMNET),
    layer("simnet.encounter_hit_ratio", "ratio", Higher, TO_SIMNET),
    layer("simnet.contact_estimate_us", "us", Lower, TO_SIMNET),
    layer("simnet.transfer_100m_us", "us", Lower, TO_SIMNET),
    layer("simnet.transfer_300m_us", "us", Lower, TO_SIMNET),
    layer("simnet.bytes_delivered", "bytes", Higher, TO_SIMNET),
    layer("simnet.comm_sim_s", "sim-s", Lower, TO_SIMNET),
    // Algorithm callbacks.
    layer("node.session_open_s", "s", Lower, TO_SESSION),
    layer("node.session_step_s", "s", Lower, TO_SESSION),
    layer("node.session_step_n", "count", Lower, TO_SESSION),
    layer("node.session_step_ms_p50", "ms", Lower, TO_SESSION),
    layer("node.session_step_ms_p90", "ms", Lower, TO_SESSION),
    layer("node.session_close_s", "s", Lower, TO_SESSION),
    layer("node.on_frame_s", "s", Lower, TO_SESSION),
    layer("node.eval_curve_s", "s", Lower, TO_SESSION),
    layer("node.coreset_recv_ratio", "ratio", Higher, TO_SESSION),
    // Local training.
    layer("node.local_training_s", "s", Lower, TO_TRAIN),
    layer("node.local_training_n", "count", Lower, TO_TRAIN),
    layer("driving.train_step_s", "s", Lower, TO_TRAIN),
    layer("driving.train_step_n", "count", Lower, TO_TRAIN),
    layer("driving.train_step_us_p50", "us", Lower, TO_TRAIN),
    layer("driving.train_step_us_p99", "us", Lower, TO_TRAIN),
    // Loss evaluations, charged to the callback that made them.
    layer("driving.loss_s", "s", Lower, TO_LOSS),
    layer("driving.loss_n", "count", Lower, TO_LOSS),
    layer("driving.loss_us_mean", "us", Lower, TO_LOSS),
    layer("driving.loss_in_session_s", "s", Lower, TO_LOSS),
    layer("driving.loss_in_training_s", "s", Lower, TO_LOSS),
    // LbChat kernels, called directly on vehicle 0's data and initial model.
    layer("coreset.construct_us", "us", Lower, TO_KERNEL),
    layer("coreset.reduce_us", "us", Lower, TO_KERNEL),
    layer("valuation.coreset_loss_us", "us", Lower, TO_KERNEL),
    layer("phi.sample_us", "us", Lower, TO_KERNEL),
    layer("optimize.solve_us", "us", Lower, TO_KERNEL),
    layer("compress.apply_us", "us", Lower, TO_KERNEL),
    layer("compress.wire_roundtrip_us", "us", Lower, TO_KERNEL),
    layer("aggregate.merge_us", "us", Lower, TO_KERNEL),
    // Closed-loop evaluation.
    layer("driving.eval_s", "s", Lower, TO_EVAL),
    layer("driving.eval_trials_n", "count", Lower, TO_EVAL),
    layer("driving.eval_ms_per_trial", "ms", Lower, TO_EVAL),
    layer("driving.eval_success_pct", "%", Higher, TO_EVAL),
    layer("simworld.step_us", "us", Lower, TO_EVAL),
    layer("simworld.bev_us", "us", Lower, TO_EVAL),
    layer("vnn.predict_us", "us", Lower, TO_EVAL),
    // Observability sink.
    layer("obs.events_n", "count", Lower, TO_OBS),
    layer("obs.jsonl_kib", "KiB", Lower, TO_OBS),
    layer("obs.overhead_pct", "%", Lower, TO_OBS),
    // A schedule bound computed from the per-cell spans.
    layer("exec.cells_serial_sum_s", "s", Lower, TO_NOTHING),
    layer("exec.longest_cell_s", "s", Lower, TO_NOTHING),
    layer("exec.ideal_j2_speedup", "ratio", Higher, TO_NOTHING),
    // The benchmark watching itself.
    layer("trace.overhead_pct", "%", Lower, HEALTH),
    layer("trace.spans_n", "count", Lower, HEALTH),
    layer("trace.unattributed_pct", "%", Lower, HEALTH),
    layer("bench.cpu_share", "ratio", Higher, HEALTH),
    layer("bench.pass_spread_pct", "%", Lower, HEALTH),
    layer("bench.traced_pass_s", "s", Lower, HEALTH),
];

/// The text `--list` prints: every workload, then every metric with its
/// unit, direction, bound (end-to-end) or the metric it should move (layer).
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<14} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (--trace 0; gated):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<34} {:<9} better={:<6} bound={:<5} {}\n",
            m.name,
            m.unit,
            m.better.key(),
            m.bound,
            m.what
        ));
    }
    out.push_str("per-layer metrics (--trace 1; -> what each should move):\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<34} {:<9} better={:<6} -> {}\n",
            m.name,
            m.unit,
            m.better.key(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbchat::obs::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "bad unit {u:?}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {} too long",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "bound of {} out of range",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    fn strings<'a>(entry: &'a Json, keys: &[&str]) -> Vec<&'a str> {
        keys.iter()
            .map(|k| {
                entry
                    .get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("missing {k}"))
            })
            .collect()
    }

    /// `--list` (this catalogue) and `BENCHMARK.json` name exactly the same
    /// workloads, metrics, units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let json = lbchat::obs::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = json
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let got: Vec<Vec<&str>> = workloads
            .iter()
            .map(|w| strings(w, &["name", "why"]))
            .collect();
        let want: Vec<Vec<&str>> = WORKLOADS.iter().map(|w| vec![w.name, w.why]).collect();
        assert_eq!(got, want);

        let e2e = json
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                strings(entry, &["name", "unit", "better"]),
                [spec.name, spec.unit, spec.better.key()]
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(spec.bound),
                "{}",
                spec.name
            );
            assert_eq!(entry.as_obj().map(<[_]>::len), Some(4));
        }

        let layers = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, spec) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                strings(entry, &["name", "unit", "better"]),
                [spec.name, spec.unit, spec.better.key()]
            );
            assert_eq!(entry.as_obj().map(<[_]>::len), Some(3));
        }

        // The listing shows every name with its unit.
        let listing = list();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(
                listing.lines().any(|l| {
                    let mut f = l.split_whitespace();
                    f.next() == Some(name) && f.next() == Some(unit)
                }),
                "--list misses {name} [{unit}]"
            );
        }
        for w in &WORKLOADS {
            assert!(listing.contains(w.name));
        }
    }
}
