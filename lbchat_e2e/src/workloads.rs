//! The four workloads: fixture, untraced pass through the public entry
//! points, and the hand-built traced pass.
//!
//! Work is fixed by (workload, seed). Sizes are written out field by field
//! so that an edit to the `quick()`/`default_scale()` presets cannot change
//! the benchmark silently; the struct-update tail only absorbs fields added
//! later.
//!
//! **What `--seed` regenerates.** The world (map, traffic, datasets,
//! mobility trace) is built from [`SCENARIO_SEED`] — the seed every
//! experiment binary defaults to — and `--seed` drives everything drawn
//! after that: model initialisation, LbChat's coreset sampling, minibatch
//! order, channel loss draws, backend loss draws and the closed-loop
//! evaluation worlds and routes. Regenerating the world too moves the cost
//! of an LbChat pass by a third between seeds (measured: 3.07–4.37 s over
//! seeds 1–10, quartile spread 12 %), because who meets whom decides how
//! many chats reach the model exchange; with the world fixed the same
//! seeds spread 5 %, below the machine's own run-to-run noise, which is
//! what lets one bound serve every seed.

use crate::toy::{line_data, Line, Pt};
use crate::trace::{span, Trace, TracedAlgo, TracedLearner};
use baselines::dfl_dds::DflDdsConfig;
use baselines::dp::DpConfig;
use baselines::proxskip::ProxSkipConfig;
use baselines::rsul::RsuLConfig;
use baselines::{DflDds, Dp, ProxSkip, RsuL};
use driving::{success_rate_obs, DrivingLearner, Frame, Task};
use experiments::harness::{eval_config, success_table_obs};
use experiments::methods::cell_label;
use experiments::{run_method, Condition, Method, Scale, Scenario};
use lbchat::node::LbChatAlgorithm;
use lbchat::prelude::{
    Codec, CollabAlgorithm, LbChatConfig, Learner, Metrics, ObsSink, Runtime, RuntimeConfig,
};
use lbchat::WeightedDataset;
use rand::{RngExt, SeedableRng};
use simnet::loss::LossModel;
use simnet::trace::MobilityTrace;
use simworld::world::{FleetScale, World, WorldConfig};
use std::hint::black_box;
use std::time::Instant;
use vnn::ParamVec;

/// Seed of the world every fixture is built from (see the module docs).
pub const SCENARIO_SEED: u64 = 42;

/// `--smoke` divides every horizon by this.
const SMOKE_DIVISOR: f64 = 5.0;

/// Vehicles in `fleet256_w`.
const FLEET_VEHICLES: usize = 256;

/// The workload selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// LbChat, lossy radio, default-scale fleet.
    LbchatW,
    /// The four baselines, loss-free radio, default-scale fleet.
    BaselinesWo,
    /// 256 vehicles gossiping a toy model over the lossy radio.
    Fleet256W,
    /// The Table II pipeline at the quick-preset fleet.
    Table2Small,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::LbchatW,
        Kind::BaselinesWo,
        Kind::Fleet256W,
        Kind::Table2Small,
    ];

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LbchatW => "lbchat_w",
            Kind::BaselinesWo => "baselines_wo",
            Kind::Fleet256W => "fleet256_w",
            Kind::Table2Small => "table2_small",
        }
    }

    /// Simulated seconds each cell runs for.
    pub fn horizon(self, smoke: bool) -> f64 {
        let full = match self {
            Kind::LbchatW => 170.0,
            Kind::BaselinesWo => 150.0,
            Kind::Fleet256W => 400.0,
            Kind::Table2Small => 180.0,
        };
        if smoke {
            full / SMOKE_DIVISOR
        } else {
            full
        }
    }

    /// The (method, condition) cells of a pass, in execution order. Empty
    /// for `fleet256_w`, whose single cell has no `Method` counterpart.
    pub fn cells(self) -> &'static [(Method, Condition)] {
        match self {
            Kind::LbchatW => &[(Method::LbChat, Condition::WithLoss)],
            Kind::BaselinesWo => &[
                (Method::ProxSkip, Condition::NoLoss),
                (Method::RsuL, Condition::NoLoss),
                (Method::DflDds, Condition::NoLoss),
                (Method::Dp, Condition::NoLoss),
            ],
            Kind::Fleet256W => &[],
            Kind::Table2Small => &[
                (Method::ProxSkip, Condition::NoLoss),
                (Method::RsuL, Condition::NoLoss),
                (Method::DflDds, Condition::NoLoss),
                (Method::Dp, Condition::NoLoss),
                (Method::LbChat, Condition::NoLoss),
            ],
        }
    }

    // Every field is spelled out, so the struct-update tails below change
    // nothing today; they are there so a field added to `Scale` later does
    // not break the build of a benchmark that must stay as it is.
    #[allow(clippy::needless_update)]
    fn scale(self, smoke: bool) -> Scale {
        let horizon = self.horizon(smoke);
        match self {
            // The default-scale fleet of `Scale::default_scale()`.
            Kind::LbchatW | Kind::BaselinesWo => Scale {
                n_vehicles: 8,
                n_background: 20,
                n_pedestrians: 80,
                data_seconds: 360.0,
                train_seconds: horizon,
                eval_every: horizon / 4.0,
                eval_per_vehicle: 25,
                trials: 10,
                iters_per_second: 1.0,
                model_wire_bytes: 16 * 1024 * 1024,
                coreset_size: 60,
                lr: 3e-3,
                seed: SCENARIO_SEED,
                codec: Codec::TopK,
                fleet: FleetScale::Seed,
                ..Scale::default_scale()
            },
            // The quick-preset fleet of `Scale::quick()`.
            Kind::Table2Small => Scale {
                n_vehicles: 4,
                n_background: 8,
                n_pedestrians: 30,
                data_seconds: 120.0,
                train_seconds: horizon,
                eval_every: horizon / 4.0,
                eval_per_vehicle: 20,
                trials: 4,
                iters_per_second: 1.0,
                model_wire_bytes: 8 * 1024 * 1024,
                coreset_size: 40,
                lr: 3e-3,
                seed: SCENARIO_SEED,
                codec: Codec::TopK,
                fleet: FleetScale::Seed,
                ..Scale::quick()
            },
            Kind::Fleet256W => unreachable!("fleet256_w has no driving scenario"),
        }
    }
}

/// Wall times of the public steps a fixture build is made of.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildSteps {
    /// `World::new`.
    pub world_new_s: f64,
    /// `driving::collect_datasets` (0 for `fleet256_w`).
    pub collect_s: f64,
    /// Frames collected over all vehicles.
    pub collect_frames: usize,
    /// `World::record_trace`.
    pub record_trace_s: f64,
    /// Frames in the mobility trace.
    pub trace_frames: usize,
}

/// The fixture of `fleet256_w`.
pub struct Fleet {
    trace: MobilityTrace,
    learners: Vec<Line>,
    datasets: Vec<WeightedDataset<Pt>>,
    eval: Vec<Pt>,
    runtime: RuntimeConfig,
    dp: DpConfig,
    steps: BuildSteps,
}

/// What a workload's passes run on.
pub enum Fixture {
    /// A driving scenario (three of the four workloads).
    Driving(Box<Scenario>),
    /// The 256-vehicle toy fleet.
    Fleet(Box<Fleet>),
}

impl Fixture {
    /// The mobility trace the passes replay.
    pub fn trace(&self) -> &MobilityTrace {
        match self {
            Fixture::Driving(s) => &s.trace,
            Fixture::Fleet(f) => &f.trace,
        }
    }

    /// Vehicles in the fleet.
    pub fn n_vehicles(&self) -> usize {
        match self {
            Fixture::Driving(s) => s.scale.n_vehicles,
            Fixture::Fleet(f) => f.learners.len(),
        }
    }
}

/// Builds the workload's fixture. Deterministic in `(kind, seed, smoke)`.
pub fn build_fixture(kind: Kind, seed: u64, smoke: bool) -> Fixture {
    match kind {
        Kind::Fleet256W => Fixture::Fleet(Box::new(build_fleet(seed, smoke))),
        _ => {
            let mut scenario = Scenario::build(kind.scale(smoke));
            // Everything drawn after the world is built follows `--seed`.
            scenario.scale.seed = seed;
            Fixture::Driving(Box::new(scenario))
        }
    }
}

fn build_fleet(seed: u64, smoke: bool) -> Fleet {
    let horizon = Kind::Fleet256W.horizon(smoke);
    let t0 = Instant::now();
    let mut world = World::new(WorldConfig {
        seed: SCENARIO_SEED,
        n_experts: FLEET_VEHICLES,
        n_background: 0,
        n_pedestrians: 0,
        n_fleet: 0,
        ..WorldConfig::default()
    });
    let world_new_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let trace = world.record_trace(horizon + 60.0);
    let record_trace_s = t1.elapsed().as_secs_f64();

    // Every vehicle holds 64 points of its own line, so local models
    // differ, gossip has something to merge, and the pooled loss falls.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF1EE7);
    let mut datasets = Vec::with_capacity(FLEET_VEHICLES);
    let mut eval = Vec::new();
    for _ in 0..FLEET_VEHICLES {
        let a = rng.random_range(1.5f32..2.5);
        let b = rng.random_range(-1.5f32..-0.5);
        let data = line_data(a, b, 64, &mut rng);
        eval.extend_from_slice(&data.samples()[..2]);
        datasets.push(data);
    }
    let steps = BuildSteps {
        world_new_s,
        record_trace_s,
        trace_frames: trace.n_frames(),
        ..BuildSteps::default()
    };
    Fleet {
        trace,
        learners: vec![Line::new(0.0, 0.0); FLEET_VEHICLES],
        datasets,
        eval,
        runtime: RuntimeConfig {
            duration: horizon,
            train_iters_per_second: 0.5,
            loss_model: LossModel::distance_default(),
            eval_every: horizon / 4.0,
            seed,
            ..RuntimeConfig::default()
        },
        dp: DpConfig {
            model_bytes: 4 * 1024 * 1024,
            ..DpConfig::default()
        },
        steps,
    }
}

/// Times the public steps `Scenario::build` is made of, one after another,
/// for the layer metrics (the fixture itself comes from `Scenario::build`).
pub fn build_steps(fixture: &Fixture) -> BuildSteps {
    let scale = match fixture {
        Fixture::Fleet(f) => return f.steps,
        Fixture::Driving(s) => &s.scale,
    };
    let t0 = Instant::now();
    let mut world = World::new(WorldConfig {
        seed: SCENARIO_SEED,
        n_experts: scale.n_vehicles,
        n_background: scale.n_background,
        n_pedestrians: scale.n_pedestrians,
        n_fleet: scale.fleet.n_fleet(),
        ..WorldConfig::default()
    });
    let world_new_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let datasets = driving::collect_datasets(
        &mut world,
        &driving::CollectConfig {
            seconds: scale.data_seconds,
            stride: 1,
            balance_commands: true,
        },
    );
    let collect_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let trace = world.record_trace(scale.train_seconds + 60.0);
    let record_trace_s = t2.elapsed().as_secs_f64();
    BuildSteps {
        world_new_s,
        collect_s,
        collect_frames: datasets.iter().map(WeightedDataset::len).sum(),
        record_trace_s,
        trace_frames: black_box(trace).n_frames(),
    }
}

/// One finished cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// `Method@condition`, or `DP[line]@w` for the toy fleet.
    pub label: String,
    /// What the runtime reported.
    pub metrics: Metrics,
}

/// Closed-loop evaluation tally of a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalTally {
    /// Trials driven.
    pub trials: usize,
    /// Trials that reached the destination.
    pub successes: usize,
}

/// One pass: the workload's whole fixed work.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// The cells, in execution order.
    pub cells: Vec<CellResult>,
    /// Events the recording sink holds at the end (table2_small only).
    pub obs_events: usize,
    /// Bytes of the serialised manifest (table2_small only).
    pub jsonl_bytes: usize,
    /// Closed-loop trials (traced table2_small passes only — the harness
    /// reports percentages, not counts).
    pub eval: EvalTally,
}

/// Runs one untraced pass through the public entry points the experiment
/// binaries use. `record` chooses table2_small's sink (the bins always
/// record; the disabled variant exists to measure what recording costs).
pub fn run_pass(kind: Kind, fixture: &Fixture, record: bool) -> Result<PassResult, String> {
    match fixture {
        Fixture::Fleet(f) => {
            let mut algo = Dp::new(f.learners.clone(), f.datasets.clone(), f.dp.clone());
            let metrics = Runtime::new(f.runtime.clone())
                .run(&mut algo, &f.trace, &f.eval)
                .map_err(|e| e.to_string())?;
            Ok(PassResult {
                cells: vec![fleet_cell(metrics)],
                ..PassResult::default()
            })
        }
        Fixture::Driving(s) if kind == Kind::Table2Small => {
            let sink = if record {
                ObsSink::recording()
            } else {
                ObsSink::disabled()
            };
            let methods: Vec<Method> = kind.cells().iter().map(|&(m, _)| m).collect();
            let (table, outputs) =
                success_table_obs("Table II", &methods, s, Condition::NoLoss, &sink)
                    .map_err(|e| e.to_string())?;
            black_box(table);
            let jsonl = sink.to_jsonl();
            let cells = kind
                .cells()
                .iter()
                .zip(outputs)
                .map(|(&(m, c), out)| CellResult {
                    label: cell_label(m, c),
                    metrics: out.metrics,
                })
                .collect();
            Ok(PassResult {
                cells,
                obs_events: sink.event_count(),
                jsonl_bytes: black_box(jsonl).len(),
                eval: EvalTally::default(),
            })
        }
        Fixture::Driving(s) => {
            let mut cells = Vec::new();
            for &(m, c) in kind.cells() {
                let out = run_method(m, s, c).map_err(|e| e.to_string())?;
                cells.push(CellResult {
                    label: cell_label(m, c),
                    metrics: out.metrics,
                });
            }
            Ok(PassResult {
                cells,
                ..PassResult::default()
            })
        }
    }
}

fn fleet_cell(metrics: Metrics) -> CellResult {
    CellResult {
        label: "DP[line]@w".to_string(),
        metrics,
    }
}

/// `experiments::methods::runtime_config`, which is private: the traced
/// cell has to derive the same config, and the run checks that it did by
/// comparing the traced cell's metrics with `run_method`'s.
fn runtime_config(s: &Scenario, condition: Condition, obs: ObsSink) -> RuntimeConfig {
    RuntimeConfig {
        duration: s.scale.train_seconds,
        train_iters_per_second: s.scale.iters_per_second,
        loss_model: condition.loss_model(),
        eval_every: s.scale.eval_every,
        seed: s.scale.seed,
        codec: s.scale.codec,
        obs,
        ..RuntimeConfig::default()
    }
}

/// `experiments::methods::lbchat_config`, likewise private.
fn lbchat_config(s: &Scenario) -> LbChatConfig {
    LbChatConfig {
        coreset_size: s.scale.coreset_size,
        model_wire_bytes: s.scale.model_wire_bytes,
        coreset_bytes_per_sample: 4096,
        ..LbChatConfig::default()
    }
}

type TracedDriver = TracedLearner<DrivingLearner>;

/// Builds the algorithm inside an `experiments.cell_build` span, runs it
/// inside a `runtime.run` span, and returns the metrics with vehicle 0's
/// final model.
fn traced_run<A, S>(
    trace: &Trace,
    rt: &Runtime,
    mobility: &MobilityTrace,
    eval: &[S],
    build: impl FnOnce() -> A,
) -> Result<(Metrics, ParamVec), String>
where
    A: CollabAlgorithm<Sample = S>,
{
    let mut algo = span(trace, "experiments.cell_build", || {
        TracedAlgo::new(build(), trace)
    });
    let metrics = span(trace, "runtime.run", || rt.run(&mut algo, mobility, eval))
        .map_err(|e| e.to_string())?;
    Ok((metrics, algo.model(0).clone()))
}

fn traced_driving_cell(
    s: &Scenario,
    method: Method,
    condition: Condition,
    obs: ObsSink,
    trace: &Trace,
) -> Result<(Metrics, ParamVec), String> {
    let rt = Runtime::new(runtime_config(s, condition, obs));
    let parts = || {
        let learners: Vec<TracedDriver> = s
            .make_learners()
            .into_iter()
            .map(|l| TracedLearner::new(l, trace))
            .collect();
        (learners, s.datasets.clone())
    };
    let bytes = s.scale.model_wire_bytes;
    match method {
        Method::LbChat => traced_run(trace, &rt, &s.trace, &s.eval, || {
            let mut seed_rng = rand::rngs::StdRng::seed_from_u64(s.scale.seed ^ 0x5EED);
            let (l, d) = parts();
            LbChatAlgorithm::new(l, d, lbchat_config(s), &mut seed_rng)
        }),
        Method::ProxSkip => traced_run(trace, &rt, &s.trace, &s.eval, || {
            let (l, d) = parts();
            ProxSkip::new(
                l,
                d,
                ProxSkipConfig {
                    model_bytes: bytes,
                    ..ProxSkipConfig::default()
                },
            )
        }),
        Method::RsuL => traced_run(trace, &rt, &s.trace, &s.eval, || {
            let (l, d) = parts();
            let cfg = RsuLConfig {
                model_bytes: bytes,
                ..RsuLConfig::default()
            };
            RsuL::new(l, d, s.rsu_positions.clone(), cfg)
        }),
        Method::DflDds => traced_run(trace, &rt, &s.trace, &s.eval, || {
            let (l, d) = parts();
            DflDds::new(
                l,
                d,
                DflDdsConfig {
                    model_bytes: bytes,
                    ..DflDdsConfig::default()
                },
            )
        }),
        Method::Dp => traced_run(trace, &rt, &s.trace, &s.eval, || {
            let (l, d) = parts();
            Dp::new(
                l,
                d,
                DpConfig {
                    model_bytes: bytes,
                    ..DpConfig::default()
                },
            )
        }),
        other => Err(format!("no traced cell for {}", other.name())),
    }
}

/// Runs one traced pass: every cell hand-built from the same public parts
/// the entry points assemble (`make_learners` → learner decorator →
/// algorithm constructor → algorithm decorator → `Runtime::run`), under a
/// `pass` root span with one `cell` span per cell.
pub fn run_traced_pass(kind: Kind, fixture: &Fixture, trace: &Trace) -> Result<PassResult, String> {
    span(trace, "pass", || match fixture {
        Fixture::Fleet(f) => {
            let rt = Runtime::new(f.runtime.clone());
            let (metrics, _) = span(trace, "cell", || {
                traced_run(trace, &rt, &f.trace, &f.eval, || {
                    Dp::new(f.learners.clone(), f.datasets.clone(), f.dp.clone())
                })
            })?;
            Ok(PassResult {
                cells: vec![fleet_cell(metrics)],
                ..PassResult::default()
            })
        }
        Fixture::Driving(s) => {
            let table2 = kind == Kind::Table2Small;
            let sink = if table2 {
                ObsSink::recording()
            } else {
                ObsSink::disabled()
            };
            let mut pass = PassResult::default();
            for &(m, c) in kind.cells() {
                let label = cell_label(m, c);
                let cell_sink = sink.scoped(&label);
                let metrics = span(trace, "cell", || -> Result<Metrics, String> {
                    let (metrics, model0) = traced_driving_cell(s, m, c, cell_sink.clone(), trace)?;
                    if table2 {
                        let tally = span(trace, "driving.eval", || {
                            closed_loop_eval(s, model0, &cell_sink.scoped("eval"))
                        });
                        pass.eval.trials += tally.trials;
                        pass.eval.successes += tally.successes;
                    }
                    Ok(metrics)
                })?;
                pass.cells.push(CellResult { label, metrics });
            }
            if table2 {
                let jsonl = span(trace, "obs.to_jsonl", || sink.to_jsonl());
                pass.obs_events = sink.event_count();
                pass.jsonl_bytes = black_box(jsonl).len();
            }
            Ok(pass)
        }
    })
}

/// The five closed-loop tasks on a learner holding `model0`, as
/// `harness::train_and_evaluate_obs` runs them on its representative.
fn closed_loop_eval(s: &Scenario, model0: ParamVec, sink: &ObsSink) -> EvalTally {
    let mut rng = rand::rngs::StdRng::seed_from_u64(s.scale.seed ^ 0xABCD);
    let mut representative = DrivingLearner::new(&s.spec, s.scale.lr, &mut rng);
    representative.set_params(model0);
    let cfg = eval_config(s);
    let mut tally = EvalTally::default();
    for task in Task::ALL {
        let result = success_rate_obs(&representative, task, &cfg, sink);
        tally.trials += result.trials;
        tally.successes += result.successes;
    }
    tally
}

/// Vehicle 0's dataset, an initial learner and the LbChat config of a
/// driving fixture — what the direct kernel probes run on.
pub fn kernel_inputs(
    fixture: &Fixture,
) -> Option<(
    &Scenario,
    DrivingLearner,
    &WeightedDataset<Frame>,
    LbChatConfig,
)> {
    match fixture {
        Fixture::Driving(s) => {
            let learner = s.make_learners().into_iter().next()?;
            Some((s, learner, s.datasets.first()?, lbchat_config(s)))
        }
        Fixture::Fleet(_) => None,
    }
}

/// The loss model the workload's radio uses (one per workload: every cell
/// of a pass runs under the same condition).
pub fn loss_model(kind: Kind, fixture: &Fixture) -> LossModel {
    match fixture {
        Fixture::Fleet(f) => f.runtime.loss_model.clone(),
        Fixture::Driving(_) => kind.cells()[0].1.loss_model(),
    }
}

/// Bytes of one dense model on the wire in this workload.
pub fn model_wire_bytes(fixture: &Fixture) -> usize {
    match fixture {
        Fixture::Driving(s) => s.scale.model_wire_bytes,
        Fixture::Fleet(f) => f.dp.model_bytes,
    }
}

/// Whether two runs of a cell produced bit-identical `Metrics`.
pub fn same_metrics(a: &Metrics, b: &Metrics) -> bool {
    let bits = |curve: &[(f64, f64)]| -> Vec<(u64, u64)> {
        curve
            .iter()
            .map(|&(t, l)| (t.to_bits(), l.to_bits()))
            .collect()
    };
    bits(&a.loss_curve) == bits(&b.loss_curve)
        && a.model_sends == b.model_sends
        && a.model_receives == b.model_receives
        && a.coreset_sends == b.coreset_sends
        && a.coreset_receives == b.coreset_receives
        && a.sessions == b.sessions
        && a.bytes_delivered == b.bytes_delivered
        && a.comm_seconds.to_bits() == b.comm_seconds.to_bits()
        && a.train_iterations == b.train_iterations
}

/// Why a cell counts as a failed operation, if it does: a loss that is not
/// finite or did not fall over the cell's horizon.
pub fn cell_fault(cell: &CellResult) -> Option<String> {
    let curve = &cell.metrics.loss_curve;
    let (Some(&(_, first)), Some(&(_, last))) = (curve.first(), curve.last()) else {
        return Some(format!("{}: empty loss curve", cell.label));
    };
    if !first.is_finite() || !last.is_finite() {
        return Some(format!("{}: non-finite loss {first} -> {last}", cell.label));
    }
    if last >= first {
        return Some(format!(
            "{}: loss did not fall ({first} -> {last})",
            cell.label
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_catalogue() {
        for (kind, spec) in Kind::ALL.into_iter().zip(&crate::spec::WORKLOADS) {
            assert_eq!(kind.name(), spec.name);
            assert_eq!(Kind::from_name(spec.name), Some(kind));
        }
        assert_eq!(Kind::from_name("table2_j2"), None);
    }

    #[test]
    fn metrics_identity_is_bitwise() {
        let mut a = Metrics::new();
        a.record_loss(0.0, 1.0);
        a.record_model_send(true, 10, 0.5);
        let mut b = a.clone();
        assert!(same_metrics(&a, &b));
        b.loss_curve[0].1 = 1.0 + f64::EPSILON;
        assert!(!same_metrics(&a, &b), "one ulp of loss is a mismatch");
        let mut c = a.clone();
        c.sessions += 1;
        assert!(!same_metrics(&a, &c));
    }

    #[test]
    fn a_cell_whose_loss_does_not_fall_is_a_fault() {
        let cell = |first: f64, last: f64| {
            let mut m = Metrics::new();
            m.record_loss(0.0, first);
            m.record_loss(10.0, last);
            CellResult {
                label: "x".into(),
                metrics: m,
            }
        };
        assert!(cell_fault(&cell(2.0, 1.0)).is_none());
        assert!(cell_fault(&cell(1.0, 1.0)).is_some());
        assert!(cell_fault(&cell(1.0, f64::NAN)).is_some());
        assert!(cell_fault(&CellResult {
            label: "x".into(),
            metrics: Metrics::new()
        })
        .is_some());
    }
}
