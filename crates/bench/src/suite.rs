//! The benchmark cells: every hot path the LbChat pipeline executes,
//! timed under stable ids so `bench_report` can match rows across runs.
//!
//! Ids are `group/name` and every cell times exactly one implementation,
//! the one the pipeline runs. All inputs are seeded, so two runs of the
//! same binary time the same work — which is what makes a diff between two
//! commits' result files meaningful.

use crate::timer::{BenchResult, Sampling, Timer};
use driving::eval::{EvalConfig, Rollout, Task};
use driving::frame::Frame;
use driving::learner::DrivingLearner;
use lbchat::compress::top_k;
use lbchat::coreset::{self, construct_with_scratch, CoresetConfig, CoresetScratch};
use lbchat::optimize::CompressionProblem;
use lbchat::penalty::PenaltyConfig;
use lbchat::phi::{PhiCurve, DEFAULT_PSI_GRID};
use lbchat::valuation::coreset_loss;
use lbchat::{Learner, WeightedDataset};
use lbchat::prelude::{
    CollabAlgorithm, Runtime, RuntimeConfig, SessionCtx, SessionStep, TrainStats,
};
use rand::{RngExt, SeedableRng};
use simnet::channel::{Channel, RadioConfig, TransferOutcome, TransferSpec};
use simnet::contact::ContactPredictor;
use simnet::geom::Vec2;
use simnet::grid::EncounterGrid;
use simnet::loss::LossModel;
use simnet::trace::MobilityTrace;
use simworld::bev::{self, BevConfig, Pose};
use simworld::expert::Command;
use simworld::world::{World, WorldConfig};
use std::time::Duration;
use vnn::mlp::{Mlp, MlpSpec};
use vnn::{
    BranchedPolicy, MlpScratch, ParamVec, PolicySample, PolicySpec, Sgd, TrainScratch, SHARD,
};

/// What to run and how.
#[derive(Debug, Clone, Default)]
pub struct SuiteOpts {
    /// Short sampling for CI smoke runs (fewer samples, tighter budgets).
    pub smoke: bool,
    /// Substring filter: only benchmark ids containing this run.
    pub filter: Option<String>,
}

impl SuiteOpts {
    /// The mode string recorded in the result file.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// Ten samples under a group's own budget — `smoke_ms` milliseconds in
    /// smoke runs, `full_s` seconds otherwise — for cells too slow for the
    /// default sampling.
    fn group_sampling(&self, smoke_ms: u64, full_s: u64) -> Sampling {
        Sampling {
            sample_size: 10,
            measurement_time: if self.smoke {
                Duration::from_millis(smoke_ms)
            } else {
                Duration::from_secs(full_s)
            },
        }
    }

    /// Whether any id in `group` can match the filter.
    fn group_enabled(&self, group: &str) -> bool {
        match &self.filter {
            None => true,
            Some(f) => group.contains(f.as_str()) || f.starts_with(group),
        }
    }
}

/// Runs the suite and returns one result per executed cell.
pub fn run(opts: &SuiteOpts) -> Vec<BenchResult> {
    let mut c = Timer::new(if opts.smoke {
        Sampling { sample_size: 5, measurement_time: Duration::from_millis(60) }
    } else {
        Sampling { sample_size: 20, measurement_time: Duration::from_secs(2) }
    });
    type Cell = fn(&mut Timer, &SuiteOpts);
    let cells: &[(&str, Cell)] = &[
        ("coreset", bench_coreset),
        ("valuation", bench_valuation),
        ("compress", bench_compress),
        ("solver", bench_solver),
        ("bev", bench_bev),
        ("vnn", bench_vnn),
        ("simnet", bench_simnet),
        ("runtime", bench_runtime),
        // Driving-scale cells, appended so the ids above keep their order.
        ("vnn", bench_vnn_driving_scale),
        ("phi", bench_phi),
        ("vnn", bench_vnn_bev),
        ("runtime", bench_runtime_static),
        ("driving", bench_driving),
        ("vnn", bench_vnn_fleet),
        ("core", bench_core),
    ];
    for (group, cell) in cells {
        if opts.group_enabled(group) {
            cell(&mut c, opts);
        }
    }
    let mut results = c.into_results();
    if let Some(f) = &opts.filter {
        results.retain(|r| r.id.contains(f.as_str()));
    }
    results
}

/// A line-fitting learner: cheap per-sample losses isolate the coreset
/// machinery under test from network-forward costs.
#[derive(Debug, Clone)]
struct Line(ParamVec);

#[derive(Debug, Clone, Copy)]
struct Pt(f32, f32);

impl Learner for Line {
    type Sample = Pt;
    fn params(&self) -> &ParamVec {
        &self.0
    }
    fn set_params(&mut self, p: ParamVec) {
        self.0 = p;
    }
    fn loss(&self, s: &Pt) -> f32 {
        self.loss_with(&self.0, s)
    }
    fn loss_with(&self, p: &ParamVec, s: &Pt) -> f32 {
        let w = p.as_slice();
        let r = w[0] * s.0 + w[1] - s.1;
        r * r
    }
    fn train_step(&mut self, _b: &[(&Pt, f32)]) -> f32 {
        0.0
    }
    fn group_of(&self, _s: &Pt) -> usize {
        0
    }
    fn n_groups(&self) -> usize {
        1
    }
}

fn line() -> Line {
    Line(ParamVec::from_vec(vec![1.0, 0.0]))
}

fn dataset(n: usize) -> WeightedDataset<Pt> {
    WeightedDataset::uniform(
        (0..n)
            .map(|i| Pt(i as f32 / n as f32, (i % 17) as f32 / 17.0))
            .collect(),
    )
}

fn bench_coreset(c: &mut Timer, _opts: &SuiteOpts) {
    let learner = line();
    for (n, size) in [(2_000usize, 150usize), (10_000, 150), (10_000, 400)] {
        let data = dataset(n);
        let id = format!("coreset/construct_{}k_to_{size}", n / 1000);
        c.bench_function(id, |b| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let mut scratch = CoresetScratch::new();
            let cfg = CoresetConfig { size };
            b.measure(|| construct_with_scratch(&learner, &data, &cfg, &mut rng, &mut scratch));
        });
    }
    let data = dataset(10_000);
    let big = coreset::construct(
        &learner,
        &data,
        &CoresetConfig { size: 300 },
        &mut rand::rngs::StdRng::seed_from_u64(2),
    );
    c.bench_function("coreset/merge_reduce_600_to_150", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        b.measure_batched(
            || (big.clone(), big.clone()),
            |(a, bb)| coreset::reduce(a.merge(bb), 150, &mut rng),
        );
    });
}

fn bench_valuation(c: &mut Timer, _opts: &SuiteOpts) {
    let learner = line();
    let data = dataset(5_000);
    let coreset = coreset::construct(
        &learner,
        &data,
        &CoresetConfig { size: 150 },
        &mut rand::rngs::StdRng::seed_from_u64(4),
    );
    let pen = PenaltyConfig::none();
    c.bench_function("valuation/coreset_loss_150", |b| {
        b.measure(|| coreset_loss(&learner, learner.params(), &coreset, &pen));
    });
}

fn bench_compress(c: &mut Timer, _opts: &SuiteOpts) {
    use lbchat::compress::Codec;
    // Seeded uniform draws: like a trained model's weights, (nearly) all
    // distinct. A vector cycling through a few dozen magnitudes would let a
    // stable magnitude sort finish in almost linear time, which no model a
    // run compresses offers.
    let mut rng = rand::rngs::StdRng::seed_from_u64(25);
    let params =
        ParamVec::from_vec((0..25_000).map(|_| rng.random_range(-1.0f32..1.0)).collect());
    c.bench_function("compress/topk_25k_psi_0.1", |b| b.measure(|| top_k(&params, 0.1)));
    // The encode and decode of docs/COMPRESSION.md's one wire layout.
    c.bench_function("compress/topk_encode_25k_psi_0.1", |b| {
        b.measure(|| Codec::TopK.encode(&params, 0.1, &mut rng));
    });
    let wire = Codec::TopK.encode(&params, 0.1, &mut rng);
    c.bench_function("compress/topk_decode_25k_psi_0.1", |b| {
        b.measure(|| wire.decode().expect("own encode decodes"));
    });
    print_wire_size_table();
}

/// Prints the cost model's two wire-size accountings side by side — the
/// paper's simplified `ψ·S` next to the honest `min(2ψ, 1)·S`
/// pair-encoding family — so the bench report never understates
/// sparse-encoding cost (the documented divergence in
/// docs/COMPRESSION.md).
fn print_wire_size_table() {
    use lbchat::compress::{pair_wire_bytes, wire_bytes};
    const S: usize = 52 * 1024 * 1024; // the paper's dense model
    eprintln!("wire bytes at S = 52 MiB (paper psi*S | honest pair accounting), in MiB:");
    let cells: Vec<String> = [0.05f32, 0.125, 0.25, 0.5, 1.0]
        .iter()
        .map(|&psi| {
            format!(
                "psi={psi}: {:.2}|{:.2}",
                wire_bytes(S, psi) as f64 / (1024.0 * 1024.0),
                pair_wire_bytes(S, psi) as f64 / (1024.0 * 1024.0),
            )
        })
        .collect();
    eprintln!("  {:<8} {}", "topk", cells.join("  "));
}

fn bench_solver(c: &mut Timer, _opts: &SuiteOpts) {
    let phi = PhiCurve::from_points(
        vec![0.02, 0.1, 0.3, 0.6, 1.0],
        vec![2.0, 1.6, 1.1, 0.7, 0.5],
    );
    let problem = CompressionProblem {
        phi_i: &phi,
        phi_j: &phi,
        loss_j_on_ci: 3.0,
        loss_i_on_cj: 2.0,
        model_bytes: 52 * 1024 * 1024,
        bandwidth_bps: 31e6,
        time_budget: 15.0,
        contact: 40.0,
        lambda_c: 0.01,
    };
    c.bench_function("solver/eq7_solve", |b| b.measure(|| problem.solve()));
}

fn bench_bev(c: &mut Timer, _opts: &SuiteOpts) {
    // Mirror `World::observe_expert`'s exact inputs — a live expert's pose,
    // every other agent, and the 60 m route polyline — so the cell times the
    // workload data collection actually runs once per expert per frame.
    let world = World::new(WorldConfig::small(1));
    let road = world.raster();
    let cfg = BevConfig::default();
    let cars: Vec<Vec2> = world.car_positions();
    let peds: Vec<Vec2> = world.pedestrian_positions();
    let v = world.expert_view(0);
    let pose = Pose { pos: v.position(world.map()), heading: v.heading(world.map()).angle() };
    let route: Vec<Vec2> = world.route_ahead_polyline(v, 60.0);
    let id = format!("bev/rasterize_{}", cfg.cells);
    c.bench_function(id, |b| {
        let mut frame = bev::Bev::blank(cfg.cells);
        b.measure(|| {
            bev::rasterize_into(&cfg, pose, 8.0, road, &cars, &peds, &route, &mut frame);
        });
    });
}

fn bench_vnn(c: &mut Timer, _opts: &SuiteOpts) {
    let spec = MlpSpec::relu(vec![32, 64, 64, 4]);
    let mlp = Mlp::new(spec, 0);
    let n = mlp.param_count();
    let mut params = ParamVec::zeros(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    mlp.init(&mut params, &mut rng);
    let input: Vec<f32> = (0..32).map(|i| (i as f32 / 32.0) - 0.5).collect();
    // Single-sample cells, ids pinned since PR 3.
    c.bench_function("vnn/mlp_forward_32x64x64x4", |b| {
        b.measure(|| mlp.forward(&params, &input));
    });
    let cache = mlp.forward(&params, &input);
    let d_out = vec![1.0f32, -0.5, 0.25, 0.0];
    c.bench_function("vnn/mlp_backward_32x64x64x4", |b| {
        let mut grad = vec![0.0f32; n];
        b.measure(|| {
            grad.iter_mut().for_each(|g| *g = 0.0);
            mlp.backward(&params, &cache, &d_out, &mut grad)
        });
    });
    let grad: Vec<f32> = (0..n).map(|i| ((i % 13) as f32 - 6.0) / 100.0).collect();
    // The optimizer local training steps (`DrivingLearner`'s settings).
    c.bench_function("vnn/sgd_step", |b| {
        let mut sgd = Sgd::new(1e-3, 0.9, 1e-5);
        let mut p = params.as_slice().to_vec();
        b.measure(|| sgd.step(&mut p, &grad));
    });

    // Batched minibatch kernels: what local training runs per iteration.
    let inputs: Vec<Vec<f32>> = (0..64)
        .map(|s| (0..32).map(|i| ((s * 31 + i * 7) % 97) as f32 / 97.0 - 0.5).collect())
        .collect();
    let weights: Vec<f32> = (0..64).map(|s| 0.5 + (s % 7) as f32 * 0.25).collect();
    for bsz in [1usize, 16, 64] {
        let id = format!("vnn/mlp_forward_batch_b{bsz}");
        c.bench_function(id, |b| {
            let mut scratch = MlpScratch::new();
            b.measure(|| {
                let stage = mlp.stage_batch(&mut scratch, bsz);
                for (row, x) in stage.chunks_mut(32).zip(&inputs) {
                    row.copy_from_slice(x);
                }
                mlp.forward_batch(&params, &mut scratch, bsz);
                mlp.batch_outputs(&scratch, bsz)[0]
            });
        });
    }
    for bsz in [1usize, 16, 64] {
        let id = format!("vnn/mlp_backward_batch_b{bsz}");
        c.bench_function(id, |b| {
            let mut scratch = MlpScratch::new();
            // Activations staged once; each iteration restages d_out and
            // times the weighted batched backward pass alone.
            let stage = mlp.stage_batch(&mut scratch, bsz);
            for (row, x) in stage.chunks_mut(32).zip(&inputs) {
                row.copy_from_slice(x);
            }
            mlp.forward_batch(&params, &mut scratch, bsz);
            let mut grad = vec![0.0f32; n];
            b.measure(|| {
                grad.iter_mut().for_each(|g| *g = 0.0);
                let staged = mlp.stage_d_out(&mut scratch, bsz);
                for row in staged.chunks_mut(4) {
                    row.copy_from_slice(&d_out);
                }
                mlp.backward_batch_d_input(&params, &mut scratch, bsz, &weights, &mut grad)[0]
            });
        });
    }
    c.bench_function("vnn/sgd_step_fused", |b| {
        let mut sgd = Sgd::new(1e-3, 0.9, 1e-5);
        let mut p = params.as_slice().to_vec();
        let scale = 1.0 / 64.0f32;
        b.measure(|| sgd.step_scaled(&mut p, &grad, scale));
    });

    // A full local-training round on a driving-scale branched policy: the
    // whole per-iteration path `runtime` executes, minus data sampling.
    let pspec = PolicySpec {
        input_dim: 64,
        trunk: vec![96, 64],
        n_branches: 4,
        waypoints: 4,
        skip_inputs: 2,
    };
    let mut prng = rand::rngs::StdRng::seed_from_u64(11);
    let policy = BranchedPolicy::new(&pspec, &mut prng);
    let owned: Vec<(Vec<f32>, usize, Vec<f32>, f32)> = (0..64)
        .map(|s| {
            let x: Vec<f32> =
                (0..64).map(|i| ((s * 13 + i * 5) % 89) as f32 / 89.0 - 0.5).collect();
            let t: Vec<f32> = (0..8).map(|i| ((s * 7 + i * 3) % 23) as f32 / 23.0).collect();
            (x, s % 4, t, 0.5 + (s % 5) as f32 * 0.3)
        })
        .collect();
    let batch: Vec<PolicySample<'_>> = owned
        .iter()
        .map(|(x, br, t, w)| PolicySample { input: x, branch: *br, target: t, weight: *w })
        .collect();
    c.bench_function("vnn/policy_train_round_b64", |b| {
        let mut scratch = TrainScratch::new();
        b.measure_batched(
            || (policy.clone(), Sgd::new(5e-3, 0.9, 1e-5)),
            |(mut pol, mut opt)| {
                let n = batch.len();
                let shards = scratch.shards_mut(n);
                for (s, shard) in shards.iter_mut().enumerate() {
                    pol.train_shard(&batch[..], s * SHARD, shard);
                }
                let out = pol.reduce_shards(&mut scratch, n);
                let inv = 1.0 / out.weight_sum;
                opt.step_scaled(pol.params_mut().as_mut_slice(), scratch.grad(), inv);
                out.loss_sum * inv
            },
        );
    });
}

/// The paper-scale policy (147 inputs, 96→64 trunk, four 66→32→10 heads)
/// a few steps into training, and `n` random frames over all four commands:
/// what valuation, φ and coreset construction evaluate in a real run. The
/// 32×64×64×4 toy net of the cells above is too small to show the forward
/// kernel's behaviour at this width.
fn driving_fixture(n: usize) -> (DrivingLearner, Vec<Frame>) {
    use rand::RngExt;
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let spec = DrivingLearner::spec_for(145, 5);
    let mut learner = DrivingLearner::new(&spec, 1e-2, &mut rng);
    let frames: Vec<Frame> = (0..n)
        .map(|_| Frame {
            features: (0..spec.input_dim).map(|_| rng.random_range(-1.0f32..1.0)).collect(),
            command: Command::from_index(rng.random_range(0..Command::COUNT)),
            waypoints: (0..spec.head_dim()).map(|_| rng.random_range(-2.0f32..2.0)).collect(),
        })
        .collect();
    warm_up(&mut learner, &frames);
    (learner, frames)
}

fn bench_vnn_driving_scale(c: &mut Timer, _opts: &SuiteOpts) {
    // The shared trunk alone: per-call times, so per-sample cost is the
    // median divided by the batch size.
    let mlp = Mlp::new(MlpSpec::relu(vec![147, 96, 64]), 0);
    let mut params = ParamVec::zeros(mlp.param_count());
    mlp.init(&mut params, &mut rand::rngs::StdRng::seed_from_u64(23));
    let inputs: Vec<f32> =
        (0..64 * 147).map(|k| ((k * 31) % 197) as f32 / 197.0 - 0.5).collect();
    for bsz in [1usize, 16, 64] {
        let id = format!("vnn/mlp_forward_batch_147x96x64_b{bsz}");
        c.bench_function(id, |b| {
            let mut scratch = MlpScratch::new();
            b.measure(|| {
                mlp.stage_batch(&mut scratch, bsz).copy_from_slice(&inputs[..bsz * 147]);
                mlp.forward_batch(&params, &mut scratch, bsz);
                mlp.batch_outputs(&scratch, bsz)[0]
            });
        });
    }
    // The whole policy's forward-only loss pass: one coreset, one dataset.
    let (learner, frames) = driving_fixture(720);
    let refs: Vec<&Frame> = frames.iter().collect();
    for n in [60usize, 720] {
        let id = format!("vnn/policy_losses_b{n}");
        c.bench_function(id, |b| {
            let mut out = Vec::new();
            b.measure(|| {
                learner.losses_with(learner.params(), &refs[..n], &mut out);
                out[0]
            });
        });
    }
}

/// Three training steps over the first 64 `frames`, so losses spread and
/// ReLU units die as they do a few iterations into a run.
fn warm_up(learner: &mut DrivingLearner, frames: &[Frame]) {
    let batch: Vec<(&Frame, f32)> = frames.iter().take(64).map(|f| (f, 1.0)).collect();
    for _ in 0..3 {
        learner.train_step(&batch);
    }
}

/// The paper-scale policy a few steps into training over frames vehicles
/// really record: a small [`World`] driven through
/// [`driving::collect::collect_datasets`], every vehicle's frames pooled
/// round-robin. The BEV is a sparse binary occupancy tensor, so most input
/// values are exactly `0.0` — which [`driving_fixture`]'s uniform random
/// features never are, and which the first trunk layer's kernels skip.
fn bev_fixture(n: usize) -> (DrivingLearner, Vec<Frame>) {
    use driving::collect::{collect_datasets, CollectConfig};
    let mut world = World::new(WorldConfig::small(19));
    let per_vehicle = n.div_ceil(world.n_experts());
    let collect = CollectConfig {
        seconds: per_vehicle as f64 / world.config().fps,
        stride: 1,
        balance_commands: false,
    };
    let datasets = collect_datasets(&mut world, &collect);
    let frames: Vec<Frame> = (0..per_vehicle)
        .flat_map(|k| datasets.iter().map(move |d| d.sample(k).clone()))
        .take(n)
        .collect();
    let (zeros, values) = frames.iter().fold((0usize, 0usize), |(z, v), f| {
        (z + f.features.iter().filter(|x| **x == 0.0).count(), v + f.features.len())
    });
    assert!(4 * zeros >= 3 * values, "BEV frames must be sparse: {zeros} zeros of {values}");
    let bev = &world.config().bev;
    let spec = DrivingLearner::spec_for(bev.feature_len(), world.config().n_waypoints);
    let mut learner =
        DrivingLearner::new(&spec, 1e-2, &mut rand::rngs::StdRng::seed_from_u64(19));
    warm_up(&mut learner, &frames);
    (learner, frames)
}

/// The two passes a run spends its learner time in, over recorded frames —
/// one local-training round and one coreset-sized loss pass — and the
/// closed-loop evaluator's one prediction per control tick.
fn bench_vnn_bev(c: &mut Timer, _opts: &SuiteOpts) {
    let (learner, frames) = bev_fixture(64);
    // `vnn/policy_train_round_b64`'s round, shard by shard on this thread.
    let batch: Vec<PolicySample<'_>> = frames
        .iter()
        .enumerate()
        .map(|(k, f)| PolicySample {
            input: &f.features,
            branch: f.command.index(),
            target: &f.waypoints,
            weight: 0.5 + (k % 5) as f32 * 0.3,
        })
        .collect();
    c.bench_function("vnn/policy_train_round_b64_bev", |b| {
        let mut scratch = TrainScratch::new();
        b.measure_batched(
            || (learner.policy().clone(), Sgd::new(1e-2, 0.9, 1e-5)),
            |(mut pol, mut opt)| {
                let n = batch.len();
                for (s, shard) in scratch.shards_mut(n).iter_mut().enumerate() {
                    pol.train_shard(&batch[..], s * SHARD, shard);
                }
                let out = pol.reduce_shards(&mut scratch, n);
                let inv = 1.0 / out.weight_sum;
                opt.step_scaled(pol.params_mut().as_mut_slice(), scratch.grad(), inv);
                out.loss_sum * inv
            },
        );
    });
    c.bench_function("vnn/policy_losses_b60_bev", |b| {
        let refs: Vec<&Frame> = frames.iter().take(60).collect();
        let mut out = Vec::new();
        b.measure(|| {
            learner.losses_with(learner.params(), &refs, &mut out);
            out[0]
        });
    });
    // A batch of one through the frozen policy, a different recorded frame
    // every call (the freeze itself is paid once, before the first sample).
    c.bench_function("vnn/policy_predict_bev", |b| {
        let mut scratch = TrainScratch::new();
        let mut out = Vec::new();
        let mut recorded = frames.iter().cycle();
        b.measure(|| {
            let frame = recorded.next().expect("a cycle over a non-empty fixture");
            learner.predict_into(&frame.features, frame.command, &mut out, &mut scratch);
            out[0]
        });
    });
}

/// `vnn/policy_train_round_b64_bev`'s round as a fleet takes it: 32 learners
/// visited round-robin, one [`Learner::train_step`] each, the way a
/// `--paper` cell interleaves its vehicles' local training. The one-learner
/// cell keeps parameters, velocity and arena hot between rounds; here a
/// learner comes back after 31 others have run, so whatever a learner owns
/// has left the cache by then — the cost the one-learner cell cannot show.
/// Each visit restarts from the fixture's parameters (outside the timed
/// half), so the work per round does not drift as the fleet trains.
fn bench_vnn_fleet(c: &mut Timer, _opts: &SuiteOpts) {
    const FLEET: usize = 32;
    let (learner, frames) = bev_fixture(64);
    let batch: Vec<(&Frame, f32)> =
        frames.iter().enumerate().map(|(k, f)| (f, 0.5 + (k % 5) as f32 * 0.3)).collect();
    // One worker, as `lbchat_e2e` runs its passes: with more, `train_step`
    // spawns scoped threads for its four shards every step.
    lbchat::exec::set_jobs(1);
    c.bench_function("vnn/policy_train_round_b64_bev_x32", |b| {
        let fleet = std::cell::RefCell::new(vec![learner.clone(); FLEET]);
        let visits = std::cell::Cell::new(0usize);
        b.measure_batched(
            || {
                let k = visits.get() % FLEET;
                visits.set(k + 1);
                let node = &mut fleet.borrow_mut()[k];
                node.set_params(learner.params().clone());
                node.on_params_replaced();
                k
            },
            |k| fleet.borrow_mut()[k].train_step(&batch),
        );
    });
    lbchat::exec::set_jobs(0); // back to LBCHAT_JOBS / hardware detection
}

/// §III-D's dataset expansion at the size a chat delivers: a 60-frame
/// coreset of recorded frames folded into a vehicle's dataset. Finished
/// datasets are parked and dropped outside the timed half.
fn bench_core(c: &mut Timer, _opts: &SuiteOpts) {
    let (_, frames) = bev_fixture(64);
    let coreset = lbchat::Coreset::new(frames[..60].to_vec(), vec![1.0; 60]);
    let local = WeightedDataset::uniform(frames);
    c.bench_function("core/absorb_coreset_60_bev", |b| {
        let done = std::cell::RefCell::new(Vec::with_capacity(1));
        b.measure_batched(
            || {
                done.borrow_mut().clear();
                local.clone()
            },
            |mut expanded| {
                expanded.absorb_coreset(&coreset);
                let n = expanded.len();
                done.borrow_mut().push(expanded);
                n
            },
        );
    });
}

/// One control tick of closed-loop evaluation — route tracking, observation,
/// rasterization, pooling, prediction, steering, judging, `World::step` —
/// along a drawn route through Navi. (Normal) traffic, so the pose, and with
/// it the occupancy the pooling and the first layer see, changes every
/// iteration. A trial that ends restarts from a copy of its first tick.
///
/// Reads the same at any worker count: `World::step` runs on the calling
/// thread.
fn bench_driving(c: &mut Timer, _opts: &SuiteOpts) {
    let (learner, _) = bev_fixture(64);
    let cfg = EvalConfig::default();
    let base = Task::NaviNormal.world(&cfg);
    // The fixture's policy is three steps into training and barely moves, so
    // traffic runs into it within a few ticks on most routes: drive the
    // longest of the first eight trials.
    let ticks = |rollout: &Rollout| {
        let mut rollout = rollout.clone();
        let mut n = 0usize;
        while rollout.tick(&learner) {
            n += 1;
        }
        n
    };
    let start = (0..8)
        .map(|trial| Rollout::of_trial(&base, Task::NaviNormal, &cfg, trial))
        .max_by_key(ticks)
        .expect("eight trials");
    c.bench_function("driving/control_tick", |b| {
        // The restart is set-up, not tick: keep it out of the timed half.
        let rollout = std::cell::RefCell::new(start.clone());
        let running = std::cell::Cell::new(true);
        b.measure_batched(
            || {
                if !running.get() {
                    *rollout.borrow_mut() = start.clone();
                }
            },
            |()| running.set(rollout.borrow_mut().tick(&learner)),
        );
    });
}

fn bench_phi(c: &mut Timer, _opts: &SuiteOpts) {
    // φ over the default seven-point grid on a 60-frame coreset: one
    // magnitude sort, seven compressed copies, 7 × 60 evaluations.
    let (learner, frames) = driving_fixture(60);
    let coreset = lbchat::Coreset::new(frames, vec![1.0; 60]);
    let pen = PenaltyConfig::default();
    c.bench_function("phi/sample_7x60_driving", |b| {
        b.measure(|| PhiCurve::sample(&learner, &coreset, DEFAULT_PSI_GRID, &pen));
    });
}

/// Two vehicles on converging straight routes, 60 s at 10 fps — enough
/// frames that encounter scans and contact estimation do real work.
fn crossing_trace() -> MobilityTrace {
    let frames = 600;
    let a: Vec<Vec2> = (0..frames)
        .map(|f| Vec2::new(f as f32 * 1.2, 0.0))
        .collect();
    let b: Vec<Vec2> = (0..frames)
        .map(|f| Vec2::new(700.0 - f as f32 * 1.2, 30.0))
        .collect();
    MobilityTrace::new(10.0, vec![a, b])
}

/// 64 vehicles driving the default map, recorded at the world's 2 fps: the
/// fleet of `lbchat_e2e`'s `fleet256_w` at a quarter of its size (and the
/// scenario of `fleet_traffic_golden`). Real motion — speeds change, routes
/// turn — unlike the straight-line and parked traces of the other cells.
fn fleet_trace(seconds: f64) -> MobilityTrace {
    World::new(WorldConfig {
        seed: 42,
        n_experts: 64,
        n_background: 0,
        n_pedestrians: 0,
        ..WorldConfig::default()
    })
    .record_trace(seconds)
}

/// The first pair of `trace` (in `(i, j)` order) with a whole contact inside
/// it: out of `range` at the start, within 150 m at some frame, out of range
/// again later. Returns the pair and the frame span it spends in range.
fn passing_pair(trace: &MobilityTrace, range: f32) -> Option<(usize, usize, usize, usize)> {
    let dist = |i, j, f: usize| trace.distance(i, j, f as f64 / trace.fps());
    for i in 0..trace.n_agents() {
        for j in i + 1..trace.n_agents() {
            let Some(enter) = (0..trace.n_frames()).find(|&f| dist(i, j, f) <= range) else {
                continue;
            };
            let Some(exit) = (enter..trace.n_frames()).find(|&f| dist(i, j, f) > range) else {
                continue;
            };
            if enter > 0 && (enter..exit).any(|f| dist(i, j, f) < 150.0) {
                return Some((i, j, enter, exit));
            }
        }
    }
    None
}

fn bench_simnet(c: &mut Timer, opts: &SuiteOpts) {
    let ch = Channel::new(RadioConfig::default(), LossModel::distance_default());
    c.bench_function("simnet/channel_transfer_0.6MB", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        b.measure(|| ch.run(&TransferSpec::link(614_400, 100.0), |_| 150.0, &mut rng));
    });
    // The price of one attempt against its PER: 4 MiB (2 797 packets) at a
    // fixed error rate, no deadline — 2 797 / (1 − PER) attempts a transfer
    // on average, so divide the cell by 2 825 / 3 108 / 3 996. A loop that
    // branches on each outcome pays more the less predictable the outcome
    // is; one that books it arithmetically reads the same at every PER. The
    // generator runs on across iterations: reseeding would replay one
    // outcome sequence, which a branch predictor learns.
    for (label, per) in [("per01", 0.01f32), ("per10", 0.10), ("per30", 0.30)] {
        let spec = TransferSpec::fixed_per(4 << 20, f64::INFINITY, per);
        c.bench_function(format!("simnet/channel_attempt_{label}"), |b| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            b.measure(|| ch.run(&spec, |_| 0.0, &mut rng));
        });
    }
    // What `SessionCtx::run_spec` actually sends: a 4 MiB model between two
    // vehicles of a recorded trace, under the distance→PER table, once
    // every two seconds from the frame the pair comes into range, through
    // its closest approach, to the frame it leaves — closing and separating,
    // every PER the table holds.
    {
        let trace = fleet_trace(180.0);
        let (i, j, enter, exit) =
            passing_pair(&trace, ch.config().range_m).expect("a pair passes within the trace");
        let spec = TransferSpec::link(4 * 1024 * 1024, 15.0);
        c.bench_sampled("simnet/channel_transfer_4MB_trace", opts.group_sampling(80, 3), |b| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            b.measure(|| {
                let mut airtime = 0.0;
                for f in (enter..exit).step_by(4) {
                    let link = trace.pair_track(i, j).starting_at(f as f64 / trace.fps());
                    airtime += ch.run(&spec, link, &mut rng).elapsed();
                }
                airtime
            });
        });
    }
    c.bench_function("simnet/trace_build_and_scan", |b| {
        b.measure(|| {
            let trace = crossing_trace();
            let active = [0usize, 1];
            let mut hits = 0usize;
            let mut t = 0.0;
            while t < trace.duration() {
                hits += trace.encounters_at(t, 150.0, &active).len();
                t += 1.0;
            }
            hits
        });
    });
    let trace = crossing_trace();
    let predictor =
        ContactPredictor::new(150.0, 3, LossModel::distance_default(), 10.0);
    // Sample the futures just before the crossing point so the predictor
    // walks a real in-range window instead of early-exiting.
    let route_a = trace.future(0, 25.0, 0.5, 60);
    let route_b = trace.future(1, 25.0, 0.5, 60);
    c.bench_function("simnet/contact_estimate_60pt", |b| {
        b.measure(|| predictor.estimate(&route_a, &route_b, 0.5));
    });
    // Spatial-hash encounter discovery at fleet scale, over parked lattice
    // fleets where every node has a handful of radio neighbors.
    let sampling = opts.group_sampling(80, 4);
    for (label, n) in [("encounters_1k", 1_000usize), ("encounters_10k", 10_000)] {
        let trace = grid_trace(n, 1.0);
        let active: Vec<usize> = (0..n).collect();
        c.bench_sampled(format!("simnet/{label}"), sampling, |b| {
            let mut grid = EncounterGrid::new();
            let mut out = Vec::new();
            b.measure(|| {
                grid.encounters_into(&trace, 0.25, 150.0, &active, &mut out);
                out.len()
            });
        });
    }
}

/// A minimal session protocol for runtime benches: one small exchange per
/// session plus a declining tail, so the timings isolate the scheduler
/// (matching, queue churn, session lifecycle) from learning costs.
struct ProbeAlgo {
    n: usize,
    params: ParamVec,
    /// Payload bytes; a session sends them twice while delivered.
    bytes: usize,
    /// Opt out of every pairing (priority −∞): no session ever opens, so a
    /// run times frame matching — discovery, route sampling, estimation —
    /// in isolation.
    decline: bool,
    /// State the priority without the contact estimate, as the baselines
    /// do: the runtime then predicts contacts for opened pairs only.
    stated: bool,
}

impl ProbeAlgo {
    /// A probe ranked eagerly, moving `bytes` per transfer.
    fn new(n: usize, bytes: usize) -> Self {
        Self { n, params: ParamVec::zeros(1), bytes, decline: false, stated: false }
    }

    fn priority(&self) -> f64 {
        if self.decline {
            f64::NEG_INFINITY
        } else {
            0.0
        }
    }
}

impl CollabAlgorithm for ProbeAlgo {
    type Sample = ();
    type Session = u32;

    fn n_nodes(&self) -> usize {
        self.n
    }

    fn model(&self, _node: usize) -> &ParamVec {
        &self.params
    }

    fn local_training(
        &mut self,
        _node: usize,
        _iters: usize,
        _rng: &mut rand::rngs::StdRng,
    ) -> TrainStats {
        TrainStats::default()
    }

    fn session_open(&mut self, _ctx: &mut SessionCtx<'_>) -> Option<(u32, SessionStep)> {
        Some((0, SessionStep::Transfer(TransferSpec::link(self.bytes, 1e9))))
    }

    fn session_step(
        &mut self,
        sent: &mut u32,
        out: TransferOutcome,
        ctx: &mut SessionCtx<'_>,
    ) -> SessionStep {
        *sent += 1;
        ctx.metrics.record_coreset_send(out.is_delivered(), self.bytes, out.elapsed());
        if out.is_delivered() && *sent < 2 {
            return SessionStep::Transfer(TransferSpec::link(self.bytes, 1e9));
        }
        SessionStep::Done
    }

    fn session_close(&mut self, _sent: u32, ctx: &mut SessionCtx<'_>) -> f64 {
        ctx.elapsed()
    }

    fn static_priority(&self, _i: usize, _j: usize) -> Option<f64> {
        self.stated.then(|| self.priority())
    }

    fn pair_priority(&self, _i: usize, _j: usize, _est: &simnet::contact::ContactEstimate) -> f64 {
        self.priority()
    }

    fn mean_eval_loss(&self, _eval: &[()]) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "probe"
    }
}

/// A parked grid fleet, 140 m spacing: every node has several radio
/// neighbors, so the matcher and the session lifecycle stay busy.
fn grid_trace(n: usize, seconds: f64) -> MobilityTrace {
    let fps = 2.0;
    let frames = (seconds * fps) as usize + 1;
    let cols = (n as f64).sqrt().ceil() as usize;
    let positions = (0..n)
        .map(|k| {
            let p = Vec2::new((k % cols) as f32 * 140.0, (k / cols) as f32 * 140.0);
            vec![p; frames]
        })
        .collect();
    MobilityTrace::new(fps, positions)
}

/// Frame matching in isolation: a declining probe never opens a session,
/// and a zero pair cooldown means every frame re-runs full encounter
/// discovery over the 256-node fleet — plus, unless the probe states its
/// priority (`stated`), route sampling and contact estimation for every
/// candidate pair.
fn frame_match_cell(c: &mut Timer, sampling: Sampling, id: &str, stated: bool) {
    let n = 256usize;
    let seconds = 20.0;
    let trace = grid_trace(n, seconds);
    let cfg = RuntimeConfig {
        duration: seconds,
        eval_every: seconds,
        pair_cooldown: 0.0,
        seed: 9,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(cfg);
    c.bench_sampled(id, sampling, |b| {
        b.measure(|| {
            let mut algo = ProbeAlgo { decline: true, stated, ..ProbeAlgo::new(n, 20_000) };
            rt.run(&mut algo, &trace, &[]).map_or(0, |m| m.train_iterations)
        });
    });
}

/// `runtime/frame_match_256` for a method that ranks pairs without the
/// contact estimate (appended so the ids above keep their order).
fn bench_runtime_static(c: &mut Timer, opts: &SuiteOpts) {
    frame_match_cell(c, opts.group_sampling(60, 4), "runtime/frame_match_256_static", true);
}

fn bench_runtime(c: &mut Timer, opts: &SuiteOpts) {
    let sampling = opts.group_sampling(60, 4);
    // The event scheduler over parked fleets: matching, queue churn, and
    // the session lifecycle with learning costs stripped out.
    for n in [32usize, 256] {
        let seconds = if n == 32 { 60.0 } else { 20.0 };
        let trace = grid_trace(n, seconds);
        let cfg = RuntimeConfig {
            duration: seconds,
            eval_every: seconds,
            pair_cooldown: 10.0,
            seed: 9,
            ..RuntimeConfig::default()
        };
        let rt = Runtime::new(cfg);
        c.bench_sampled(format!("runtime/event_loop_{n}nodes"), sampling, |b| {
            b.measure(|| {
                let mut algo = ProbeAlgo::new(n, 20_000);
                rt.run(&mut algo, &trace, &[]).map_or(0, |m| m.sessions)
            });
        });
    }
    frame_match_cell(c, sampling, "runtime/frame_match_256", false);
    // The traffic `fleet256_w` sends, at a quarter of the fleet: 64 moving
    // vehicles gossiping a 4 MiB payload each way under the distance→PER
    // table for 60 simulated seconds — `fleet_traffic_golden`'s fleet, radio
    // and payload under the scheduler probe. Unlike the parked, loss-free
    // 20 kB cells above, nearly all of this run is `Channel::run` following
    // two recorded tracks through ~2 800 packets a transfer.
    {
        let seconds = 60.0;
        let trace = fleet_trace(seconds + 60.0);
        let cfg = RuntimeConfig {
            duration: seconds,
            eval_every: seconds,
            loss_model: LossModel::distance_default(),
            seed: 9,
            ..RuntimeConfig::default()
        };
        let rt = Runtime::new(cfg);
        c.bench_sampled("runtime/gossip_64_moving_4MB_loss", sampling, |b| {
            b.measure(|| {
                let mut algo = ProbeAlgo::new(64, 4 * 1024 * 1024);
                rt.run(&mut algo, &trace, &[]).map_or(0, |m| m.bytes_delivered)
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_narrows_to_matching_ids() {
        let opts = SuiteOpts { smoke: true, filter: Some("solver".into()) };
        let results = run(&opts);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, "solver/eq7_solve");
    }

    #[test]
    fn mode_strings() {
        assert_eq!(SuiteOpts { smoke: true, filter: None }.mode(), "smoke");
        assert_eq!(SuiteOpts::default().mode(), "full");
    }
}
