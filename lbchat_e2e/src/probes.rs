//! Direct-call probes: each times one layer's public entry point on the
//! workload's own inputs with a fixed iteration count, after the traced
//! pass. They give the layers the decorators cannot see into (the network
//! substrate inside `Runtime::run`, the kernels inside a session step) a
//! number of their own; every value is a mean over the fixed count.

use crate::workloads::{kernel_inputs, loss_model, model_wire_bytes, Fixture, Kind};
use driving::frame::NAV_FEATURES;
use experiments::harness::eval_config;
use lbchat::aggregate::{aggregate_sparse_aware, AggregationRule};
use lbchat::coreset::{construct_with_scratch, reduce, CoresetConfig, CoresetScratch};
use lbchat::optimize::CompressionProblem;
use lbchat::phi::PhiCurve;
use lbchat::prelude::{Codec, Learner};
use lbchat::runtime::sched::EventQueue;
use lbchat::runtime::RuntimeConfig;
use lbchat::valuation::coreset_loss;
use rand::SeedableRng;
use simnet::channel::TransferSpec;
use simnet::{Channel, ContactPredictor, EncounterGrid, RouteCache};
use simworld::bev::{rasterize_into, Pose};
use simworld::{Bev, Command, World, WorldConfig};
use std::hint::black_box;
use std::time::Instant;

/// Mean seconds of `f` over `n` calls.
fn mean_s(n: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed().as_secs_f64() / n as f64
}

/// What the network-substrate and scheduler probes measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetProbes {
    /// One `EncounterGrid::encounters_into` scan of the whole fleet, µs.
    pub encounters_us: f64,
    /// Encounters found over candidate pairs distance-tested.
    pub encounter_hit_ratio: f64,
    /// One `RouteCache::pair` + `ContactPredictor::estimate`, µs.
    pub contact_estimate_us: f64,
    /// One dense-model `Channel::run` at 100 m, µs.
    pub transfer_100m_us: f64,
    /// One dense-model `Channel::run` at 300 m, µs.
    pub transfer_300m_us: f64,
    /// One `EventQueue` push + pop, ns.
    pub sched_push_pop_ns: f64,
}

/// Probes `simnet` and the scheduler on the workload's own trace, fleet
/// size and loss model, with the runtime's default radio.
pub fn net_probes(kind: Kind, fixture: &Fixture) -> NetProbes {
    const FRAMES: usize = 200;
    const TRANSFERS: usize = 20;
    const QUEUE_EVENTS: u64 = 4096;
    const QUEUE_ROUNDS: usize = 50;

    let cfg = RuntimeConfig::default();
    let trace = fixture.trace();
    let dt = 1.0 / trace.fps();
    let active: Vec<usize> = (0..fixture.n_vehicles()).collect();
    let range = cfg.radio.range_m;

    let mut grid = EncounterGrid::new();
    let mut found = Vec::new();
    let (mut hits, mut candidates) = (0u64, 0u64);
    let mut frame = 0usize;
    let encounters_s = mean_s(FRAMES, || {
        let stats = grid.encounters_into(trace, frame as f64 * dt, range, &active, &mut found);
        hits += found.len() as u64;
        candidates += stats.candidates;
        frame += 1;
    });

    let predictor = ContactPredictor::new(
        range,
        cfg.radio.max_retx,
        loss_model(kind, fixture),
        cfg.contact_reference_time,
    );
    let mut routes = RouteCache::new(active.len(), cfg.route_share_samples);
    let mut pairs = 0u64;
    let t0 = Instant::now();
    for frame in 0..FRAMES {
        let t = frame as f64 * dt;
        grid.encounters_into(trace, t, range, &active, &mut found);
        routes.begin_frame();
        for e in &found {
            let (a, b) = routes.pair(trace, e.a, e.b, t, dt);
            black_box(predictor.estimate(a, b, dt));
            pairs += 1;
        }
    }
    // The scan is inside the loop only to supply pairs; take its share out.
    let estimate_s = (t0.elapsed().as_secs_f64() - encounters_s * FRAMES as f64).max(0.0);

    let channel = Channel::new(cfg.radio.clone(), loss_model(kind, fixture));
    let spec = TransferSpec::link(model_wire_bytes(fixture), 15.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7A5F);
    let mut transfer_us = |meters: f32| {
        mean_s(TRANSFERS, || {
            black_box(channel.run(&spec, |_| meters, &mut rng));
        }) * 1e6
    };
    let transfer_100m_us = transfer_us(100.0);
    let transfer_300m_us = transfer_us(300.0);

    let mut queue: EventQueue<u64> = EventQueue::new();
    let queue_s = mean_s(QUEUE_ROUNDS, || {
        let base = queue.now();
        for k in 0..QUEUE_EVENTS {
            // A fixed scatter of future times, as frames schedule sessions.
            queue.push(base + ((k * 2_654_435_761) % 1000) as f64 * 0.5, k);
        }
        while let Some(ev) = queue.pop() {
            black_box(ev);
        }
    });

    NetProbes {
        encounters_us: encounters_s * 1e6,
        encounter_hit_ratio: if candidates == 0 {
            0.0
        } else {
            hits as f64 / candidates as f64
        },
        contact_estimate_us: if pairs == 0 {
            0.0
        } else {
            estimate_s / pairs as f64 * 1e6
        },
        transfer_100m_us,
        transfer_300m_us,
        sched_push_pop_ns: queue_s / QUEUE_EVENTS as f64 * 1e9,
    }
}

/// What the LbChat kernel probes measured, µs per call. All zero on
/// `fleet256_w`, which has no driving data to run them on.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelProbes {
    /// `coreset::construct_with_scratch` over vehicle 0's dataset.
    pub construct_us: f64,
    /// `coreset::reduce` of a doubled coreset back to size.
    pub reduce_us: f64,
    /// `valuation::coreset_loss` of the model on one coreset.
    pub coreset_loss_us: f64,
    /// `PhiCurve::sample` over the configured ψ grid.
    pub phi_sample_us: f64,
    /// `CompressionProblem::solve` (Eq. 7).
    pub solve_us: f64,
    /// `Codec::TopK.apply` at ψ = 0.25.
    pub compress_apply_us: f64,
    /// `Codec::TopK` encode + decode at ψ = 0.25.
    pub wire_roundtrip_us: f64,
    /// `aggregate_sparse_aware` of the model with a compressed peer.
    pub merge_us: f64,
}

/// Probes the LbChat kernels on vehicle 0's dataset and initial model.
pub fn kernel_probes(fixture: &Fixture) -> KernelProbes {
    let Some((scenario, learner, data, cfg)) = kernel_inputs(fixture) else {
        return KernelProbes::default();
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(scenario.scale.seed ^ 0xC0DE);
    let size = cfg.coreset_size;
    let mut scratch = CoresetScratch::new();
    let mut build = |rng: &mut rand::rngs::StdRng| {
        construct_with_scratch(&learner, data, &CoresetConfig { size }, rng, &mut scratch)
    };
    let coreset = build(&mut rng);
    let construct_s = mean_s(5, || {
        black_box(build(&mut rng));
    });

    let mut doubled: Vec<_> = (0..50)
        .map(|_| coreset.clone().merge(coreset.clone()))
        .collect();
    let reduce_s = mean_s(doubled.len(), || {
        if let Some(merged) = doubled.pop() {
            black_box(reduce(merged, size, &mut rng));
        }
    });

    let params = learner.params().clone();
    let coreset_loss_s = mean_s(20, || {
        black_box(coreset_loss(&learner, &params, &coreset, &cfg.penalty));
    });
    let phi = PhiCurve::sample(&learner, &coreset, &cfg.psi_grid, &cfg.penalty);
    let phi_sample_s = mean_s(5, || {
        black_box(PhiCurve::sample(
            &learner,
            &coreset,
            &cfg.psi_grid,
            &cfg.penalty,
        ));
    });
    let problem = CompressionProblem {
        phi_i: &phi,
        phi_j: &phi,
        loss_j_on_ci: phi.uncompressed_loss() * 1.5,
        loss_i_on_cj: phi.uncompressed_loss() * 1.2,
        model_bytes: cfg.model_wire_bytes,
        bandwidth_bps: 31e6,
        time_budget: cfg.time_budget,
        contact: 40.0,
        lambda_c: cfg.lambda_c,
    };
    let solve_s = mean_s(200, || {
        black_box(problem.solve());
    });

    let codec = Codec::TopK;
    let compress_apply_s = mean_s(50, || {
        black_box(codec.apply(&params, 0.25, &mut rng));
    });
    let wire_roundtrip_s = mean_s(50, || {
        let wire = codec.encode(&params, 0.25, &mut rng);
        black_box(wire.decode().expect("a codec decodes what it encoded"));
    });
    let peer = codec.apply(&params, 0.25, &mut rng);
    let merge_s = mean_s(200, || {
        black_box(aggregate_sparse_aware(
            &params,
            1.0,
            &peer,
            0.8,
            AggregationRule::InverseLoss,
        ));
    });

    KernelProbes {
        construct_us: construct_s * 1e6,
        reduce_us: reduce_s * 1e6,
        coreset_loss_us: coreset_loss_s * 1e6,
        phi_sample_us: phi_sample_s * 1e6,
        solve_us: solve_s * 1e6,
        compress_apply_us: compress_apply_s * 1e6,
        wire_roundtrip_us: wire_roundtrip_s * 1e6,
        merge_us: merge_s * 1e6,
    }
}

/// What the closed-loop kernel probes measured, µs per call. All zero on
/// `fleet256_w`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalProbes {
    /// `World::step` at the Navi. (Normal) evaluation traffic level.
    pub step_us: f64,
    /// `rasterize_into` + `features_into` for one ego pose.
    pub bev_us: f64,
    /// `DrivingLearner::predict_into`.
    pub predict_us: f64,
}

/// Probes the three kernels a closed-loop control step is made of, in the
/// evaluation world `harness::eval_config` derives for this scenario.
pub fn eval_probes(fixture: &Fixture) -> EvalProbes {
    let Some((scenario, learner, _, _)) = kernel_inputs(fixture) else {
        return EvalProbes::default();
    };
    let cfg = eval_config(scenario);
    let (cars, pedestrians) = driving::Task::NaviNormal.traffic(cfg.traffic_scale);
    let mut world = World::new(WorldConfig {
        seed: cfg.world_seed,
        n_experts: 0,
        n_background: cars,
        n_pedestrians: pedestrians,
        ..WorldConfig::default()
    });
    let step_s = mean_s(400, || {
        black_box(world.step());
    });

    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.route_seed);
    let route = world.random_route(200.0, &mut rng);
    let first = route.edges[0];
    let pose = Pose {
        pos: world.map().position_on_edge(first, 0.0),
        heading: world.map().tangent_on_edge(first, 0.0).angle(),
    };
    let bev_cfg = world.config().bev.clone();
    let mut bev = Bev::blank(bev_cfg.cells);
    let mut features: Vec<f32> = Vec::new();
    let bev_s = mean_s(400, || {
        let cars = world.car_positions();
        let peds = world.pedestrian_positions();
        let ahead = world.route_polyline_from(&route, 0, 0.0, 60.0);
        rasterize_into(
            &bev_cfg,
            pose,
            5.0,
            world.raster(),
            &cars,
            &peds,
            &ahead,
            &mut bev,
        );
        bev.features_into(bev_cfg.pool, &mut features);
    });

    features.extend(std::iter::repeat(0.5).take(NAV_FEATURES));
    let mut waypoints = Vec::new();
    let mut scratch = vnn::TrainScratch::new();
    let predict_s = mean_s(4000, || {
        learner.predict_into(&features, Command::Follow, &mut waypoints, &mut scratch);
        black_box(&waypoints);
    });

    EvalProbes {
        step_us: step_s * 1e6,
        bev_us: bev_s * 1e6,
        predict_us: predict_s * 1e6,
    }
}
