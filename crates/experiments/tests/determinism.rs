//! End-to-end check that the worker pool does not perturb results.
//!
//! The whole PR's contract is that `--jobs` only changes wall time: every
//! work unit seeds its own RNGs, so a serial run and a 4-worker run must
//! produce bit-identical numbers. This is a single `#[test]` because
//! [`lbchat::exec::set_jobs`] is process-global — two tests toggling it
//! concurrently would race.

use experiments::harness::{run_cell_obs, train_and_evaluate_obs};
use experiments::{Condition, Method, Scale, Scenario};
use lbchat::exec;
use lbchat::prelude::{
    Codec, CollabAlgorithm, MediumConfig, Metrics, ObsSink, Runtime, RuntimeConfig, SessionCtx,
    SessionStep, TrainStats,
};
use simnet::channel::{TransferOutcome, TransferSpec};
use simnet::geom::Vec2;
use simnet::trace::MobilityTrace;
use simworld::world::{FleetScale, World, WorldConfig};
use vnn::ParamVec;

/// A minimal streaming protocol over the grid-discovered encounters: one
/// payload per session, re-requested once. Dense enough (parked lattice,
/// several radio neighbors per node) that contention-mode transfer
/// windows shard across the worker pool every frame.
struct GridProbe {
    n: usize,
    params: ParamVec,
}

impl CollabAlgorithm for GridProbe {
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
        Some((0, SessionStep::Transfer(TransferSpec::link(40_000, 1e9))))
    }

    fn session_step(
        &mut self,
        sent: &mut u32,
        out: TransferOutcome,
        ctx: &mut SessionCtx<'_>,
    ) -> SessionStep {
        *sent += 1;
        ctx.metrics.record_coreset_send(out.is_delivered(), 40_000, out.elapsed());
        if out.is_delivered() && *sent < 2 {
            return SessionStep::Transfer(TransferSpec::link(40_000, 1e9));
        }
        SessionStep::Done
    }

    fn session_close(&mut self, _sent: u32, ctx: &mut SessionCtx<'_>) -> f64 {
        ctx.elapsed()
    }

    fn mean_eval_loss(&self, _eval: &[()]) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "grid-probe"
    }
}

/// A contention-mode runtime run over a parked 64-vehicle lattice: every
/// frame the spatial-hash grid discovers encounters and the route cache
/// feeds the contact predictor, then streaming windows shard over
/// [`lbchat::exec`].
fn grid_runtime_metrics() -> Metrics {
    let n = 64usize;
    let fps = 2.0;
    let seconds = 12.0;
    let frames = (seconds * fps) as usize + 1;
    let cols = (n as f64).sqrt().ceil() as usize;
    let positions = (0..n)
        .map(|k| vec![Vec2::new((k % cols) as f32 * 140.0, (k / cols) as f32 * 140.0); frames])
        .collect();
    let trace = MobilityTrace::new(fps, positions);
    let cfg = RuntimeConfig {
        duration: seconds,
        eval_every: seconds,
        pair_cooldown: 1.0,
        seed: 11,
        contention: Some(MediumConfig::default()),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(cfg);
    let mut algo = GridProbe { n, params: ParamVec::zeros(1) };
    rt.run(&mut algo, &trace, &[]).expect("trace fits the probe fleet")
}

#[test]
fn results_are_bit_identical_for_any_job_count() {
    let s = Scenario::build(Scale::quick());

    let cell = || {
        train_and_evaluate_obs(Method::LbChat, &s, Condition::NoLoss, &ObsSink::disabled(), 0)
            .expect("scenario fits")
    };
    exec::set_jobs(1);
    let (serial_rates, serial_out) = cell();

    exec::set_jobs(4);
    let (parallel_rates, parallel_out) = cell();

    exec::set_jobs(1);

    // Success rates per task: exact equality, not approximate.
    assert_eq!(serial_rates, parallel_rates, "per-task success rates must not depend on --jobs");

    // Final per-vehicle models, bit for bit.
    assert_eq!(serial_out.models.len(), parallel_out.models.len());
    for (i, (a, b)) in serial_out.models.iter().zip(&parallel_out.models).enumerate() {
        assert_eq!(a.as_slice(), b.as_slice(), "vehicle {i} model diverged under jobs=4");
    }

    // Training metrics (loss curve drives the figures).
    assert_eq!(
        serial_out.metrics.loss_curve, parallel_out.metrics.loss_curve,
        "loss curve must not depend on --jobs"
    );

    // The codec axis must hold the same contract: stochastic-rounding
    // codecs draw from per-session RNGs only, so swapping the codec
    // cannot reintroduce a jobs dependence. Training-only cells (no
    // closed-loop eval) keep this arm cheap.
    let mut s_codec = Scenario::build(Scale::quick());
    s_codec.scale.codec = Codec::Int8;
    exec::set_jobs(1);
    let a = run_cell_obs(Method::LbChat, &s_codec, Condition::WithLoss, &ObsSink::disabled(), 0)
        .expect("scenario fits");
    exec::set_jobs(4);
    let b = run_cell_obs(Method::LbChat, &s_codec, Condition::WithLoss, &ObsSink::disabled(), 0)
        .expect("scenario fits");
    exec::set_jobs(1);
    assert_eq!(
        a.metrics.loss_curve, b.metrics.loss_curve,
        "int8 codec loss curve must not depend on --jobs"
    );
    for (i, (ma, mb)) in a.models.iter().zip(&b.models).enumerate() {
        assert_eq!(ma.as_slice(), mb.as_slice(), "vehicle {i} model diverged under jobs=4 (int8 codec)");
    }

    // The city-scale world holds the same contract at 100 000 fleet
    // vehicles: the tick's intent phase shards over the worker pool, so a
    // serial and a 4-worker run must agree on every position bit. Spawn
    // staggers mean thousands of fleet vehicles are driving within the
    // first stepped window.
    let fleet_cfg = WorldConfig::with_fleet(7, FleetScale::K100);
    exec::set_jobs(1);
    let mut w1 = World::new(fleet_cfg.clone());
    for _ in 0..20 {
        w1.step();
    }
    exec::set_jobs(4);
    let mut w4 = World::new(fleet_cfg);
    for _ in 0..20 {
        w4.step();
    }
    exec::set_jobs(1);
    let (p1, p4) = (w1.car_positions(), w4.car_positions());
    assert_eq!(p1.len(), p4.len(), "driving-vehicle count diverged under jobs=4");
    assert!(p1.len() > 32 + 50, "fleet vehicles must be driving by tick 20");
    for (i, (a, b)) in p1.iter().zip(&p4).enumerate() {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "car {i} x diverged under jobs=4 at 100k fleet");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "car {i} y diverged under jobs=4 at 100k fleet");
    }
    let (e1, e4) = (w1.pedestrian_positions(), w4.pedestrian_positions());
    for (i, (a, b)) in e1.iter().zip(&e4).enumerate() {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "ped {i} x diverged under jobs=4");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "ped {i} y diverged under jobs=4");
    }

    // A grid-enabled runtime cell holds the contract too: encounter
    // discovery through the spatial hash and route sampling through the
    // per-frame cache feed a contention-mode run whose transfer windows
    // shard over the pool — metrics must still be independent of --jobs.
    exec::set_jobs(1);
    let m1 = grid_runtime_metrics();
    exec::set_jobs(4);
    let m4 = grid_runtime_metrics();
    exec::set_jobs(1);
    assert!(m1.sessions > 0, "the lattice fleet must open sessions");
    assert_eq!(m1.sessions, m4.sessions, "session count diverged under jobs=4 (grid runtime)");
    assert_eq!(
        m1.bytes_delivered, m4.bytes_delivered,
        "delivered bytes diverged under jobs=4 (grid runtime)"
    );
    assert_eq!(
        m1.comm_seconds.to_bits(),
        m4.comm_seconds.to_bits(),
        "airtime diverged under jobs=4 (grid runtime)"
    );
    assert_eq!(m1.loss_curve, m4.loss_curve, "loss curve diverged under jobs=4 (grid runtime)");
}
