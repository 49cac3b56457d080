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
use lbchat::prelude::ObsSink;
use simworld::world::{FleetScale, World, WorldConfig};

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

    // The same contract under wireless loss, where the radio draws packet
    // outcomes from per-session RNGs. Training-only cells (no closed-loop
    // eval) keep this arm cheap.
    exec::set_jobs(1);
    let a = run_cell_obs(Method::LbChat, &s, Condition::WithLoss, &ObsSink::disabled(), 0)
        .expect("scenario fits");
    exec::set_jobs(4);
    let b = run_cell_obs(Method::LbChat, &s, Condition::WithLoss, &ObsSink::disabled(), 0)
        .expect("scenario fits");
    exec::set_jobs(1);
    assert_eq!(
        a.metrics.loss_curve, b.metrics.loss_curve,
        "lossy-radio loss curve must not depend on --jobs"
    );
    for (i, (ma, mb)) in a.models.iter().zip(&b.models).enumerate() {
        assert_eq!(ma.as_slice(), mb.as_slice(), "vehicle {i} model diverged under jobs=4 (wireless loss)");
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
}
