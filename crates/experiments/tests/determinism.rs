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
}
