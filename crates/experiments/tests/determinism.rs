//! End-to-end check that the worker pool does not perturb results.
//!
//! The whole PR's contract is that `--jobs` only changes wall time: every
//! work unit seeds its own RNGs, so a serial run and a 4-worker run must
//! produce bit-identical numbers. This is a single `#[test]` because
//! [`lbchat::exec::set_jobs`] is process-global — two tests toggling it
//! concurrently would race.

use experiments::harness::train_and_evaluate_obs;
use experiments::methods::{lbchat_algorithm, lbchat_config, runtime_config};
use experiments::{run_method, Condition, Method, Scale, Scenario};
use lbchat::exec;
use lbchat::prelude::{CollabAlgorithm, ObsSink, Runtime};
use lbchat::Learner;
use vnn::ParamVec;

/// Every vehicle's final model after an LbChat cell under `condition`. A
/// cell's result keeps no models, so this runs the algorithm itself through
/// [`Runtime::run`] with the configuration the harness uses.
fn lbchat_models(s: &Scenario, condition: Condition) -> Vec<ParamVec> {
    let rt = Runtime::new(runtime_config(s, condition, ObsSink::disabled()));
    let mut algo = lbchat_algorithm(s, lbchat_config(s));
    rt.run(&mut algo, &s.trace, &s.eval).expect("scenario fits");
    (0..algo.n_nodes()).map(|i| algo.model(i).clone()).collect()
}

fn bits(m: &ParamVec) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn results_are_bit_identical_for_any_job_count() {
    let s = Scenario::build(Scale::quick());

    let cell = || {
        train_and_evaluate_obs(Method::LbChat, &s, Condition::NoLoss, &ObsSink::disabled(), 0)
            .expect("scenario fits")
    };
    exec::set_jobs(1);
    let serial = cell();

    exec::set_jobs(4);
    let parallel = cell();

    exec::set_jobs(1);

    // Success rates per task: exact equality, not approximate.
    assert_eq!(serial.rates, parallel.rates, "per-task success rates must not depend on --jobs");

    // Training metrics (loss curve drives the figures).
    assert_eq!(
        serial.metrics.loss_curve, parallel.metrics.loss_curve,
        "loss curve must not depend on --jobs"
    );

    // Final per-vehicle models, bit for bit, under both conditions; the
    // radio of the lossy one draws packet outcomes from per-session RNGs.
    for condition in [Condition::NoLoss, Condition::WithLoss] {
        exec::set_jobs(1);
        let serial_models = lbchat_models(&s, condition);
        exec::set_jobs(4);
        let parallel_models = lbchat_models(&s, condition);
        exec::set_jobs(1);
        assert_eq!(serial_models.len(), parallel_models.len());
        for (i, (a, b)) in serial_models.iter().zip(&parallel_models).enumerate() {
            assert_eq!(bits(a), bits(b), "vehicle {i} model diverged under jobs=4 ({condition:?})");
        }
        // The direct run is the harness's: its vehicle 0 is the
        // representative the closed-loop evaluation drives.
        let out = run_method(Method::LbChat, &s, condition).expect("scenario fits");
        assert_eq!(
            bits(out.representative.params()),
            bits(&serial_models[0]),
            "the direct run left the harness's configuration ({condition:?})"
        );
    }

    // The loss-curve contract under wireless loss. Training-only runs (no
    // closed-loop eval) keep this arm cheap.
    exec::set_jobs(1);
    let a = run_method(Method::LbChat, &s, Condition::WithLoss).expect("scenario fits").metrics;
    exec::set_jobs(4);
    let b = run_method(Method::LbChat, &s, Condition::WithLoss).expect("scenario fits").metrics;
    exec::set_jobs(1);
    assert_eq!(a.loss_curve, b.loss_curve, "lossy-radio loss curve must not depend on --jobs");
}
