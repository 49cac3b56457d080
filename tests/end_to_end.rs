//! End-to-end integration: the full LbChat stack — world generation, data
//! collection, trace playback, chats over the simulated radio, coreset
//! absorption, model aggregation — at quick scale.

use experiments::methods::{lbchat_algorithm, lbchat_config, runtime_config};
use experiments::{run_method, Condition, Method, Scale, Scenario};
use lbchat::prelude::{CollabAlgorithm, ObsSink, Runtime};
use lbchat::Learner;
use vnn::ParamVec;

fn quick_scenario() -> Scenario {
    Scenario::build(Scale::quick())
}

#[test]
fn lbchat_trains_end_to_end() {
    let s = quick_scenario();
    let out = run_method(Method::LbChat, &s, Condition::NoLoss).expect("scenario fits");
    let curve = &out.metrics.loss_curve;
    assert!(curve.len() >= 4, "loss curve must be sampled");
    let first = curve.first().unwrap().1;
    let last = curve.last().unwrap().1;
    assert!(last < first * 0.8, "training must clearly reduce loss: {first} -> {last}");
    assert!(out.metrics.sessions > 0, "vehicles must chat");
    assert!(out.metrics.coreset_receives > 0, "coresets must flow");
    assert!(out.metrics.train_iterations > 0);
}

#[test]
fn lbchat_is_deterministic_per_seed() {
    let s1 = quick_scenario();
    let out1 = run_method(Method::LbChat, &s1, Condition::WithLoss).expect("scenario fits");
    let s2 = quick_scenario();
    let out2 = run_method(Method::LbChat, &s2, Condition::WithLoss).expect("scenario fits");
    assert_eq!(
        out1.metrics.sessions, out2.metrics.sessions,
        "identical seeds must reproduce the run"
    );
    let l1 = out1.metrics.final_loss().unwrap();
    let l2 = out2.metrics.final_loss().unwrap();
    assert!((l1 - l2).abs() < 1e-9, "final losses must match: {l1} vs {l2}");
    assert_eq!(
        out1.representative.params().as_slice(),
        out2.representative.params().as_slice(),
        "the representative models must match bit-for-bit"
    );
    // A cell's result keeps no models, so every vehicle's final model comes
    // from the algorithm run through `Runtime::run` on each scenario with
    // the harness's own configuration.
    let (m1, m2) = (lbchat_models(&s1), lbchat_models(&s2));
    assert_eq!(m1.len(), m2.len());
    for (i, (a, b)) in m1.iter().zip(&m2).enumerate() {
        assert_eq!(bits(a), bits(b), "vehicle {i} model must match bit-for-bit");
    }
}

/// Every vehicle's final model after an LbChat cell under wireless loss.
fn lbchat_models(s: &Scenario) -> Vec<ParamVec> {
    let rt = Runtime::new(runtime_config(s, Condition::WithLoss, ObsSink::disabled()));
    let mut algo = lbchat_algorithm(s, lbchat_config(s));
    rt.run(&mut algo, &s.trace, &s.eval).expect("scenario fits");
    (0..algo.n_nodes()).map(|i| algo.model(i).clone()).collect()
}

fn bits(m: &ParamVec) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn wireless_loss_costs_deliveries_but_not_convergence_robustness() {
    let s = quick_scenario();
    let clean = run_method(Method::LbChat, &s, Condition::NoLoss).expect("scenario fits");
    let lossy = run_method(Method::LbChat, &s, Condition::WithLoss).expect("scenario fits");
    // Deliveries cannot be *better* under loss.
    assert!(
        lossy.metrics.model_receiving_rate() <= clean.metrics.model_receiving_rate() + 1e-9,
        "loss cannot improve delivery"
    );
    // LbChat's route-aware prioritization keeps it training: loss still
    // clearly decreases under wireless loss.
    let curve = &lossy.metrics.loss_curve;
    assert!(curve.last().unwrap().1 < curve.first().unwrap().1 * 0.9);
}

#[test]
fn sco_exchanges_data_but_never_models() {
    let s = quick_scenario();
    let out = run_method(Method::Sco, &s, Condition::NoLoss).expect("scenario fits");
    assert_eq!(out.metrics.model_sends, 0, "SCO must not move model bytes");
    assert!(out.metrics.coreset_receives > 0, "SCO lives on coresets");
    let curve = &out.metrics.loss_curve;
    assert!(curve.last().unwrap().1 < curve.first().unwrap().1, "SCO still learns");
}
