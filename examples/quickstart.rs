//! Quickstart: one pairwise "chat" between two vehicles, step by step.
//!
//! Builds two vehicles with *different* driving experience (different
//! routes in the same world), then walks through the LbChat pipeline:
//! coreset construction → mutual valuation on exchanged coresets → φ
//! sampling → Eq. (7) compression optimization → model exchange → Eq. (8)
//! aggregation → dataset expansion.
//!
//! Run with: `cargo run --release --example quickstart`

use driving::{collect_datasets, CollectConfig, DrivingLearner};
use lbchat::coreset::{construct, empirical_epsilon, CoresetConfig};
use lbchat::optimize::CompressionProblem;
use lbchat::penalty::PenaltyConfig;
use lbchat::phi::{PhiCurve, DEFAULT_PSI_GRID};
use lbchat::valuation::{coreset_loss, peer_model_value};
use lbchat::{aggregate, Learner};
use rand::SeedableRng;
use simworld::world::{World, WorldConfig};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // --- Two vehicles collect data on their own routes. ---
    println!("collecting route-conditioned data for two vehicles...");
    let mut world = World::new(WorldConfig::small(7));
    let mut datasets = collect_datasets(&mut world, &CollectConfig { seconds: 180.0, stride: 1, balance_commands: true });
    let data_b = datasets.swap_remove(1);
    let data_a = datasets.swap_remove(0);
    println!("  vehicle A: {} frames   vehicle B: {} frames", data_a.len(), data_b.len());

    // --- Each trains a local model on its own data. ---
    let spec = DrivingLearner::spec_for(
        world.config().bev.feature_len(),
        simworld::world::N_WAYPOINTS,
    );
    let mut init_rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut learner_a = DrivingLearner::new(&spec, 3e-3, &mut init_rng);
    let mut init_rng = rand::rngs::StdRng::seed_from_u64(99); // same init!
    let mut learner_b = DrivingLearner::new(&spec, 3e-3, &mut init_rng);
    println!("training local models ({} parameters each)...", learner_a.params().len());
    for _ in 0..400 {
        let batch_a: Vec<_> = data_a.pairs().into_iter().take(64).collect();
        let batch_b: Vec<_> = data_b.pairs().into_iter().take(64).collect();
        learner_a.train_step(&batch_a);
        learner_b.train_step(&batch_b);
    }

    // --- Step 1: coreset construction (Algorithm 1). ---
    let cfg = CoresetConfig { size: 40 };
    let coreset_a = construct(&learner_a, &data_a, &cfg, &mut rng);
    let coreset_b = construct(&learner_b, &data_b, &cfg, &mut rng);
    println!("\ncoresets: A has {} samples (eps = {:.3}), B has {} samples (eps = {:.3})",
        coreset_a.len(),
        empirical_epsilon(&learner_a, &coreset_a, &data_a),
        coreset_b.len(),
        empirical_epsilon(&learner_b, &coreset_b, &data_b),
    );

    // --- Step 2: exchange coresets, evaluate mutually. ---
    let pen = PenaltyConfig::default();
    let a_on_cb = coreset_loss(&learner_a, learner_a.params(), &coreset_b, &pen);
    let b_on_cb = coreset_loss(&learner_b, learner_b.params(), &coreset_b, &pen);
    let b_on_ca = coreset_loss(&learner_b, learner_b.params(), &coreset_a, &pen);
    let a_on_ca = coreset_loss(&learner_a, learner_a.params(), &coreset_a, &pen);
    println!("\nmutual valuation:");
    println!("  A's model on B's coreset: {a_on_cb:.4}  (B's own: {b_on_cb:.4})");
    println!("  -> value of B's model to A: {:.4}", peer_model_value(a_on_cb, b_on_cb));
    println!("  B's model on A's coreset: {b_on_ca:.4}  (A's own: {a_on_ca:.4})");
    println!("  -> value of A's model to B: {:.4}", peer_model_value(b_on_ca, a_on_ca));

    // --- Step 3: phi curves + Eq. (7) compression optimization. ---
    let phi_a = PhiCurve::sample(&learner_a, &coreset_a, DEFAULT_PSI_GRID, &pen);
    let phi_b = PhiCurve::sample(&learner_b, &coreset_b, DEFAULT_PSI_GRID, &pen);
    let problem = CompressionProblem {
        phi_i: &phi_a,
        phi_j: &phi_b,
        loss_j_on_ci: b_on_ca,
        loss_i_on_cj: a_on_cb,
        model_bytes: 52 * 1024 * 1024,
        bandwidth_bps: 31e6,
        time_budget: 15.0,
        contact: 40.0, // predicted from shared routes in the full system
        lambda_c: 0.01,
    };
    let choice = problem.solve();
    println!("\nEq. (7) compression choice:");
    println!("  psi_A = {:.3}, psi_B = {:.3}, transfer time = {:.1}s", choice.psi_i, choice.psi_j, choice.transfer_time);

    // --- Step 4: exchange compressed models, aggregate (Eq. 8). ---
    // The optimizer gave A's model the bandwidth (psi_A > 0): B receives
    // A's top-k-compressed model and merges it with loss-derived weights on
    // the joint coreset view, support-aware (untransmitted components keep
    // B's local values).
    let a_compressed = lbchat::compress::compress_dense(learner_a.params(), choice.psi_i);
    let joint: Vec<_> = coreset_a.pairs().into_iter().chain(coreset_b.pairs()).collect();
    let own_loss = lbchat::penalty::penalized_loss(&learner_b, learner_b.params(), &joint, &pen);
    let peer_loss = lbchat::penalty::penalized_loss(&learner_b, &a_compressed, &joint, &pen);
    let merged = aggregate::aggregate_sparse_aware(
        learner_b.params(),
        own_loss,
        &a_compressed,
        peer_loss,
        aggregate::AggregationRule::InverseLoss,
    );
    println!("\nEq. (8) aggregation on the joint coreset view (B receives A's model):");
    println!("  B's own loss {own_loss:.4} vs received A-model loss {peer_loss:.4}");
    let before = coreset_loss(&learner_b, learner_b.params(), &coreset_a, &pen);
    learner_b.set_params(merged);
    let after = coreset_loss(&learner_b, learner_b.params(), &coreset_a, &pen);
    println!("  B's loss on A's coreset: {before:.4} -> {after:.4} after merging");

    // --- Step 5: dataset expansion. ---
    let mut expanded = data_a.clone();
    expanded.absorb(&coreset_b);
    println!("\nA's dataset: {} -> {} frames after absorbing B's coreset", data_a.len(), expanded.len());
    let _ = learner_a; // A's side of the merge is symmetric when psi_B > 0
    println!("\ndone — this whole exchange costs ~1.2 MB of coreset traffic before any model bytes move.");
}
