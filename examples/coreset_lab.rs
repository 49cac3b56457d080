//! Coreset laboratory: explore the coreset machinery on real driving data.
//!
//! Demonstrates (1) layered-sampling construction and its empirical ε at
//! several sizes, (2) the approximation holding for *perturbed* models (the
//! CnB ball of Def. II.1), (3) merge-and-reduce maintenance, and (4) why
//! coresets reveal data difference — the valuation signal at the heart of
//! LbChat.
//!
//! Run with: `cargo run --release --example coreset_lab`

use driving::{collect_datasets, CollectConfig, DrivingLearner};
use lbchat::coreset::{construct, empirical_epsilon, reduce, CoresetConfig};
use lbchat::penalty::PenaltyConfig;
use lbchat::valuation::coreset_loss;
use lbchat::config::BATCH_SIZE;
use lbchat::{Learner, Vehicle};
use rand::SeedableRng;
use simworld::world::{World, WorldConfig};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    eprintln!("collecting driving data...");
    let mut world = World::new(WorldConfig::small(21));
    let datasets = collect_datasets(&mut world, &CollectConfig { seconds: 240.0, stride: 1, balance_commands: true });

    // Train a model so per-sample losses are informative.
    let spec = DrivingLearner::spec_for(
        world.config().bev.feature_len(),
        simworld::world::N_WAYPOINTS,
    );
    let learner = DrivingLearner::new(&spec, 3e-3, &mut rng);
    let data = &datasets[0];
    eprintln!("training a reference model on vehicle 0's {} frames...", data.len());
    let mut vehicle = Vehicle::fleet(vec![learner], vec![data.clone()], BATCH_SIZE, |n| n).remove(0);
    vehicle.train(600, &mut rng, |_, _, _| {});
    let learner = vehicle.learner;

    // --- 1. Size vs approximation quality. ---
    println!("coreset size vs empirical epsilon (|D| = {}):", data.len());
    for size in [10, 25, 50, 100, 200] {
        let c = construct(&learner, data, &CoresetConfig { size }, &mut rng);
        let eps = empirical_epsilon(&learner, &c, data);
        println!("  |C| = {:>3}  eps = {:.4}", c.len(), eps);
    }

    // --- 2. The approximation holds for nearby models too. ---
    let c = construct(&learner, data, &CoresetConfig { size: 100 }, &mut rng);
    let mut perturbed = learner.clone();
    {
        let mut p = perturbed.params().clone();
        let scale = 0.05 * p.l2_norm() / (p.len() as f32).sqrt();
        for (i, v) in p.as_mut_slice().iter_mut().enumerate() {
            *v += scale * (((i * 2654435761) % 1000) as f32 / 500.0 - 1.0);
        }
        perturbed.set_params(p);
    }
    println!("\nepsilon under the construction model : {:.4}", empirical_epsilon(&learner, &c, data));
    println!("epsilon under a perturbed model      : {:.4}", empirical_epsilon(&perturbed, &c, data));

    // --- 3. Merge-and-reduce. ---
    let c2 = construct(&learner, &datasets[1], &CoresetConfig { size: 100 }, &mut rng);
    let merged = c.clone().merge(c2);
    let reduced = reduce(merged.clone(), 100, &mut rng);
    println!("\nmerge-and-reduce: |C1 u C2| = {} -> |reduce| = {} (total weight {:.0} -> {:.0})",
        merged.len(), reduced.len(), merged.total_weight(), reduced.total_weight());

    // --- 4. Coresets reveal data difference. ---
    let pen = PenaltyConfig::none();
    println!("\nmodel-of-vehicle-0's loss on every vehicle's coreset:");
    for (i, d) in datasets.iter().enumerate() {
        let ci = construct(&learner, d, &CoresetConfig { size: 60 }, &mut rng);
        let l = coreset_loss(&learner, learner.params(), &ci, &pen);
        println!("  vehicle {i}: f(x0; C{i}) = {:.4}{}", l, if i == 0 { "  <- own data" } else { "" });
    }
    println!("\nhigher loss on a peer's coreset = more different data = more valuable peer model.");
}
