//! Cross-crate coreset integration: Algorithm 1 on real driving frames.

use driving::{collect_datasets, CollectConfig, DrivingLearner};
use lbchat::coreset::{construct, empirical_epsilon, reduce, CoresetConfig};
use lbchat::Learner;
use rand::SeedableRng;
use simworld::world::{World, WorldConfig};

fn trained_learner_and_data() -> (DrivingLearner, Vec<lbchat::WeightedDataset<driving::Frame>>) {
    let mut world = World::new(WorldConfig::small(31));
    let datasets = collect_datasets(&mut world, &CollectConfig { seconds: 180.0, stride: 1, balance_commands: true });
    let spec = DrivingLearner::spec_for(
        world.config().bev.feature_len(),
        simworld::world::N_WAYPOINTS,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut learner = DrivingLearner::new(&spec, 3e-3, &mut rng);
    // Rotate through the whole dataset so every frame (including the
    // heavily weighted turn frames) is actually fitted.
    let pairs = datasets[0].pairs();
    for step in 0..600 {
        let start = (step * 64) % pairs.len();
        let batch: Vec<_> = pairs
            .iter()
            .cycle()
            .skip(start)
            .take(64)
            .map(|(s, w)| (*s, *w))
            .collect();
        learner.train_step(&batch);
    }
    (learner, datasets)
}

#[test]
fn driving_coreset_approximates_the_dataset() {
    let (learner, datasets) = trained_learner_and_data();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let c = construct(&learner, &datasets[0], &CoresetConfig { size: 100 }, &mut rng);
    assert!(c.len() <= 150, "size near target: {}", c.len());
    let eps = empirical_epsilon(&learner, &c, &datasets[0]);
    assert!(eps < 0.45, "epsilon on driving data: {eps}");
    // Total weight must be preserved (the unbiased-estimator property).
    let rel =
        (c.total_weight() - datasets[0].total_weight()).abs() / datasets[0].total_weight();
    assert!(rel < 0.05, "weight preservation: {rel}");
}

#[test]
fn merge_reduce_keeps_approximating_the_union() {
    let (learner, datasets) = trained_learner_and_data();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let c0 = construct(&learner, &datasets[0], &CoresetConfig { size: 80 }, &mut rng);
    let c1 = construct(&learner, &datasets[1], &CoresetConfig { size: 80 }, &mut rng);
    let reduced = reduce(c0.merge(c1), 80, &mut rng);
    assert_eq!(reduced.len(), 80);

    let mut union = datasets[0].clone();
    for (s, w) in datasets[1].pairs() {
        union.push(s.clone(), w);
    }
    let eps = empirical_epsilon(&learner, &reduced, &union);
    assert!(eps < 0.4, "merge-reduce epsilon on the union: {eps}");
}

#[test]
fn coreset_losses_separate_own_from_foreign_data() {
    // The valuation signal: a model's loss on foreign coresets should
    // (on average) exceed its loss on its own coreset.
    let (learner, datasets) = trained_learner_and_data();
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let pen = lbchat::penalty::PenaltyConfig::none();
    let own_coreset = construct(&learner, &datasets[0], &CoresetConfig { size: 60 }, &mut rng);
    let own = lbchat::valuation::coreset_loss(&learner, learner.params(), &own_coreset, &pen);
    let mut foreign_sum = 0.0f32;
    for d in &datasets[1..] {
        let c = construct(&learner, d, &CoresetConfig { size: 60 }, &mut rng);
        foreign_sum += lbchat::valuation::coreset_loss(&learner, learner.params(), &c, &pen);
    }
    let foreign_avg = foreign_sum / (datasets.len() - 1) as f32;
    assert!(
        foreign_avg > own,
        "foreign data must look harder: own {own} vs foreign avg {foreign_avg}"
    );
}
