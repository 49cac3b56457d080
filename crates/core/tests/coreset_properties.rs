//! Property tests pinning the optimized coreset paths to the pinned
//! reference implementations and to the invariants Algorithm 1 promises:
//! bit-identical output, total-weight preservation, a documented size
//! bound, and fixed-seed determinism (including scratch-buffer reuse).

mod reference;

use lbchat::coreset::{
    construct, construct_with_scratch, reduce, CoresetConfig, CoresetScratch,
};
use lbchat::{Learner, WeightedDataset};
use proptest::prelude::*;
use rand::SeedableRng;
use vnn::ParamVec;

/// A line-fitting learner: deterministic per-sample losses with enough
/// spread that the loss-layering in Algorithm 1 populates several layers.
#[derive(Debug, Clone)]
struct Line(ParamVec);

impl Line {
    fn unit() -> Self {
        Line(ParamVec::from_vec(vec![1.0, 0.0]))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Pt(f32, f32);

impl Learner for Line {
    type Sample = Pt;
    fn params(&self) -> &ParamVec {
        &self.0
    }
    fn set_params(&mut self, p: ParamVec) {
        self.0 = p;
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

fn dataset_strategy() -> impl Strategy<Value = WeightedDataset<Pt>> {
    prop::collection::vec(((-10.0f32..10.0, -10.0f32..10.0), 0.1f32..20.0), 20..400).prop_map(
        |rows| {
            let (samples, weights): (Vec<Pt>, Vec<f32>) =
                rows.into_iter().map(|((x, y), w)| (Pt(x, y), w)).unzip();
            WeightedDataset::new(samples, weights)
        },
    )
}

/// The documented size bound: the per-layer quota is
/// `round(budget · share)` clamped to `[1, layer.len()]`, so each nonempty
/// layer can overshoot its share by at most one sample. With
/// `ceil(log2(n + 1)) + 1` possible layers, the result never exceeds
/// `max(size, n_layers) + n_layers` (and never `n`).
fn size_bound(n: usize, size: usize) -> usize {
    let n_layers = ((n + 1) as f32).log2().ceil() as usize + 1;
    size.max(n_layers) + n_layers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn construct_matches_reference_bit_for_bit(
        data in dataset_strategy(),
        size in 1usize..120,
        seed in 0u64..1_000,
    ) {
        let learner = Line::unit();
        let cfg = CoresetConfig { size };
        let fast = construct(
            &learner, &data, &cfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let slow = reference::construct(
            &learner, &data, &cfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(fast.samples(), slow.samples());
        prop_assert_eq!(fast.weights(), slow.weights());
    }

    #[test]
    fn reduce_matches_reference_bit_for_bit(
        data in dataset_strategy(),
        target in 1usize..80,
        seed in 0u64..1_000,
    ) {
        let c = data.clone();
        let fast = reduce(c.clone(), target, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let slow = reference::reduce(c, target, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(fast.samples(), slow.samples());
        prop_assert_eq!(fast.weights(), slow.weights());
    }

    #[test]
    fn construct_preserves_total_weight(
        data in dataset_strategy(),
        size in 1usize..120,
        seed in 0u64..1_000,
    ) {
        let learner = Line::unit();
        let c = construct(
            &learner,
            &data,
            &CoresetConfig { size },
            &mut rand::rngs::StdRng::seed_from_u64(seed),
        );
        let total = data.weights().iter().sum::<f32>();
        let rel = (c.total_weight() - total).abs() / total;
        prop_assert!(rel < 1e-3, "total weight drifted by {} (n={} size={})", rel, data.len(), size);
    }

    #[test]
    fn construct_respects_size_bound(
        data in dataset_strategy(),
        size in 1usize..120,
        seed in 0u64..1_000,
    ) {
        let learner = Line::unit();
        let c = construct(
            &learner,
            &data,
            &CoresetConfig { size },
            &mut rand::rngs::StdRng::seed_from_u64(seed),
        );
        let n = data.len();
        prop_assert!(c.len() <= n, "coreset larger than the dataset");
        prop_assert!(
            c.len() <= size_bound(n, size),
            "len {} exceeds bound {} (n={} size={})",
            c.len(),
            size_bound(n, size),
            n,
            size
        );
    }

    #[test]
    fn construct_is_deterministic_under_fixed_seed_and_scratch_reuse(
        data in dataset_strategy(),
        size in 1usize..120,
        seed in 0u64..1_000,
    ) {
        let learner = Line::unit();
        let cfg = CoresetConfig { size };
        let fresh = construct_with_scratch(
            &learner, &data, &cfg, &mut rand::rngs::StdRng::seed_from_u64(seed),
            &mut CoresetScratch::new());
        // A scratch dirtied by an unrelated call must not leak state.
        let mut scratch = CoresetScratch::new();
        let other = WeightedDataset::uniform(
            (0..57).map(|i| Pt(i as f32, -(i as f32))).collect());
        construct_with_scratch(
            &learner, &other, &CoresetConfig { size: 9 },
            &mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xdead),
            &mut scratch,
        );
        let reused = construct_with_scratch(
            &learner, &data, &cfg,
            &mut rand::rngs::StdRng::seed_from_u64(seed), &mut scratch);
        prop_assert_eq!(fresh.samples(), reused.samples());
        prop_assert_eq!(fresh.weights(), reused.weights());
    }
}
