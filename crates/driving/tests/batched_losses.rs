//! Bit identity of the batched loss pass.
//!
//! [`DrivingLearner`] overrides `Learner::losses_with` with one forward-only
//! batch pass through the lane kernel. The trait's contract is that the
//! override equals `loss_with` per sample to the bit, so every consumer that
//! goes through it — valuation, φ, coreset construction, the penalized loss —
//! must give the same values as over [`PerSample`], the same learner with
//! the trait's per-sample default.

use driving::frame::Frame;
use driving::learner::DrivingLearner;
use lbchat::compress::compress_dense;
use lbchat::coreset::{construct_with_scratch, CoresetConfig, CoresetScratch};
use lbchat::penalty::{penalized_loss, PenaltyConfig};
use lbchat::phi::{PhiCurve, DEFAULT_PSI_GRID};
use lbchat::valuation::coreset_loss;
use lbchat::{Learner, TrainStats, WeightedDataset};
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use simworld::expert::Command;
use vnn::ParamVec;

const BEV_FEATURES: usize = 145;
const WAYPOINTS: usize = 5;
const COMMANDS: [Command; 4] = [Command::Follow, Command::Left, Command::Right, Command::Straight];

/// A [`DrivingLearner`] that keeps the per-sample default `losses_with`.
struct PerSample(DrivingLearner);

impl Learner for PerSample {
    type Sample = Frame;

    fn params(&self) -> &ParamVec {
        self.0.params()
    }

    fn set_params(&mut self, params: ParamVec) {
        self.0.set_params(params);
    }

    fn loss_with(&self, params: &ParamVec, sample: &Frame) -> f32 {
        self.0.loss_with(params, sample)
    }

    fn train_step(&mut self, batch: &[(&Frame, f32)]) -> f32 {
        self.0.train_step(batch)
    }

    fn group_of(&self, sample: &Frame) -> usize {
        self.0.group_of(sample)
    }

    fn n_groups(&self) -> usize {
        self.0.n_groups()
    }

    fn take_train_stats(&mut self) -> TrainStats {
        self.0.take_train_stats()
    }
}

/// `n` frames shaped like recorded ones, all of `only`'s command when
/// given, else mixed: each BEV block a count of a 4×4 pooling, zero where
/// `empty(frame, block, rng)` says so; a speed in `[0, 1)`; navigation
/// scalars in `(-1, 1)`, one in four `-0.0`. Negative, off-grid and `-0.0`
/// BEV values cannot be packed into a frame; `vnn`'s property tests cover
/// them over plain input rows.
fn draw(
    n: usize,
    only: Option<Command>,
    rng: &mut rand::rngs::StdRng,
    empty: impl Fn(usize, usize, &mut rand::rngs::StdRng) -> bool,
) -> Vec<Frame> {
    (0..n)
        .map(|k| {
            let mut features: Vec<f32> = (0..BEV_FEATURES - 1)
                .map(|i| {
                    if empty(k, i, rng) {
                        0.0
                    } else {
                        rng.random_range(0..=16u8) as f32 / 16.0
                    }
                })
                .collect();
            features.push(rng.random_range(0.0f32..1.0));
            for _ in 0..driving::frame::NAV_FEATURES {
                features.push(if rng.random_range(0..4) == 0 {
                    -0.0
                } else {
                    rng.random_range(-1.0f32..1.0)
                });
            }
            let command = only.unwrap_or_else(|| COMMANDS[rng.random_range(0..COMMANDS.len())]);
            let waypoints: Vec<f32> =
                (0..2 * WAYPOINTS).map(|_| rng.random_range(-2.0f32..2.0)).collect();
            Frame::pack(&features, 4, command, &waypoints)
        })
        .collect()
}

/// [`draw`] with every block a uniform count: dense input.
fn frames(n: usize, only: Option<Command>, rng: &mut rand::rngs::StdRng) -> Vec<Frame> {
    draw(n, only, rng, |_, _, _| false)
}

/// [`draw`] as sparse as a recorded BEV — five blocks in six empty, the
/// first 20 empty in every frame, every seventh frame empty. What the
/// forward kernel steps over.
fn bev_frames(n: usize, only: Option<Command>, rng: &mut rand::rngs::StdRng) -> Vec<Frame> {
    draw(n, only, rng, |k, i, rng| i < 20 || k % 7 == 6 || rng.random_range(0..6) != 0)
}

/// A driving-scale learner a few steps into training, so losses spread.
fn learner(rng: &mut rand::rngs::StdRng) -> DrivingLearner {
    let spec = DrivingLearner::spec_for(BEV_FEATURES, WAYPOINTS);
    let mut learner = DrivingLearner::new(&spec, 1e-2, rng);
    let data = frames(48, None, rng);
    let batch: Vec<(&Frame, f32)> = data.iter().map(|f| (f, 1.0)).collect();
    for _ in 0..3 {
        learner.train_step(&batch);
    }
    learner
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn losses_with_matches_loss_with_bits(seed in 0u64..1 << 48) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let learner = learner(&mut rng);
        let compressed = compress_dense(learner.params(), 0.2);
        let mut out = vec![-1.0f32; 5];
        for n in [0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 720] {
            for only in [None, Some(COMMANDS[n % COMMANDS.len()])] {
                for data in [frames(n, only, &mut rng), bev_frames(n, only, &mut rng)] {
                    let refs: Vec<&Frame> = data.iter().collect();
                    for params in [learner.params(), &compressed] {
                        learner.losses_with(params, &refs, &mut out);
                        let single: Vec<f32> =
                            data.iter().map(|f| learner.loss_with(params, f)).collect();
                        prop_assert_eq!(bits(&out), bits(&single), "n={} only={:?}", n, only);
                    }
                }
            }
        }
    }

    #[test]
    fn loss_consumers_match_the_per_sample_default(seed in 0u64..1 << 48) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let batched = learner(&mut rng);
        let plain = PerSample(batched.clone());
        let mut recorded = frames(200, None, &mut rng);
        recorded.extend(bev_frames(200, None, &mut rng));
        let dataset = WeightedDataset::uniform(recorded);
        let cfg = CoresetConfig { size: 60 };
        let pen = PenaltyConfig::default();

        // Algorithm 1: the same per-sample losses give the same layers and
        // the same draws — the coreset must match sample for sample.
        let mut scratch = CoresetScratch::new();
        let coreset = construct_with_scratch(
            &batched,
            &dataset,
            &cfg,
            &mut rand::rngs::StdRng::seed_from_u64(seed ^ 1),
            &mut scratch,
        );
        let coreset_plain = construct_with_scratch(
            &plain,
            &dataset,
            &cfg,
            &mut rand::rngs::StdRng::seed_from_u64(seed ^ 1),
            &mut scratch,
        );
        prop_assert_eq!(&coreset, &coreset_plain);
        prop_assert!(coreset.len() < dataset.len());

        let compressed = compress_dense(batched.params(), 0.1);
        for params in [batched.params(), &compressed] {
            prop_assert_eq!(
                coreset_loss(&batched, params, &coreset, &pen).to_bits(),
                coreset_loss(&plain, params, &coreset, &pen).to_bits()
            );
            let pairs = dataset.pairs();
            prop_assert_eq!(
                penalized_loss(&batched, params, &pairs, &pen).to_bits(),
                penalized_loss(&plain, params, &pairs, &pen).to_bits()
            );
        }

        let phi = PhiCurve::sample(&batched, &coreset, DEFAULT_PSI_GRID, &pen);
        let phi_plain = PhiCurve::sample(&plain, &coreset, DEFAULT_PSI_GRID, &pen);
        prop_assert_eq!(bits(&phi.loss), bits(&phi_plain.loss));
        prop_assert_eq!(phi, phi_plain);
    }
}
