//! The [`lbchat::Learner`] implementation for the driving task.
//!
//! Training runs through the batched `vnn` kernels on the calling thread:
//! [`BranchedPolicy::train_batch`] trains each minibatch in fixed
//! [`vnn::SHARD`]-sized gradient shards through a reusable [`TrainScratch`]
//! arena, adding the partials in shard order, and a fused scaled SGD step
//! applies the sum — bit-identical to folding per-sample
//! [`BranchedPolicy::loss_and_grad`] gradients shard by shard. A step spawns
//! no thread: the worker pool fans out over cells, tasks and trials, which
//! already fill it.
//!
//! The arena belongs to the thread, not to the learner: a fleet's learners
//! take turns on whichever thread runs their node, one step at a time, and
//! nothing an arena holds outlives a call (see [`TrainScratch`]) — so a
//! thread keeps one, every learner it steps borrows it, and a learner is
//! just what differs between vehicles: parameters, optimizer state and the
//! lazily frozen policy.

use crate::frame::Frame;
use lbchat::{Learner, TrainStats};
use rand::Rng;
use simworld::expert::Command;
use std::cell::RefCell;
use std::sync::OnceLock;
use vnn::{
    BatchSource, BranchedPolicy, FrozenPolicy, ParamVec, PolicySpec, Sgd, TrainScratch,
};

/// A minibatch view over the `(frame, weight)` pairs the [`Learner`] trait
/// hands to [`DrivingLearner::train_step`]; each frame decodes its input
/// straight into the staged batch.
struct FrameBatch<'a, 'b>(&'a [(&'b Frame, f32)]);

impl BatchSource for FrameBatch<'_, '_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn input_into(&self, i: usize, row: &mut [f32]) {
        self.0[i].0.input_into(row);
    }

    fn branch(&self, i: usize) -> usize {
        self.0[i].0.command.index()
    }

    fn target(&self, i: usize) -> &[f32] {
        self.0[i].0.waypoints()
    }

    fn weight(&self, i: usize) -> f32 {
        self.0[i].1
    }
}

/// A forward-only view over the frames [`Learner::losses_with`] is handed;
/// the loss pass reads no weights.
struct FrameRefs<'a, 'b>(&'a [&'b Frame]);

impl BatchSource for FrameRefs<'_, '_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn input_into(&self, i: usize, row: &mut [f32]) {
        self.0[i].input_into(row);
    }

    fn branch(&self, i: usize) -> usize {
        self.0[i].command.index()
    }

    fn target(&self, i: usize) -> &[f32] {
        self.0[i].waypoints()
    }

    fn weight(&self, _: usize) -> f32 {
        1.0
    }
}

thread_local! {
    /// This thread's training arena: [`Learner::train_step`] trains its
    /// shards one after another through it and leaves the summed gradient
    /// there, [`Learner::losses_with`] stages a loss pass in it. One shard
    /// wide at any batch size; freed when the thread ends.
    static ARENA: RefCell<TrainScratch> = RefCell::new(TrainScratch::new());

    /// The input row a per-sample [`Learner::loss_with`] decodes its frame
    /// into.
    static INPUT: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Heap bytes the calling thread's training arena holds — zero before the
/// thread's first [`Learner::train_step`] or [`Learner::losses_with`], and
/// steady once it has seen its largest batch, however many learners share
/// it.
pub fn arena_bytes() -> usize {
    ARENA.with_borrow(TrainScratch::heap_bytes)
}

/// A command-branched waypoint regressor + SGD optimizer, implementing the
/// [`Learner`] interface LbChat trains through.
///
/// Owns only what is this vehicle's: the parameters, the optimizer's
/// velocity, the step counters its node drains, and the frozen snapshot
/// [`DrivingLearner::predict_into`] answers from. Training scratch is the
/// thread's (see the module docs), so a clone costs two parameter-sized
/// buffers and a fleet of learners costs that per vehicle.
#[derive(Debug, Clone)]
pub struct DrivingLearner {
    policy: BranchedPolicy,
    opt: Sgd,
    /// Steps taken since the last [`Learner::take_train_stats`].
    stats: TrainStats,
    /// `policy` in the form [`DrivingLearner::predict_into`] answers from,
    /// built on first use; `train_step` and `set_params` — the only two
    /// places the parameters change — drop it.
    frozen: OnceLock<FrozenPolicy>,
}

impl DrivingLearner {
    /// Builds a learner with Xavier initialization from `rng`.
    ///
    /// All vehicles must construct their learner from identically seeded
    /// RNGs — the paper assumes "the models on vehicles have the same
    /// initialization".
    pub fn new<R: Rng + ?Sized>(spec: &PolicySpec, lr: f32, rng: &mut R) -> Self {
        Self {
            policy: BranchedPolicy::new(spec, rng),
            opt: Sgd::new(lr, 0.9, 1e-5),
            stats: TrainStats::default(),
            frozen: OnceLock::new(),
        }
    }

    /// The policy architecture for a given *BEV* feature length and
    /// waypoint count; the input dimension includes the
    /// [`crate::frame::NAV_FEATURES`] navigation scalars every [`Frame`]
    /// appends.
    pub fn spec_for(bev_feature_len: usize, n_waypoints: usize) -> PolicySpec {
        PolicySpec {
            input_dim: bev_feature_len + crate::frame::NAV_FEATURES,
            trunk: vec![96, 64],
            n_branches: Command::COUNT,
            waypoints: n_waypoints,
            // The navigation scalars skip straight into every head.
            skip_inputs: crate::frame::NAV_FEATURES,
        }
    }

    /// The underlying policy (for closed-loop driving).
    pub fn policy(&self) -> &BranchedPolicy {
        &self.policy
    }

    /// Predicted waypoints for `features` under `command`.
    pub fn predict(&self, features: &[f32], command: Command) -> Vec<f32> {
        self.policy.forward(features, command.index())
    }

    /// [`DrivingLearner::predict`] into a caller-owned buffer — the one
    /// batch-of-one entry point, which the closed-loop evaluator calls once
    /// per control tick; no allocation after the first call.
    ///
    /// # Contract
    /// Bit-identical to [`DrivingLearner::predict`] under the current
    /// parameters, for finite parameters and inputs (see [`FrozenPolicy`]).
    /// The first call after construction, [`Learner::train_step`] or
    /// [`Learner::set_params`] freezes the policy — one pass over the
    /// parameters — and every later call answers from that snapshot; a
    /// clone carries its own copy.
    pub fn predict_into(
        &self,
        features: &[f32],
        command: Command,
        out: &mut Vec<f32>,
        scratch: &mut TrainScratch,
    ) {
        self.frozen().forward_into(features, command.index(), out, scratch);
    }

    /// The frozen form of the current parameters, built if need be.
    pub(crate) fn frozen(&self) -> &FrozenPolicy {
        self.frozen.get_or_init(|| self.policy.freeze())
    }
}

impl Learner for DrivingLearner {
    type Sample = Frame;

    fn params(&self) -> &ParamVec {
        self.policy.params()
    }

    fn set_params(&mut self, params: ParamVec) {
        self.frozen.take();
        self.policy.set_params(params);
    }

    /// In place: the default's bits without its parameter copy.
    fn add_scaled_params(&mut self, alpha: f32, v: &ParamVec) {
        self.frozen.take();
        self.policy.params_mut().axpy(alpha, v);
    }

    fn loss_with(&self, params: &ParamVec, sample: &Frame) -> f32 {
        INPUT.with_borrow_mut(|input| {
            sample.features_into(input);
            self.policy.loss_with(params, input, sample.command.index(), sample.waypoints())
        })
    }

    /// One forward-only batch pass through the lane kernel instead of
    /// `samples.len()` allocating per-sample forwards; bit-identical to them
    /// (see [`BranchedPolicy::losses_with`]).
    fn losses_with(&self, params: &ParamVec, samples: &[&Frame], out: &mut Vec<f32>) {
        ARENA.with_borrow_mut(|arena| {
            self.policy.losses_with(params, &FrameRefs(samples), out, arena);
        });
    }

    fn train_step(&mut self, batch: &[(&Frame, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        self.frozen.take();
        let Self { policy, opt, stats, .. } = self;
        ARENA.with_borrow_mut(|arena| {
            let out = policy.train_batch(&FrameBatch(batch), arena);
            stats.merge(arena.take_stats());
            // Fused normalization: the gradient is Σ w·g, divided by Σ w
            // inside the optimizer step (bit-identical to a separate
            // scaling pass).
            let inv = 1.0 / out.weight_sum;
            opt.step_scaled(policy.params_mut().as_mut_slice(), arena.grad(), inv);
            out.loss_sum * inv
        })
    }

    fn group_of(&self, sample: &Frame) -> usize {
        sample.command.index()
    }

    fn n_groups(&self) -> usize {
        Command::COUNT
    }

    fn on_params_replaced(&mut self) {
        self.opt.reset_momentum();
    }

    fn take_train_stats(&mut self) -> TrainStats {
        self.stats.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Seven BEV blocks a quarter full, then the speed and the two
    /// navigation scalars.
    fn frame(cmd: Command, target: f32) -> Frame {
        Frame::pack(&[0.25; 10], 4, cmd, &[target; 6])
    }

    fn learner(seed: u64) -> DrivingLearner {
        let spec = PolicySpec { input_dim: 10, trunk: vec![16, 12], n_branches: 4, waypoints: 3, skip_inputs: 2 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        DrivingLearner::new(&spec, 5e-3, &mut rng)
    }

    #[test]
    fn identical_seeds_give_identical_models() {
        assert_eq!(learner(1).params(), learner(1).params());
    }

    #[test]
    fn training_reduces_loss() {
        let mut l = learner(2);
        let f = frame(Command::Left, 0.5);
        let before = l.loss(&f);
        for _ in 0..200 {
            l.train_step(&[(&f, 1.0)]);
        }
        assert!(l.loss(&f) < before * 0.2, "{} -> {}", before, l.loss(&f));
    }

    #[test]
    fn weighted_samples_pull_harder() {
        // Two conflicting targets for the same input: the heavier one wins.
        let mut l = learner(3);
        let a = frame(Command::Follow, 1.0);
        let b = frame(Command::Follow, -1.0);
        for _ in 0..300 {
            l.train_step(&[(&a, 9.0), (&b, 1.0)]);
        }
        let mut features = Vec::new();
        a.features_into(&mut features);
        let pred = l.predict(&features, Command::Follow);
        assert!(pred[0] > 0.4, "heavily weighted target should dominate: {}", pred[0]);
    }

    #[test]
    fn group_is_the_command() {
        let l = learner(4);
        assert_eq!(l.group_of(&frame(Command::Right, 0.0)), Command::Right.index());
        assert_eq!(l.n_groups(), 4);
    }

    #[test]
    fn set_params_roundtrip() {
        let mut l = learner(5);
        let zeros = ParamVec::zeros(l.params().len());
        l.set_params(zeros.clone());
        assert_eq!(l.params(), &zeros);
        let f = frame(Command::Straight, 0.3);
        // Zero model predicts zeros: loss = mean |0 - 0.3|.
        assert!((l.loss(&f) - 0.3).abs() < 1e-6);
    }

    /// A driving learner that takes every provided [`Learner`] method's
    /// default body.
    struct Defaults(DrivingLearner);

    impl Learner for Defaults {
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
    }

    #[test]
    fn in_place_add_scaled_matches_the_default() {
        let v = learner(7).params().clone();
        let f = frame(Command::Left, 0.4);
        let mut features = Vec::new();
        f.features_into(&mut features);
        let mut scratch = TrainScratch::default();
        let predict = |l: &DrivingLearner, scratch: &mut TrainScratch| {
            let mut out = Vec::new();
            l.predict_into(&features, Command::Left, &mut out, scratch);
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let (mut in_place, mut default) = (learner(6), Defaults(learner(6)));
        // Freeze both first: the update must drop the stale snapshot.
        let before = predict(&in_place, &mut scratch);
        predict(&default.0, &mut scratch);
        for _ in 0..3 {
            in_place.add_scaled_params(-0.37, &v);
            default.add_scaled_params(-0.37, &v);
        }
        let bits = |l: &DrivingLearner| {
            l.params().as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&in_place), bits(&default.0));
        assert_ne!(bits(&in_place), bits(&learner(6)), "the update moved the parameters");
        let after = predict(&in_place, &mut scratch);
        assert_eq!(after, predict(&default.0, &mut scratch));
        assert_ne!(after, before, "the prediction follows the new parameters");
    }
}
