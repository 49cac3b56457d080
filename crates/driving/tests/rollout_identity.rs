//! Bit identity of the closed-loop inference path.
//!
//! [`DrivingLearner::predict_into`] answers from a frozen, input-major
//! snapshot of the policy that the learner builds on first use and drops
//! whenever its parameters change; the snapshot must never outlive the
//! parameters it was taken from, and a rollout through it must end every
//! trial the same way for every `--jobs` setting.

use driving::collect::{collect_datasets, CollectConfig};
use driving::frame::Frame;
use driving::learner::DrivingLearner;
use driving::{success_rate, EvalConfig, Task};
use lbchat::Learner;
use rand::{RngExt, SeedableRng};
use simworld::expert::Command;
use simworld::world::{World, WorldConfig};
use vnn::{ParamVec, TrainScratch};

const COMMANDS: [Command; 4] = [Command::Follow, Command::Left, Command::Right, Command::Straight];

/// A driving-scale learner and the frames a small world's experts record.
fn learner_and_frames(seconds: f64) -> (DrivingLearner, Vec<Frame>) {
    let mut world = World::new(WorldConfig::small(5));
    let collect = CollectConfig { seconds, stride: 1, balance_commands: true };
    let frames: Vec<Frame> = collect_datasets(&mut world, &collect)
        .iter()
        .flat_map(|d| d.samples().iter().cloned())
        .collect();
    let spec =
        DrivingLearner::spec_for(world.config().bev.feature_len(), simworld::world::N_WAYPOINTS);
    let learner = DrivingLearner::new(&spec, 3e-3, &mut rand::rngs::StdRng::seed_from_u64(8));
    (learner, frames)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn predict_into_tracks_the_parameters() {
    let (mut learner, frames) = learner_and_frames(20.0);
    assert!(frames.len() >= 64, "the fixture must record frames: {}", frames.len());
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut scratch = TrainScratch::new();
    let (mut out, mut features) = (Vec::new(), Vec::new());
    // Every frame under every command, against the allocating per-sample
    // forward of the parameters the learner holds right now.
    let mut check = |learner: &DrivingLearner, what: &str| {
        for frame in frames.iter().step_by(7) {
            frame.features_into(&mut features);
            for command in COMMANDS {
                learner.predict_into(&features, command, &mut out, &mut scratch);
                assert_eq!(
                    bits(&out),
                    bits(&learner.predict(&features, command)),
                    "after {what}"
                );
            }
        }
    };
    check(&learner, "construction");
    for round in 0..4 {
        let batch: Vec<(&Frame, f32)> = (0..32)
            .map(|_| (&frames[rng.random_range(0..frames.len())], rng.random_range(0.5f32..2.0)))
            .collect();
        learner.train_step(&batch);
        check(&learner, "train_step");
        // A clone answers for itself: training it must not move the
        // original's answers, nor the other way round.
        let mut clone = learner.clone();
        clone.train_step(&batch);
        check(&clone, "clone + train_step");
        check(&learner, "training a clone");
        let replaced: Vec<f32> = learner
            .params()
            .as_slice()
            .iter()
            .map(|p| p * 0.5 + rng.random_range(-0.05f32..0.05))
            .collect();
        learner.set_params(ParamVec::from_vec(replaced));
        check(&learner, "set_params");
        if round % 2 == 1 {
            learner.set_params(clone.params().clone());
            check(&learner, "set_params from a peer");
        }
    }
}

/// The one test of this binary that moves [`lbchat::exec::set_jobs`], a
/// process-wide override; the test above computes the same bits under any
/// worker count.
#[test]
fn success_rate_is_invariant_to_worker_count() {
    // A few training steps, so trials differ in how and when they end.
    let (mut learner, frames) = learner_and_frames(60.0);
    for chunk in frames.chunks(64).take(40) {
        let batch: Vec<(&Frame, f32)> = chunk.iter().map(|f| (f, 1.0)).collect();
        learner.train_step(&batch);
    }
    let cfg = EvalConfig { trials: 6, traffic_scale: 0.5, ..EvalConfig::default() };
    for task in [Task::Straight, Task::NaviNormal] {
        lbchat::exec::set_jobs(1);
        let serial = success_rate(&learner, task, &cfg);
        lbchat::exec::set_jobs(4);
        // A clone has not frozen its policy yet: the parallel run freezes it.
        let parallel = success_rate(&learner.clone(), task, &cfg);
        lbchat::exec::set_jobs(0); // restore hardware detection
        assert_eq!(serial, parallel, "{task:?}: jobs=1 and jobs=4 must agree");
        assert_eq!(serial.trials, cfg.trials);
    }
}
