//! Worker-count invariance of batched local training.
//!
//! The batched `vnn` kernels shard every minibatch into fixed
//! [`vnn::SHARD`]-sized gradient shards whose contents depend only on the
//! batch, and reduce them in shard order on the calling thread — so the
//! trained model must be bit-identical for every `--jobs` setting. This
//! test drives [`DrivingLearner`] end-to-end under `jobs=1` and `jobs=4`
//! and compares raw parameter bits.
//!
//! Kept as a single `#[test]` because [`lbchat::exec::set_jobs`] is a
//! process-wide override; parallel test functions would race on it.

use driving::frame::Frame;
use driving::learner::DrivingLearner;
use lbchat::Learner;
use rand::{RngExt, SeedableRng};
use simworld::expert::Command;
use std::sync::Arc;
use vnn::PolicySpec;

const INPUT_DIM: usize = 12;
const WAYPOINTS: usize = 4;

fn spec() -> PolicySpec {
    PolicySpec {
        input_dim: INPUT_DIM,
        trunk: vec![24, 16],
        n_branches: Command::COUNT,
        waypoints: WAYPOINTS,
        skip_inputs: 2,
    }
}

fn random_frames(n: usize, seed: u64) -> Vec<(Frame, f32)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let commands = [Command::Follow, Command::Left, Command::Right, Command::Straight];
    (0..n)
        .map(|_| {
            let features: Arc<[f32]> = (0..INPUT_DIM).map(|_| rng.random_range(-1.0..1.0)).collect();
            let waypoints: Arc<[f32]> =
                (0..2 * WAYPOINTS).map(|_| rng.random_range(-2.0..2.0)).collect();
            let command = commands[rng.random_range(0..commands.len())];
            let weight = rng.random_range(0.25..4.0);
            (Frame { features, command, waypoints }, weight)
        })
        .collect()
}

/// Trains one fresh learner for `epochs` passes over `frames` and returns
/// the final parameter bits.
fn train(frames: &[(Frame, f32)], epochs: usize) -> Vec<u32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut learner = DrivingLearner::new(&spec(), 1e-2, &mut rng);
    let batch: Vec<(&Frame, f32)> = frames.iter().map(|(f, w)| (f, *w)).collect();
    for _ in 0..epochs {
        learner.train_step(&batch);
    }
    learner.params().as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn training_is_bitwise_invariant_to_worker_count() {
    // 43 samples = 3 whole shards + a ragged tail, so the reduction order
    // (not just the shard contents) is exercised.
    let frames = random_frames(43, 99);

    lbchat::exec::set_jobs(1);
    let serial = train(&frames, 5);
    lbchat::exec::set_jobs(4);
    let parallel = train(&frames, 5);
    lbchat::exec::set_jobs(0); // restore hardware detection

    assert!(serial.iter().any(|&b| b != 0), "training must move the parameters");
    assert_eq!(serial, parallel, "jobs=1 and jobs=4 must produce identical bits");
}
