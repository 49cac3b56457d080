//! One training arena per thread, any number of learners.
//!
//! [`DrivingLearner`] owns parameters, optimizer state and a frozen
//! snapshot; the scratch its `train_step` and `losses_with` run in belongs
//! to the calling thread and is whatever the last learner left there. That
//! is only sound if nothing an arena holds reaches a result — every buffer
//! written before it is read, at the extents of *this* call — so this test
//! drives learners of different shapes through every entry point that
//! touches shared scratch, interleaved on one thread, and holds each to the
//! bits it produces running alone on a thread of its own, also with a
//! learner carried to other threads mid-run. A warm arena must then stay
//! the size it is over a hundred further steps, and a batch four shards
//! long must fit in the arena a one-shard batch left.

use driving::frame::Frame;
use driving::learner::{arena_bytes, DrivingLearner};
use lbchat::Learner;
use rand::{RngExt, SeedableRng};
use simworld::bev::BevConfig;
use simworld::expert::Command;
use vnn::{ParamVec, TrainScratch, SHARD};

const COMMANDS: [Command; 4] = [
    Command::Follow,
    Command::Left,
    Command::Right,
    Command::Straight,
];
/// Learners in the fleet; shapes differ (see [`node`]).
const FLEET: usize = 4;
/// Batch sizes a learner cycles through: one ragged shard, one full shard,
/// a ragged tail after a full one, the four full shards of a real round.
const BATCHES: [usize; 4] = [5, 16, 21, 64];
/// Steps of one script: every op kind at every batch size, for every
/// learner's phase.
const STEPS: usize = 5 * BATCHES.len();

/// One vehicle: its learner, the frames it trains on, and everything it has
/// produced so far, as bits.
struct Node {
    learner: DrivingLearner,
    frames: Vec<Frame>,
    trace: Vec<u32>,
}

/// A frame of `input_dim` features shaped like a recorded one: BEV block
/// counts of a 4×4 pooling, two blocks in three empty (so the first
/// layer's live-column lists differ block to block), a speed, and
/// navigation scalars that are sometimes `-0.0`. The batched kernels'
/// other inputs — negative, off-grid and `-0.0` BEV values — are `vnn`'s
/// own property tests, over plain input rows.
fn frame(rng: &mut rand::rngs::StdRng, input_dim: usize, waypoints: usize) -> Frame {
    let mut features: Vec<f32> = (0..input_dim - 3)
        .map(|_| {
            if rng.random_range(0..3) != 0 {
                0.0
            } else {
                rng.random_range(1..=16u8) as f32 / 16.0
            }
        })
        .collect();
    features.push(rng.random_range(0.0f32..1.0));
    for _ in 0..2 {
        features.push(if rng.random_range(0..4) == 0 {
            -0.0
        } else {
            rng.random_range(-1.0f32..1.0)
        });
    }
    let target: Vec<f32> = (0..2 * waypoints)
        .map(|_| rng.random_range(-2.0f32..2.0))
        .collect();
    Frame::pack(
        &features,
        4,
        COMMANDS[rng.random_range(0..COMMANDS.len())],
        &target,
    )
}

/// Vehicle `i`: a policy whose input width and waypoint count no other
/// vehicle shares — a buffer sized by one is the wrong size for the next —
/// over frames shaped like recorded ones.
fn node(i: usize) -> Node {
    let mut rng = rand::rngs::StdRng::seed_from_u64(100 + i as u64);
    let (bev, waypoints) = (24 + 9 * i, 3 + i % 2);
    let spec = DrivingLearner::spec_for(bev, waypoints);
    let frames = (0..96)
        .map(|_| frame(&mut rng, spec.input_dim, waypoints))
        .collect();
    Node {
        learner: DrivingLearner::new(&spec, 1e-2, &mut rng),
        frames,
        trace: Vec::new(),
    }
}

/// FNV-1a over the bits of `v`, as two words of trace.
fn digest(v: &[f32]) -> [u32; 2] {
    let h = v.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    });
    [h as u32, (h >> 32) as u32]
}

/// Step `t` of vehicle `i`'s script, appended to its trace. The op kind is
/// phased by `i`, so an interleaved pass mixes kinds as well as learners;
/// the data depends on `t % STEPS` only, so a second pass repeats the first
/// one's batch shapes exactly. `rows` is the caller's scratch for
/// `predict_into`, shared like the arena is.
fn step(node: &mut Node, i: usize, t: usize, rows: &mut TrainScratch) {
    let Node {
        learner,
        frames,
        trace,
    } = node;
    let t = t % STEPS;
    let n = BATCHES[t / 5];
    let batch: Vec<(&Frame, f32)> = frames
        .iter()
        .cycle()
        .skip(7 * t)
        .take(n)
        .enumerate()
        .map(|(k, f)| (f, 0.5 + (k % 5) as f32 * 0.3))
        .collect();
    let mut out = Vec::new();
    match (t + i) % 5 {
        0 => trace.push(learner.train_step(&batch).to_bits()),
        1 => {
            let refs: Vec<&Frame> = frames.iter().skip(t).collect();
            learner.losses_with(learner.params(), &refs, &mut out);
            trace.extend(digest(&out));
        }
        2 => {
            let frame = &frames[t];
            let mut features = Vec::new();
            frame.features_into(&mut features);
            learner.predict_into(&features, frame.command, &mut out, rows);
            trace.extend(out.iter().map(|x| x.to_bits()));
        }
        3 => {
            // An aggregated model arrives; then a loss pass under a
            // compressed copy of it, the way valuation asks.
            let halved: Vec<f32> = learner
                .params()
                .as_slice()
                .iter()
                .map(|x| 0.5 * x)
                .collect();
            learner.set_params(ParamVec::from_vec(halved));
            learner.on_params_replaced();
            let sparse: Vec<f32> = learner
                .params()
                .as_slice()
                .iter()
                .enumerate()
                .map(|(k, &x)| if k % 3 == 0 { x } else { 0.0 })
                .collect();
            let refs: Vec<&Frame> = batch.iter().map(|(f, _)| *f).collect();
            learner.losses_with(&ParamVec::from_vec(sparse), &refs, &mut out);
            trace.extend(digest(&out));
        }
        _ => {
            // Clone, train the clone; the original must not notice, and
            // every other time the clone takes its place.
            let mut copy = learner.clone();
            trace.push(copy.train_step(&batch).to_bits());
            trace.extend(digest(copy.params().as_slice()));
            if t % 2 == 0 {
                *learner = copy;
            }
        }
    }
    trace.extend(digest(learner.params().as_slice()));
}

/// Every vehicle alone, start to finish, each on a thread — so an arena —
/// of its own.
fn solo() -> Vec<Vec<u32>> {
    (0..FLEET)
        .map(|i| {
            std::thread::spawn(move || {
                let mut node = node(i);
                let mut rows = TrainScratch::new();
                for t in 0..STEPS {
                    step(&mut node, i, t, &mut rows);
                }
                node.trace
            })
            .join()
            .expect("a solo run")
        })
        .collect()
}

/// Steps `steps` of the whole fleet, round-robin on the calling thread.
/// With `carried`, vehicle 1 takes the middle steps of the script on a
/// fresh thread each, so it meets a cold arena there and comes back to one
/// three other vehicles have used since.
fn interleaved(fleet: &mut [Node], steps: std::ops::Range<usize>, carried: bool) {
    let mut rows = TrainScratch::new();
    for t in steps {
        for (i, node) in fleet.iter_mut().enumerate() {
            if carried && i == 1 && (STEPS / 2..STEPS / 2 + 6).contains(&(t % STEPS)) {
                std::thread::scope(|s| {
                    s.spawn(|| step(node, i, t, &mut TrainScratch::new()));
                });
            } else {
                step(node, i, t, &mut rows);
            }
        }
    }
}

fn traces(fleet: &[Node]) -> Vec<&[u32]> {
    fleet.iter().map(|n| n.trace.as_slice()).collect()
}

#[test]
fn learners_sharing_an_arena_match_learners_running_alone() {
    assert_eq!(
        arena_bytes(),
        0,
        "a thread that has trained nothing holds no arena"
    );
    let alone = solo();
    assert_eq!(
        arena_bytes(),
        0,
        "arenas are per thread: the solo runs had their own"
    );
    assert!(alone.iter().all(|t| t.len() > 3 * STEPS));
    for carried in [false, true] {
        let mut fleet: Vec<Node> = (0..FLEET).map(node).collect();
        interleaved(&mut fleet, 0..STEPS, carried);
        assert_eq!(traces(&fleet), alone, "interleaved, carried {carried}");

        // The arena has now seen every batch shape of the script; a
        // hundred further steps of the same shapes, under parameters that
        // keep moving, must not grow it.
        let warm = arena_bytes();
        let one = fleet
            .iter()
            .map(|n| 4 * 2 * n.learner.params().len())
            .max()
            .unwrap();
        assert!(
            warm >= one,
            "an arena holds at least a partial and the sum: {warm}"
        );
        interleaved(&mut fleet, STEPS..STEPS + 100usize.div_ceil(FLEET), carried);
        assert_eq!(arena_bytes(), warm, "carried {carried}");
    }
}

#[test]
fn a_four_shard_batch_fits_the_arena_of_a_one_shard_batch() {
    // The 64-sample batch is the 16-sample one four times over, so each of
    // its shards needs exactly the buffers the first step sized; only
    // holding more than one shard at a time could grow the arena. On a
    // thread of its own, so the arena starts cold.
    std::thread::spawn(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let spec = DrivingLearner::spec_for(BevConfig::default().feature_len(), 5);
        let mut learner = DrivingLearner::new(&spec, 1e-2, &mut rng);
        let frames: Vec<Frame> = (0..SHARD)
            .map(|_| frame(&mut rng, spec.input_dim, 5))
            .collect();
        let one: Vec<(&Frame, f32)> = frames.iter().map(|f| (f, 1.0)).collect();
        learner.train_step(&one);
        let after_one = arena_bytes();
        learner.train_step(&one.repeat(4));
        assert_eq!(arena_bytes(), after_one, "a 64-sample step grew the arena");
    })
    .join()
    .expect("the arena probe");
}
