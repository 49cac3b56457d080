//! One coreset scratch per thread.
//!
//! `coreset::construct` builds through a `thread_local!` `CoresetScratch`,
//! and an `LbChatNode` holds none of its own. This file interleaves builds
//! over two datasets of different sizes on one thread and hands a node to
//! another thread: every build must equal a build through a fresh scratch
//! bit for bit, and a thread's scratch must stop growing once it has built
//! from its largest dataset.

use lbchat::coreset::{
    construct, construct_with_scratch, scratch_bytes, Coreset, CoresetConfig, CoresetScratch,
};
use lbchat::{LbChatConfig, LbChatNode, Learner, Vehicle, WeightedDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vnn::ParamVec;

/// A line-fitting learner whose per-sample losses spread over several of
/// Algorithm 1's layers.
#[derive(Debug, Clone)]
struct Line(ParamVec);

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

fn line() -> Line {
    Line(ParamVec::from_vec(vec![1.0, 0.0]))
}

/// `n` points off the line `y = x` by varying offsets, weighted unevenly.
fn dataset(n: usize, salt: usize) -> WeightedDataset<Pt> {
    let samples = (0..n)
        .map(|i| {
            let x = (i as f32 / n as f32) * 4.0 - 2.0;
            Pt(x, x + ((i * 7 + salt) % 23) as f32 / 5.0)
        })
        .collect();
    let weights = (0..n).map(|i| 1.0 + ((i + salt) % 3) as f32).collect();
    WeightedDataset::new(samples, weights)
}

fn bits(c: &Coreset<Pt>) -> Vec<u32> {
    c.samples()
        .iter()
        .flat_map(|p| [p.0, p.1])
        .chain(c.weights().iter().copied())
        .map(f32::to_bits)
        .collect()
}

/// Algorithm 1 through a scratch no earlier call has touched.
fn fresh(
    learner: &Line,
    d: &WeightedDataset<Pt>,
    cfg: &CoresetConfig,
    rng: &mut StdRng,
) -> Coreset<Pt> {
    construct_with_scratch(learner, d, cfg, rng, &mut CoresetScratch::new())
}

#[test]
fn interleaved_builds_on_one_thread_match_fresh_scratches_and_stop_growing() {
    let learner = line();
    let (small, large) = (dataset(300, 1), dataset(1_100, 2));
    let cfg = CoresetConfig { size: 40 };
    let mut warm = None;
    for round in 0..4u64 {
        for (d, salt) in [(&small, 0), (&large, 1)] {
            let seed = round * 2 + salt;
            let built = construct(&learner, d, &cfg, &mut StdRng::seed_from_u64(seed));
            let alone = fresh(&learner, d, &cfg, &mut StdRng::seed_from_u64(seed));
            assert!(
                built.len() > 10,
                "round {round}: a real coreset, not a copy"
            );
            assert_eq!(
                bits(&built),
                bits(&alone),
                "round {round}, {} samples",
                d.len()
            );
        }
        // The first round grew the scratch to the large dataset; the
        // rest reuse it.
        let bytes = scratch_bytes();
        assert!(bytes > 0);
        assert_eq!(
            *warm.get_or_insert(bytes),
            bytes,
            "round {round} grew a warm scratch"
        );
    }
}

#[test]
fn a_node_handed_across_threads_builds_through_each_threads_scratch() {
    let config = LbChatConfig {
        coreset_size: 30,
        ..LbChatConfig::default()
    };
    let data = dataset(700, 3);
    let vehicle = Vehicle::fleet(vec![line()], vec![data.clone()], 16, |n| n).remove(0);
    let cfg = CoresetConfig {
        size: config.coreset_size,
    };
    let mut rng = StdRng::seed_from_u64(5);
    let expected = fresh(&line(), &data, &cfg, &mut rng.clone());
    let node = LbChatNode::new(vehicle, &config, &mut rng);
    assert_eq!(bits(node.coreset()), bits(&expected));
    let home = scratch_bytes();
    assert!(home > 0, "the first build used this thread's scratch");

    let (config, cfg) = (&config, &cfg);
    let (mut node, mut rng) = std::thread::scope(|s| {
        s.spawn(move || {
            assert_eq!(
                scratch_bytes(),
                0,
                "a new thread starts with an empty scratch"
            );
            let mut node = node;
            let mut warm = None;
            for round in 0..3 {
                let expected = fresh(&line(), node.vehicle.dataset(), cfg, &mut rng.clone());
                node.refresh_coreset(config, &mut rng);
                assert_eq!(
                    bits(node.coreset()),
                    bits(&expected),
                    "round {round} on the worker"
                );
                let bytes = scratch_bytes();
                assert!(bytes > 0);
                assert_eq!(
                    *warm.get_or_insert(bytes),
                    bytes,
                    "round {round} grew a warm scratch"
                );
            }
            (node, rng)
        })
        .join()
        .expect("the worker's builds match")
    });

    // Back home: the node builds through this thread's warm scratch again.
    let expected = fresh(&line(), node.vehicle.dataset(), cfg, &mut rng.clone());
    node.refresh_coreset(config, &mut rng);
    assert_eq!(bits(node.coreset()), bits(&expected));
    assert_eq!(
        scratch_bytes(),
        home,
        "the worker's builds did not touch this thread's scratch"
    );
}
