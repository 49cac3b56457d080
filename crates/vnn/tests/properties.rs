//! Property-based tests over the NN substrate's invariants.

use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use vnn::loss::{mean_loss, mean_loss_and_grad};
use vnn::mlp::LANES;
use vnn::{
    Activation, BranchedPolicy, Minibatcher, Mlp, MlpScratch, MlpSpec, ParamVec,
    PolicySample, PolicyShard, PolicySpec, Sgd, TrainScratch, SHARD,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weighted_average_stays_in_hull(
        a in prop::collection::vec(-10.0f32..10.0, 1..50),
        shift in -5.0f32..5.0,
        w1 in 0.01f32..10.0,
        w2 in 0.01f32..10.0,
    ) {
        let b: Vec<f32> = a.iter().map(|v| v + shift).collect();
        let pa = ParamVec::from_vec(a.clone());
        let pb = ParamVec::from_vec(b.clone());
        let avg = ParamVec::weighted_average(&pa, w1, &pb, w2);
        for ((x, y), z) in a.iter().zip(&b).zip(avg.as_slice()) {
            let (lo, hi) = if x <= y { (*x, *y) } else { (*y, *x) };
            prop_assert!(*z >= lo - 1e-4 && *z <= hi + 1e-4);
        }
    }

    #[test]
    fn axpy_matches_manual(
        a in prop::collection::vec(-10.0f32..10.0, 1..30),
        alpha in -3.0f32..3.0,
    ) {
        let b: Vec<f32> = a.iter().map(|v| v * 0.5 + 1.0).collect();
        let mut pa = ParamVec::from_vec(a.clone());
        let pb = ParamVec::from_vec(b.clone());
        pa.axpy(alpha, &pb);
        for ((orig, add), got) in a.iter().zip(&b).zip(pa.as_slice()) {
            prop_assert!((orig + alpha * add - got).abs() < 1e-4);
        }
    }

    #[test]
    fn losses_are_nonnegative_and_zero_at_target(
        target in prop::collection::vec(-10.0f32..10.0, 1..20),
        noise in -5.0f32..5.0,
    ) {
        let pred: Vec<f32> = target.iter().map(|t| t + noise).collect();
        prop_assert!(mean_loss(&pred, &target) >= 0.0);
        prop_assert!(mean_loss(&target, &target) == 0.0);
    }

    #[test]
    fn loss_grad_points_uphill(
        target in prop::collection::vec(-5.0f32..5.0, 2..10),
        noise in 0.1f32..3.0,
    ) {
        // Moving predictions along +grad must not decrease the loss.
        let pred: Vec<f32> = target.iter().map(|t| t + noise).collect();
        let (l0, g) = mean_loss_and_grad(&pred, &target);
        let stepped: Vec<f32> = pred.iter().zip(&g).map(|(p, gi)| p + 0.01 * gi).collect();
        let l1 = mean_loss(&stepped, &target);
        prop_assert!(l1 >= l0 - 1e-5, "{l0} -> {l1}");
    }

    #[test]
    fn minibatcher_epoch_is_a_permutation(n in 1usize..100, batch in 1usize..32) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut mb = Minibatcher::new(n, batch);
        let mut seen = vec![0u32; n];
        let batches_per_epoch = n.div_ceil(batch);
        for _ in 0..batches_per_epoch {
            for i in mb.next_batch(&mut rng) {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "{:?}", seen);
    }

    #[test]
    fn sgd_step_moves_against_gradient(
        params in prop::collection::vec(-5.0f32..5.0, 1..20),
        lr in 0.001f32..0.5,
    ) {
        let grad: Vec<f32> = params.iter().map(|p| p.signum() + 0.1).collect();
        let mut p = params.clone();
        let mut opt = Sgd::new(lr, 0.0, 0.0);
        opt.step(&mut p, &grad);
        for ((orig, g), new) in params.iter().zip(&grad).zip(&p) {
            prop_assert!((new - (orig - lr * g)).abs() < 1e-5);
        }
    }
}

#[test]
fn policy_loss_decreases_under_training_on_random_data() {
    let spec = PolicySpec { input_dim: 12, trunk: vec![24, 16], n_branches: 4, waypoints: 4, skip_inputs: 0 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut policy = BranchedPolicy::new(&spec, &mut rng);
    let mut opt = Sgd::new(5e-3, 0.9, 0.0);
    // A fixed synthetic mapping: target depends linearly on the input.
    let data: Vec<(Vec<f32>, usize, Vec<f32>)> = (0..64)
        .map(|k| {
            let x: Vec<f32> = (0..12).map(|i| ((k * 13 + i * 7) % 19) as f32 / 19.0).collect();
            let branch = k % 4;
            let t: Vec<f32> = (0..8).map(|i| x[i % 12] * 0.5 - 0.25).collect();
            (x, branch, t)
        })
        .collect();
    let mean = |p: &BranchedPolicy| -> f32 {
        data.iter().map(|(x, b, t)| p.loss(x, *b, t)).sum::<f32>() / data.len() as f32
    };
    let before = mean(&policy);
    for _ in 0..150 {
        for (x, b, t) in &data {
            let (_, g) = policy.loss_and_grad(x, *b, t);
            opt.step(policy.params_mut().as_mut_slice(), &g);
        }
    }
    let after = mean(&policy);
    assert!(after < before * 0.5, "{before} -> {after}");
}

// ---------------------------------------------------------------------------
// Bit-identity of the batched kernels against the per-sample kernels
// (`BranchedPolicy::forward` / `loss_and_grad`).
//
// The batched hot path (PR 5) reorders loops for cache locality but must
// keep every per-dot-product and per-sample accumulation order fixed; these
// properties assert raw f32 bits, not tolerances.
// ---------------------------------------------------------------------------

/// Owned sample storage a `PolicySample` batch can borrow from.
type OwnedBatch = Vec<(Vec<f32>, usize, Vec<f32>, f32)>;

const PROP_INPUT_DIM: usize = 10;
const PROP_WAYPOINTS: usize = 3;

fn seeded_policy_and_batch(seed: u64, n: usize) -> (BranchedPolicy, OwnedBatch) {
    let spec = PolicySpec {
        input_dim: PROP_INPUT_DIM,
        trunk: vec![18, 12],
        n_branches: 4,
        waypoints: PROP_WAYPOINTS,
        skip_inputs: 2,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let policy = BranchedPolicy::new(&spec, &mut rng);
    let data = (0..n)
        .map(|_| {
            let x: Vec<f32> =
                (0..PROP_INPUT_DIM).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            let b = rng.random_range(0..4usize);
            let t: Vec<f32> =
                (0..2 * PROP_WAYPOINTS).map(|_| rng.random_range(-1.5f32..1.5)).collect();
            let w = rng.random_range(0.25f32..3.0);
            (x, b, t, w)
        })
        .collect();
    (policy, data)
}

fn as_samples(data: &OwnedBatch) -> Vec<PolicySample<'_>> {
    data.iter()
        .map(|(x, b, t, w)| PolicySample { input: x, branch: *b, target: t, weight: *w })
        .collect()
}

/// One batched gradient pass: shard (serially, in shard order `order`),
/// reduce, return `(loss_sum, weight_sum)` with the gradient left in
/// `scratch.grad()`.
fn live_batch_grad(
    policy: &BranchedPolicy,
    samples: &[PolicySample<'_>],
    scratch: &mut TrainScratch,
    reverse_shard_order: bool,
) -> (f32, f32) {
    let n = samples.len();
    let shards = scratch.shards_mut(n);
    let k = shards.len();
    for step in 0..k {
        let s = if reverse_shard_order { k - 1 - step } else { step };
        policy.train_shard(samples, s * SHARD, &mut shards[s]);
    }
    let out = policy.reduce_shards(scratch, n);
    (out.loss_sum, out.weight_sum)
}

/// Per-sample gradients composed with the fixed `SHARD`-sized reduction of
/// the batched path: each shard of consecutive samples folds its weighted
/// per-sample gradients in sample order into a zeroed partial, and partials
/// are added into `grad` in shard order. Returns `(Σ w·loss, Σ w)`, both
/// accumulated in global sample order. This composition *defines* the bits
/// `train_shard` + `reduce_shards` must reproduce, for any worker count.
fn per_sample_batch_grad(
    policy: &BranchedPolicy,
    samples: &[PolicySample<'_>],
    grad: &mut [f32],
) -> (f32, f32) {
    grad.fill(0.0);
    let mut loss_sum = 0.0f32;
    let mut weight_sum = 0.0f32;
    let mut partial = vec![0.0f32; grad.len()];
    for shard in samples.chunks(SHARD) {
        partial.fill(0.0);
        for s in shard {
            let (l, g) = policy.loss_and_grad(s.input, s.branch, s.target);
            for (acc, gi) in partial.iter_mut().zip(&g) {
                *acc += s.weight * *gi;
            }
            loss_sum += s.weight * l;
            weight_sum += s.weight;
        }
        for (g, p) in grad.iter_mut().zip(&partial) {
            *g += *p;
        }
    }
    (loss_sum, weight_sum)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_backward_matches_reference_bits(seed in 0u64..1 << 48, n in 1usize..48) {
        let (policy, data) = seeded_policy_and_batch(seed, n);
        let samples = as_samples(&data);
        let mut scratch = TrainScratch::new();
        let (loss_sum, weight_sum) =
            live_batch_grad(&policy, &samples, &mut scratch, false);
        let mut ref_grad = vec![0.0f32; policy.param_count()];
        let (ref_loss, ref_weight) = per_sample_batch_grad(&policy, &samples, &mut ref_grad);
        prop_assert_eq!(loss_sum.to_bits(), ref_loss.to_bits());
        prop_assert_eq!(weight_sum.to_bits(), ref_weight.to_bits());
        prop_assert_eq!(bits(scratch.grad()), bits(&ref_grad));
    }

    #[test]
    fn shard_processing_order_is_immaterial(seed in 0u64..1 << 48, n in 17usize..48) {
        // Shard contents depend only on the batch; processing shards in
        // reverse order (a stand-in for any parallel schedule) must leave
        // identical bits after the fixed-order reduction.
        let (policy, data) = seeded_policy_and_batch(seed, n);
        let samples = as_samples(&data);
        let mut fwd = TrainScratch::new();
        let mut rev = TrainScratch::new();
        let a = live_batch_grad(&policy, &samples, &mut fwd, false);
        let b = live_batch_grad(&policy, &samples, &mut rev, true);
        prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
        prop_assert_eq!(bits(fwd.grad()), bits(rev.grad()));
    }

    #[test]
    fn dirty_scratch_reuse_is_bit_identical(seed in 0u64..1 << 48, n in 1usize..20) {
        // Dirty the arena with a larger, different batch first; the target
        // batch must then produce the same bits as a fresh arena.
        let (policy, data) = seeded_policy_and_batch(seed, n);
        let (_, decoy) = seeded_policy_and_batch(seed ^ 0xDEAD_BEEF, n + 13);
        let samples = as_samples(&data);
        let decoy_samples = as_samples(&decoy);
        let mut dirty = TrainScratch::new();
        live_batch_grad(&policy, &decoy_samples, &mut dirty, false);
        let a = live_batch_grad(&policy, &samples, &mut dirty, false);
        let mut fresh = TrainScratch::new();
        let b = live_batch_grad(&policy, &samples, &mut fresh, false);
        prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
        prop_assert_eq!(bits(dirty.grad()), bits(fresh.grad()));
        prop_assert_eq!(dirty.take_stats().batches, 2);
    }

    #[test]
    fn warm_arena_does_not_allocate(seed in 0u64..1 << 48, n in 1usize..40) {
        // One pass of each kind sizes every buffer the batch shape needs
        // (a first pass may legitimately grow per-branch head buffers);
        // after it, no train round or loss pass over that batch — under
        // moving parameters, with another policy taking turns in the same
        // arena — may grow anything.
        let (mut policy, data) = seeded_policy_and_batch(seed, n);
        let (other, _) = seeded_policy_and_batch(seed ^ 0xDEAD_BEEF, 1);
        let samples = as_samples(&data);
        let mut opt = Sgd::new(3e-3, 0.9, 1e-4);
        let mut arena = TrainScratch::new();
        let mut losses = Vec::new();
        let mut warm = 0;
        for step in 0..=100 {
            let who = if step % 3 == 2 { &other } else { &policy };
            let (_, weight) = live_batch_grad(who, &samples, &mut arena, false);
            who.losses_with(who.params(), &samples[..], &mut losses, &mut arena.shards_mut(1)[0]);
            if step % 3 != 2 {
                opt.step_scaled(policy.params_mut().as_mut_slice(), arena.grad(), 1.0 / weight);
            }
            if step == 0 {
                warm = arena.heap_bytes();
                prop_assert!(warm >= 4 * 2 * policy.param_count(), "a partial and the sum");
            }
        }
        prop_assert_eq!(arena.heap_bytes(), warm);
    }

    #[test]
    fn full_sgd_epoch_matches_reference_bits(seed in 0u64..1 << 48, n in 1usize..40) {
        // A whole training epoch — batched kernels + fused scaled SGD step,
        // scratch reused across steps — against the per-sample composition
        // with a separate gradient-scaling pass.
        let (policy, data) = seeded_policy_and_batch(seed, n);
        let samples = as_samples(&data);
        let mut live = policy.clone();
        let mut reference = policy;
        let mut live_opt = Sgd::new(3e-3, 0.9, 1e-4);
        let mut ref_opt = live_opt.clone();
        let mut scratch = TrainScratch::new();
        let mut ref_grad = vec![0.0f32; reference.param_count()];
        for _ in 0..4 {
            let (loss, weight) = live_batch_grad(&live, &samples, &mut scratch, false);
            let inv = 1.0 / weight;
            live_opt.step_scaled(live.params_mut().as_mut_slice(), scratch.grad(), inv);
            let (ref_loss, ref_weight) =
                per_sample_batch_grad(&reference, &samples, &mut ref_grad);
            let ref_inv = 1.0 / ref_weight;
            for g in &mut ref_grad {
                *g *= ref_inv;
            }
            ref_opt.step(reference.params_mut().as_mut_slice(), &ref_grad);
            prop_assert_eq!(loss.to_bits(), ref_loss.to_bits());
            prop_assert_eq!(
                bits(live.params().as_slice()),
                bits(reference.params().as_slice())
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-identity of the lane-tile forward kernel against `Mlp::forward`, and of
// the forward-only loss pass against `BranchedPolicy::loss_with`.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn forward_batch_matches_forward_bits(seed in 0u64..1 << 48) {
        // Every batch size around the lane-block boundaries (scalar blocks
        // of 1–2, ragged tails, full blocks), output widths that are not a
        // multiple of the register tile, the narrowest and the
        // driving-scale input, every activation — through ONE scratch, so
        // each shape runs over buffers dirtied by the previous ones.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = MlpScratch::new();
        for activation in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            for sizes in [vec![1, 10, 3], vec![147, 33, 10], vec![5, 4, 8, 1]] {
                let mlp = Mlp::new(MlpSpec { sizes: sizes.clone(), hidden_activation: activation }, 3);
                let mut params = ParamVec::zeros(3 + mlp.param_count());
                mlp.init(&mut params, &mut rng);
                for n in 1..=2 * LANES + 3 {
                    let inputs: Vec<f32> =
                        (0..n * sizes[0]).map(|_| rng.random_range(-2.0f32..2.0)).collect();
                    mlp.stage_batch(&mut scratch, n).copy_from_slice(&inputs);
                    mlp.forward_batch(&params, &mut scratch, n);
                    let out_dim = mlp.spec().output_dim();
                    for (b, x) in inputs.chunks_exact(sizes[0]).enumerate() {
                        let single = mlp.forward(&params, x);
                        prop_assert_eq!(
                            bits(&mlp.batch_outputs(&scratch, n)[b * out_dim..(b + 1) * out_dim]),
                            bits(single.output()),
                            "{:?} {:?} n={} sample {}", activation, &sizes, n, b
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_losses_match_per_sample_bits(seed in 0u64..1 << 48, n in 0usize..150) {
        // Mixed branches across more than two loss blocks, under the
        // policy's own parameters and under a foreign vector of the same
        // layout (the compressed-copy case).
        let (policy, data) = seeded_policy_and_batch(seed, n);
        let samples = as_samples(&data);
        let (other, _) = seeded_policy_and_batch(seed ^ 0x5EED, 0);
        let mut out = vec![7.0f32; 3];
        let mut shard = PolicyShard::default();
        for params in [policy.params(), other.params()] {
            policy.losses_with(params, &samples[..], &mut out, &mut shard);
            let single: Vec<f32> = data
                .iter()
                .map(|(x, b, t, _)| policy.loss_with(params, x, *b, t))
                .collect();
            prop_assert_eq!(bits(&out), bits(&single));
        }
    }
}

// ---------------------------------------------------------------------------
// Sparse inputs: the forward tile steps over first-layer input columns that
// are zero in every lane of a block, and the trunk's first-layer weight
// gradient visits a sample's non-zero inputs only. Both must leave every bit
// where the per-sample kernels put it — signed zeros included.
// ---------------------------------------------------------------------------

/// Batch sizes around the lane-block and shard boundaries.
const RAGGED: [usize; 6] = [1, 7, 8, 9, 17, 65];

/// `n` rows of `dim` values shaped like the driving input: four rows in
/// five mostly zero (the BEV keeps about one value in six), every fifth
/// row all zero, columns `0, 1, 2` and `dim - 3` zero in every row, and a
/// `-0.0` in place of some zeros.
fn sparse_rows(rng: &mut rand::rngs::StdRng, n: usize, dim: usize) -> Vec<f32> {
    let mut rows = vec![0.0f32; n * dim];
    for (b, row) in rows.chunks_exact_mut(dim).enumerate() {
        for (i, x) in row.iter_mut().enumerate() {
            let dead_column = i < 3 || i == dim - 3;
            let keep = if b % 5 == 4 { 0.0 } else if b % 5 == 3 { 0.9 } else { 0.15 };
            if !dead_column && rng.random_range(0.0f32..1.0) < keep {
                *x = rng.random_range(-2.0f32..2.0);
            } else if rng.random_range(0..4) == 0 {
                *x = -0.0;
            }
        }
    }
    rows
}

const SPARSE_INPUT_DIM: usize = 37;

/// [`seeded_policy_and_batch`] at a wider input fed [`sparse_rows`], with
/// the parameters the skip arguments lean on planted in the trunk's first
/// layer: a `-0.0` bias, a `+0.0` bias, and an all-zero weight row.
fn sparse_policy_and_batch(seed: u64, n: usize, neg_zero_bias: bool) -> (BranchedPolicy, OwnedBatch) {
    let spec = PolicySpec {
        input_dim: SPARSE_INPUT_DIM,
        trunk: vec![18, 12],
        n_branches: 4,
        waypoints: PROP_WAYPOINTS,
        skip_inputs: 2,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut policy = BranchedPolicy::new(&spec, &mut rng);
    let p = policy.params_mut().as_mut_slice();
    p[5 * SPARSE_INPUT_DIM..6 * SPARSE_INPUT_DIM].fill(0.0);
    let biases = SPARSE_INPUT_DIM * 18;
    p[biases + 1] = 0.0;
    if neg_zero_bias {
        p[biases + 5] = -0.0;
    }
    let rows = sparse_rows(&mut rng, n, SPARSE_INPUT_DIM);
    let zeros = rows.iter().filter(|x| **x == 0.0).count();
    assert!(n < 8 || 10 * zeros >= 7 * rows.len(), "fixture must be sparse: {zeros}/{}", rows.len());
    let data = rows
        .chunks_exact(SPARSE_INPUT_DIM)
        .map(|x| {
            let b = rng.random_range(0..4usize);
            let t: Vec<f32> =
                (0..2 * PROP_WAYPOINTS).map(|_| rng.random_range(-1.5f32..1.5)).collect();
            (x.to_vec(), b, t, rng.random_range(0.25f32..3.0))
        })
        .collect();
    (policy, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn forward_batch_matches_forward_bits_on_sparse_input(seed in 0u64..1 << 48) {
        // One linear layer so the accumulator itself is the output and a
        // `-0.0` that should have become `+0.0` shows; then a deep net.
        // Planted: a `-0.0` bias over a zero weight row (the reference
        // turns it into `+0.0` at the first `+0.0` product), a `-0.0` bias
        // over live weights, a `+0.0` bias, zero weights under live columns.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = MlpScratch::new();
        for (sizes, neg_zero_bias) in [
            (vec![21, 6], true),
            (vec![21, 6], false),
            (vec![21, 9, 5], true),
            (vec![SPARSE_INPUT_DIM, 18, 12], false),
        ] {
            let (fan_in, fan_out) = (sizes[0], sizes[1]);
            let mlp = Mlp::new(MlpSpec { sizes: sizes.clone(), hidden_activation: Activation::Tanh }, 2);
            let mut params = ParamVec::zeros(2 + mlp.param_count());
            mlp.init(&mut params, &mut rng);
            let p = params.as_mut_slice();
            p[2 + fan_in..2 + 2 * fan_in].fill(0.0);
            p[2 + 3 * fan_in + 7] = 0.0;
            let biases = 2 + fan_in * fan_out;
            p[biases] = 0.0;
            if neg_zero_bias {
                p[biases + 1] = -0.0;
                p[biases + 2] = -0.0;
            }
            for n in RAGGED {
                let inputs = sparse_rows(&mut rng, n, fan_in);
                mlp.stage_batch(&mut scratch, n).copy_from_slice(&inputs);
                mlp.forward_batch(&params, &mut scratch, n);
                let out_dim = mlp.spec().output_dim();
                for (b, x) in inputs.chunks_exact(fan_in).enumerate() {
                    prop_assert_eq!(
                        bits(&mlp.batch_outputs(&scratch, n)[b * out_dim..(b + 1) * out_dim]),
                        bits(mlp.forward(&params, x).output()),
                        "{:?} -0.0 bias {} n={} sample {}", &sizes, neg_zero_bias, n, b
                    );
                }
            }
        }
    }

    #[test]
    fn batched_losses_and_gradients_match_per_sample_bits_on_sparse_input(seed in 0u64..1 << 48) {
        let mut scratch = TrainScratch::new();
        let mut losses = Vec::new();
        for n in RAGGED {
            for neg_zero_bias in [false, true] {
                let (policy, data) = sparse_policy_and_batch(seed ^ n as u64, n, neg_zero_bias);
                let samples = as_samples(&data);
                policy.losses_with(
                    policy.params(),
                    &samples[..],
                    &mut losses,
                    &mut scratch.shards_mut(1)[0],
                );
                let single: Vec<f32> =
                    data.iter().map(|(x, b, t, _)| policy.loss(x, *b, t)).collect();
                prop_assert_eq!(bits(&losses), bits(&single), "n={}", n);

                // `scratch.grad()` against the per-sample fold, which is in
                // parameter layout by construction.
                let (loss_sum, weight_sum) =
                    live_batch_grad(&policy, &samples, &mut scratch, false);
                let mut ref_grad = vec![0.0f32; policy.param_count()];
                let (ref_loss, ref_weight) =
                    per_sample_batch_grad(&policy, &samples, &mut ref_grad);
                prop_assert_eq!(loss_sum.to_bits(), ref_loss.to_bits());
                prop_assert_eq!(weight_sum.to_bits(), ref_weight.to_bits());
                prop_assert_eq!(bits(scratch.grad()), bits(&ref_grad), "n={}", n);
            }
        }
    }
}

/// The skip is exact for finite parameters only — what a non-finite one
/// still does: a NaN weight reaches the output of every sample that reads
/// its column, and of its block mates. (A block whose samples are all zero
/// there stays finite, where the per-sample kernel computes `0 · NaN`; and
/// a ReLU, being `max(x, 0)`, turns a NaN pre-activation into `0.0` on
/// either path, so the driving policy's loss never shows a poisoned trunk
/// weight at all: whoever must reject a poisoned model inspects `params`.)
#[test]
fn nan_weight_in_a_read_column_poisons_that_sample() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let (fan_in, column, n) = (SPARSE_INPUT_DIM, 11, 24);
    let mlp = Mlp::new(MlpSpec { sizes: vec![fan_in, 9, 4], hidden_activation: Activation::Tanh }, 0);
    let mut params = ParamVec::zeros(mlp.param_count());
    mlp.init(&mut params, &mut rng);
    params.as_mut_slice()[4 * fan_in + column] = f32::NAN;
    let inputs = sparse_rows(&mut rng, n, fan_in);
    let mut scratch = MlpScratch::new();
    mlp.stage_batch(&mut scratch, n).copy_from_slice(&inputs);
    mlp.forward_batch(&params, &mut scratch, n);
    let outputs = mlp.batch_outputs(&scratch, n);
    let readers: Vec<usize> = (0..n).filter(|&b| inputs[b * fan_in + column] != 0.0).collect();
    assert!(readers.len() >= 3, "the fixture must read column {column}: {readers:?}");
    for b in readers {
        let single = mlp.forward(&params, &inputs[b * fan_in..(b + 1) * fan_in]);
        assert!(single.output().iter().all(|y| y.is_nan()), "sample {b} reads the NaN weight");
        assert!(outputs[b * 4..(b + 1) * 4].iter().all(|y| y.is_nan()), "sample {b}, batched");
    }
}

/// The one accumulator state a skipped `+0.0` product would have changed: a
/// `-0.0` bias under a zero weight row, a dead `+0.0` column, and a live
/// column of negative inputs. Per sample the sum runs `-0.0 + +0.0 = +0.0`
/// then `+0.0 + -0.0 = +0.0`; stepping over the dead column would leave
/// `-0.0 + -0.0 = -0.0`, so a layer with such a bias must keep every column.
#[test]
fn neg_zero_bias_keeps_every_column() {
    let (fan_in, fan_out) = (3, 5);
    let mlp = Mlp::new(MlpSpec { sizes: vec![fan_in, fan_out], hidden_activation: Activation::Relu }, 0);
    let mut params = ParamVec::zeros(mlp.param_count());
    // Unit 0 sits in the register tile, unit 4 in the one-at-a-time tail.
    for unit in [0, 4] {
        params.as_mut_slice()[fan_in * fan_out + unit] = -0.0;
    }
    let mut scratch = MlpScratch::new();
    for n in [8, 9, 16] {
        let inputs: Vec<f32> =
            (0..n).flat_map(|b| [0.0, -1.0 - b as f32, 0.0]).collect();
        mlp.stage_batch(&mut scratch, n).copy_from_slice(&inputs);
        mlp.forward_batch(&params, &mut scratch, n);
        for (b, x) in inputs.chunks_exact(fan_in).enumerate() {
            let single = mlp.forward(&params, x);
            assert_eq!(bits(single.output()), vec![0; fan_out], "the per-sample sum is +0.0");
            assert_eq!(
                bits(&mlp.batch_outputs(&scratch, n)[b * fan_out..(b + 1) * fan_out]),
                bits(single.output()),
                "n={n} sample {b}"
            );
        }
    }
}

/// FMA-contraction canary. With `w = x = 1 + 2⁻¹²` the exact product is
/// `1 + 2⁻¹¹ + 2⁻²⁴`, a tie that a separately rounded multiply sends to
/// `1 + 2⁻¹¹`, so adding the bias `−(1 + 2⁻¹¹)` gives `+0.0`. A fused
/// multiply-add keeps the `2⁻²⁴`. A kernel that fuses `acc += x * w` fails
/// here without a golden: a `mul_add` on every target, and contraction
/// (`-C llvm-args=-fp-contract=fast`, a fast-math flag) on every target with
/// FMA, such as the default x86-64-v3. Every kernel's bit identity across
/// ISAs rests on this.
#[test]
fn multiply_then_add_is_never_fused() {
    let mlp = Mlp::new(MlpSpec { sizes: vec![1, 1], hidden_activation: Activation::Identity }, 0);
    let (x, w, bias) = (1.0 + 2f32.powi(-12), 1.0 + 2f32.powi(-12), -(1.0 + 2f32.powi(-11)));
    assert_eq!(x.mul_add(w, bias), 2f32.powi(-24), "a fused multiply-add keeps the tie");
    let params = ParamVec::from_vec(vec![w, bias]);
    assert_eq!(bits(mlp.forward(&params, &[x]).output()), vec![0], "forward");
    let mut scratch = MlpScratch::new();
    for n in [1, 8] {
        mlp.stage_batch(&mut scratch, n).fill(x);
        mlp.forward_batch(&params, &mut scratch, n);
        assert_eq!(bits(mlp.batch_outputs(&scratch, n)), vec![0; n], "forward_batch, n={n}");
    }
}

// ---------------------------------------------------------------------------
// The frozen form: a batch of one through input-major weights, lanes across
// a layer's output units, zero inputs stepped over in EVERY layer (BEV zeros
// below, dead ReLUs above). Same bits as `BranchedPolicy::forward`.
// ---------------------------------------------------------------------------

/// `(start, fan_in, fan_out)` of every dense layer of a policy built from
/// `spec`, in parameter order — the trunk, then each head with its one
/// hidden layer of 32 units; a layer's block is its `fan_out` unit-major
/// weight rows followed by its biases.
fn layer_blocks(spec: &PolicySpec) -> Vec<(usize, usize, usize)> {
    let mut sizes = vec![vec![spec.input_dim]];
    sizes[0].extend_from_slice(&spec.trunk);
    let feat_dim = spec.trunk[spec.trunk.len() - 1] + spec.skip_inputs;
    sizes.extend((0..spec.n_branches).map(|_| vec![feat_dim, 32, spec.head_dim()]));
    let mut start = 0;
    let mut blocks = Vec::new();
    for w in sizes.iter().flat_map(|net| net.windows(2)) {
        blocks.push((start, w[0], w[1]));
        start += (w[0] + 1) * w[1];
    }
    blocks
}

/// Plants in every layer of `policy` what the skip argument leans on: a
/// `+0.0` bias, an all-zero weight row, and (if asked) a `-0.0` bias.
fn plant_zeros(policy: &mut BranchedPolicy, neg_zero_bias: bool) {
    let blocks = layer_blocks(policy.spec());
    let p = policy.params_mut().as_mut_slice();
    assert_eq!(blocks.last().map(|&(s, i, o)| s + (i + 1) * o), Some(p.len()));
    for (start, fan_in, fan_out) in blocks {
        let biases = start + fan_in * fan_out;
        p[biases] = 0.0;
        p[start + 2 * fan_in..start + 3 * fan_in].fill(0.0);
        if neg_zero_bias {
            p[biases + 1] = -0.0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn frozen_forward_matches_forward_bits(seed in 0u64..1 << 48) {
        // Dense random input, then the driving-shaped one (>= 70 % zeros,
        // all-zero rows, `-0.0` entries) over parameters with `+0.0` biases
        // and zero weight rows in every layer, with and without `-0.0`
        // biases. Every input goes through every branch, so each head, the
        // trunk-output ReLU and the skip tail are all read — through ONE
        // scratch and output buffer, dirtied by the shapes before.
        let mut scratch = TrainScratch::new();
        let mut out = vec![7.0f32; 3];
        let (dense, dense_data) = seeded_policy_and_batch(seed, 12);
        let (mut sparse, sparse_data) = sparse_policy_and_batch(seed, 24, false);
        plant_zeros(&mut sparse, false);
        let (mut neg, neg_data) = sparse_policy_and_batch(seed ^ 1, 24, true);
        plant_zeros(&mut neg, true);
        for (policy, data) in [(dense, dense_data), (sparse, sparse_data), (neg, neg_data)] {
            let frozen = policy.freeze();
            for (k, (x, _, _, _)) in data.iter().enumerate() {
                for branch in 0..policy.spec().n_branches {
                    frozen.forward_into(x, branch, &mut out, &mut scratch);
                    prop_assert_eq!(
                        bits(&out), bits(&policy.forward(x, branch)),
                        "input_dim {} sample {} branch {}", x.len(), k, branch
                    );
                }
            }
        }
    }
}

/// A policy whose head-0 hidden units are all dead (zero weights under a
/// `-1.0` bias), so the head's last, linear layer reads an all-zero row and
/// its accumulators ARE the output; returns it with that layer's block.
fn dead_hidden_policy() -> (BranchedPolicy, (usize, usize, usize)) {
    let spec = PolicySpec { input_dim: 6, trunk: vec![8], n_branches: 2, waypoints: 2, skip_inputs: 1 };
    let mut policy = BranchedPolicy::new(&spec, &mut rand::rngs::StdRng::seed_from_u64(41));
    let blocks = layer_blocks(&spec);
    let (hidden, fan_in, fan_out) = blocks[1];
    let p = policy.params_mut().as_mut_slice();
    p[hidden..hidden + fan_in * fan_out].fill(0.0);
    p[hidden + fan_in * fan_out..hidden + (fan_in + 1) * fan_out].fill(-1.0);
    (policy, blocks[2])
}

/// [`neg_zero_bias_keeps_every_column`] for the frozen form. Under a `-0.0`
/// bias over a zero weight row the per-sample sum runs `-0.0 + (+0.0 · 0.0)
/// = +0.0` at the first input; stepping over that input (every input here
/// is a dead ReLU's `+0.0`) would leave `-0.0`, so such a layer must keep
/// every column.
#[test]
fn frozen_neg_zero_bias_keeps_every_column() {
    let (mut policy, (last, fan_in, fan_out)) = dead_hidden_policy();
    let p = policy.params_mut().as_mut_slice();
    p[last..last + fan_in].fill(0.0);
    p[last + fan_in * fan_out] = -0.0;
    let x = [0.3f32, 0.0, -0.7, 0.0, 0.0, 0.9];
    let reference = policy.forward(&x, 0);
    assert_eq!(reference[0].to_bits(), 0, "the per-sample sum is +0.0");
    let mut out = Vec::new();
    policy.freeze().forward_into(&x, 0, &mut out, &mut TrainScratch::new());
    assert_eq!(bits(&out), bits(&reference));
}

/// The frozen skip is exact for finite parameters only — what a non-finite
/// one does: a NaN weight under a zero input is never multiplied, so the
/// frozen prediction stays finite where `forward` computes `0 · NaN = NaN`;
/// once the input is live both are NaN. Whoever must reject a poisoned model
/// inspects `params`, not the predictions.
#[test]
fn frozen_nan_weight_in_a_skipped_column_is_not_read() {
    let (mut policy, (last, fan_in, fan_out)) = dead_hidden_policy();
    let (unit, input) = (1, 3);
    policy.params_mut().as_mut_slice()[last + unit * fan_in + input] = f32::NAN;
    let x = [0.3f32, 0.0, -0.7, 0.0, 0.0, 0.9];
    let mut scratch = TrainScratch::new();
    let mut out = Vec::new();

    let reference = policy.forward(&x, 0);
    policy.freeze().forward_into(&x, 0, &mut out, &mut scratch);
    assert!(reference[unit].is_nan(), "forward multiplies the dead input by the NaN weight");
    assert!(out[unit].is_finite(), "the frozen form steps over it: {}", out[unit]);
    for j in (0..fan_out).filter(|&j| j != unit) {
        assert_eq!(out[j].to_bits(), reference[j].to_bits(), "unit {j} reads no NaN");
    }

    // Revive hidden unit `input`: its bias sits after the hidden weights.
    let hidden_biases = layer_blocks(policy.spec())[1];
    let revive = hidden_biases.0 + hidden_biases.1 * hidden_biases.2 + input;
    policy.params_mut().as_mut_slice()[revive] = 1.0;
    policy.freeze().forward_into(&x, 0, &mut out, &mut scratch);
    assert!(policy.forward(&x, 0)[unit].is_nan() && out[unit].is_nan(), "a live input reads it");
}
