//! Coreset construction by layered sampling (paper §III-B, Algorithm 1) and
//! merge-and-reduce maintenance (§III-D).
//!
//! A coreset is a small weighted subset `C` of a dataset `D` whose weighted
//! loss approximates the full dataset's loss for every model in a bounded
//! region of parameter space (Def. II.2, the ε-coreset of a
//! continuous-and-bounded learning problem). Construction partitions `D`
//! into concentric *layers* by per-sample loss distance from the best-loss
//! "center" sample, then draws a weighted random sample from each layer —
//! yielding a data-independent size, unlike sensitivity-based methods.
//!
//! A coreset is itself a [`WeightedDataset`] whose weights are the coreset
//! weights `w_C(d)`; merging is [`WeightedDataset::merge`].

use crate::learner::{slice_losses, Learner};
use crate::WeightedDataset;
use rand::{Rng, RngExt};
use std::cell::RefCell;

/// Parameters of Algorithm 1.
#[derive(Debug, Clone)]
pub struct CoresetConfig {
    /// Target coreset size |C| (paper default: 150 frames ≈ 0.6 MB).
    pub size: usize,
}

impl Default for CoresetConfig {
    fn default() -> Self {
        Self { size: 150 }
    }
}

/// Reusable scratch buffers for [`construct_with_scratch`].
///
/// Construction at size 150 from a 10k-frame dataset needs a loss vector,
/// per-layer index vectors, and a key vector per layer. Every LbChat node
/// rebuilds its coreset every `coreset_refresh_iters` trained iterations,
/// and again at the next chat after an Eq. (8) aggregation, so allocating
/// them per call is a measured hot path (`coreset.construct_us` in
/// `lbchat_e2e`). Sample indices are `u32`, so a scratch costs at most 20
/// bytes a sample. The buffers hold no state between calls — reusing one
/// scratch across datasets and learners is always correct, and results
/// are bit-identical to a fresh scratch — so [`construct`] keeps one per
/// thread rather than one per node: a fleet's nodes take turns on
/// whichever thread runs them, and the scratch is sized by the largest
/// dataset that thread has built from, not by the fleet.
#[derive(Debug, Default, Clone)]
pub struct CoresetScratch {
    losses: Vec<f32>,
    layer_of: Vec<u32>,
    layer_start: Vec<usize>,
    layer_fill: Vec<usize>,
    layer_weights: Vec<f32>,
    order: Vec<u32>,
    keyed: Vec<(f32, u32)>,
}

impl CoresetScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the buffers hold (their capacities).
    fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let Self { losses, layer_of, layer_start, layer_fill, layer_weights, order, keyed } = self;
        bytes(losses)
            + bytes(layer_of)
            + bytes(layer_start)
            + bytes(layer_fill)
            + bytes(layer_weights)
            + bytes(order)
            + bytes(keyed)
    }
}

thread_local! {
    /// This thread's coreset scratch: every [`construct`] on the thread
    /// builds through it. Freed when the thread ends.
    static SCRATCH: RefCell<CoresetScratch> = RefCell::new(CoresetScratch::new());
}

/// Heap bytes the calling thread's coreset scratch holds — zero before the
/// thread's first [`construct`] over a dataset larger than its target
/// size, and steady once it has built from its largest dataset, however
/// many nodes share it.
pub fn scratch_bytes() -> usize {
    SCRATCH.with_borrow(CoresetScratch::heap_bytes)
}

/// The Efraimidis–Spirakis reservoir key `u^(1/w)`.
///
/// Uniform weights (`WeightedDataset::uniform`, the common case) take the
/// exponent-one fast path: IEEE `powf(u, 1.0)` is exactly `u`, so skipping
/// the call changes nothing but the cost (`powf_at_one_is_exact` verifies
/// the identity on this platform).
#[inline]
fn sampling_key<R: Rng + ?Sized>(rng: &mut R, weight: f32) -> f32 {
    let u: f32 = rng.random::<f32>().max(f32::MIN_POSITIVE);
    if weight == 1.0 {
        u
    } else {
        u.powf(1.0 / weight)
    }
}

/// The selection order of layered sampling: key descending, index ascending
/// on ties — exactly the order the reference implementation's stable
/// descending sort produces, made total so partial selection can't diverge
/// from it.
#[inline]
fn key_order(a: &(f32, u32), b: &(f32, u32)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Keeps the `quota` best entries of `keyed` under [`key_order`], sorted,
/// without fully sorting the rest (O(m + q log q) instead of O(m log m)).
fn select_best(keyed: &mut Vec<(f32, u32)>, quota: usize) {
    if quota < keyed.len() {
        keyed.select_nth_unstable_by(quota - 1, key_order);
        keyed.truncate(quota);
    }
    keyed.sort_unstable_by(key_order);
}

/// Builds an ε-coreset of `dataset` by layered sampling (Algorithm 1).
///
/// 1. The *center* is the sample with the smallest loss under the current
///    model; the 0-th layer radius is `R = f(x; D) / |D|`.
/// 2. Each sample joins layer `⌊log2(dist_d / R)⌋` where
///    `dist_d = f(x; d) − f(x; d̃)` (samples within `R` of the center join
///    layer 0). At most `log(|D| + 1)` layers are kept; outliers beyond the
///    last layer join it.
/// 3. Each layer contributes a `w(d)`-weighted random sample (Efraimidis–
///    Spirakis reservoir keys), sized proportionally to the layer's total
///    weight; every picked sample receives the layer-preserving weight
///    `w_C(d) = Σ_{D̂_j} w(d') / Σ_{Ĉ_j} w(d')`.
///
/// Returns an empty coreset for an empty dataset; datasets not larger than
/// `config.size` are copied wholesale (already their own best coreset).
///
/// Output is bit-identical to Algorithm 1 as first implemented, which
/// `tests/reference/` keeps as the oracle. Builds through the calling
/// thread's [`CoresetScratch`], so repeated calls allocate only the
/// coreset they return.
///
/// # Panics
/// As [`construct_with_scratch`].
pub fn construct<L, R>(
    learner: &L,
    dataset: &WeightedDataset<L::Sample>,
    config: &CoresetConfig,
    rng: &mut R,
) -> WeightedDataset<L::Sample>
where
    L: Learner,
    R: Rng + ?Sized,
{
    SCRATCH.with_borrow_mut(|scratch| construct_with_scratch(learner, dataset, config, rng, scratch))
}

/// [`construct`] with caller-owned scratch buffers instead of the
/// thread's; see [`CoresetScratch`].
///
/// # Panics
/// Panics if the dataset is larger than `config.size` and holds more than
/// `u32::MAX` samples (the scratch indexes samples by `u32`).
pub fn construct_with_scratch<L, R>(
    learner: &L,
    dataset: &WeightedDataset<L::Sample>,
    config: &CoresetConfig,
    rng: &mut R,
    scratch: &mut CoresetScratch,
) -> WeightedDataset<L::Sample>
where
    L: Learner,
    R: Rng + ?Sized,
{
    let n = dataset.len();
    if n <= config.size {
        return dataset.clone();
    }
    assert!(n <= u32::MAX as usize, "a coreset is built from at most u32::MAX samples");

    // Per-sample losses under the current model, in one evaluation pass.
    slice_losses(learner, learner.params(), dataset.samples(), &mut scratch.losses);
    let losses = &scratch.losses;
    let center = losses.iter().copied().fold(f32::INFINITY, f32::min);
    let weighted_total: f32 = losses
        .iter()
        .zip(dataset.weights())
        .map(|(l, w)| l * w)
        .sum();
    let radius = (weighted_total / n as f32).max(1e-12);

    // Assign layers: a counting sort into one index buffer replaces the
    // reference's per-layer Vec pushes. `order` holds the dataset indices
    // grouped by layer, ascending within each layer (the same visit order
    // as the reference, so the RNG stream lines up draw for draw).
    let max_layer = ((n + 1) as f32).log2().ceil() as usize;
    let n_layers = max_layer + 1;
    scratch.layer_of.clear();
    scratch.layer_start.clear();
    scratch.layer_start.resize(n_layers + 1, 0);
    for &l in losses {
        let dist = (l - center).max(0.0);
        let layer = if dist <= radius {
            0
        } else {
            (((dist / radius).log2().floor() as isize).max(0) as usize).min(max_layer)
        };
        scratch.layer_of.push(layer as u32);
        scratch.layer_start[layer + 1] += 1;
    }
    for l in 0..n_layers {
        scratch.layer_start[l + 1] += scratch.layer_start[l];
    }
    scratch.layer_fill.clear();
    scratch.layer_fill.extend_from_slice(&scratch.layer_start[..n_layers]);
    scratch.order.resize(n, 0);
    for (i, &layer) in scratch.layer_of.iter().enumerate() {
        let slot = &mut scratch.layer_fill[layer as usize];
        scratch.order[*slot] = i as u32;
        *slot += 1;
    }

    // Allocate the sampling budget across non-empty layers proportionally to
    // layer total weight, at least one sample per non-empty layer.
    scratch.layer_weights.clear();
    let mut nonempty = 0usize;
    for l in 0..n_layers {
        let idx = &scratch.order[scratch.layer_start[l]..scratch.layer_start[l + 1]];
        nonempty += usize::from(!idx.is_empty());
        scratch
            .layer_weights
            .push(idx.iter().map(|&i| dataset.weight(i as usize)).sum::<f32>());
    }
    let total_weight: f32 = scratch.layer_weights.iter().sum();
    let budget = config.size.max(nonempty);

    let mut samples = Vec::with_capacity(budget);
    let mut weights = Vec::with_capacity(budget);
    for layer_idx in 0..n_layers {
        let layer = &scratch.order[scratch.layer_start[layer_idx]..scratch.layer_start[layer_idx + 1]];
        if layer.is_empty() {
            continue;
        }
        let share = scratch.layer_weights[layer_idx] / total_weight;
        let quota = ((budget as f32 * share).round() as usize).clamp(1, layer.len());
        // Weighted sampling without replacement: Efraimidis–Spirakis keys
        // u^(1/w) — take the `quota` largest.
        scratch.keyed.clear();
        scratch
            .keyed
            .extend(layer.iter().map(|&i| (sampling_key(rng, dataset.weight(i as usize)), i)));
        select_best(&mut scratch.keyed, quota);
        let picked_weight: f32 =
            scratch.keyed.iter().map(|&(_, i)| dataset.weight(i as usize)).sum();
        // w_C(d) = (layer total weight) / (picked total weight), scaled by
        // the sample's own original weight so non-uniform weights survive.
        let scale = scratch.layer_weights[layer_idx] / picked_weight;
        for &(_, i) in &scratch.keyed {
            let i = i as usize;
            samples.push(dataset.sample(i).clone());
            weights.push(dataset.weight(i) * scale);
        }
    }
    WeightedDataset::new(samples, weights)
}

/// Reduces a (typically merged) coreset back to `size` samples while
/// preserving its total weight — the 'reduce' half of merge-and-reduce
/// (§III-D, after Har-Peled & Mazumdar). Sampling is `w_C`-weighted without
/// replacement; survivors are rescaled so `Σ w_C` is unchanged.
///
/// Output is bit-identical to the first implementation, which
/// `tests/reference/` keeps as the oracle.
///
/// # Panics
/// Panics if a coreset larger than `size` holds more than `u32::MAX`
/// samples.
pub fn reduce<S: Clone, R: Rng + ?Sized>(
    coreset: WeightedDataset<S>,
    size: usize,
    rng: &mut R,
) -> WeightedDataset<S> {
    if coreset.len() <= size || size == 0 {
        return coreset;
    }
    assert!(coreset.len() <= u32::MAX as usize, "a coreset holds at most u32::MAX samples");
    let total = coreset.total_weight();
    let mut keyed: Vec<(f32, u32)> = coreset
        .weights()
        .iter()
        .enumerate()
        .map(|(i, &w)| (sampling_key(rng, w), i as u32))
        .collect();
    select_best(&mut keyed, size);
    let picked: f32 = keyed.iter().map(|&(_, i)| coreset.weights()[i as usize]).sum();
    let scale = total / picked;
    let samples = keyed.iter().map(|&(_, i)| coreset.samples()[i as usize].clone()).collect();
    let weights = keyed.iter().map(|&(_, i)| coreset.weights()[i as usize] * scale).collect();
    WeightedDataset::new(samples, weights)
}

/// Empirical ε of a coreset w.r.t. its source dataset under the current
/// model: `|f(x;C) − f(x;D)| / f(x;D)` with mean-normalized losses
/// (Def. II.2's relative error). Returns 0 when the dataset loss is 0.
pub fn empirical_epsilon<L: Learner>(
    learner: &L,
    coreset: &WeightedDataset<L::Sample>,
    dataset: &WeightedDataset<L::Sample>,
) -> f32 {
    let mut losses = Vec::new();
    let mut weighted_loss = |samples: &[L::Sample], weights: &[f32]| -> f32 {
        slice_losses(learner, learner.params(), samples, &mut losses);
        weights.iter().zip(&losses).map(|(w, l)| w * l).sum()
    };
    let f_d = weighted_loss(dataset.samples(), dataset.weights());
    let f_c = weighted_loss(coreset.samples(), coreset.weights());
    if f_d.abs() < 1e-12 {
        0.0
    } else {
        (f_c - f_d).abs() / f_d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::testutil::{line_data, LineLearner, Pt};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn noisy_dataset(n: usize) -> WeightedDataset<Pt> {
        // Targets from y = x with varying distances from the model y = x:
        // sample i gets offset i/n, producing a spread of losses.
        let samples: Vec<Pt> = (0..n)
            .map(|i| {
                let x = (i as f32 / n as f32) * 4.0 - 2.0;
                let off = (i % 17) as f32 / 17.0;
                Pt { x, y: x + off, group: i % 4 }
            })
            .collect();
        WeightedDataset::uniform(samples)
    }

    #[test]
    fn small_dataset_returned_wholesale() {
        let l = LineLearner::new(1.0, 0.0);
        let d = WeightedDataset::uniform(line_data(1.0, 0.0, 10));
        let c = construct(&l, &d, &CoresetConfig { size: 150 }, &mut rng());
        assert_eq!(c.len(), 10);
        assert_eq!(c.weights(), d.weights());
    }

    #[test]
    fn empty_dataset_gives_empty_coreset() {
        let l = LineLearner::new(1.0, 0.0);
        let d: WeightedDataset<Pt> = WeightedDataset::empty();
        let c = construct(&l, &d, &CoresetConfig::default(), &mut rng());
        assert!(c.is_empty());
    }

    #[test]
    fn coreset_hits_target_size_approximately() {
        let l = LineLearner::new(1.0, 0.0);
        let d = noisy_dataset(2000);
        let c = construct(&l, &d, &CoresetConfig { size: 150 }, &mut rng());
        assert!(
            (100..=220).contains(&c.len()),
            "size {} should be near the 150 target",
            c.len()
        );
    }

    #[test]
    fn coreset_preserves_total_weight() {
        let l = LineLearner::new(1.0, 0.0);
        let d = noisy_dataset(1000);
        let c = construct(&l, &d, &CoresetConfig { size: 100 }, &mut rng());
        let rel = (c.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(rel < 0.05, "total weight off by {rel}");
    }

    #[test]
    fn coreset_loss_approximates_dataset_loss() {
        let l = LineLearner::new(1.0, 0.0);
        let d = noisy_dataset(3000);
        let c = construct(&l, &d, &CoresetConfig { size: 200 }, &mut rng());
        let eps = empirical_epsilon(&l, &c, &d);
        assert!(eps < 0.15, "empirical epsilon {eps} too large");
    }

    #[test]
    fn approximation_holds_for_nearby_models() {
        // The ε-coreset definition quantifies over a ball of models, not
        // just the construction model. Check a perturbed model.
        let l = LineLearner::new(1.0, 0.0);
        let d = noisy_dataset(3000);
        let c = construct(&l, &d, &CoresetConfig { size: 250 }, &mut rng());
        let mut nearby = LineLearner::new(1.15, 0.1);
        nearby.groups = 4;
        let eps = empirical_epsilon(&nearby, &c, &d);
        assert!(eps < 0.25, "epsilon {eps} under a nearby model");
    }

    #[test]
    fn reduce_preserves_total_weight_and_size() {
        let c = WeightedDataset::new((0..300).collect(), vec![1.0; 300]);
        let total = c.total_weight();
        let r = reduce(c, 100, &mut rng());
        assert_eq!(r.len(), 100);
        assert!((r.total_weight() - total).abs() / total < 1e-4);
    }

    #[test]
    fn reduce_noop_when_already_small() {
        let c = WeightedDataset::new(vec![1, 2, 3], vec![1.0; 3]);
        let r = reduce(c.clone(), 10, &mut rng());
        assert_eq!(r, c);
    }

    #[test]
    fn weighted_sampling_prefers_heavy_samples() {
        // One sample carries most of the weight; it should almost always be
        // selected across repeated constructions.
        let l = LineLearner::new(1.0, 0.0);
        let mut samples = line_data(1.0, 0.5, 400);
        samples[7].y += 0.01; // make it distinguishable
        let mut weights = vec![1.0f32; 400];
        weights[7] = 500.0;
        let d = WeightedDataset::new(samples.clone(), weights);
        let mut hits = 0;
        let mut r = rng();
        for _ in 0..20 {
            let c = construct(&l, &d, &CoresetConfig { size: 40 }, &mut r);
            if c.samples().iter().any(|s| (s.y - samples[7].y).abs() < 1e-9) {
                hits += 1;
            }
        }
        assert!(hits >= 18, "heavy sample selected only {hits}/20 times");
    }

    #[test]
    fn construction_is_deterministic_given_seed() {
        let l = LineLearner::new(1.0, 0.0);
        let d = noisy_dataset(500);
        let c1 = construct(&l, &d, &CoresetConfig { size: 50 }, &mut rng());
        let c2 = construct(&l, &d, &CoresetConfig { size: 50 }, &mut rng());
        assert_eq!(c1, c2);
    }

    #[test]
    fn powf_at_one_is_exact() {
        // The uniform-weight fast path in `sampling_key` relies on
        // powf(u, 1.0) == u bit for bit; verify the identity holds on this
        // platform's libm for the full range the keys occupy.
        let mut r = rng();
        for _ in 0..10_000 {
            let u: f32 = rand::RngExt::random::<f32>(&mut r).max(f32::MIN_POSITIVE);
            assert_eq!(u.powf(1.0).to_bits(), u.to_bits(), "powf(u, 1.0) != u for u={u}");
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_and_stateless() {
        let l = LineLearner::new(1.0, 0.0);
        let mut scratch = CoresetScratch::new();
        // Warm the scratch on a differently-sized dataset first: leftover
        // capacity or stale contents must not leak into the next call.
        let warmup = noisy_dataset(3000);
        let _ = construct_with_scratch(
            &l,
            &warmup,
            &CoresetConfig { size: 200 },
            &mut rng(),
            &mut scratch,
        );
        let d = noisy_dataset(900);
        let cfg = CoresetConfig { size: 80 };
        let reused = construct_with_scratch(&l, &d, &cfg, &mut rng(), &mut scratch);
        let fresh = construct_with_scratch(&l, &d, &cfg, &mut rng(), &mut CoresetScratch::new());
        assert_eq!(reused, fresh);
    }

    #[test]
    fn merged_coreset_approximates_merged_dataset() {
        // The §III-D property: union of coresets ≈ coreset of union.
        let l = LineLearner::new(1.0, 0.0);
        let d1 = noisy_dataset(1500);
        let d2 = {
            let samples: Vec<Pt> = (0..1500)
                .map(|i| {
                    let x = (i as f32 / 1500.0) * 4.0 - 2.0;
                    Pt { x, y: x + 1.0 + (i % 13) as f32 / 13.0, group: i % 4 }
                })
                .collect();
            WeightedDataset::uniform(samples)
        };
        let mut r = rng();
        let c1 = construct(&l, &d1, &CoresetConfig { size: 150 }, &mut r);
        let c2 = construct(&l, &d2, &CoresetConfig { size: 150 }, &mut r);
        let merged_c = c1.merge(c2);
        let merged_d = d1.merge(d2);
        let eps = empirical_epsilon(&l, &merged_c, &merged_d);
        assert!(eps < 0.15, "merged epsilon {eps}");
    }
}
