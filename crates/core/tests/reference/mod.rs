//! The pre-optimization coreset implementations, kept verbatim as the
//! golden baseline: the optimized `lbchat::coreset::{construct, reduce}`
//! must match them bit for bit (`coreset_properties.rs` proves it on
//! random inputs, `golden.rs` on the pinned fixture). They live with the
//! integration tests, not in the library, and reach the library only
//! through its public API. Those tests are what pins this module: edit it
//! only together with them. The `partial_cmp(..).expect` holds because
//! the sampling keys `u^(1/w)` are finite for the positive, finite weights
//! `WeightedDataset::new` asserts.

use lbchat::coreset::CoresetConfig;
use lbchat::{Learner, WeightedDataset};
use rand::{Rng, RngExt};

/// Algorithm 1 exactly as first implemented: per-layer index vectors,
/// full-sort selection, `powf` keys unconditionally.
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
    let n = dataset.len();
    if n == 0 {
        return WeightedDataset::empty();
    }
    if n <= config.size {
        return WeightedDataset::new(dataset.samples().to_vec(), dataset.weights().to_vec());
    }

    let losses: Vec<f32> = dataset.samples().iter().map(|s| learner.loss(s)).collect();
    let center = losses.iter().copied().fold(f32::INFINITY, f32::min);
    let weighted_total: f32 = losses
        .iter()
        .zip(dataset.weights())
        .map(|(l, w)| l * w)
        .sum();
    let radius = (weighted_total / n as f32).max(1e-12);

    let max_layer = ((n + 1) as f32).log2().ceil() as usize;
    let mut layers: Vec<Vec<usize>> = vec![Vec::new(); max_layer + 1];
    for (i, &l) in losses.iter().enumerate() {
        let dist = (l - center).max(0.0);
        let layer = if dist <= radius {
            0
        } else {
            (((dist / radius).log2().floor() as isize).max(0) as usize).min(max_layer)
        };
        layers[layer].push(i);
    }

    let layer_weights: Vec<f32> = layers
        .iter()
        .map(|idx| idx.iter().map(|&i| dataset.weight(i)).sum::<f32>())
        .collect();
    let total_weight: f32 = layer_weights.iter().sum();
    let nonempty = layers.iter().filter(|l| !l.is_empty()).count();
    let budget = config.size.max(nonempty);

    let mut samples = Vec::with_capacity(budget);
    let mut weights = Vec::with_capacity(budget);
    for (layer_idx, layer) in layers.iter().enumerate() {
        if layer.is_empty() {
            continue;
        }
        let share = layer_weights[layer_idx] / total_weight;
        let quota = ((budget as f32 * share).round() as usize)
            .clamp(1, layer.len());
        let mut keyed: Vec<(f32, usize)> = layer
            .iter()
            .map(|&i| {
                let u: f32 = rng.random::<f32>().max(f32::MIN_POSITIVE);
                (u.powf(1.0 / dataset.weight(i)), i)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
        keyed.truncate(quota);
        let picked_weight: f32 = keyed.iter().map(|&(_, i)| dataset.weight(i)).sum();
        let scale = layer_weights[layer_idx] / picked_weight;
        for &(_, i) in &keyed {
            samples.push(dataset.sample(i).clone());
            weights.push(dataset.weight(i) * scale);
        }
    }
    WeightedDataset::new(samples, weights)
}

/// Merge-and-reduce's reduce half exactly as first implemented.
pub fn reduce<S: Clone, R: Rng + ?Sized>(
    coreset: WeightedDataset<S>,
    size: usize,
    rng: &mut R,
) -> WeightedDataset<S> {
    if coreset.len() <= size || size == 0 {
        return coreset;
    }
    let total = coreset.total_weight();
    let mut keyed: Vec<(f32, usize)> = (0..coreset.len())
        .map(|i| {
            let u: f32 = rng.random::<f32>().max(f32::MIN_POSITIVE);
            (u.powf(1.0 / coreset.weights()[i]), i)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
    keyed.truncate(size);
    let picked: f32 = keyed.iter().map(|&(_, i)| coreset.weights()[i]).sum();
    let scale = total / picked;
    let samples = keyed.iter().map(|&(_, i)| coreset.samples()[i].clone()).collect();
    let weights = keyed.iter().map(|&(_, i)| coreset.weights()[i] * scale).collect();
    WeightedDataset::new(samples, weights)
}
