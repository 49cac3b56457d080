//! Alternative coreset constructions (paper §V, "Alternative coreset
//! construction approaches").
//!
//! The paper notes that "other kinds of coreset construction strategies
//! (e.g., random sampling based [Langberg & Schulman] and clustering based
//! algorithms [Lu et al.]) ... can be adapted in LbChat", because the core
//! idea only needs loss differences on shared sample sets. This module
//! provides both families so the claim is testable in code:
//!
//! * [`sensitivity_sampling`] — importance sampling where each sample's
//!   selection probability follows its *sensitivity* (share of the total
//!   loss under the current model), after Langberg & Schulman's universal
//!   ε-approximators. Data-dependent size behavior, unlike Alg. 1.
//! * [`kcenter_coreset`] — clustering-based: a greedy k-center cover in
//!   loss-feature space; each center represents (and carries the weight of)
//!   its cluster, after the robust-coreset construction of Lu et al.
//!   (JSAC 2020).
//!
//! Both produce the same [`Coreset`] type Algorithm 1 does, so every
//! downstream stage (valuation, φ, absorption) works unchanged.

use crate::coreset::Coreset;
use crate::dataset::WeightedDataset;
use crate::learner::{slice_losses, Learner};
use rand::{Rng, RngExt};

/// Per-sample losses of the whole dataset under the learner's current model,
/// in one evaluation pass.
fn dataset_losses<L: Learner>(learner: &L, dataset: &WeightedDataset<L::Sample>) -> Vec<f32> {
    let mut losses = Vec::new();
    slice_losses(learner, learner.params(), dataset.samples(), &mut losses);
    losses
}

/// Sensitivity-proportional importance sampling.
///
/// Sample `size` points i.i.d. with probability proportional to
/// `w(d) · (f(x; d) + ε₀)` (the additive floor keeps zero-loss samples
/// selectable), weighting each picked sample by `total / (size · p_d)` so
/// the weighted loss estimator stays unbiased.
///
/// Returns the whole dataset when it is not larger than `size`.
pub fn sensitivity_sampling<L, R>(
    learner: &L,
    dataset: &WeightedDataset<L::Sample>,
    size: usize,
    rng: &mut R,
) -> Coreset<L::Sample>
where
    L: Learner,
    R: Rng + ?Sized,
{
    let n = dataset.len();
    if n == 0 {
        return Coreset::empty();
    }
    if n <= size {
        return Coreset::new(dataset.samples().to_vec(), dataset.weights().to_vec());
    }
    let floor = 1e-6f64;
    let scores: Vec<f64> = dataset_losses(learner, dataset)
        .iter()
        .zip(dataset.weights())
        .map(|(l, w)| (*w as f64) * (*l as f64 + floor))
        .collect();
    let total: f64 = scores.iter().sum();
    // Cumulative distribution for O(log n) draws.
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for s in &scores {
        acc += s;
        cdf.push(acc);
    }
    let total_weight = dataset.total_weight() as f64;
    let mut samples = Vec::with_capacity(size);
    let mut weights = Vec::with_capacity(size);
    for _ in 0..size {
        let u: f64 = rng.random::<f64>() * total;
        let idx = cdf.partition_point(|&c| c < u).min(n - 1);
        let p = scores[idx] / total;
        samples.push(dataset.sample(idx).clone());
        // Unbiased inverse-probability weight, scaled to preserve the total.
        weights.push(((total_weight / size as f64) / (p * n as f64)) as f32 * dataset.weight(idx));
    }
    // Normalize so the coreset's total weight matches the dataset's (the
    // estimator property the rest of the pipeline assumes).
    let sum: f32 = weights.iter().sum();
    if sum > 0.0 {
        let scale = dataset.total_weight() / sum;
        for w in &mut weights {
            *w *= scale;
        }
    }
    Coreset::new(samples, weights)
}

/// Greedy k-center clustering coreset in loss space.
///
/// Greedily picks `size` centers maximizing the minimum loss-distance to
/// the already-picked set (the classic 2-approximation), then assigns every
/// sample to its nearest center and gives each center its cluster's total
/// weight.
///
/// Returns the whole dataset when it is not larger than `size`.
pub fn kcenter_coreset<L, R>(
    learner: &L,
    dataset: &WeightedDataset<L::Sample>,
    size: usize,
    rng: &mut R,
) -> Coreset<L::Sample>
where
    L: Learner,
    R: Rng + ?Sized,
{
    let n = dataset.len();
    if n == 0 {
        return Coreset::empty();
    }
    if n <= size {
        return Coreset::new(dataset.samples().to_vec(), dataset.weights().to_vec());
    }
    // 1-D feature: the per-sample loss (the same signal Alg. 1 layers on);
    // group id breaks ties so different commands cluster separately.
    let feats: Vec<(f32, usize)> = dataset_losses(learner, dataset)
        .into_iter()
        .zip(dataset.samples())
        .map(|(l, s)| (l, learner.group_of(s)))
        .collect();
    let dist = |a: (f32, usize), b: (f32, usize)| -> f32 {
        (a.0 - b.0).abs() + if a.1 == b.1 { 0.0 } else { 10.0 }
    };

    let first = rng.random_range(0..n);
    let mut centers = vec![first];
    let mut min_dist: Vec<f32> = feats.iter().map(|&f| dist(f, feats[first])).collect();
    while centers.len() < size {
        let (far_idx, &far) = min_dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite distances"))
            .expect("non-empty");
        if far <= 0.0 {
            break; // every remaining point coincides with a center
        }
        centers.push(far_idx);
        for (md, &f) in min_dist.iter_mut().zip(&feats) {
            let d = dist(f, feats[far_idx]);
            if d < *md {
                *md = d;
            }
        }
    }
    // Assign cluster weights.
    let mut center_weight = vec![0.0f32; centers.len()];
    for i in 0..n {
        let (best, _) = centers
            .iter()
            .enumerate()
            .map(|(k, &c)| (k, dist(feats[i], feats[c])))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .expect("non-empty centers");
        center_weight[best] += dataset.weight(i);
    }
    let samples = centers.iter().map(|&c| dataset.sample(c).clone()).collect();
    // Guard against empty clusters (possible only for duplicated centers).
    let weights = center_weight
        .into_iter()
        .map(|w| w.max(f32::MIN_POSITIVE))
        .collect();
    Coreset::new(samples, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coreset::empirical_epsilon;
    use crate::learner::testutil::{LineLearner, Pt};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    fn dataset(n: usize) -> WeightedDataset<Pt> {
        let samples: Vec<Pt> = (0..n)
            .map(|i| {
                let x = (i as f32 / n as f32) * 4.0 - 2.0;
                Pt { x, y: x + (i % 23) as f32 / 23.0, group: i % 4 }
            })
            .collect();
        WeightedDataset::uniform(samples)
    }

    #[test]
    fn sensitivity_preserves_total_weight() {
        let l = LineLearner::new(1.0, 0.0);
        let d = dataset(2000);
        let c = sensitivity_sampling(&l, &d, 150, &mut rng());
        assert_eq!(c.len(), 150);
        let rel = (c.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(rel < 1e-3, "total weight drift {rel}");
    }

    #[test]
    fn sensitivity_approximates_loss() {
        let l = LineLearner::new(1.0, 0.0);
        let d = dataset(3000);
        let c = sensitivity_sampling(&l, &d, 250, &mut rng());
        let eps = empirical_epsilon(&l, &c, &d);
        assert!(eps < 0.35, "sensitivity epsilon {eps}");
    }

    #[test]
    fn sensitivity_prefers_high_loss_samples() {
        let l = LineLearner::new(1.0, 0.0);
        // One sample has enormous loss: it should almost surely appear.
        let mut samples: Vec<Pt> = (0..500)
            .map(|i| Pt { x: i as f32 / 500.0, y: i as f32 / 500.0, group: 0 })
            .collect();
        samples[123].y += 100.0;
        let d = WeightedDataset::uniform(samples.clone());
        let c = sensitivity_sampling(&l, &d, 20, &mut rng());
        assert!(
            c.samples().iter().any(|s| (s.y - samples[123].y).abs() < 1e-6),
            "the dominant-loss sample must be picked"
        );
    }

    #[test]
    fn kcenter_covers_the_loss_range() {
        let l = LineLearner::new(1.0, 0.0);
        let d = dataset(2000);
        let c = kcenter_coreset(&l, &d, 100, &mut rng());
        assert!(c.len() <= 100);
        let rel = (c.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(rel < 1e-3, "cluster weights must sum to the dataset: {rel}");
        // Loss coverage: the max loss in the coreset should be close to the
        // dataset's max (k-center picks extremes first).
        let max_d = d.samples().iter().map(|s| l.loss(s)).fold(0.0f32, f32::max);
        let max_c = c.samples().iter().map(|s| l.loss(s)).fold(0.0f32, f32::max);
        assert!(max_c > max_d * 0.9, "extremes must be covered: {max_c} vs {max_d}");
    }

    #[test]
    fn kcenter_approximates_loss() {
        let l = LineLearner::new(1.0, 0.0);
        let d = dataset(3000);
        let c = kcenter_coreset(&l, &d, 200, &mut rng());
        let eps = empirical_epsilon(&l, &c, &d);
        assert!(eps < 0.25, "k-center epsilon {eps}");
    }

    #[test]
    fn small_datasets_pass_through() {
        let l = LineLearner::new(1.0, 0.0);
        let d = dataset(10);
        assert_eq!(sensitivity_sampling(&l, &d, 50, &mut rng()).len(), 10);
        assert_eq!(kcenter_coreset(&l, &d, 50, &mut rng()).len(), 10);
        let empty: WeightedDataset<Pt> = WeightedDataset::empty();
        assert!(sensitivity_sampling(&l, &empty, 50, &mut rng()).is_empty());
        assert!(kcenter_coreset(&l, &empty, 50, &mut rng()).is_empty());
    }

    #[test]
    fn all_three_constructions_agree_on_the_estimate() {
        // Layered (Alg. 1), sensitivity, and k-center coresets of the same
        // dataset should all estimate f(x; D) within a loose band — the
        // §V claim that LbChat is construction-agnostic.
        let l = LineLearner::new(1.0, 0.0);
        let d = dataset(3000);
        let mut r = rng();
        let layered = crate::coreset::construct(
            &l,
            &d,
            &crate::coreset::CoresetConfig { size: 200 },
            &mut r,
        );
        let sens = sensitivity_sampling(&l, &d, 200, &mut r);
        let kc = kcenter_coreset(&l, &d, 200, &mut r);
        for (name, c) in [("layered", &layered), ("sensitivity", &sens), ("kcenter", &kc)] {
            let eps = empirical_epsilon(&l, c, &d);
            assert!(eps < 0.3, "{name} epsilon {eps}");
        }
    }
}
