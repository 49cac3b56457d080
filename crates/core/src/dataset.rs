//! Weighted sample sets: the local datasets `D_i` of §II-A, the coresets
//! Algorithm 1 draws from them (Def. II.2), and their unions (§III-D).
//!
//! A coreset is a weighted dataset scored by the same weighted loss, so one
//! type carries both: a local dataset holds its original weights `w(d)`, a
//! coreset its coreset weights `w_C(d)`.

/// A set of weighted samples: `f(x; D) = Σ_d w(d) f(x; d)` (Eq. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedDataset<S> {
    samples: Vec<S>,
    weights: Vec<f32>,
}

impl<S: Clone> WeightedDataset<S> {
    /// Creates a dataset with uniform unit weights.
    pub fn uniform(samples: Vec<S>) -> Self {
        let weights = vec![1.0; samples.len()];
        Self { samples, weights }
    }

    /// Creates a dataset with explicit weights.
    ///
    /// # Panics
    /// Panics if lengths differ or any weight is non-positive / non-finite.
    pub fn new(samples: Vec<S>, weights: Vec<f32>) -> Self {
        assert_eq!(samples.len(), weights.len(), "sample/weight length mismatch");
        assert!(
            weights.iter().all(|w| *w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        Self { samples, weights }
    }

    /// An empty set.
    pub fn empty() -> Self {
        Self { samples: Vec::new(), weights: Vec::new() }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples.
    pub fn samples(&self) -> &[S] {
        &self.samples
    }

    /// The weights: `w(d)` of a local dataset, `w_C(d)` of a coreset.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Sample at `i`.
    pub fn sample(&self, i: usize) -> &S {
        &self.samples[i]
    }

    /// Weight of sample `i`.
    pub fn weight(&self, i: usize) -> f32 {
        self.weights[i]
    }

    /// Total weight `Σ w(d)` (a coreset's approximates its source
    /// dataset's — the estimator property layered sampling preserves).
    pub fn total_weight(&self) -> f32 {
        self.weights.iter().sum()
    }

    /// Appends a sample with weight.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite weight.
    pub fn push(&mut self, sample: S, weight: f32) {
        assert!(weight > 0.0 && weight.is_finite(), "weight must be positive and finite");
        self.samples.push(sample);
        self.weights.push(weight);
    }

    /// Merges two coresets by union (§III-D): if `C_1`, `C_2` are ε-coresets
    /// of disjoint `D_1`, `D_2`, the union is an ε-coreset of `D_1 ∪ D_2`.
    /// Samples keep their weights.
    pub fn merge(mut self, other: Self) -> Self {
        self.samples.extend(other.samples);
        self.weights.extend(other.weights);
        self
    }

    /// Absorbs a received coreset, expanding the local dataset (§III-D).
    ///
    /// The paper keeps "the original weights w(d) of all data samples in the
    /// expanded local dataset to be the same": every absorbed sample joins
    /// with weight 1.0 — the weight of an unboosted Follow frame — whatever
    /// its coreset weight `w_C` and whatever weights the dataset already
    /// holds (collected driving datasets are not uniform).
    pub fn absorb(&mut self, coreset: &Self) {
        for s in coreset.samples() {
            self.samples.push(s.clone());
            self.weights.push(1.0);
        }
    }
}

impl<S: Clone> Default for WeightedDataset<S> {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_are_one() {
        let d = WeightedDataset::uniform(vec![10, 20, 30]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.weights(), &[1.0, 1.0, 1.0]);
        assert_eq!(d.total_weight(), 3.0);
    }

    #[test]
    fn absorb_coreset_keeps_uniform_base_weight() {
        let mut d = WeightedDataset::uniform(vec![1, 2]);
        let c = WeightedDataset::new(vec![7, 8, 9], vec![5.0, 5.0, 5.0]);
        d.absorb(&c);
        assert_eq!(d.len(), 5);
        // Absorbed samples get base weight 1.0, not their coreset weight.
        assert_eq!(d.weights(), &[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(d.samples()[2..], [7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_rejected() {
        let _ = WeightedDataset::new(vec![1], vec![0.0]);
    }

    #[test]
    fn merge_concatenates() {
        let a = WeightedDataset::new(vec![1, 2], vec![1.0, 2.0]);
        let b = WeightedDataset::new(vec![3], vec![3.0]);
        let m = a.merge(b);
        assert_eq!(m.samples(), &[1, 2, 3]);
        assert_eq!(m.weights(), &[1.0, 2.0, 3.0]);
    }

    /// Every weight `new` and `push` must refuse: zero, negative, NaN and
    /// both infinities.
    const BAD_WEIGHTS: [f32; 5] = [0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

    fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(f).is_err()
    }

    #[test]
    fn new_rejects_every_non_positive_or_non_finite_weight() {
        for w in BAD_WEIGHTS {
            assert!(panics(move || drop(WeightedDataset::new(vec![1, 2], vec![1.0, w]))), "{w}");
        }
    }

    #[test]
    fn push_rejects_every_non_positive_or_non_finite_weight() {
        for w in BAD_WEIGHTS {
            assert!(panics(move || WeightedDataset::uniform(vec![1]).push(2, w)), "{w}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_rejected() {
        let _ = WeightedDataset::new(vec![1, 2], vec![1.0]);
    }
}
