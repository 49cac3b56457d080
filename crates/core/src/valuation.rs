//! Model value assessment through coresets (§III-B, §III-C).
//!
//! The key insight of LbChat: evaluating *my* model on a *peer's* coreset
//! reveals how different the peer's data is. "A lower performance than that
//! of the peer's model indicates more different peer data, thus more
//! valuable the peer model; and the larger the gap, the higher the value."

use crate::learner::{slice_losses, weighted_mean, Learner};
use crate::penalty::{group_means, sigma, PenaltyConfig};
use crate::WeightedDataset;
use vnn::ParamVec;

/// Rectified linear unit — the truncation `ε(·)` of Eq. (7).
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// The penalized weighted loss of Eq. (6) of a model (given by `params`)
/// on a weighted sample set — the `f(x; C)` the chat protocol exchanges:
/// `Σ w f(x;d) / Σ w + λ₁‖x‖ + λ₂ σ(x)`.
///
/// `coreset` may be a dataset (`w = w(d)`), a coreset (`w = w_C(d)`) or a
/// union of coresets; the weighted-sum term is normalized by total weight
/// so sets of different cardinality are comparable, matching how the paper
/// compares `f(x; C_i)` against `f(x; C_j)`. One evaluation pass: the
/// weighted mean and σ's per-group means derive from the same per-sample
/// losses.
pub fn coreset_loss<L: Learner>(
    learner: &L,
    params: &ParamVec,
    coreset: &WeightedDataset<L::Sample>,
    penalty: &PenaltyConfig,
) -> f32 {
    let mut losses = Vec::new();
    slice_losses(learner, params, coreset.samples(), &mut losses);
    let base = weighted_mean(coreset.weights(), &losses);
    if penalty.lambda1 == 0.0 && penalty.lambda2 == 0.0 {
        return base;
    }
    let s = if penalty.lambda2 != 0.0 {
        sigma(&group_means(learner, coreset, &losses))
    } else {
        0.0
    };
    base + penalty.lambda1 * params.l2_norm() + penalty.lambda2 * s
}

/// The value of a peer's model to the local vehicle (§III-B):
/// `relu(f(x_local; C_peer) − f(x_peer; C_peer))`.
///
/// * `local_on_peer` — the local model's loss on the peer's coreset.
/// * `peer_on_own` — the peer model's loss on its own coreset.
///
/// A large positive gap means the peer's model masters data the local model
/// has never seen; zero means the peer has nothing to offer.
pub fn peer_model_value(local_on_peer: f32, peer_on_own: f32) -> f32 {
    relu(local_on_peer - peer_on_own)
}

/// The gain a receiver expects from a peer model compressed at ψ (the
/// Eq. (7) objective terms): `relu(f(x_recv; C_sender) − φ_sender(ψ))`,
/// where `φ_sender(ψ)` predicts the compressed sender model's loss on the
/// sender's coreset. Compression (lower ψ) raises `φ` and shrinks the gain;
/// `ψ = 0` (sending nothing) has gain 0 by definition.
pub fn expected_gain(receiver_loss_on_sender_coreset: f32, phi_at_psi: f32, psi: f32) -> f32 {
    if psi <= 0.0 {
        return 0.0;
    }
    relu(receiver_loss_on_sender_coreset - phi_at_psi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::testutil::{line_data, LineLearner, Pt};
    use crate::{coreset, WeightedDataset};
    use rand::SeedableRng;

    #[test]
    fn relu_truncates() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
    }

    #[test]
    fn peer_value_zero_when_peer_is_no_better() {
        assert_eq!(peer_model_value(0.5, 0.9), 0.0);
        assert!(peer_model_value(0.9, 0.5) > 0.0);
    }

    #[test]
    fn expected_gain_zero_at_psi_zero() {
        assert_eq!(expected_gain(10.0, 0.0, 0.0), 0.0);
        assert!(expected_gain(10.0, 1.0, 0.5) > 0.0);
    }

    #[test]
    fn different_data_means_higher_value() {
        // Two learners trained on different lines; each coreset reflects its
        // own data. The cross-valuation must exceed the self-valuation.
        let train = |a: f32, b: f32| -> (LineLearner, WeightedDataset<_>) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let mut l = LineLearner::new(0.0, 0.0);
            let data = line_data(a, b, 300);
            for _ in 0..400 {
                let batch: Vec<_> = data.iter().map(|s| (s, 1.0)).collect();
                l.train_step(&batch);
            }
            let ds = WeightedDataset::uniform(data);
            let c = coreset::construct(
                &l,
                &ds,
                &coreset::CoresetConfig { size: 60 },
                &mut rng,
            );
            (l, c)
        };
        let (la, ca) = train(2.0, -1.0);
        let (lb, cb) = train(-1.5, 2.0);
        let pen = PenaltyConfig::none();

        // A's model on B's coreset vs B's model on its own coreset.
        let a_on_b = coreset_loss(&la, la.params(), &cb, &pen);
        let b_on_b = coreset_loss(&lb, lb.params(), &cb, &pen);
        let value_of_b_to_a = peer_model_value(a_on_b, b_on_b);
        assert!(
            value_of_b_to_a > 0.5,
            "models trained on different data must be valuable: {value_of_b_to_a}"
        );

        // A peer identical to A offers nothing.
        let (la2, ca2) = train(2.0, -1.0);
        let a_on_a2 = coreset_loss(&la, la.params(), &ca2, &pen);
        let a2_on_a2 = coreset_loss(&la2, la2.params(), &ca2, &pen);
        let value_of_clone = peer_model_value(a_on_a2, a2_on_a2);
        assert!(
            value_of_clone < 0.05,
            "an identical peer should be near-worthless: {value_of_clone}"
        );
        let _ = (ca, cb);
    }

    #[test]
    fn penalties_increase_the_loss() {
        let l = LineLearner::new(2.0, -1.0);
        let set = WeightedDataset::uniform(vec![
            Pt { x: 0.5, y: 0.3, group: 0 },
            Pt { x: -0.5, y: -1.7, group: 1 },
        ]);
        let plain = coreset_loss(&l, l.params(), &set, &PenaltyConfig::none());
        let pen = coreset_loss(
            &l,
            l.params(),
            &set,
            &PenaltyConfig { lambda1: 0.1, lambda2: 0.1 },
        );
        assert!(pen > plain);
    }

    /// A [`LineLearner`] that counts its per-sample evaluations.
    struct Counting {
        inner: LineLearner,
        calls: std::cell::Cell<usize>,
    }

    impl Learner for Counting {
        type Sample = Pt;

        fn params(&self) -> &ParamVec {
            self.inner.params()
        }

        fn set_params(&mut self, params: ParamVec) {
            self.inner.set_params(params);
        }

        fn loss_with(&self, p: &ParamVec, s: &Pt) -> f32 {
            self.calls.set(self.calls.get() + 1);
            self.inner.loss_with(p, s)
        }

        fn train_step(&mut self, batch: &[(&Pt, f32)]) -> f32 {
            self.inner.train_step(batch)
        }

        fn group_of(&self, s: &Pt) -> usize {
            self.inner.group_of(s)
        }

        fn n_groups(&self) -> usize {
            self.inner.n_groups()
        }
    }

    #[test]
    fn penalized_loss_evaluates_each_pair_once() {
        // The weighted mean and the per-group means of a λ₂ ≠ 0 call share
        // one evaluation pass: n model evaluations, not 2n.
        let l = Counting { inner: LineLearner::new(2.0, -1.0), calls: std::cell::Cell::new(0) };
        let pts: Vec<Pt> =
            (0..9).map(|i| Pt { x: i as f32 * 0.3, y: 0.1 * i as f32, group: i % 4 }).collect();
        let weights = pts.iter().map(|p| 1.0 + p.x).collect();
        let set = WeightedDataset::new(pts, weights);
        let cfg = PenaltyConfig { lambda1: 1e-4, lambda2: 1e-2 };
        let pen = coreset_loss(&l, l.params(), &set, &cfg);
        assert_eq!(l.calls.get(), set.len());
        // Same value as composing the terms from their own passes (2n
        // evaluations).
        let losses = |out: &mut Vec<f32>| slice_losses(&l, l.params(), set.samples(), out);
        let (mut for_mean, mut for_groups) = (Vec::new(), Vec::new());
        losses(&mut for_mean);
        losses(&mut for_groups);
        let composed = weighted_mean(set.weights(), &for_mean)
            + cfg.lambda1 * l.params().l2_norm()
            + cfg.lambda2 * sigma(&group_means(&l, &set, &for_groups));
        assert_eq!(pen.to_bits(), composed.to_bits());
        assert_eq!(l.calls.get(), 3 * set.len());
    }

    #[test]
    fn zero_lambdas_reduce_to_mean_loss() {
        let l = LineLearner::new(1.0, 0.0);
        let set = WeightedDataset::uniform(vec![Pt { x: 1.0, y: 2.0, group: 0 }]);
        let loss = coreset_loss(&l, l.params(), &set, &PenaltyConfig::none());
        assert!((loss - 1.0).abs() < 1e-6); // (1*1+0-2)^2 = 1
    }
}
