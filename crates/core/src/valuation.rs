//! Model value assessment through coresets (§III-B, §III-C).
//!
//! The key insight of LbChat: evaluating *my* model on a *peer's* coreset
//! reveals how different the peer's data is. "A lower performance than that
//! of the peer's model indicates more different peer data, thus more
//! valuable the peer model; and the larger the gap, the higher the value."

use crate::learner::Learner;
use crate::penalty::{penalized_loss, PenaltyConfig};
use crate::WeightedDataset;
use vnn::ParamVec;

/// Rectified linear unit — the truncation `ε(·)` of Eq. (7).
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Penalized weighted loss of a model (given by `params`) on a coreset —
/// the `f(x; C)` the chat protocol exchanges.
pub fn coreset_loss<L: Learner>(
    learner: &L,
    params: &ParamVec,
    coreset: &WeightedDataset<L::Sample>,
    penalty: &PenaltyConfig,
) -> f32 {
    penalized_loss(learner, params, &coreset.pairs(), penalty)
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
    use crate::learner::testutil::{line_data, LineLearner};
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
}
