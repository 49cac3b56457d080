//! Model aggregation (§III-C, Eq. 8).
//!
//! After receiving the peer's (compressed) model, a vehicle merges it with
//! its local model using weights derived from both models' losses on the
//! joint data `D_i ∪ C_j` (approximated by `C_i ∪ C_j` when encounters are
//! frequent, §III-D).
//!
//! **A note on Eq. (8) as printed.** The printed equation weights each model
//! by *its own* loss, which would give *worse* models *more* influence —
//! contradicting the paper's own reading of it ("the equation assigns
//! larger weights to better-performing models to adaptively aggregate
//! them"). We implement the evidently intended inverse form — each model is
//! weighted by the *other* model's normalized loss, so lower loss ⇒ higher
//! weight — as [`AggregationRule::InverseLoss`].

use vnn::ParamVec;

/// How to derive aggregation weights from the two models' losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationRule {
    /// Paper intent: weight of a model ∝ the *other* model's loss, so the
    /// better-performing model dominates.
    #[default]
    InverseLoss,
    /// Plain averaging — the Table VI ablation.
    Average,
}

/// Merges `local` (loss `loss_local`) with the received `peer` model (loss
/// `loss_peer`), both losses measured on the same joint set.
///
/// # Panics
/// Panics if the parameter lengths differ or a loss is negative/non-finite.
pub fn aggregate(
    local: &ParamVec,
    loss_local: f32,
    peer: &ParamVec,
    loss_peer: f32,
    rule: AggregationRule,
) -> ParamVec {
    assert!(
        loss_local >= 0.0 && loss_local.is_finite() && loss_peer >= 0.0 && loss_peer.is_finite(),
        "losses must be non-negative and finite"
    );
    let (w_local, w_peer) = match rule {
        AggregationRule::Average => (0.5, 0.5),
        AggregationRule::InverseLoss => {
            if loss_local + loss_peer <= 0.0 {
                (0.5, 0.5)
            } else {
                // Weight each model by the other's loss: normalized, the
                // lower-loss model gets the larger share.
                (loss_peer, loss_local)
            }
        }
    };
    ParamVec::weighted_average(local, w_local, peer, w_peer)
}

/// Like [`aggregate`], but *support-aware*: components the (top-k
/// compressed) peer model did not transmit keep their local values instead
/// of being blended toward zero.
///
/// The index–value wire encoding (§III-C) tells the receiver exactly which
/// components arrived; dragging the untransmitted majority of a
/// ψ-compressed model toward zero would corrupt the receiver far beyond
/// what the sender's compression justified. A densified top-k model marks
/// missing components with exact zeros, which is what this function keys
/// on (a transmitted exact-zero component is indistinguishable but also
/// harmless — blending toward zero is then correct).
pub fn aggregate_sparse_aware(
    local: &ParamVec,
    loss_local: f32,
    peer: &ParamVec,
    loss_peer: f32,
    rule: AggregationRule,
) -> ParamVec {
    let blended = aggregate(local, loss_local, peer, loss_peer, rule);
    let data = local
        .as_slice()
        .iter()
        .zip(peer.as_slice())
        .zip(blended.as_slice())
        .map(|((l, p), b)| if *p == 0.0 { *l } else { *b })
        .collect();
    ParamVec::from_vec(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> (ParamVec, ParamVec) {
        (
            ParamVec::from_vec(vec![0.0, 0.0]),
            ParamVec::from_vec(vec![1.0, 1.0]),
        )
    }

    #[test]
    fn inverse_loss_favors_the_better_model() {
        let (local, peer) = models();
        // Local loss 3 (bad), peer loss 1 (good): result closer to peer.
        let merged = aggregate(&local, 3.0, &peer, 1.0, AggregationRule::InverseLoss);
        assert!((merged.as_slice()[0] - 0.75).abs() < 1e-6, "{:?}", merged.as_slice());
    }

    #[test]
    fn average_ignores_losses() {
        let (local, peer) = models();
        let merged = aggregate(&local, 100.0, &peer, 0.001, AggregationRule::Average);
        assert!((merged.as_slice()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn equal_losses_average_under_every_rule() {
        let (local, peer) = models();
        for rule in [AggregationRule::InverseLoss, AggregationRule::Average] {
            let merged = aggregate(&local, 2.0, &peer, 2.0, rule);
            assert!((merged.as_slice()[0] - 0.5).abs() < 1e-6, "{rule:?}");
        }
    }

    #[test]
    fn zero_losses_fall_back_to_average() {
        let (local, peer) = models();
        let merged = aggregate(&local, 0.0, &peer, 0.0, AggregationRule::InverseLoss);
        assert!((merged.as_slice()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn perfect_local_model_dominates() {
        let (local, peer) = models();
        let merged = aggregate(&local, 0.0, &peer, 5.0, AggregationRule::InverseLoss);
        assert_eq!(merged.as_slice(), local.as_slice());
    }

    #[test]
    fn sparse_aware_keeps_untransmitted_components() {
        let local = ParamVec::from_vec(vec![1.0, 2.0, 3.0]);
        // Peer transmitted only component 1 (others zero = not sent).
        let peer = ParamVec::from_vec(vec![0.0, 4.0, 0.0]);
        let m = aggregate_sparse_aware(&local, 1.0, &peer, 1.0, AggregationRule::Average);
        assert_eq!(m.as_slice()[0], 1.0, "untransmitted: keep local");
        assert_eq!(m.as_slice()[2], 3.0, "untransmitted: keep local");
        assert!((m.as_slice()[1] - 3.0).abs() < 1e-6, "transmitted: blended");
    }

    #[test]
    fn sparse_aware_matches_dense_on_full_models() {
        let local = ParamVec::from_vec(vec![1.0, 2.0]);
        let peer = ParamVec::from_vec(vec![3.0, 4.0]);
        let dense = aggregate(&local, 1.0, &peer, 3.0, AggregationRule::InverseLoss);
        let sparse = aggregate_sparse_aware(&local, 1.0, &peer, 3.0, AggregationRule::InverseLoss);
        assert_eq!(dense, sparse);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_loss_panics() {
        let (local, peer) = models();
        let _ = aggregate(&local, -1.0, &peer, 1.0, AggregationRule::InverseLoss);
    }
}
