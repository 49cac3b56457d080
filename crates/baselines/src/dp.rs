//! Decentralized Powerloss (DP) gossip learning (Dinani, Holzer, Nguyen,
//! Marsan, Rizzo — "A gossip learning approach to urban trajectory
//! nowcasting for anticipatory RAN management", IEEE TMC 2023), adapted as
//! in §IV-B.
//!
//! Pure gossip: on every encounter vehicles exchange (contact-fitted
//! compressed) models and merge, deriving the aggregation weight "from a
//! normalized logarithmic function of the loss" evaluated on the local
//! validation dataset — a lower-loss peer model earns a larger share.

use crate::fleet::{fitted_swap, merge_on_support, Baseline, Rule};
use lbchat::config::TIME_BUDGET;
use lbchat::learner::mean_loss;
use lbchat::node::Vehicle;
use lbchat::prelude::{Learner, SessionCtx};
use lbchat::WeightedDataset;
use vnn::ParamVec;

/// DP configuration. An encounter's exchange is budgeted
/// [`TIME_BUDGET`], and local training runs on minibatches of
/// `lbchat::config::BATCH_SIZE`.
#[derive(Debug, Clone)]
pub struct DpConfig {
    /// Dense model wire size.
    pub model_bytes: usize,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self { model_bytes: 52 * 1024 * 1024 }
    }
}

/// The gossip-learning baseline.
pub type Dp<L> = Baseline<L, DpRule>;

/// DP's exchange rule: a fitted swap on every encounter, merged by
/// validation loss.
pub struct DpRule {
    config: DpConfig,
}

impl<L: Learner> Dp<L> {
    /// Builds the fleet.
    ///
    /// # Panics
    /// Panics if `learners` and `datasets` lengths differ or are empty.
    pub fn new(
        learners: Vec<L>,
        datasets: Vec<WeightedDataset<L::Sample>>,
        config: DpConfig,
    ) -> Self {
        Self::with_rule(learners, datasets, |_| DpRule { config })
    }

    /// The DP merge weight for a received model: normalized logarithmic
    /// loss, giving the *lower-loss* model the larger share:
    /// `w_peer = log(1 + L_own) / (log(1 + L_own) + log(1 + L_peer))`.
    pub fn merge_weight(own_loss: f32, peer_loss: f32) -> f32 {
        let a = (1.0 + own_loss.max(0.0)).ln();
        let b = (1.0 + peer_loss.max(0.0)).ln();
        if a + b <= 0.0 {
            0.5
        } else {
            a / (a + b)
        }
    }
}

/// Merges a received peer model into `vehicle` on the peer's support,
/// weighted by both models' mean losses on the vehicle's held-out samples.
fn merge_received<L: Learner>(vehicle: &mut Vehicle<L>, peer: &ParamVec) {
    let held_out: Vec<&L::Sample> = vehicle.held_out().iter().collect();
    let loss = |params| mean_loss(&vehicle.learner, params, &held_out) as f32;
    let w_peer = Dp::<L>::merge_weight(loss(vehicle.learner.params()), loss(peer));
    vehicle.adopt(merge_on_support(vehicle.learner.params(), peer, w_peer));
}

impl<L: Learner> Rule<L> for DpRule {
    const NAME: &'static str = "DP";
    const PRIORITY: f64 = 0.0;

    /// Swaps contact-fitted models and merges what arrived.
    fn session(&mut self, nodes: &mut [Vehicle<L>], ctx: &mut SessionCtx<'_>) -> bool {
        let Some((for_i, for_j)) =
            fitted_swap(nodes, self.config.model_bytes, TIME_BUDGET, ctx)
        else {
            return false;
        };
        if let Some(m) = for_i {
            merge_received(&mut nodes[ctx.i], &m);
        }
        if let Some(m) = for_j {
            merge_received(&mut nodes[ctx.j], &m);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{line_data, LineLearner};
    use lbchat::prelude::{CollabAlgorithm, Runtime, RuntimeConfig};
    use simnet::channel::RadioConfig;
    use simnet::geom::Vec2;
    use simnet::trace::MobilityTrace;

    #[test]
    fn merge_weight_prefers_lower_loss_peer() {
        // Peer has much lower loss: peer weight = 1 - merge_weight... the
        // formula returns w_peer from the caller's perspective where
        // `merge_weight(own, peer)` is the share of the *peer* model.
        let w = Dp::<LineLearner>::merge_weight(4.0, 0.1);
        assert!(w > 0.8, "a much better peer should dominate: {w}");
        let w2 = Dp::<LineLearner>::merge_weight(0.1, 4.0);
        assert!(w2 < 0.2, "a much worse peer should be damped: {w2}");
        assert!((Dp::<LineLearner>::merge_weight(1.0, 1.0) - 0.5).abs() < 1e-6);
        assert_eq!(Dp::<LineLearner>::merge_weight(0.0, 0.0), 0.5);
    }

    #[test]
    fn gossip_exchanges_and_merges() {
        let learners = vec![LineLearner::new(), LineLearner::new()];
        let datasets = vec![
            WeightedDataset::uniform(line_data(2.0, 0.0, 200)),
            WeightedDataset::uniform(line_data(-2.0, 0.0, 200)),
        ];
        let mut algo = Dp::new(learners, datasets, DpConfig { model_bytes: 4 * 1024 * 1024 });
        let frames = 601;
        let trace = MobilityTrace::new(
            2.0,
            vec![vec![Vec2::ZERO; frames], vec![Vec2::new(70.0, 0.0); frames]],
        );
        let eval = line_data(0.0, 0.0, 20);
        let runtime =
            Runtime::new(RuntimeConfig { duration: 300.0, ..RuntimeConfig::default() });
        let m = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(m.model_receives >= 2, "gossip must exchange models");
        // Merged models should sit between the two pure slopes.
        let slope0 = algo.model(0).as_slice()[0];
        assert!(slope0.abs() < 2.0, "merging pulls slopes together: {slope0}");
    }

    #[test]
    fn exchange_is_sized_for_the_configured_radio() {
        // A loss-free 6 Mbps radio and the paper's 52 MB model: ψ must be
        // fitted to the link the channel actually times packets on, so one
        // exchange (both directions) stays within T_B = 15 s. Sized for the
        // paper's 31 Mbps instead, the same exchange takes ≈ 74 s.
        let config = DpConfig::default();
        let budget = TIME_BUDGET;
        let learners = vec![LineLearner::new(), LineLearner::new()];
        let datasets = vec![
            WeightedDataset::uniform(line_data(2.0, 0.0, 50)),
            WeightedDataset::uniform(line_data(-2.0, 0.0, 50)),
        ];
        let mut algo = Dp::new(learners, datasets, config);
        let frames = 61;
        let trace = MobilityTrace::new(
            2.0,
            vec![vec![Vec2::ZERO; frames], vec![Vec2::new(70.0, 0.0); frames]],
        );
        let radio = RadioConfig { bandwidth_bps: 6e6, ..RadioConfig::default() };
        // Each direction rounds its payload up to whole packets.
        let slack = 2.0 * radio.packet_time();
        let runtime =
            Runtime::new(RuntimeConfig { duration: 30.0, radio, ..RuntimeConfig::default() });
        let m = runtime.run(&mut algo, &trace, &line_data(0.0, 0.0, 5)).expect("trace fits");
        assert_eq!((m.sessions, m.model_receives), (1, 2), "one exchange, both directions");
        assert!(
            m.comm_seconds <= budget + slack,
            "exchange took {} s of a {budget} s budget",
            m.comm_seconds
        );
    }
}
