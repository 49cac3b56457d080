//! Decentralized Powerloss (DP) gossip learning (Dinani, Holzer, Nguyen,
//! Marsan, Rizzo — "A gossip learning approach to urban trajectory
//! nowcasting for anticipatory RAN management", IEEE TMC 2023), adapted as
//! in §IV-B.
//!
//! Pure gossip: on every encounter vehicles exchange (contact-fitted
//! compressed) models and merge, deriving the aggregation weight "from a
//! normalized logarithmic function of the loss" evaluated on the local
//! validation dataset — a lower-loss peer model earns a larger share.

use crate::node::{fitted_swap, BaseNode};
use lbchat::learner::mean_eval_loss;
use lbchat::prelude::{CollabAlgorithm, Learner, SessionCtx, SessionStep};
use lbchat::WeightedDataset;
use vnn::ParamVec;

/// DP configuration.
#[derive(Debug, Clone)]
pub struct DpConfig {
    /// Dense model wire size.
    pub model_bytes: usize,
    /// Exchange time budget per encounter (seconds).
    pub time_budget: f64,
    /// Batch size for local training.
    pub batch_size: usize,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self { model_bytes: 52 * 1024 * 1024, time_budget: 15.0, batch_size: 64 }
    }
}

/// The gossip-learning baseline.
pub struct Dp<L: Learner> {
    nodes: Vec<BaseNode<L>>,
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
        assert_eq!(learners.len(), datasets.len(), "one dataset per learner");
        assert!(!learners.is_empty(), "need at least one vehicle");
        let nodes = learners
            .into_iter()
            .zip(datasets)
            .map(|(l, d)| BaseNode::new(l, d, config.batch_size))
            .collect();
        Self { nodes, config }
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

    /// Merges a received peer model into `node`, weighted by both models'
    /// losses on the node's validation split.
    fn merge_received(&mut self, node: usize, peer: &ParamVec) {
        let n = &mut self.nodes[node];
        let own = n.validation_loss(n.learner.params());
        let w_peer = Self::merge_weight(own, n.validation_loss(peer));
        n.merge_peer(peer, w_peer);
    }
}

impl<L: Learner> CollabAlgorithm for Dp<L> {
    type Sample = L::Sample;
    type Session = ();

    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn model(&self, node: usize) -> &ParamVec {
        self.nodes[node].learner.params()
    }

    fn local_training(
        &mut self,
        node: usize,
        iters: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> lbchat::TrainStats {
        self.nodes[node].train(iters, rng)
    }

    /// Swaps contact-fitted models and merges what arrived.
    fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<((), SessionStep)> {
        let (for_i, for_j) =
            fitted_swap(&self.nodes, self.config.model_bytes, self.config.time_budget, ctx)?;
        if let Some(m) = for_i {
            self.merge_received(ctx.i, &m);
        }
        if let Some(m) = for_j {
            self.merge_received(ctx.j, &m);
        }
        Some(((), SessionStep::Done))
    }

    fn session_close(&mut self, _state: (), ctx: &mut SessionCtx<'_>) -> f64 {
        ctx.elapsed()
    }

    /// Model-sharing only: no shared routes, so pairs are served in
    /// encounter order and no contact is predicted for a pair that does
    /// not open.
    fn static_priority(&self, _i: usize, _j: usize) -> Option<f64> {
        Some(0.0)
    }

    fn mean_eval_loss(&self, eval: &[L::Sample]) -> f64 {
        mean_eval_loss(self.nodes.iter().map(|n| &n.learner), eval)
    }

    fn name(&self) -> &'static str {
        "DP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testutil::{line_data, LineLearner};
    use lbchat::prelude::{Runtime, RuntimeConfig};
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
        let mut algo = Dp::new(learners, datasets, DpConfig {
            model_bytes: 4 * 1024 * 1024,
            ..DpConfig::default()
        });
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
        let budget = config.time_budget;
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
