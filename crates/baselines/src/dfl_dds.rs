//! DFL-DDS (Su, Zhou, Cui — "Boost decentralized federated learning in
//! vehicular networks by diversifying data sources", ICNP 2022), adapted as
//! in §IV-B.
//!
//! A synchronous, fully decentralized method: training proceeds in rounds
//! (length set to LbChat's `T_B` "for a fair comparison"); at most one
//! exchange per vehicle per round. Each vehicle tracks a *data-source
//! vector* — how much of each peer's data shaped its current model — and
//! weights incoming models to diversify those sources (a peer whose model
//! carries sources I lack gets more weight). Per §IV-B, vehicles "compute a
//! model compression ratio for each encounter to ensure the vehicle pair
//! can finish the model exchange within the contact duration".

use crate::node::{BaseNode, FittedSwap};
use lbchat::learner::mean_eval_loss;
use lbchat::prelude::{
    CollabAlgorithm, FrameCtx, Learner, SessionCtx, SessionStep, TransferOutcome,
};
use lbchat::WeightedDataset;
use vnn::ParamVec;

/// DFL-DDS configuration.
#[derive(Debug, Clone)]
pub struct DflDdsConfig {
    /// Round length in seconds (the paper sets it to `T_B` = 15 s).
    pub round_seconds: f64,
    /// Dense model wire size.
    pub model_bytes: usize,
    /// Base aggregation weight for an incoming model before the diversity
    /// boost.
    pub base_weight: f32,
    /// Batch size for local training.
    pub batch_size: usize,
}

impl Default for DflDdsConfig {
    fn default() -> Self {
        Self {
            round_seconds: 15.0,
            model_bytes: 52 * 1024 * 1024,
            base_weight: 0.35,
            batch_size: 64,
        }
    }
}

/// The synchronous decentralized baseline with data-source diversification.
pub struct DflDds<L: Learner> {
    nodes: Vec<BaseNode<L>>,
    /// `sources[i]` — normalized contribution of each vehicle's data to
    /// node `i`'s model.
    sources: Vec<Vec<f32>>,
    /// Round id of each node's last exchange (one exchange per round).
    last_round: Vec<u64>,
    config: DflDdsConfig,
    current_round: u64,
}

impl<L: Learner> DflDds<L> {
    /// Builds the fleet.
    ///
    /// # Panics
    /// Panics if `learners` and `datasets` lengths differ or are empty.
    pub fn new(
        learners: Vec<L>,
        datasets: Vec<WeightedDataset<L::Sample>>,
        config: DflDdsConfig,
    ) -> Self {
        assert_eq!(learners.len(), datasets.len(), "one dataset per learner");
        assert!(!learners.is_empty(), "need at least one vehicle");
        let n = learners.len();
        // Initially each model is built purely from its own data source.
        let sources = (0..n)
            .map(|i| {
                let mut v = vec![0.0f32; n];
                v[i] = 1.0;
                v
            })
            .collect();
        let nodes = learners
            .into_iter()
            .zip(datasets)
            .map(|(l, d)| BaseNode::new(l, d, config.batch_size))
            .collect();
        Self { nodes, sources, last_round: vec![u64::MAX; n], config, current_round: 0 }
    }

    /// The data-source mix of node `i` (tests / inspection).
    pub fn sources(&self, i: usize) -> &[f32] {
        &self.sources[i]
    }

    /// Diversity gain of absorbing `peer`'s mix into `own`: total variation
    /// distance between the mixes — high when the peer's model is built
    /// from sources I lack.
    fn diversity_gain(own: &[f32], peer: &[f32]) -> f32 {
        own.iter().zip(peer).map(|(a, b)| (a - b).abs()).sum::<f32>() * 0.5
    }

    /// Merges the model `node` received from `peer` with a
    /// diversity-boosted weight and blends the peer's source mix into the
    /// node's own.
    fn merge_received(&mut self, node: usize, peer: usize, model: &ParamVec) {
        let gain = Self::diversity_gain(&self.sources[node], &self.sources[peer]);
        let w = (self.config.base_weight * (0.5 + gain)).clamp(0.05, 0.8);
        self.nodes[node].merge_peer(model, w);
        let (own, theirs) = if node < peer {
            let (a, b) = self.sources.split_at_mut(peer);
            (&mut a[node], &b[0])
        } else {
            let (a, b) = self.sources.split_at_mut(node);
            (&mut b[0], &a[peer])
        };
        for (a, b) in own.iter_mut().zip(theirs) {
            *a = (1.0 - w) * *a + w * b;
        }
    }
}

impl<L: Learner> CollabAlgorithm for DflDds<L> {
    type Sample = L::Sample;
    type Session = FittedSwap;

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

    fn on_frame(&mut self, ctx: &mut FrameCtx<'_>) {
        // Advance the global round counter (synchronous rounds).
        self.current_round = (ctx.time / self.config.round_seconds) as u64;
    }

    fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<(FittedSwap, SessionStep)> {
        let (i, j) = (ctx.i, ctx.j);
        // Synchronous gating: one exchange per node per round.
        let round = self.current_round;
        if self.last_round[i] == round || self.last_round[j] == round {
            return None;
        }
        self.last_round[i] = round;
        self.last_round[j] = round;
        // Contact-fitted equal compression (per §IV-B's adaptation).
        FittedSwap::open(self.config.model_bytes, self.config.round_seconds, ctx)
    }

    fn session_step(
        &mut self,
        state: &mut FittedSwap,
        out: TransferOutcome,
        ctx: &mut SessionCtx<'_>,
    ) -> SessionStep {
        state.step(&self.nodes, out, ctx)
    }

    fn session_close(&mut self, state: FittedSwap, ctx: &mut SessionCtx<'_>) -> f64 {
        let (i, j) = (ctx.i, ctx.j);
        let (for_i, for_j) = state.into_received();
        // `j`'s merge reads the source mix `i`'s merge just updated.
        if let Some(m) = for_i {
            self.merge_received(i, j, &m);
        }
        if let Some(m) = for_j {
            self.merge_received(j, i, &m);
        }
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
        "DFL-DDS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testutil::{line_data, LineLearner};
    use lbchat::prelude::{Runtime, RuntimeConfig};
    use simnet::geom::Vec2;
    use simnet::trace::MobilityTrace;

    fn fleet(n: usize) -> DflDds<LineLearner> {
        let learners = vec![LineLearner::new(); n];
        let datasets: Vec<_> = (0..n)
            .map(|i| WeightedDataset::uniform(line_data(i as f32 - 0.5, 0.0, 200)))
            .collect();
        DflDds::new(learners, datasets, DflDdsConfig {
            model_bytes: 4 * 1024 * 1024,
            ..DflDdsConfig::default()
        })
    }

    fn parked_pair(seconds: f64) -> MobilityTrace {
        let frames = (seconds * 2.0) as usize + 1;
        MobilityTrace::new(
            2.0,
            vec![vec![Vec2::ZERO; frames], vec![Vec2::new(60.0, 0.0); frames]],
        )
    }

    #[test]
    fn exchanges_mix_sources() {
        let mut algo = fleet(2);
        let trace = parked_pair(300.0);
        let eval = line_data(0.0, 0.0, 20);
        let runtime =
            Runtime::new(RuntimeConfig { duration: 300.0, ..RuntimeConfig::default() });
        let m = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(m.model_receives > 0, "parked pair must exchange");
        // Node 0's source mix should now include node 1.
        assert!(algo.sources(0)[1] > 0.05, "{:?}", algo.sources(0));
        let sum: f32 = algo.sources(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "mix stays normalized: {sum}");
    }

    #[test]
    fn diversity_gain_math() {
        assert_eq!(DflDds::<LineLearner>::diversity_gain(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(DflDds::<LineLearner>::diversity_gain(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
    }

    #[test]
    fn one_exchange_per_round() {
        let mut algo = fleet(2);
        let trace = parked_pair(16.0);
        let eval = line_data(0.0, 0.0, 5);
        // Run exactly one round with zero cooldown: the round gate (not the
        // runtime cooldown) must limit exchanges.
        let runtime = Runtime::new(RuntimeConfig {
            duration: 14.0,
            pair_cooldown: 0.0,
            ..RuntimeConfig::default()
        });
        let m = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(
            m.model_sends <= 2,
            "a single round allows one bidirectional exchange: {}",
            m.model_sends
        );
    }
}
