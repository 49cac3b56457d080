//! RSU-L — road-side-unit opportunistic learning (Xu et al., "Mobile
//! collaborative learning over opportunistic internet of vehicles", IEEE
//! TMC 2023), adapted as in §IV-B.
//!
//! RSUs sit at road crossings, each maintaining an RSU model. When a
//! vehicle passes within RSU range it uploads its model; the RSU aggregates
//! it into its own and sends the aggregate back. Backend bandwidth is
//! unconstrained ("we assume no backend bandwidth constraint at RSUs");
//! message losses follow the same uniform table draw as ProxSkip.

use crate::fleet::{Baseline, Rule};
use lbchat::node::Vehicle;
use lbchat::prelude::{FrameCtx, Learner};
use lbchat::WeightedDataset;
use simnet::geom::Vec2;
use vnn::ParamVec;

/// RSU radio range in meters (same class of radio as V2V).
pub const RSU_RANGE_M: f32 = 300.0;

/// Minimum seconds between two exchanges of the same vehicle with the same
/// RSU.
pub const REVISIT_COOLDOWN: f64 = 60.0;

/// Aggregation weight of the incoming vehicle model at the RSU (the RSU
/// keeps `1 - ALPHA` of its own model).
pub const ALPHA: f32 = 0.5;

/// RSU-L configuration. Local training runs on minibatches of
/// `lbchat::config::BATCH_SIZE`.
#[derive(Debug, Clone)]
pub struct RsuLConfig {
    /// Model wire size (metrics accounting).
    pub model_bytes: usize,
}

impl Default for RsuLConfig {
    fn default() -> Self {
        Self { model_bytes: 52 * 1024 * 1024 }
    }
}

/// The RSU-based opportunistic baseline.
pub type RsuL<L> = Baseline<L, RsuLRule>;

/// RSU-L's exchange rule: vehicle ↔ RSU uploads and downloads.
pub struct RsuLRule {
    rsu_positions: Vec<Vec2>,
    rsu_models: Vec<ParamVec>,
    rsu_initialized: Vec<bool>,
    /// `cooldown[v * n_rsus + r]` — earliest next exchange time.
    cooldown: Vec<f64>,
    config: RsuLConfig,
}

impl<L: Learner> RsuL<L> {
    /// Builds the fleet; `rsu_positions` are the road-cross deployment
    /// sites (the paper simulates "the behavior of RSUs at road crosses").
    ///
    /// # Panics
    /// Panics on empty fleets or an empty RSU set.
    pub fn new(
        learners: Vec<L>,
        datasets: Vec<WeightedDataset<L::Sample>>,
        rsu_positions: Vec<Vec2>,
        config: RsuLConfig,
    ) -> Self {
        Self::with_rule(learners, datasets, |nodes| {
            assert!(!rsu_positions.is_empty(), "need at least one RSU");
            let dim = nodes[0].learner.params().len();
            let rsu_models = vec![ParamVec::zeros(dim); rsu_positions.len()];
            let rsu_initialized = vec![false; rsu_positions.len()];
            let cooldown = vec![0.0; nodes.len() * rsu_positions.len()];
            RsuLRule { rsu_positions, rsu_models, rsu_initialized, cooldown, config }
        })
    }

    /// The RSU models (tests / inspection).
    pub fn rsu_models(&self) -> &[ParamVec] {
        &self.rule.rsu_models
    }
}

/// No V2V exchanges in RSU-L: the `-inf` priority opts out of matching, so
/// no session opens.
impl<L: Learner> Rule<L> for RsuLRule {
    const NAME: &'static str = "RSU-L";
    const PRIORITY: f64 = f64::NEG_INFINITY;

    fn on_frame(&mut self, nodes: &mut [Vehicle<L>], ctx: &mut FrameCtx<'_>) {
        let n_rsus = self.rsu_positions.len();
        // Infrastructure messages carry the full, uncompressed model (ψ = 1).
        let model_bytes = self.config.model_bytes;
        for (v, node) in nodes.iter_mut().enumerate() {
            if ctx.busy_until[v] > ctx.time {
                continue;
            }
            let pos = ctx.trace.position(v, ctx.time);
            for r in 0..n_rsus {
                if pos.distance(self.rsu_positions[r]) > RSU_RANGE_M {
                    continue;
                }
                if self.cooldown[v * n_rsus + r] > ctx.time {
                    continue;
                }
                self.cooldown[v * n_rsus + r] = ctx.time + REVISIT_COOLDOWN;
                // Upload. The first delivered model seeds the RSU
                // wholesale; later uploads are aggregated in.
                let uploaded = ctx.backend_message(model_bytes);
                if uploaded {
                    if self.rsu_initialized[r] {
                        let merged = ParamVec::weighted_average(
                            &self.rsu_models[r],
                            1.0 - ALPHA,
                            node.learner.params(),
                            ALPHA,
                        );
                        self.rsu_models[r] = merged;
                    } else {
                        self.rsu_models[r] = node.learner.params().clone();
                        self.rsu_initialized[r] = true;
                    }
                }
                // Download the (possibly just-updated) RSU model.
                if ctx.backend_message(model_bytes) && self.rsu_initialized[r] {
                    let adopted = ParamVec::weighted_average(
                        node.learner.params(),
                        0.5,
                        &self.rsu_models[r],
                        0.5,
                    );
                    node.adopt(adopted);
                }
                break; // one RSU per frame per vehicle
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{line_data, LineLearner};
    use lbchat::prelude::{Runtime, RuntimeConfig};
    use simnet::trace::MobilityTrace;

    fn fleet(n: usize, rsus: Vec<Vec2>) -> RsuL<LineLearner> {
        let learners = vec![LineLearner::new(); n];
        let datasets: Vec<_> = (0..n)
            .map(|i| WeightedDataset::uniform(line_data(i as f32 + 1.0, 0.0, 150)))
            .collect();
        RsuL::new(learners, datasets, rsus, RsuLConfig::default())
    }

    #[test]
    fn vehicles_near_rsu_exchange() {
        // Vehicle 0 parked at the RSU; vehicle 1 far away.
        let frames = 401;
        let trace = MobilityTrace::new(
            2.0,
            vec![
                vec![Vec2::new(10.0, 0.0); frames],
                vec![Vec2::new(5000.0, 0.0); frames],
            ],
        );
        let mut algo = fleet(2, vec![Vec2::ZERO]);
        let eval = line_data(0.5, 0.0, 10);
        let runtime =
            Runtime::new(RuntimeConfig { duration: 200.0, ..RuntimeConfig::default() });
        let m = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(m.model_sends > 0, "the near vehicle must talk to the RSU");
        assert!(algo.rsu_models()[0].l2_norm() >= 0.0);
        // Vehicle far away should keep its own model (trained on a=1 data):
        // cooldown-based accounting means only vehicle 0 exchanged.
        // 200 s / 60 s cooldown = ~4 visits, 2 messages each.
        assert!(m.model_sends <= 10);
    }

    #[test]
    fn rsu_model_absorbs_vehicle_knowledge() {
        let frames = 801;
        let trace =
            MobilityTrace::new(2.0, vec![vec![Vec2::new(5.0, 0.0); frames]]);
        let mut algo = fleet(1, vec![Vec2::ZERO]);
        let eval = line_data(0.0, 0.0, 10);
        let runtime =
            Runtime::new(RuntimeConfig { duration: 400.0, ..RuntimeConfig::default() });
        runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        // The RSU should have absorbed a trained (non-zero) model.
        assert!(algo.rsu_models()[0].l2_norm() > 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one RSU")]
    fn empty_rsu_set_panics() {
        let _ = fleet(1, vec![]);
    }
}
