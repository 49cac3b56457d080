//! ProxSkip (Mishchenko, Malinovsky, Stich, Richtárik — ICML 2022),
//! adapted to the vehicular setting as in §IV-B.
//!
//! A central server coordinates rounds of length `T_B`. Every round each
//! vehicle has performed its local (control-variate-corrected) SGD steps;
//! with probability `p` the round is a *communication round*: vehicles
//! upload their models, the server averages what arrived, broadcasts the
//! average, and each vehicle that receives it updates its control variate
//! `h_i ← h_i + (p/γ)(x̄ − x̂_i)` — the ProxSkip correction expressed at
//! the parameter level (our [`lbchat::Learner`] abstraction exposes
//! parameters, not gradients).
//!
//! Per the paper: "we assume no communication bandwidth constraint to the
//! backend in ProxSkip, which is idealistic and non-practical" — uploads
//! and downloads are instant; under wireless loss each message draws a loss
//! uniformly from the distance-loss table.

use crate::fleet::{Baseline, Rule};
use lbchat::node::Vehicle;
use lbchat::prelude::{FrameCtx, Learner};
use lbchat::WeightedDataset;
use rand::RngExt;
use vnn::ParamVec;

/// ProxSkip configuration.
#[derive(Debug, Clone)]
pub struct ProxSkipConfig {
    /// Round length in seconds (set to the paper's `T_B`).
    pub round_seconds: f64,
    /// Probability a round communicates (the "skip" probability is `1-p`).
    pub comm_prob: f64,
    /// Control-variate step scale γ̂: the correction applied per adopted
    /// average. Zero disables control variates (plain skipped FedAvg).
    pub cv_gamma: f32,
    /// Model wire size in bytes (for metrics accounting only — the backend
    /// is unconstrained).
    pub model_bytes: usize,
    /// Batch size for local training.
    pub batch_size: usize,
}

impl Default for ProxSkipConfig {
    fn default() -> Self {
        Self {
            round_seconds: 15.0,
            comm_prob: 0.5,
            cv_gamma: 0.1,
            model_bytes: 52 * 1024 * 1024,
            batch_size: 64,
        }
    }
}

/// The central-server federated baseline.
pub type ProxSkip<L> = Baseline<L, ProxSkipRule>;

/// ProxSkip's exchange rule: skipped server rounds and control variates.
pub struct ProxSkipRule {
    /// Per-node control variate `h_i`.
    variates: Vec<ParamVec>,
    config: ProxSkipConfig,
    next_round: f64,
}

impl<L: Learner> ProxSkip<L> {
    /// Builds the fleet.
    ///
    /// # Panics
    /// Panics if `learners` and `datasets` lengths differ or are empty.
    pub fn new(
        learners: Vec<L>,
        datasets: Vec<WeightedDataset<L::Sample>>,
        config: ProxSkipConfig,
    ) -> Self {
        Self::with_rule(learners, datasets, config.batch_size, |nodes| {
            let dim = nodes[0].learner.params().len();
            let variates = vec![ParamVec::zeros(dim); nodes.len()];
            ProxSkipRule { variates, config, next_round: 0.0 }
        })
    }

    /// Immutable node access.
    pub fn node(&self, i: usize) -> &Vehicle<L> {
        &self.nodes[i]
    }
}

/// Vehicles never talk to each other in ProxSkip: the `-inf` priority opts
/// out of matching, so no session opens.
impl<L: Learner> Rule<L> for ProxSkipRule {
    const NAME: &'static str = "ProxSkip";
    const PRIORITY: f64 = f64::NEG_INFINITY;

    /// Control-variate drift: x ← x + γ̂ h (the −γ(−h_i) term of the
    /// ProxSkip local step).
    fn after_step(&self, v: usize, node: &mut Vehicle<L>) {
        if self.config.cv_gamma != 0.0 {
            let mut p = node.learner.params().clone();
            p.axpy(self.config.cv_gamma * 0.01, &self.variates[v]);
            // Not `adopt`: the drift is part of the local step, so the
            // optimizer keeps its momentum.
            node.learner.set_params(p);
        }
    }

    fn on_frame(&mut self, nodes: &mut [Vehicle<L>], ctx: &mut FrameCtx<'_>) {
        if ctx.time < self.next_round {
            return;
        }
        self.next_round = ctx.time + self.config.round_seconds;
        if !ctx.rng().random_bool(self.config.comm_prob) {
            return; // skipped round: local steps only
        }
        // Upload phase: which models reach the server. Backend messages
        // carry the full, uncompressed model (ψ = 1).
        let model_bytes = self.config.model_bytes;
        let mut arrived: Vec<usize> = Vec::new();
        for i in 0..nodes.len() {
            if ctx.backend_message(model_bytes) {
                arrived.push(i);
            }
        }
        if arrived.is_empty() {
            return;
        }
        // Server average of delivered models.
        let dim = nodes[0].learner.params().len();
        let mut avg = ParamVec::zeros(dim);
        for &i in &arrived {
            avg.axpy(1.0 / arrived.len() as f32, nodes[i].learner.params());
        }
        // Download phase: vehicles that receive the broadcast adopt it and
        // update their control variate.
        let p = self.config.comm_prob as f32;
        for (i, node) in nodes.iter_mut().enumerate() {
            if !ctx.backend_message(model_bytes) {
                continue;
            }
            if self.config.cv_gamma != 0.0 {
                let mut delta = avg.clone();
                delta.axpy(-1.0, node.learner.params());
                self.variates[i].axpy(p / self.config.cv_gamma, &delta);
            }
            node.adopt(avg.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{line_data, LineLearner};
    use lbchat::prelude::{CollabAlgorithm, Runtime, RuntimeConfig};
    use simnet::geom::Vec2;
    use simnet::trace::MobilityTrace;

    fn fleet(n: usize) -> ProxSkip<LineLearner> {
        let learners = vec![LineLearner::new(); n];
        let datasets: Vec<_> = (0..n)
            .map(|i| {
                WeightedDataset::uniform(line_data(i as f32 - 1.0, 0.5 * i as f32, 200))
            })
            .collect();
        ProxSkip::new(learners, datasets, ProxSkipConfig {
            cv_gamma: 0.0,
            ..ProxSkipConfig::default()
        })
    }

    fn parked_trace(n: usize, seconds: f64) -> MobilityTrace {
        let frames = (seconds * 2.0) as usize + 1;
        MobilityTrace::new(
            2.0,
            (0..n)
                .map(|i| vec![Vec2::new(i as f32 * 2000.0, 0.0); frames])
                .collect(),
        )
    }

    #[test]
    fn averaging_beats_isolation_on_the_joint_distribution() {
        // Slopes -1, 0, 1: the consensus model (slope ~0) fits the middle
        // distribution; an isolated outer node cannot.
        let trace = parked_trace(3, 400.0);
        let eval = line_data(0.0, 0.5, 30);
        let runtime =
            Runtime::new(RuntimeConfig { duration: 400.0, ..RuntimeConfig::default() });
        let mut federated = fleet(3);
        runtime.run(&mut federated, &trace, &eval).expect("trace fits");
        let mut isolated = fleet(3);
        isolated.rule.config.comm_prob = 0.0; // never communicate
        runtime.run(&mut isolated, &trace, &eval).expect("trace fits");
        let fed_loss = federated.mean_eval_loss(&eval);
        let iso_loss = isolated.mean_eval_loss(&eval);
        assert!(
            fed_loss < iso_loss * 0.9,
            "federated averaging must beat isolation: {fed_loss} vs {iso_loss}"
        );
    }

    #[test]
    fn vehicles_never_chat() {
        let mut algo = fleet(2);
        // Park them within range: still no P2P sessions, because priority
        // is -inf.
        let frames = 201;
        let trace = MobilityTrace::new(
            2.0,
            vec![vec![Vec2::ZERO; frames], vec![Vec2::new(50.0, 0.0); frames]],
        );
        let eval = line_data(0.0, 0.0, 10);
        let runtime = Runtime::new(RuntimeConfig { duration: 100.0, ..RuntimeConfig::default() });
        let m = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert_eq!(m.sessions, 0);
        assert!(m.model_sends > 0, "backend messages still flow");
    }

    #[test]
    fn wireless_loss_reduces_receiving_rate() {
        let mut algo = fleet(3);
        let trace = parked_trace(3, 300.0);
        let eval = line_data(0.0, 0.5, 10);
        let runtime = Runtime::new(RuntimeConfig {
            duration: 300.0,
            loss_model: simnet::loss::LossModel::distance_default(),
            ..RuntimeConfig::default()
        });
        let m = runtime.run(&mut algo, &trace, &eval).expect("trace fits");
        assert!(m.model_sends > 0);
        let rate = m.model_receiving_rate();
        assert!(rate < 0.95, "uniform table loss must cost messages: {rate}");
        assert!(rate > 0.3, "but most messages still arrive: {rate}");
    }
}
