//! # baselines — the benchmark methods of §IV-B
//!
//! Re-implementations of the four methods the paper compares LbChat
//! against, adapted exactly as §IV-B describes and run on the same
//! [`lbchat::runtime`] (same trace, radio, clock, and evaluation):
//!
//! * [`ProxSkip`] — central-server federated learning with probabilistic
//!   communication skipping and control variates (Mishchenko et al., ICML
//!   2022). Backend bandwidth unconstrained; under wireless loss each
//!   message draws a loss uniformly from the lookup table.
//! * [`RsuL`] — road-side-unit opportunistic learning (Xu et al., TMC
//!   2023): RSUs at road crossings hold models, aggregate uploads, and send
//!   the result back. Backend unconstrained, same message-loss model.
//! * [`DflDds`] — synchronous fully decentralized learning that diversifies
//!   data sources (Su et al., ICNP 2022): vehicles track where their model
//!   mass came from and weight peers that bring underrepresented sources.
//!   Rounds are `T_B`-long; per-encounter compression is fitted to the
//!   contact so exchanges can complete ("for a fair comparison").
//! * [`Dp`] — Decentralized Powerloss gossip learning (Dinani et al., TMC
//!   2023): merge weights from a normalized logarithmic function of
//!   validation loss; fitted compression, like DFL-DDS.
//!
//! All methods share [`node::BaseNode`] for plain local SGD training —
//! none of them exchanges training data, which is precisely the paper's
//! point of comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod dfl_dds;
pub mod dp;
pub mod node;
pub mod proxskip;
pub mod rsul;

pub use dfl_dds::DflDds;
pub use dp::Dp;
pub use proxskip::ProxSkip;
pub use rsul::RsuL;

#[cfg(test)]
mod tests {
    //! The four baselines state their matching priority without the contact
    //! estimate, so the runtime predicts a contact only for the pairs it
    //! opens. These tests hold that to the eager ranking a method gets when
    //! it states nothing.

    use super::*;
    use crate::node::testutil::{line_data, LineLearner, Pt};
    use lbchat::prelude::{
        CollabAlgorithm, FrameCtx, Metrics, ObsSink, Runtime, RuntimeConfig, SessionCtx,
        SessionStep, TrainStats,
    };
    use lbchat::obs::Counter;
    use lbchat::WeightedDataset;
    use simnet::contact::ContactEstimate;
    use simnet::geom::Vec2;
    use simnet::loss::LossModel;
    use simnet::trace::MobilityTrace;
    use vnn::ParamVec;

    const VEHICLES: usize = 32;
    const HORIZON_S: f64 = 120.0;

    /// Forwards everything except `static_priority` — what a decorator
    /// written before that method existed does (`lbchat_e2e`'s tracer), so
    /// the runtime ranks the inner method eagerly. Counts the pairs ranked.
    /// `session_step` keeps its default, which the runtime never calls.
    struct Eager<A> {
        inner: A,
        ranked: std::cell::Cell<u64>,
    }

    impl<A: CollabAlgorithm> CollabAlgorithm for Eager<A> {
        type Sample = A::Sample;
        type Session = A::Session;

        fn n_nodes(&self) -> usize {
            self.inner.n_nodes()
        }
        fn model(&self, node: usize) -> &ParamVec {
            self.inner.model(node)
        }
        fn local_training(
            &mut self,
            node: usize,
            iters: usize,
            rng: &mut rand::rngs::StdRng,
        ) -> TrainStats {
            self.inner.local_training(node, iters, rng)
        }
        fn session_open(
            &mut self,
            ctx: &mut SessionCtx<'_>,
        ) -> Option<(A::Session, SessionStep)> {
            self.inner.session_open(ctx)
        }
        fn session_close(&mut self, state: A::Session, ctx: &mut SessionCtx<'_>) -> f64 {
            self.inner.session_close(state, ctx)
        }
        fn pair_priority(&self, i: usize, j: usize, est: &ContactEstimate) -> f64 {
            self.ranked.set(self.ranked.get() + 1);
            self.inner.pair_priority(i, j, est)
        }
        fn on_frame(&mut self, ctx: &mut FrameCtx<'_>) {
            self.inner.on_frame(ctx);
        }
        fn mean_eval_loss(&self, eval: &[A::Sample]) -> f64 {
            self.inner.mean_eval_loss(eval)
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    /// 32 vehicles on 30 m lanes crossing each other at 2–9 m/s.
    fn crossing_fleet() -> MobilityTrace {
        let fps = 2.0;
        let frames = (HORIZON_S * fps) as usize + 1;
        let positions = (0..VEHICLES)
            .map(|k| {
                let speed = 2.0 + (k % 8) as f32;
                let (x0, vx) =
                    ((k % 6) as f32 * 150.0 - 400.0, if k % 2 == 0 { speed } else { -speed });
                (0..frames)
                    .map(|f| Vec2::new(x0 + vx * f as f32 / fps as f32, k as f32 * 30.0))
                    .collect()
            })
            .collect();
        MobilityTrace::new(fps, positions)
    }

    fn fleet_inputs() -> (Vec<LineLearner>, Vec<WeightedDataset<Pt>>) {
        let datasets = (0..VEHICLES)
            .map(|k| WeightedDataset::uniform(line_data(k as f32 * 0.1 - 1.5, 0.5, 80)))
            .collect();
        (vec![LineLearner::new(); VEHICLES], datasets)
    }

    /// Runs `algo` under the lossy radio; returns the metrics and the
    /// number of contact estimates the runtime computed.
    fn run<A: CollabAlgorithm<Sample = Pt>>(algo: &mut A) -> (Metrics, u64) {
        let sink = ObsSink::recording();
        let cfg = RuntimeConfig {
            duration: HORIZON_S,
            eval_every: 40.0,
            pair_cooldown: 30.0,
            loss_model: LossModel::distance_default(),
            seed: 3,
            obs: sink.clone(),
            ..RuntimeConfig::default()
        };
        let eval = line_data(0.0, 0.5, 16);
        let m = Runtime::new(cfg).run(algo, &crossing_fleet(), &eval).expect("trace fits");
        (m, sink.counters()[Counter::NetContactEstimates.name()])
    }

    /// `lazy` (the method as shipped) against the same method ranked
    /// eagerly: identical metrics and final models, and the estimate
    /// counts each ranking pays. Returns the sessions opened.
    fn assert_lazy_matches_eager<A: CollabAlgorithm<Sample = Pt>>(mut lazy: A, eager: A) -> u64 {
        let mut eager = Eager { inner: eager, ranked: std::cell::Cell::new(0) };
        let (ml, lazy_estimates) = run(&mut lazy);
        let (me, eager_estimates) = run(&mut eager);
        let name = lazy.name();
        assert_eq!(ml.sessions, me.sessions, "{name}");
        assert_eq!(
            (ml.model_sends, ml.model_receives, ml.bytes_delivered, ml.train_iterations),
            (me.model_sends, me.model_receives, me.bytes_delivered, me.train_iterations),
            "{name}"
        );
        assert_eq!(ml.comm_seconds.to_bits(), me.comm_seconds.to_bits(), "{name}");
        assert_eq!(ml.loss_curve.len(), me.loss_curve.len(), "{name}");
        for ((tl, ll), (te, le)) in ml.loss_curve.iter().zip(&me.loss_curve) {
            assert_eq!((tl.to_bits(), ll.to_bits()), (te.to_bits(), le.to_bits()), "{name}");
        }
        for v in 0..VEHICLES {
            assert_eq!(lazy.model(v).as_slice(), eager.model(v).as_slice(), "{name}: vehicle {v}");
        }
        assert_eq!(lazy_estimates, ml.sessions, "{name}: one estimate per opened session");
        assert_eq!(eager_estimates, eager.ranked.get(), "{name}: one estimate per candidate");
        assert!(eager_estimates > 2 * ml.sessions.max(50), "{name}: {eager_estimates} candidates");
        ml.sessions
    }

    #[test]
    fn gossip_baselines_predict_contacts_for_opened_pairs_only() {
        let config = dp::DpConfig { model_bytes: 4 * 1024 * 1024, ..dp::DpConfig::default() };
        let dp = || {
            let (learners, datasets) = fleet_inputs();
            Dp::new(learners, datasets, config.clone())
        };
        assert!(assert_lazy_matches_eager(dp(), dp()) > 50, "DP must gossip");
        let config =
            dfl_dds::DflDdsConfig { model_bytes: 4 * 1024 * 1024, ..Default::default() };
        let dds = || {
            let (learners, datasets) = fleet_inputs();
            DflDds::new(learners, datasets, config.clone())
        };
        assert!(assert_lazy_matches_eager(dds(), dds()) > 50, "DFL-DDS must gossip");
    }

    #[test]
    fn infrastructure_baselines_predict_no_contact_at_all() {
        let proxskip = || {
            let (learners, datasets) = fleet_inputs();
            ProxSkip::new(learners, datasets, proxskip::ProxSkipConfig::default())
        };
        assert_eq!(assert_lazy_matches_eager(proxskip(), proxskip()), 0);
        let rsul = || {
            let (learners, datasets) = fleet_inputs();
            let rsus = vec![Vec2::new(0.0, 200.0), Vec2::new(300.0, 700.0)];
            RsuL::new(learners, datasets, rsus, rsul::RsuLConfig::default())
        };
        assert_eq!(assert_lazy_matches_eager(rsul(), rsul()), 0);
    }

    /// A stated priority is the method's whole answer: `pair_priority`
    /// returns the same bits whatever estimate it is shown.
    #[test]
    fn stated_priorities_ignore_the_estimate() {
        fn check<A: CollabAlgorithm>(algo: &A, stated: f64) {
            let estimates = [
                ContactEstimate { duration: 0.0, z: 0.0, p: 0.0 },
                ContactEstimate { duration: 42.5, z: 1.0, p: 0.87 },
                ContactEstimate { duration: f64::INFINITY, z: f64::NAN, p: -1.0 },
            ];
            for (i, j) in [(0, 1), (1, 0), (VEHICLES - 1, 2)] {
                let answer = algo.static_priority(i, j).map(f64::to_bits);
                assert_eq!(answer, Some(stated.to_bits()), "{}", algo.name());
                for est in &estimates {
                    let ranked = algo.pair_priority(i, j, est).to_bits();
                    assert_eq!(ranked, stated.to_bits(), "{} {est:?}", algo.name());
                }
            }
        }
        let (learners, datasets) = fleet_inputs();
        check(&Dp::new(learners, datasets, dp::DpConfig::default()), 0.0);
        let (learners, datasets) = fleet_inputs();
        check(&DflDds::new(learners, datasets, Default::default()), 0.0);
        let (learners, datasets) = fleet_inputs();
        check(&ProxSkip::new(learners, datasets, Default::default()), f64::NEG_INFINITY);
        let (learners, datasets) = fleet_inputs();
        let rsus = vec![Vec2::ZERO];
        check(&RsuL::new(learners, datasets, rsus, Default::default()), f64::NEG_INFINITY);
    }
}
