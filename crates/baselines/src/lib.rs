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
//! The four are one [`CollabAlgorithm`](lbchat::prelude::CollabAlgorithm):
//! a [`fleet::Baseline`] of [`lbchat::node::Vehicle`]s — the vehicle LbChat
//! trains on too: plain local SGD on each vehicle's own data — driven by a
//! [`fleet::Rule`] that holds only what sets the method apart (its name,
//! its stated matching priority, its session, its per-frame exchanges, and
//! ProxSkip's per-step drift). DP and DFL-DDS swap models through one
//! contact-fitted session (`fleet::fitted_swap`). None of them exchanges
//! training data, which is precisely the paper's point of comparison.

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
pub mod fleet;
pub mod proxskip;
pub mod rsul;

pub use dfl_dds::DflDds;
pub use dp::Dp;
pub use proxskip::ProxSkip;
pub use rsul::RsuL;

#[cfg(test)]
pub(crate) mod testutil {
    //! The same analytic line-fitting learner the core crate tests with.

    use lbchat::Learner;
    use vnn::ParamVec;

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Pt {
        pub x: f32,
        pub y: f32,
    }

    #[derive(Debug, Clone)]
    pub struct LineLearner {
        pub params: ParamVec,
        pub lr: f32,
    }

    impl LineLearner {
        pub fn new() -> Self {
            Self { params: ParamVec::from_vec(vec![0.0, 0.0]), lr: 0.05 }
        }
    }

    impl Learner for LineLearner {
        type Sample = Pt;
        fn params(&self) -> &ParamVec {
            &self.params
        }
        fn set_params(&mut self, params: ParamVec) {
            assert_eq!(params.len(), 2);
            self.params = params;
        }
        fn loss_with(&self, p: &ParamVec, s: &Pt) -> f32 {
            let w = p.as_slice();
            let r = w[0] * s.x + w[1] - s.y;
            r * r
        }
        fn train_step(&mut self, batch: &[(&Pt, f32)]) -> f32 {
            if batch.is_empty() {
                return 0.0;
            }
            let w = self.params.as_slice();
            let (mut ga, mut gb, mut loss, mut wsum) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (s, wt) in batch {
                let r = w[0] * s.x + w[1] - s.y;
                ga += wt * 2.0 * r * s.x;
                gb += wt * 2.0 * r;
                loss += wt * r * r;
                wsum += wt;
            }
            let inv = 1.0 / wsum;
            let p = self.params.as_mut_slice();
            p[0] -= self.lr * ga * inv;
            p[1] -= self.lr * gb * inv;
            loss * inv
        }
        fn group_of(&self, _s: &Pt) -> usize {
            0
        }
        fn n_groups(&self) -> usize {
            1
        }
    }

    pub fn line_data(a: f32, b: f32, n: usize) -> Vec<Pt> {
        (0..n)
            .map(|i| {
                let x = (i as f32 / n as f32) * 4.0 - 2.0;
                Pt { x, y: a * x + b }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    //! The four baselines give every pair one fixed matching priority, so
    //! the runtime matches them while it scans the encounters and predicts
    //! a contact only for the pairs it opens. These tests hold that
    //! streamed matching to the eager ranking a method gets when it states
    //! nothing.

    use super::*;
    use crate::testutil::{line_data, LineLearner, Pt};
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

    /// Forwards everything except `fixed_priority` — what a decorator that
    /// does not know the method does (`lbchat_e2e`'s tracer) — so the
    /// runtime ranks the inner method eagerly: one estimate per candidate,
    /// a sorted candidate list, then greedy matching. Counts the pairs
    /// ranked. `session_step` keeps its default, which the runtime never
    /// calls.
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

    /// `lazy` (the method as shipped, matched streamed) against the same
    /// method ranked eagerly: identical metrics and final models, and the
    /// estimate counts each matching pays. Returns the sessions opened.
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

    /// One FNV-1a digest over the bits of every component of `model`.
    fn digest(model: &ParamVec) -> u64 {
        model.as_slice().iter().fold(0xCBF2_9CE4_8422_2325u64, |h, x| {
            (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Runs `algo` on the lossy crossing fleet and renders its run: every
    /// `Metrics` field (floats as bits), then one digest per final model.
    fn render_run<A: CollabAlgorithm<Sample = Pt>>(mut algo: A) -> String {
        let (m, _) = run(&mut algo);
        let Metrics {
            loss_curve,
            model_sends,
            model_receives,
            coreset_sends,
            coreset_receives,
            sessions,
            bytes_delivered,
            comm_seconds,
            train_iterations,
        } = m;
        let mut out = format!(
            "# {}\nsessions {sessions} model_sends {model_sends} model_receives {model_receives} \
             coreset_sends {coreset_sends} coreset_receives {coreset_receives} \
             bytes_delivered {bytes_delivered} train_iterations {train_iterations} \
             comm_seconds {:016x}\n",
            algo.name(),
            comm_seconds.to_bits(),
        );
        for (t, loss) in loss_curve {
            out += &format!("loss {:016x} {:016x}\n", t.to_bits(), loss.to_bits());
        }
        for v in 0..algo.n_nodes() {
            out += &format!("model {v} {:016x}\n", digest(algo.model(v)));
        }
        out
    }

    /// Pins every baseline's whole run bit for bit on the lossy crossing
    /// fleet: DP and DFL-DDS gossip a 4 MiB model, ProxSkip runs its
    /// control variates and RSU-L serves two RSU sites. Regenerate after an
    /// intentional change with `LBCHAT_GOLDEN_WRITE=1 cargo test -p
    /// baselines --lib baseline_runs_match_golden_fixture`.
    #[test]
    fn baseline_runs_match_golden_fixture() {
        let (learners, datasets) = fleet_inputs();
        let dp_config = dp::DpConfig { model_bytes: 4 * 1024 * 1024, ..Default::default() };
        let mut rendered = render_run(Dp::new(learners, datasets, dp_config));
        let (learners, datasets) = fleet_inputs();
        let dds_config =
            dfl_dds::DflDdsConfig { model_bytes: 4 * 1024 * 1024, ..Default::default() };
        rendered += &render_run(DflDds::new(learners, datasets, dds_config));
        let (learners, datasets) = fleet_inputs();
        rendered += &render_run(ProxSkip::new(learners, datasets, Default::default()));
        let (learners, datasets) = fleet_inputs();
        let rsus = vec![Vec2::new(0.0, 200.0), Vec2::new(300.0, 700.0)];
        rendered += &render_run(RsuL::new(learners, datasets, rsus, Default::default()));

        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/baseline_runs.txt");
        if std::env::var_os("LBCHAT_GOLDEN_WRITE").is_some_and(|v| v == "1") {
            std::fs::write(&path, &rendered).expect("write fixture");
            return;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e}; record it with LBCHAT_GOLDEN_WRITE=1", path.display())
        });
        for (n, (a, g)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(a, g, "line {} diverged from the golden baseline runs", n + 1);
        }
        assert_eq!(rendered.lines().count(), golden.lines().count(), "line count diverged");
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
                let answer = algo.fixed_priority().map(f64::to_bits);
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
