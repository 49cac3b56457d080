//! The shared simulation runtime.
//!
//! Every method in the paper's evaluation — LbChat, SCO, and all four
//! benchmarks — runs inside the same simulator: a mobility trace is played
//! back at the world frame rate; free vehicles train local iterations;
//! vehicles within radio range open pairwise sessions (or talk to
//! infrastructure); every transfer is charged real airtime on the simulated
//! radio. Methods differ only in the [`CollabAlgorithm`] implementation, so
//! comparisons are apples-to-apples.
//!
//! The simulator is one frame loop behind one entry point,
//! [`Runtime::run`], synchronous with the trace as the paper's evaluation is
//! (§IV-A): each frame runs the infrastructure hook, matches free pairs in
//! range, runs the matched sessions, one training slice per node, and the
//! evaluation when it is due. Every session runs to completion at its frame,
//! over the paper's pairwise link: [`CollabAlgorithm::session_open`] runs
//! the method's protocol straight through, moving each payload as it sends
//! it with [`SessionCtx::run_spec`] (a blocking call on the simulated
//! clock), and [`CollabAlgorithm::session_close`] reports how long the pair
//! was busy.

pub mod sched;

mod frame_loop;
/// The unoptimised frame loop, kept as the oracle the unit tests below
/// compare [`Runtime::run`] against.
#[cfg(test)]
mod reference;

use crate::compress::{compress_dense, wire_bytes, Codec};
use crate::config::ConfigError;
use crate::metrics::Metrics;
use crate::obs::{Counter, EventKind, ObsSink};
use simnet::channel::{Channel, RadioConfig, TransferOutcome, TransferSpec};
use simnet::contact::ContactEstimate;
use simnet::loss::LossModel;
use simnet::trace::MobilityTrace;
use vnn::ParamVec;

/// Runtime parameters shared by all methods.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Total simulated training time `T` in seconds.
    pub duration: f64,
    /// Training iterations a free vehicle performs per simulated second
    /// (models the paper's "except for the local training time, we ignore
    /// time for computation").
    pub train_iters_per_second: f64,
    /// Radio parameters (packet size, bandwidth, range, retransmissions).
    pub radio: RadioConfig,
    /// Wireless loss model (None for Fig. 2(a)/Table II, distance-based for
    /// Fig. 2(b)/Table III).
    pub loss_model: LossModel,
    /// Seconds between loss-curve evaluations.
    pub eval_every: f64,
    /// After a pairwise session, the same pair won't start another until
    /// this many seconds pass (they must gather new data / models to make a
    /// re-exchange useful).
    pub pair_cooldown: f64,
    /// Reference exchange time for the truncated contact ratio `z`.
    pub contact_reference_time: f64,
    /// Number of future route samples shared in assist messages (at the
    /// trace frame spacing).
    pub route_share_samples: usize,
    /// RNG seed for communication randomness.
    pub seed: u64,
    /// Unused: nothing in the workspace reads it. Every share path sends
    /// magnitude top-k (`lbchat::compress`, docs/COMPRESSION.md), the only
    /// [`Codec`]. The field stays only because the stand-alone `lbchat_e2e`
    /// benchmark package still sets it; it goes once that package's
    /// `workloads.rs` stops naming it.
    pub codec: Codec,
    /// Observability sink for structured run events (`round`, `session`,
    /// `transfer`, `backend`, `chat`); disabled (zero-cost) by default.
    /// See [`crate::obs`].
    pub obs: ObsSink,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            duration: 3600.0,
            train_iters_per_second: 2.0,
            radio: RadioConfig::default(),
            loss_model: LossModel::None,
            eval_every: 120.0,
            pair_cooldown: 60.0,
            contact_reference_time: 30.0,
            route_share_samples: 240,
            seed: 0,
            codec: Codec::TopK,
            obs: ObsSink::disabled(),
        }
    }
}

impl RuntimeConfig {
    /// Checks every field against its domain: a non-negative duration
    /// (zero is a valid no-op run: no frame plays and the loss curve holds
    /// one sample), a positive eval cadence, non-negative rates, a
    /// well-formed loss table. NaN and infinities are rejected everywhere.
    /// [`Runtime::run`] calls this before anything else, so a config built
    /// as a struct literal is checked where the run enters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::require_non_negative("duration", self.duration)?;
        ConfigError::require_non_negative(
            "train_iters_per_second",
            self.train_iters_per_second,
        )?;
        ConfigError::require_positive("eval_every", self.eval_every)?;
        ConfigError::require_non_negative("pair_cooldown", self.pair_cooldown)?;
        ConfigError::require_positive("contact_reference_time", self.contact_reference_time)?;
        self.loss_model
            .validate()
            .map_err(|error| ConfigError::LossTable { field: "loss_model", error })
    }
}

/// A typed error from [`Runtime::run`] — the runtime's analogue of
/// [`ConfigError`]: conditions a caller can check for and report instead of
/// unwinding.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A config of the run failed validation: the [`RuntimeConfig`]
    /// ([`RuntimeConfig::validate`], checked by [`Runtime::run`]) or a
    /// caller's config checked before it trains, such as the closed-loop
    /// evaluation config the experiment harness validates.
    Config(ConfigError),
    /// The mobility trace has fewer agents than the algorithm has nodes.
    TraceTooSmall {
        /// Agents available in the trace.
        agents: usize,
        /// Nodes the algorithm needs.
        nodes: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Config(error) => write!(f, "invalid config: {error}"),
            RuntimeError::TraceTooSmall { agents, nodes } => write!(
                f,
                "trace has {agents} agents but the algorithm needs {nodes}"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Config(error) => Some(error),
            RuntimeError::TraceTooSmall { .. } => None,
        }
    }
}

/// A pairwise radio link during one session, advancing its own elapsed time
/// as transfers are charged. A session moves each payload with
/// [`SessionCtx::run_spec`]; the runtime uses the accumulated time to mark
/// both endpoints busy.
pub struct SessionCtx<'a> {
    /// Session start in simulated seconds.
    start: f64,
    /// Node ids at the endpoints.
    pub i: usize,
    /// Second endpoint.
    pub j: usize,
    trace: &'a MobilityTrace,
    channel: &'a Channel,
    rng: &'a mut rand::rngs::StdRng,
    /// Metrics sink for this run.
    pub metrics: &'a mut Metrics,
    est: ContactEstimate,
    elapsed: f64,
    obs: &'a ObsSink,
}

impl SessionCtx<'_> {
    /// The contact estimate (duration, z, p) computed from shared routes.
    pub fn contact(&self) -> ContactEstimate {
        self.est
    }

    /// The observability sink for this run (disabled unless the caller
    /// opted in through [`RuntimeConfig`]). Algorithms emit
    /// protocol-level events here — LbChat records one `chat` event per
    /// encounter with the valuation losses and chosen ψ ratios.
    pub fn obs(&self) -> &ObsSink {
        self.obs
    }

    /// Seconds already consumed in this session.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Current simulated time inside the session.
    pub fn now(&self) -> f64 {
        self.start + self.elapsed
    }

    /// Runs a [`TransferSpec`] synchronously over the link, its deadline
    /// measured from now. Advances the session clock by the airtime
    /// consumed and records the transfer observability events;
    /// distance-based loss follows the live trace positions.
    pub fn run_spec(&mut self, spec: &TransferSpec) -> TransferOutcome {
        let t0 = self.now();
        let (i, j) = (self.i, self.j);
        let link = self.trace.pair_track(i, j).starting_at(t0);
        let out = self.channel.run(spec, link, self.rng);
        self.elapsed += out.elapsed();
        if self.obs.enabled() {
            let delivered_bytes = match out {
                TransferOutcome::Delivered { .. } => spec.bytes,
                TransferOutcome::Failed { delivered_bytes, .. } => delivered_bytes,
            };
            self.obs.add(Counter::BytesTx, spec.bytes as u64);
            self.obs.add(Counter::BytesDelivered, delivered_bytes as u64);
            if !out.is_delivered() {
                self.obs.add(Counter::TransfersFailed, 1);
            }
            self.obs.emit(
                EventKind::Transfer,
                &[
                    ("i", i.into()),
                    ("j", j.into()),
                    ("t", t0.into()),
                    ("bytes", spec.bytes.into()),
                    ("delivered", out.is_delivered().into()),
                    ("delivered_bytes", delivered_bytes.into()),
                    ("airtime_s", out.elapsed().into()),
                ],
            );
        }
        out
    }

    /// The one V2V model path (the twin of [`FrameCtx::backend_message`]):
    /// moves `model` top-k-compressed at `psi`, books it as a model send and
    /// returns the receiver's reconstruction if it arrived.
    pub fn send_model(
        &mut self,
        model: &ParamVec,
        dense_bytes: usize,
        psi: f32,
        deadline: f64,
    ) -> Option<ParamVec> {
        let bytes = wire_bytes(dense_bytes, psi);
        let out = self.run_spec(&TransferSpec::link(bytes, deadline));
        self.metrics.record_model_send(out.is_delivered(), bytes, out.elapsed());
        out.is_delivered().then(|| compress_dense(model, psi))
    }

    /// The RNG for protocol-level randomness.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.rng
    }

    /// Bandwidth of the radio this session runs over, in bits per second
    /// — what ψ and the Eq. (7) budgets must be sized against.
    pub fn bandwidth_bps(&self) -> f64 {
        self.channel.config().bandwidth_bps
    }
}

/// Per-frame context for infrastructure-based methods (central server,
/// RSUs): gives access to vehicle positions, a loss-model channel for
/// backend messages, and the metrics sink.
pub struct FrameCtx<'a> {
    /// Current simulated time.
    pub time: f64,
    /// The mobility trace (positions of all learning vehicles).
    pub trace: &'a MobilityTrace,
    /// The radio (used by RSU links; backend links use
    /// [`FrameCtx::backend_message`]).
    pub channel: &'a Channel,
    /// Busy-until times per node — infrastructure exchanges must respect
    /// ongoing V2V sessions.
    pub busy_until: &'a [f64],
    rng: &'a mut rand::rngs::StdRng,
    /// Metrics sink.
    pub metrics: &'a mut Metrics,
    loss_model: &'a LossModel,
    obs: &'a ObsSink,
}

impl FrameCtx<'_> {
    /// The RNG for protocol-level randomness.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.rng
    }

    /// Simulates one backend (cellular) message of a model-sized payload:
    /// the paper assumes *no bandwidth constraint* to the backend but, under
    /// wireless loss, draws a loss "uniformly sampled from the distance-loss
    /// lookup table" per communication. Returns whether the message got
    /// through; records it as a model send.
    pub fn backend_message(&mut self, bytes: usize) -> bool {
        use rand::RngExt as _;
        let per = self.loss_model.sample_uniform_per(self.rng);
        // Message-level Bernoulli: a single end-to-end success draw (the
        // backend is not packetized by the paper's model).
        let delivered = per <= 0.0 || self.rng.random::<f32>() >= per;
        self.metrics.record_model_send(delivered, bytes, 0.0);
        if self.obs.enabled() {
            self.obs.add(Counter::BytesTx, bytes as u64);
            if delivered {
                self.obs.add(Counter::BytesDelivered, bytes as u64);
            } else {
                self.obs.add(Counter::TransfersFailed, 1);
            }
            self.obs.emit(
                EventKind::Backend,
                &[
                    ("t", self.time.into()),
                    ("bytes", bytes.into()),
                    ("delivered", delivered.into()),
                ],
            );
        }
        delivered
    }

    /// The observability sink for this run; see [`SessionCtx::obs`].
    pub fn obs(&self) -> &ObsSink {
        self.obs
    }
}

/// What [`CollabAlgorithm::session_open`] answers with its state: the
/// protocol is finished, and the runtime calls
/// [`CollabAlgorithm::session_close`] next. Every method runs its whole
/// protocol inside `session_open`, so `Done` is the only answer; the type
/// stays because the stand-alone `lbchat_e2e` benchmark's decorator names
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionStep {
    /// The protocol is finished.
    Done,
}

/// A collaborative-training method runnable by the [`Runtime`].
///
/// Pairwise exchanges are sessions: when the matcher pairs two vehicles the
/// runtime calls [`CollabAlgorithm::session_open`], which runs the whole
/// protocol over the link (each payload through [`SessionCtx::run_spec`])
/// and answers [`SessionStep::Done`]; [`CollabAlgorithm::session_close`]
/// then reports the session's duration.
pub trait CollabAlgorithm {
    /// The task sample type (the loss curve is evaluated on a set of these).
    type Sample;

    /// Per-session state handed from `session_open` to `session_close`:
    /// what the method needs to report the session's duration.
    type Session;

    /// Number of participating vehicles.
    fn n_nodes(&self) -> usize;

    /// The current model of a node (for inspection / driving evaluation).
    fn model(&self, node: usize) -> &ParamVec;

    /// Performs `iters` local training iterations on `node` and returns the
    /// training-kernel statistics drained from the node's learner (zero for
    /// uninstrumented implementations). The runtime aggregates them into
    /// the `train.*` observability counters.
    fn local_training(
        &mut self,
        node: usize,
        iters: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> crate::learner::TrainStats;

    /// Opens a pairwise session between `ctx.i` and `ctx.j` and, in every
    /// method of the workspace, runs it: the protocol moves its payloads
    /// with [`SessionCtx::run_spec`] in order, reads each outcome where it
    /// needs it, and returns its state with [`SessionStep::Done`]. Return
    /// `None` to decline the pairing. A declined pairing moves no payload
    /// and never reaches
    /// [`CollabAlgorithm::session_close`], but the runtime still treats it
    /// as a zero-duration session: it counts in [`Metrics::sessions`], both
    /// nodes are held busy for one frame, and
    /// [`RuntimeConfig::pair_cooldown`] applies to the pair. To skip a
    /// pairing at no cost, answer `-inf` from
    /// [`CollabAlgorithm::fixed_priority`] (or
    /// [`CollabAlgorithm::pair_priority`]) instead.
    fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<(Self::Session, SessionStep)>;

    /// Never called: the runtime steps no session. The method stays, with
    /// this default, because the stand-alone `lbchat_e2e` benchmark's
    /// decorator implements it; no method in the workspace does.
    fn session_step(
        &mut self,
        _state: &mut Self::Session,
        _outcome: TransferOutcome,
        _ctx: &mut SessionCtx<'_>,
    ) -> SessionStep {
        SessionStep::Done
    }

    /// Closes the session after [`SessionStep::Done`]. Returns the session
    /// duration in seconds (both nodes were busy that long). Default:
    /// [`SessionCtx::elapsed`]; LbChat overrides it to charge a floor on
    /// top.
    fn session_close(&mut self, _state: Self::Session, ctx: &mut SessionCtx<'_>) -> f64 {
        ctx.elapsed()
    }

    /// The one matching priority the method gives every pair, when it
    /// ranks no pair by the contact estimate; `None` (the default) means
    /// "I rank by the estimate" and the runtime asks
    /// [`CollabAlgorithm::pair_priority`] per pair instead. Only LbChat
    /// ranks neighbours by what shared routes predict (§III-A); the
    /// model-sharing baselines pair in encounter order (`Some(0.0)`) and
    /// the infrastructure-only ones opt out of V2V pairing (`Some(-inf)`).
    /// The runtime reads it once per frame, before the frame's sessions.
    /// Greedy matching over pairs of equal priority opens them in
    /// encounter order, so for a finite answer the runtime matches while
    /// it scans the encounters: no candidate list, no sort, and no route
    /// sampled or contact predicted for a pair that does not open. It
    /// computes the estimate a session reads through
    /// [`SessionCtx::contact`] as the pair opens, at the frame time — the
    /// value ranking would have computed, since the estimate is a pure
    /// function of the trace, the pair and the frame time. A method
    /// defines exactly one of `fixed_priority` and `pair_priority`.
    fn fixed_priority(&self) -> Option<f64> {
        None
    }

    /// Ranks a potential encounter for greedy pair matching (higher =
    /// served first, `-inf` = never matched) from its contact estimate.
    /// LbChat overrides this with the Eq. (5) score computed from shared
    /// routes — its route-sharing advantage. The default answers
    /// [`CollabAlgorithm::fixed_priority`], or 0 when the method states
    /// neither: no prioritization, pairs are served in
    /// encounter-enumeration order.
    fn pair_priority(&self, _i: usize, _j: usize, _est: &ContactEstimate) -> f64 {
        self.fixed_priority().unwrap_or(0.0)
    }

    /// Per-frame hook for infrastructure communication (server rounds,
    /// RSUs). Default: nothing.
    fn on_frame(&mut self, _ctx: &mut FrameCtx<'_>) {}

    /// Mean evaluation loss across all nodes on the evaluation sample set
    /// the caller passes (in the experiments, a fixed sample of the
    /// training frames).
    fn mean_eval_loss(&self, eval: &[Self::Sample]) -> f64;

    /// Display name (table headers).
    fn name(&self) -> &'static str;
}

/// Runs one session over `ctx`: open (the whole protocol), then close.
/// Returns the session duration in seconds (0 for a declined pairing).
fn drive_session<A: CollabAlgorithm>(algo: &mut A, ctx: &mut SessionCtx<'_>) -> f64 {
    let Some((state, SessionStep::Done)) = algo.session_open(ctx) else {
        return 0.0;
    };
    algo.session_close(state, ctx)
}

/// Per-pair cooldown clocks over the unordered pairs `{i, j}`, stored
/// triangularly — `n(n-1)/2` slots instead of the dense `n²` matrix the
/// reference loop keeps.
#[derive(Debug, Clone)]
struct PairCooldown {
    until: Vec<f64>,
}

impl PairCooldown {
    /// Cooldown clocks for `n` nodes, all initially expired.
    fn new(n: usize) -> Self {
        Self { until: vec![0.0; n.saturating_sub(1) * n / 2] }
    }

    /// Triangular slot of the unordered pair `{i, j}` with `i != j`.
    fn slot(i: usize, j: usize) -> usize {
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        hi * (hi - 1) / 2 + lo
    }

    /// The time until which the pair `{i, j}` is cooling down.
    fn get(&self, i: usize, j: usize) -> f64 {
        self.until[Self::slot(i, j)]
    }

    /// Sets the pair's cooldown clock.
    fn set(&mut self, i: usize, j: usize, until: f64) {
        self.until[Self::slot(i, j)] = until;
    }
}

/// The shared simulation runtime.
#[derive(Debug, Clone)]
pub struct Runtime {
    config: RuntimeConfig,
}

impl Runtime {
    /// Creates a runtime.
    pub fn new(config: RuntimeConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Runs `algo` over `trace` for the configured duration, frame by
    /// frame, evaluating on `eval` along the way — the
    /// one way to run a method. Returns the collected metrics, or a
    /// [`RuntimeError`] when the config is out of domain or the trace
    /// cannot host the algorithm.
    pub fn run<A: CollabAlgorithm>(
        &self,
        algo: &mut A,
        trace: &MobilityTrace,
        eval: &[A::Sample],
    ) -> Result<Metrics, RuntimeError> {
        self.config.validate().map_err(RuntimeError::Config)?;
        let nodes = algo.n_nodes();
        if trace.n_agents() < nodes {
            return Err(RuntimeError::TraceTooSmall { agents: trace.n_agents(), nodes });
        }
        Ok(frame_loop::run(&self.config, algo, trace, eval))
    }
}

/// One `round` event per loss-curve sample: the quantity Fig. 2 plots.
fn emit_round(obs: &ObsSink, method: &str, t: f64, loss: f64) {
    if obs.enabled() {
        obs.add(Counter::Rounds, 1);
        let fields = [("method", method.into()), ("t", t.into()), ("loss", loss.into())];
        obs.emit(EventKind::Round, &fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt as _;
    use simnet::geom::Vec2;

    /// A do-nothing algorithm counting callbacks — exercises the loop
    /// mechanics without any learning. One 15 kB transfer per session.
    pub(super) struct Probe {
        pub(super) n: usize,
        pub(super) params: ParamVec,
        pub(super) train_calls: u64,
        pub(super) encounters: u64,
        pub(super) frames: u64,
        /// Every pair's priority when ranked through the contact estimate
        /// (0 unless a test says otherwise).
        pub(super) priority: fn(usize, usize) -> f64,
        /// What `fixed_priority` answers (`None` unless a test says
        /// otherwise); `Some` overrides `priority` for every pair.
        pub(super) fixed: Option<f64>,
    }

    impl Probe {
        pub(super) fn new(n: usize) -> Self {
            Self {
                n,
                params: ParamVec::zeros(1),
                train_calls: 0,
                encounters: 0,
                frames: 0,
                priority: |_, _| 0.0,
                fixed: None,
            }
        }
    }

    impl CollabAlgorithm for Probe {
        type Sample = ();
        type Session = ();

        fn n_nodes(&self) -> usize {
            self.n
        }
        fn model(&self, _node: usize) -> &ParamVec {
            &self.params
        }
        fn local_training(
            &mut self,
            _n: usize,
            iters: usize,
            _r: &mut rand::rngs::StdRng,
        ) -> crate::learner::TrainStats {
            self.train_calls += iters as u64;
            crate::learner::TrainStats::default()
        }
        fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<((), SessionStep)> {
            self.encounters += 1;
            // Move a small payload to exercise the link.
            let out = ctx.run_spec(&TransferSpec::link(15_000, 5.0));
            ctx.metrics.record_coreset_send(out.is_delivered(), 15_000, out.elapsed());
            Some(((), SessionStep::Done))
        }
        fn on_frame(&mut self, _ctx: &mut FrameCtx<'_>) {
            self.frames += 1;
        }
        fn fixed_priority(&self) -> Option<f64> {
            self.fixed
        }
        fn pair_priority(&self, i: usize, j: usize, _est: &ContactEstimate) -> f64 {
            self.fixed.unwrap_or_else(|| (self.priority)(i, j))
        }
        fn mean_eval_loss(&self, _eval: &[()]) -> f64 {
            1.0
        }
        fn name(&self) -> &'static str {
            "probe"
        }
    }

    pub(super) fn two_vehicle_trace(seconds: f64) -> MobilityTrace {
        // Two vehicles parked 100 m apart: permanently in contact.
        let frames = (seconds * 2.0) as usize + 1;
        MobilityTrace::new(
            2.0,
            vec![
                vec![Vec2::ZERO; frames],
                vec![Vec2::new(100.0, 0.0); frames],
            ],
        )
    }

    fn far_trace(seconds: f64) -> MobilityTrace {
        let frames = (seconds * 2.0) as usize + 1;
        MobilityTrace::new(
            2.0,
            vec![
                vec![Vec2::ZERO; frames],
                vec![Vec2::new(2000.0, 0.0); frames],
            ],
        )
    }

    fn runtime(duration: f64) -> Runtime {
        Runtime::new(RuntimeConfig {
            duration,
            eval_every: 30.0,
            pair_cooldown: 20.0,
            ..RuntimeConfig::default()
        })
    }

    fn run_ok(rt: &Runtime, probe: &mut Probe, trace: &MobilityTrace) -> Metrics {
        match rt.run(probe, trace, &[]) {
            Ok(m) => m,
            Err(e) => panic!("runtime must accept this trace: {e}"),
        }
    }

    #[test]
    fn encounters_happen_in_range() {
        let trace = two_vehicle_trace(120.0);
        let mut probe = Probe::new(2);
        let m = run_ok(&runtime(120.0), &mut probe, &trace);
        assert!(probe.encounters >= 3, "cooldown allows several sessions: {}", probe.encounters);
        assert_eq!(m.sessions, probe.encounters);
        assert!(m.coreset_receives > 0);
    }

    #[test]
    fn no_encounters_out_of_range() {
        let trace = far_trace(60.0);
        let mut probe = Probe::new(2);
        run_ok(&runtime(60.0), &mut probe, &trace);
        assert_eq!(probe.encounters, 0);
    }

    #[test]
    fn training_iterations_match_rate() {
        let trace = far_trace(100.0);
        let mut probe = Probe::new(2);
        let m = run_ok(&runtime(100.0), &mut probe, &trace);
        // 2 nodes * 100 s * 2 iters/s = 400.
        assert_eq!(m.train_iterations, 400);
        assert_eq!(probe.train_calls, 400);
    }

    #[test]
    fn loss_curve_sampled_periodically() {
        let trace = far_trace(100.0);
        let mut probe = Probe::new(2);
        let m = run_ok(&runtime(100.0), &mut probe, &trace);
        // 0, 30, 60, 90 + final.
        assert_eq!(m.loss_curve.len(), 5);
        assert_eq!(m.loss_curve.last().map(|p| p.0), Some(100.0));
    }

    /// Frames play at `0, dt, dt + dt, …` while the time is below the
    /// duration, so the frame count and the loss-curve times (one per
    /// 10 s, then the final sample at the duration) are pinned at whole,
    /// half and sub-frame durations, at zero (no frame plays, one sample)
    /// and at rates whose `+ dt` chain rounds (3 and 10 fps).
    #[test]
    fn on_frame_called_every_frame() {
        let table: [(f64, f64, u64, &[f64]); 6] = [
            (0.0, 2.0, 0, &[0.0]),
            (0.5, 2.0, 1, &[0.0, 0.5]),
            (0.6, 2.0, 2, &[0.0, 0.6]),
            (50.0, 2.0, 100, &[0.0, 10.0, 20.0, 30.0, 40.0, 50.0]),
            (1.0, 3.0, 3, &[0.0, 1.0]),
            // Ten `+ 0.1` steps sum to 0.999…: an eleventh frame plays.
            (1.0, 10.0, 11, &[0.0, 1.0]),
        ];
        for (duration, fps, frames, times) in table {
            let samples = (duration * fps) as usize + 2;
            let far = |x: f32| vec![Vec2::new(x, 0.0); samples];
            let trace = MobilityTrace::new(fps, vec![far(0.0), far(2000.0)]);
            let mut probe = Probe::new(2);
            let rt = Runtime::new(RuntimeConfig {
                duration,
                eval_every: 10.0,
                ..RuntimeConfig::default()
            });
            let m = run_ok(&rt, &mut probe, &trace);
            let case = format!("{fps} fps over {duration} s");
            assert_eq!(probe.frames, frames, "{case}");
            let got: Vec<u64> = m.loss_curve.iter().map(|p| p.0.to_bits()).collect();
            let want: Vec<u64> = times.iter().map(|t| t.to_bits()).collect();
            assert_eq!(got, want, "{case}: loss-curve times");
        }
    }

    #[test]
    fn pair_cooldown_limits_session_rate() {
        let trace = two_vehicle_trace(100.0);
        let mut probe = Probe::new(2);
        // 100 s with a 50 s cooldown and near-instant sessions: at most 3
        // sessions can fit (t=0, ~50, ~100).
        let rt = Runtime::new(RuntimeConfig {
            duration: 100.0,
            pair_cooldown: 50.0,
            ..RuntimeConfig::default()
        });
        let m = run_ok(&rt, &mut probe, &trace);
        assert!(m.sessions <= 3, "cooldown must limit sessions: {}", m.sessions);
        assert!(m.sessions >= 2);
    }

    #[test]
    fn busy_nodes_do_not_train() {
        // An algorithm whose sessions take 10 s (a floor it reports, as
        // LbChat reports its own): training iterations are suppressed during
        // the busy window.
        struct Slow {
            params: ParamVec,
            train_calls: u64,
        }
        impl CollabAlgorithm for Slow {
            type Sample = ();
            type Session = f64;
            fn n_nodes(&self) -> usize {
                2
            }
            fn model(&self, _n: usize) -> &ParamVec {
                &self.params
            }
            fn local_training(
                &mut self,
                _n: usize,
                iters: usize,
                _r: &mut rand::rngs::StdRng,
            ) -> crate::learner::TrainStats {
                self.train_calls += iters as u64;
                crate::learner::TrainStats::default()
            }
            fn session_open(&mut self, _ctx: &mut SessionCtx<'_>) -> Option<(f64, SessionStep)> {
                Some((10.0, SessionStep::Done))
            }
            fn session_close(&mut self, floor: f64, ctx: &mut SessionCtx<'_>) -> f64 {
                ctx.elapsed().max(floor)
            }
            fn mean_eval_loss(&self, _e: &[()]) -> f64 {
                0.0
            }
            fn name(&self) -> &'static str {
                "slow"
            }
        }
        let trace = two_vehicle_trace(100.0);
        let mut slow = Slow { params: ParamVec::zeros(1), train_calls: 0 };
        let rt = Runtime::new(RuntimeConfig {
            duration: 100.0,
            pair_cooldown: 1000.0, // single session
            ..RuntimeConfig::default()
        });
        rt.run(&mut slow, &trace, &[]).map_or_else(|e| panic!("{e}"), |_| ());
        // 2 nodes * 100 s * 2 it/s = 400 if never busy; one 10 s session
        // for both nodes removes ~40 iterations.
        assert!(slow.train_calls <= 365, "busy time must suppress training: {}", slow.train_calls);
        assert!(slow.train_calls >= 330);
    }

    #[test]
    fn obs_sink_records_runtime_events() {
        let trace = two_vehicle_trace(100.0);
        let sink = ObsSink::recording();
        let mut probe = Probe::new(2);
        let rt = Runtime::new(RuntimeConfig {
            duration: 100.0,
            eval_every: 30.0,
            pair_cooldown: 20.0,
            obs: sink.clone(),
            ..RuntimeConfig::default()
        });
        let m = run_ok(&rt, &mut probe, &trace);
        let events = sink.events();
        let count = |k: EventKind| events.iter().filter(|e| e.is(k)).count() as u64;
        assert_eq!(count(EventKind::Session), m.sessions);
        assert_eq!(count(EventKind::Round) as usize, m.loss_curve.len());
        // The probe moves one 15 kB payload per session.
        assert_eq!(count(EventKind::Transfer), m.sessions);
        let counters = sink.counters();
        assert_eq!(counters[Counter::Sessions.name()], m.sessions);
        assert_eq!(counters[Counter::BytesTx.name()], m.sessions * 15_000);
        assert_eq!(counters[Counter::Rounds.name()] as usize, m.loss_curve.len());
        let session = match events.iter().find(|e| e.is(EventKind::Session)) {
            Some(e) => e,
            None => panic!("a session event must exist"),
        };
        for field in ["i", "j", "t", "priority", "duration_s"] {
            assert!(session.get(field).is_some(), "session event missing {field}");
        }
        let transfer = match events.iter().find(|e| e.is(EventKind::Transfer)) {
            Some(e) => e,
            None => panic!("a transfer event must exist"),
        };
        assert_eq!(transfer.get("bytes"), Some(&crate::obs::Json::UInt(15_000)));
    }

    /// Destructured without `..`: adding or removing a field fails to
    /// compile here until the count is a decision someone made.
    #[test]
    fn defaults_are_the_paper_setup_over_eleven_fields() {
        let RuntimeConfig {
            duration,
            train_iters_per_second,
            radio,
            loss_model,
            eval_every,
            pair_cooldown,
            contact_reference_time,
            route_share_samples,
            seed,
            codec,
            obs,
        } = RuntimeConfig::default();
        assert_eq!(duration, 3600.0);
        assert_eq!(train_iters_per_second, 2.0);
        assert_eq!(radio, RadioConfig::default());
        assert_eq!(loss_model, LossModel::None);
        assert_eq!(eval_every, 120.0);
        assert_eq!(pair_cooldown, 60.0);
        assert_eq!(contact_reference_time, 30.0);
        assert_eq!(route_share_samples, 240);
        assert_eq!(seed, 0);
        assert_eq!(codec, Codec::TopK);
        assert!(!obs.enabled());
    }

    #[test]
    fn builder_accepts_sane_configs() {
        assert_eq!(RuntimeConfig::default().validate(), Ok(()));
        let cfg = RuntimeConfig {
            duration: 0.0,
            train_iters_per_second: 0.0,
            eval_every: 10.0,
            pair_cooldown: 0.0,
            loss_model: LossModel::distance_default(),
            ..RuntimeConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()), "zeros are in domain where the docs say so");
    }

    /// Out-of-domain configs, one per error family and every malformed
    /// loss table the radio would silently misread: unsorted, with a
    /// repeated breakpoint, with a NaN, or with a PER that is no probability.
    fn nonsense() -> Vec<(RuntimeConfig, ConfigError)> {
        use simnet::loss::LossTableError;
        let base = RuntimeConfig::default;
        let mut cases = vec![
            (
                RuntimeConfig { duration: -3600.0, ..base() },
                ConfigError::Negative { field: "duration", value: -3600.0 },
            ),
            (
                RuntimeConfig { eval_every: 0.0, ..base() },
                ConfigError::NonPositive { field: "eval_every", value: 0.0 },
            ),
            (
                RuntimeConfig { pair_cooldown: -1.0, ..base() },
                ConfigError::Negative { field: "pair_cooldown", value: -1.0 },
            ),
            (
                RuntimeConfig { train_iters_per_second: f64::INFINITY, ..base() },
                ConfigError::Negative { field: "train_iters_per_second", value: f64::INFINITY },
            ),
            (
                RuntimeConfig { contact_reference_time: 0.0, ..base() },
                ConfigError::NonPositive { field: "contact_reference_time", value: 0.0 },
            ),
        ];
        for (table, error) in [
            (vec![], LossTableError::Empty),
            (vec![(0.0, 0.1), (200.0, 0.5), (100.0, 0.3)], LossTableError::NotIncreasing { index: 2 }),
            (vec![(0.0, 0.1), (100.0, 0.3), (100.0, 0.5)], LossTableError::NotIncreasing { index: 2 }),
            (vec![(0.0, 0.1), (f32::NAN, 0.3)], LossTableError::NonFinite { index: 1 }),
            (vec![(0.0, 0.1), (100.0, 1.5)], LossTableError::PerOutOfRange { index: 1 }),
        ] {
            cases.push((
                RuntimeConfig { loss_model: LossModel::Distance(table), ..base() },
                ConfigError::LossTable { field: "loss_model", error },
            ));
        }
        cases
    }

    #[test]
    fn builder_rejects_nonsense() {
        for (cfg, error) in nonsense() {
            assert_eq!(cfg.validate(), Err(error));
        }
        // NaN compares unequal to itself, so match on the shape.
        let nan = RuntimeConfig { duration: f64::NAN, ..RuntimeConfig::default() };
        assert!(matches!(nan.validate(), Err(ConfigError::Negative { field: "duration", .. })));
    }

    /// The check runs where runs enter: `Runtime::run` refuses an
    /// out-of-domain struct-literal config before a frame plays.
    #[test]
    fn run_refuses_an_invalid_config() {
        let trace = two_vehicle_trace(10.0);
        for (cfg, error) in nonsense() {
            let mut probe = Probe::new(2);
            let err = Runtime::new(cfg).run(&mut probe, &trace, &[]).err();
            assert_eq!(err, Some(RuntimeError::Config(error)));
            assert_eq!(probe.frames, 0, "no frame plays under a refused config");
        }
        let nan = RuntimeConfig { duration: f64::NAN, ..RuntimeConfig::default() };
        let err = Runtime::new(nan).run(&mut Probe::new(2), &trace, &[]).err();
        assert!(matches!(err, Some(RuntimeError::Config(ConfigError::Negative { .. }))), "{err:?}");
        let err = RuntimeError::Config(ConfigError::NonPositive { field: "eval_every", value: 0.0 });
        assert!(err.to_string().contains("eval_every must be positive"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn trace_too_small_is_a_typed_error() {
        let trace = two_vehicle_trace(10.0);
        let mut probe = Probe::new(5);
        let err = runtime(10.0).run(&mut probe, &trace, &[]);
        assert_eq!(err.err(), Some(RuntimeError::TraceTooSmall { agents: 2, nodes: 5 }));
        let msg = RuntimeError::TraceTooSmall { agents: 2, nodes: 5 }.to_string();
        assert!(msg.contains("trace has 2 agents"), "{msg}");
    }

    #[test]
    fn pair_cooldown_is_triangular_and_symmetric() {
        let mut cd = PairCooldown::new(5);
        assert_eq!(cd.until.len(), 10, "n(n-1)/2 slots for n=5");
        cd.set(3, 1, 42.0);
        assert_eq!(cd.get(1, 3), 42.0);
        assert_eq!(cd.get(3, 1), 42.0);
        assert_eq!(cd.get(0, 4), 0.0);
        cd.set(0, 4, 7.0);
        assert_eq!(cd.get(4, 0), 7.0);
        // Distinct pairs never alias.
        assert_eq!(cd.get(1, 3), 42.0);
    }

    // ---- Equivalence with the reference frame loop -----------------------
    //
    // `Runtime::run` must reproduce `reference::run` bit for bit — same loss
    // curve, same counters, same airtime accounting, same final models — for
    // any trace geometry, loss model, cooldown, training rate, and seed.

    /// Runs `algo` through [`Runtime::run`] and `oracle` through the
    /// reference loop under the same config, asserts bit-equal metrics, and
    /// returns them.
    fn assert_same_run<A: CollabAlgorithm>(
        cfg: RuntimeConfig,
        trace: &MobilityTrace,
        eval: &[A::Sample],
        algo: &mut A,
        oracle: &mut A,
    ) -> Metrics {
        let me = Runtime::new(cfg.clone()).run(algo, trace, eval).expect("trace fits");
        let mr = reference::run(&cfg, oracle, trace, eval);
        assert_eq!(me.loss_curve.len(), mr.loss_curve.len());
        for ((te, le), (tr, lr)) in me.loss_curve.iter().zip(&mr.loss_curve) {
            assert_eq!(te.to_bits(), tr.to_bits(), "loss-curve time diverged");
            assert_eq!(le.to_bits(), lr.to_bits(), "loss-curve value diverged");
        }
        assert_eq!(me.sessions, mr.sessions);
        assert_eq!(me.coreset_sends, mr.coreset_sends);
        assert_eq!(me.coreset_receives, mr.coreset_receives);
        assert_eq!(me.model_sends, mr.model_sends);
        assert_eq!(me.model_receives, mr.model_receives);
        assert_eq!(me.bytes_delivered, mr.bytes_delivered);
        assert_eq!(me.comm_seconds.to_bits(), mr.comm_seconds.to_bits());
        assert_eq!(me.train_iterations, mr.train_iterations);
        me
    }

    #[test]
    fn event_loop_matches_reference_bit_for_bit() {
        // Including under distance loss, where every packet draws from the
        // shared RNG.
        for loss in [LossModel::None, LossModel::distance_default()] {
            let trace = two_vehicle_trace(150.0);
            let cfg = RuntimeConfig {
                duration: 150.0,
                eval_every: 30.0,
                pair_cooldown: 20.0,
                loss_model: loss,
                ..RuntimeConfig::default()
            };
            let (mut pe, mut pr) = (Probe::new(2), Probe::new(2));
            assert_same_run(cfg, &trace, &[], &mut pe, &mut pr);
            assert_eq!(pe.encounters, pr.encounters);
            assert_eq!(pe.train_calls, pr.train_calls);
            assert_eq!(pe.frames, pr.frames);
        }
    }

    /// A chatty probe: each session draws its transfer count and payload
    /// sizes from the protocol RNG, declines a fraction of pairings, and
    /// records every payload in the metrics — a miniature of a multi-payload
    /// session without any learning, so a divergence in RNG order, matching
    /// order, or transfer accounting between the two loops is caught rather
    /// than masked by a trivial protocol.
    struct Chatter {
        n: usize,
        params: ParamVec,
        /// What `fixed_priority` answers: `None` ranks by the estimate.
        fixed: Option<f64>,
        /// `pair_priority` calls seen — one per estimate an eager ranking
        /// computes.
        ranked: std::cell::Cell<u64>,
    }

    impl Chatter {
        fn new(n: usize, fixed: Option<f64>) -> Self {
            Self { n, params: ParamVec::zeros(1), fixed, ranked: std::cell::Cell::new(0) }
        }
    }

    impl CollabAlgorithm for Chatter {
        type Sample = ();
        type Session = ();

        fn n_nodes(&self) -> usize {
            self.n
        }
        fn model(&self, _node: usize) -> &ParamVec {
            &self.params
        }
        fn local_training(
            &mut self,
            _node: usize,
            _iters: usize,
            rng: &mut rand::rngs::StdRng,
        ) -> crate::learner::TrainStats {
            // Consume shared randomness so training order matters too.
            let _: f32 = rng.random();
            crate::learner::TrainStats::default()
        }
        fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<((), SessionStep)> {
            let decline: f32 = ctx.rng().random();
            if decline < 0.125 {
                return None;
            }
            let mut remaining = (ctx.rng().random::<f32>() * 3.0) as u32;
            // Sized by the predicted contact, as the gossip baselines do: a
            // session handed another pair's or another instant's estimate
            // moves different traffic.
            let est = ctx.contact();
            let fitted = (est.duration.clamp(0.0, 60.0) * 100.0 + est.p * 1000.0) as usize;
            let bytes = 10_000 + fitted + (ctx.rng().random::<f32>() * 40_000.0) as usize;
            let mut spec = TransferSpec::link(bytes, 8.0);
            loop {
                let out = ctx.run_spec(&spec);
                ctx.metrics.record_coreset_send(out.is_delivered(), 10_000, out.elapsed());
                if !out.is_delivered() || remaining == 0 {
                    return Some(((), SessionStep::Done));
                }
                remaining -= 1;
                let bytes = 5_000 + (ctx.rng().random::<f32>() * 20_000.0) as usize;
                spec = TransferSpec::link(bytes, 6.0);
            }
        }
        fn fixed_priority(&self) -> Option<f64> {
            self.fixed
        }
        fn pair_priority(&self, _i: usize, _j: usize, est: &ContactEstimate) -> f64 {
            self.ranked.set(self.ranked.get() + 1);
            self.fixed.unwrap_or(est.z * est.p)
        }
        fn mean_eval_loss(&self, _eval: &[()]) -> f64 {
            1.0
        }
        fn name(&self) -> &'static str {
            "chatter"
        }
    }

    /// Vehicles on parallel lanes drifting along x at per-vehicle speeds
    /// `(x0, vx)`, so pairs move in and out of radio range over the run.
    fn lane_trace(vehicles: &[(f32, f32)], duration: f64) -> MobilityTrace {
        let fps = 2.0;
        let frames = (duration * fps) as usize + 1;
        let positions = vehicles
            .iter()
            .enumerate()
            .map(|(k, &(x0, vx))| {
                (0..frames)
                    .map(|f| {
                        let t = f as f32 / fps as f32;
                        Vec2::new(x0 + vx * t, k as f32 * 30.0)
                    })
                    .collect()
            })
            .collect();
        MobilityTrace::new(fps, positions)
    }

    fn assert_same_chatter_run(cfg: RuntimeConfig, vehicles: &[(f32, f32)]) {
        let trace = lane_trace(vehicles, cfg.duration);
        // Ranked by the estimate, then with a fixed priority: the runtime
        // matches the second run as the grid visits its pairs and predicts
        // only the opened pairs' contacts, the reference loop ranks every
        // pair through its estimate, and a method that never matches opens
        // nothing.
        for fixed in [None, Some(0.0), Some(f64::NEG_INFINITY)] {
            let chatter = || Chatter::new(vehicles.len(), fixed);
            let m = assert_same_run(cfg.clone(), &trace, &[], &mut chatter(), &mut chatter());
            if fixed == Some(f64::NEG_INFINITY) {
                assert_eq!(m.sessions, 0, "a method that opts out opens nothing");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn event_loop_matches_reference_on_random_fleets(
            vehicles in proptest::prelude::prop::collection::vec(
                (-400.0f32..400.0, -12.0f32..12.0),
                2..5,
            ),
            duration in 30.0f64..90.0,
            seed in 0u64..1_000,
            cooldown in 0.0f64..40.0,
            lossy in 0u32..2,
            train_rate in 0.0f64..4.0,
        ) {
            let cfg = RuntimeConfig {
                duration,
                train_iters_per_second: train_rate,
                loss_model: if lossy == 1 {
                    LossModel::distance_default()
                } else {
                    LossModel::None
                },
                eval_every: 25.0,
                pair_cooldown: cooldown,
                seed,
                ..RuntimeConfig::default()
            };
            assert_same_chatter_run(cfg, &vehicles);
        }
    }

    /// A contact is predicted only where something reads the prediction:
    /// for a method with a fixed priority, once per session the frame
    /// opens; for one that ranks by the estimate, once per candidate that
    /// survived the cooldown.
    #[test]
    fn a_fixed_priority_costs_one_estimate_per_opened_session() {
        // 48 vehicles on 30 m lanes crossing each other at 2–9 m/s.
        let fleet: Vec<(f32, f32)> = (0..48)
            .map(|k| {
                let speed = 2.0 + (k % 8) as f32;
                ((k % 6) as f32 * 150.0 - 400.0, if k % 2 == 0 { speed } else { -speed })
            })
            .collect();
        let trace = lane_trace(&fleet, 90.0);
        let run = |fixed: Option<f64>| {
            let sink = ObsSink::recording();
            let cfg = RuntimeConfig {
                duration: 90.0,
                eval_every: 45.0,
                pair_cooldown: 20.0,
                loss_model: LossModel::distance_default(),
                seed: 5,
                obs: sink.clone(),
                ..RuntimeConfig::default()
            };
            let mut chatter = Chatter::new(fleet.len(), fixed);
            let m = Runtime::new(cfg).run(&mut chatter, &trace, &[]).expect("trace fits");
            (m.sessions, sink.counters()[Counter::NetContactEstimates.name()], chatter.ranked.get())
        };
        let (sessions, estimates, _) = run(Some(0.0));
        assert!(sessions > 100, "the fleet must keep chatting: {sessions}");
        assert_eq!(estimates, sessions, "one estimate per opened session");
        let (sessions, estimates, ranked) = run(None);
        assert_eq!(estimates, ranked, "one estimate per post-cooldown candidate");
        assert!(ranked > 2 * sessions, "most candidates lose the matching: {ranked} vs {sessions}");
        let (sessions, estimates, _) = run(Some(f64::NEG_INFINITY));
        assert_eq!((sessions, estimates), (0, 0), "nothing opens, nothing is predicted");
    }

    /// The paper-shaped corner cases the strategy may not hit every run:
    /// zero-length cooldowns, sub-frame durations, and a dense fleet.
    #[test]
    fn event_loop_matches_reference_on_edge_configs() {
        for (duration, cooldown, seed) in [(0.6, 0.0, 7), (45.0, 0.0, 1), (45.0, 200.0, 2)] {
            let cfg = RuntimeConfig {
                duration,
                pair_cooldown: cooldown,
                eval_every: 10.0,
                seed,
                loss_model: LossModel::distance_default(),
                ..RuntimeConfig::default()
            };
            let fleet: Vec<(f32, f32)> =
                (0..6).map(|k| (k as f32 * 90.0, if k % 2 == 0 { 3.0 } else { -3.0 })).collect();
            assert_same_chatter_run(cfg, &fleet);
        }
    }

    /// The full LbChat protocol — assist, coreset exchange, compression
    /// optimization, model exchange, aggregation — and the SCO ablation,
    /// with and without wireless loss: identical metrics *and final models*
    /// from both loops.
    #[test]
    fn event_loop_matches_reference_on_lbchat_and_sco() {
        use crate::config::LbChatConfig;
        use crate::dataset::WeightedDataset;
        use crate::learner::testutil::{line_data, LineLearner};
        use crate::node::LbChatAlgorithm;
        use rand::SeedableRng;

        let base = LbChatConfig {
            coreset_size: 30,
            coreset_bytes_per_sample: 256,
            model_wire_bytes: 4 * 1024 * 1024, // small model: fits contacts
            coreset_refresh_iters: 20,
            batch_size: 16,
            ..LbChatConfig::default()
        };
        // Four vehicles, each fitting its own line, drifting through each
        // other's radio range.
        let lines = [(2.0, -1.0), (-1.0, 2.0), (0.5, 0.5), (-2.0, 0.0)];
        let vehicles = [(0.0, 2.0), (120.0, -2.0), (260.0, -4.0), (-150.0, 5.0)];
        let trace = lane_trace(&vehicles, 300.0);
        let eval = line_data(1.0, 1.0, 40);
        for lbchat in [base.clone(), base.sco()] {
            for loss_model in [LossModel::None, LossModel::distance_default()] {
                let method = if lbchat.share_model { "LbChat" } else { "SCO" };
                let cell = format!("{method} / {loss_model:?}");
                let fleet = || {
                    let learners = vec![LineLearner::new(0.0, 0.0); lines.len()];
                    let datasets = lines
                        .iter()
                        .map(|&(a, b)| WeightedDataset::uniform(line_data(a, b, 200)))
                        .collect();
                    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                    LbChatAlgorithm::new(learners, datasets, lbchat.clone(), &mut rng)
                };
                let cfg = RuntimeConfig {
                    duration: 300.0,
                    eval_every: 60.0,
                    pair_cooldown: 30.0,
                    loss_model,
                    seed: 11,
                    ..RuntimeConfig::default()
                };
                let (mut algo, mut oracle) = (fleet(), fleet());
                let m = assert_same_run(cfg, &trace, &eval, &mut algo, &mut oracle);
                assert!(m.coreset_receives > 0, "{cell}: the fleet must chat");
                assert_eq!(m.model_sends > 0, lbchat.share_model, "{cell}: model sends");
                for v in 0..lines.len() {
                    assert_eq!(
                        algo.model(v).as_slice(),
                        oracle.model(v).as_slice(),
                        "{cell}: vehicle {v} model diverged"
                    );
                }
            }
        }
    }
}
