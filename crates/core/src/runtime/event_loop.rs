//! The discrete-event execution engine behind [`super::Runtime::run`].
//!
//! Frames, session opens/closes, streaming transfer steps, training slices,
//! and evaluations are events on the deterministic queue in [`super::sched`].
//! Two execution modes share the scaffolding:
//!
//! * **Synchronous** ([`RuntimeConfig::contention`] = `None`): each frame
//!   pushes its sessions, training slices, and evaluation as same-timestamp
//!   events in phase order, and every session runs to completion at its
//!   `ContactOpen` through [`drive_session`] on the shared RNG.
//! * **Contention**: sessions become long-lived records whose transfers
//!   stream packet windows that contend for per-cell airtime on a
//!   [`Medium`]. Each session draws from its own seeded RNG, and a window's
//!   fair share / collision loss come from the *previous* window's load —
//!   so same-window steps are order-independent and shard over
//!   [`crate::exec`] with a fixed-order reduction, keeping jobs=1 ≡ jobs=N
//!   bit-identical.

use super::sched::{Event, EventQueue};
use super::{
    drive_session, emit_round, record_transfer_obs, CollabAlgorithm, FrameCtx, PairCooldown,
    RuntimeConfig, SessionCtx, SessionStep,
};
use crate::exec;
use crate::metrics::Metrics;
use rand::{RngExt, SeedableRng};
use simnet::channel::{Channel, Medium, TransferOutcome, TransferSpec, DEAD_LINK_ATTEMPTS};
use simnet::contact::{ContactEstimate, ContactPredictor};
use simnet::geom::Vec2;
use simnet::grid::EncounterGrid;
use simnet::trace::{Encounter, MobilityTrace, RouteCache};

/// A forcibly closed session that keeps requesting transfers gets each fed
/// an instant failure; after this many the runtime abandons the protocol
/// and closes anyway (guards against a non-terminating `session_step`).
const FORCED_CLOSE_FEEDS: u32 = 64;

/// Runs `algo` over `trace` on the event scheduler. The caller
/// ([`super::Runtime::run`]) has already validated the trace size.
pub(super) fn run<A: CollabAlgorithm>(
    cfg: &RuntimeConfig,
    algo: &mut A,
    trace: &MobilityTrace,
    eval: &[A::Sample],
) -> Metrics {
    let mut el = EventLoop::new(cfg, trace, eval, algo.n_nodes());
    el.queue.push(0.0, Event::Frame);
    while let Some(t) = el.queue.peek_time() {
        if t >= cfg.duration {
            break;
        }
        let Some((t, ev)) = el.queue.pop() else { break };
        el.dispatch(algo, t, ev);
    }
    // Contention mode: sessions whose contact outlives the run close at the
    // horizon so their protocols finalize (aggregation happens at close).
    for s in 0..el.sessions.len() {
        if !el.sessions[s].closed {
            el.force_close(algo, s, cfg.duration);
        }
    }
    let loss = algo.mean_eval_loss(eval);
    el.metrics.record_loss(cfg.duration, loss);
    emit_round(&cfg.obs, algo.name(), cfg.duration, loss);
    el.metrics
}

/// One live (contention-mode) session between ContactOpen and close.
struct Live<S> {
    i: usize,
    j: usize,
    est: ContactEstimate,
    /// Open time in simulated seconds.
    start: f64,
    /// Matching priority the pair won with (for the `session` event).
    score: f64,
    /// Per-session RNG (seeded from the session sequence number so outcomes
    /// are independent of worker count); `None` only while a callback or a
    /// window job has it checked out.
    rng: Option<rand::rngs::StdRng>,
    /// Protocol time consumed so far (airtime + explicit charges) — what
    /// [`SessionCtx::elapsed`] reports to the algorithm.
    elapsed: f64,
    /// Algorithm state; `None` before open returns, while checked out to a
    /// callback, and after close.
    state: Option<S>,
    /// The in-flight streaming transfer, if any.
    pending: Option<Pending>,
    closed: bool,
}

/// What a [`SessionCtx`] is built from: a session's endpoints, contact
/// estimate, open time, and the protocol time consumed so far.
#[derive(Clone, Copy)]
struct Link {
    start: f64,
    i: usize,
    j: usize,
    est: ContactEstimate,
    elapsed: f64,
}

/// A streaming transfer in flight.
struct Pending {
    spec: TransferSpec,
    /// Session-clock time ([`SessionCtx::now`]) when the transfer was
    /// requested — the `t` stamped on its eventual `transfer` event, matching
    /// the synchronous path.
    t0: f64,
    /// Airtime consumed so far, seconds (the transfer-local clock the
    /// deadline is measured on).
    airtime: f64,
    delivered_packets: usize,
    n_packets: usize,
    /// Consecutive failed attempts on the current packet.
    fail_streak: u32,
}

/// One session's share of one medium window: the unit that shards across
/// workers. Inputs are fixed before the parallel phase; `stream_window`
/// mutates only owned state, so results are identical for any worker count.
struct WindowJob {
    session: usize,
    cell: (i64, i64),
    pending: Pending,
    rng: rand::rngs::StdRng,
    /// Fair airtime share this window, seconds.
    share_s: f64,
    /// Combined per-packet error rate (link loss + collision extra).
    per: f32,
    /// Whether a collision term is in effect (for drop attribution).
    contended: bool,
    pt: f64,
    // Outputs:
    consumed: f64,
    drops: u64,
    status: WindowStatus,
}

#[derive(Clone, Copy, PartialEq)]
enum WindowStatus {
    /// Window share exhausted with payload remaining.
    InProgress,
    /// The share was too small to fit even one packet.
    Backoff,
    /// All packets delivered.
    Complete,
    /// Deadline passed or the link died.
    Failed,
}

/// Streams packets of one transfer through one window's airtime share.
/// Pure per-job: touches only the job's own pending state and RNG.
fn stream_window(job: &mut WindowJob) {
    if job.share_s < job.pt {
        job.status = WindowStatus::Backoff;
        return;
    }
    let p = &mut job.pending;
    let mut local = 0.0f64;
    job.status = loop {
        if p.delivered_packets >= p.n_packets {
            break WindowStatus::Complete;
        }
        if p.fail_streak >= DEAD_LINK_ATTEMPTS {
            break WindowStatus::Failed;
        }
        if p.airtime + job.pt > p.spec.deadline {
            break WindowStatus::Failed;
        }
        if local + job.pt > job.share_s {
            break WindowStatus::InProgress;
        }
        p.airtime += job.pt;
        local += job.pt;
        if job.per <= 0.0 || job.rng.random::<f32>() >= job.per {
            p.delivered_packets += 1;
            p.fail_streak = 0;
        } else {
            p.fail_streak += 1;
            if job.contended {
                job.drops += 1;
            }
        }
    };
    job.consumed = local;
}

struct EventLoop<'a, A: CollabAlgorithm> {
    cfg: &'a RuntimeConfig,
    trace: &'a MobilityTrace,
    eval: &'a [A::Sample],
    n: usize,
    dt: f64,
    channel: Channel,
    predictor: ContactPredictor,
    /// The shared (frame-order) RNG: frame hooks, synchronous sessions, and
    /// training draw from it in event order.
    rng: rand::rngs::StdRng,
    metrics: Metrics,
    busy_until: Vec<f64>,
    cooldown: PairCooldown,
    train_debt: Vec<f64>,
    next_eval: f64,
    queue: EventQueue<Event>,
    /// `Some` iff contention mode is on.
    medium: Option<Medium>,
    sessions: Vec<Live<A::Session>>,
    /// Spatial-hash encounter discovery — bit-identical to the all-pairs
    /// sweep ([`MobilityTrace::encounters_at`]), O(local density) per frame.
    grid: EncounterGrid,
    /// Per-frame shared-route cache: each agent's future route is sampled
    /// at most once per frame, however many candidate pairs it appears in.
    routes: RouteCache,
    // Buffers below are refilled every frame (or every transfer batch) and
    // kept for their capacity; none carries state from one use to the next.
    /// The frame's roster: vehicles not in a session, ascending.
    free: Vec<usize>,
    /// In-range pairs among `free`, refilled by the grid.
    encounters: Vec<Encounter>,
    /// `(priority, i, j, estimate)` of every pairing the frame may open;
    /// the estimate is `None` until matching opens a pair whose method
    /// stated its priority without one.
    candidates: Vec<(f64, usize, usize, Option<ContactEstimate>)>,
    /// Per node: already matched this frame.
    taken: Vec<bool>,
    /// Sessions stepping in the current medium window.
    batch: Vec<usize>,
    /// Their shares of that window, one job per session still streaming.
    jobs: Vec<WindowJob>,
    /// `(session, bytes, t0, outcome)` of the transfers a window finished.
    finished: Vec<(usize, usize, f64, TransferOutcome)>,
}

impl<'a, A: CollabAlgorithm> EventLoop<'a, A> {
    /// An idle loop over `n` nodes at simulated time zero.
    fn new(
        cfg: &'a RuntimeConfig,
        trace: &'a MobilityTrace,
        eval: &'a [A::Sample],
        n: usize,
    ) -> Self {
        EventLoop {
            cfg,
            trace,
            eval,
            n,
            dt: 1.0 / trace.fps(),
            channel: Channel::new(cfg.radio.clone(), cfg.loss_model.clone()),
            predictor: ContactPredictor::new(
                cfg.radio.range_m,
                cfg.radio.max_retx,
                cfg.loss_model.clone(),
                cfg.contact_reference_time,
            ),
            rng: rand::rngs::StdRng::seed_from_u64(cfg.seed.wrapping_add(0xC0FFEE)),
            metrics: Metrics::new(),
            busy_until: vec![0.0f64; n],
            cooldown: PairCooldown::new(n),
            train_debt: vec![0.0f64; n],
            next_eval: 0.0,
            queue: EventQueue::new(),
            medium: cfg.contention.clone().map(Medium::new),
            sessions: Vec::new(),
            grid: EncounterGrid::new(),
            routes: RouteCache::new(n, cfg.route_share_samples),
            free: Vec::with_capacity(n),
            encounters: Vec::new(),
            candidates: Vec::new(),
            taken: vec![false; n],
            batch: Vec::new(),
            jobs: Vec::new(),
            finished: Vec::new(),
        }
    }

    fn dispatch(&mut self, algo: &mut A, t: f64, ev: Event) {
        match ev {
            Event::Frame => self.handle_frame(algo, t),
            Event::ContactOpen { i, j, est, priority } => {
                if self.medium.is_some() {
                    self.open_streaming(algo, i, j, est, priority, t);
                } else {
                    self.open_synchronous(algo, i, j, est, priority, t);
                }
            }
            Event::ContactClose { session } => {
                if !self.sessions[session].closed {
                    self.force_close(algo, session, t);
                }
            }
            Event::TransferStep { session } => {
                // Batch all same-timestamp transfer steps: their window
                // shares come from the previous window's load, so they are
                // order-independent and shard across workers.
                self.batch.clear();
                self.batch.push(session);
                loop {
                    match self.queue.peek() {
                        Some((t2, Event::TransferStep { session: s })) if t2 == t => {
                            let s = *s;
                            self.queue.pop();
                            self.batch.push(s);
                        }
                        _ => break,
                    }
                }
                self.handle_transfer_batch(algo, t);
            }
            Event::TrainSlice { node } => self.handle_train_slice(algo, t, node),
            Event::Eval => {
                let loss = algo.mean_eval_loss(self.eval);
                self.metrics.record_loss(t, loss);
                emit_round(&self.cfg.obs, algo.name(), t, loss);
            }
        }
    }

    /// One trace frame: infrastructure hook, pair matching, then the
    /// frame's sessions, training slices, and evaluation pushed as
    /// same-timestamp events in phase order.
    fn handle_frame(&mut self, algo: &mut A, t: f64) {
        {
            let mut fctx = FrameCtx {
                time: t,
                trace: self.trace,
                channel: &self.channel,
                busy_until: &self.busy_until,
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                loss_model: &self.cfg.loss_model,
                codec: self.cfg.codec,
                obs: &self.cfg.obs,
            };
            algo.on_frame(&mut fctx);
        }

        // Pair matching, over the vehicles free at this frame only: a busy
        // vehicle can open no session, and the grid emits pairs in roster
        // order, so scanning the free roster yields exactly the pairs a
        // whole-fleet scan would keep after dropping the busy ones, in the
        // same order (DESIGN.md §4). Encounters come from the spatial hash —
        // bit-identical to the all-pairs sweep — and each agent's shared
        // route is interpolated at most once per frame through the route
        // cache.
        self.free.clear();
        self.free.extend((0..self.n).filter(|&v| self.busy_until[v] <= t));
        self.routes.begin_frame();
        let stats = self.grid.encounters_into(
            self.trace,
            t,
            self.cfg.radio.range_m,
            &self.free,
            &mut self.encounters,
        );
        if self.cfg.obs.enabled() {
            self.cfg.obs.add("net.encounter.candidates", stats.candidates);
            self.cfg.obs.add("net.encounter.cells", stats.cells);
        }
        // A method that states a pair's priority without the contact
        // estimate is ranked with no route sampled; its estimate is computed
        // below, for the pairs matching opens only. The estimate is a pure
        // function of (trace, i, j, t) and draws no RNG, so either order
        // hands `ContactOpen` the same bits (DESIGN.md §4).
        let mut estimates = 0u64;
        let mut estimate = |i, j| {
            estimates += 1;
            let (fut_i, fut_j) = self.routes.pair(self.trace, i, j, t, self.dt);
            self.predictor.estimate(fut_i, fut_j, self.dt)
        };
        self.candidates.clear();
        for &Encounter { a: i, b: j, .. } in &self.encounters {
            if self.cooldown.get(i, j) > t {
                continue;
            }
            let (score, est) = match algo.static_priority(i, j) {
                Some(score) => (score, None),
                None => {
                    let est = estimate(i, j);
                    (algo.pair_priority(i, j, &est), Some(est))
                }
            };
            if !score.is_finite() {
                continue; // method opted out of this pairing
            }
            self.candidates.push((score, i, j, est));
        }
        // Greedy matching by descending priority — each vehicle serves its
        // best-scored neighbor first (§III-A). total_cmp: scores are finite.
        self.candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
        self.taken.fill(false);
        for &(score, i, j, est) in &self.candidates {
            if self.taken[i] || self.taken[j] {
                continue;
            }
            self.taken[i] = true;
            self.taken[j] = true;
            let est = est.unwrap_or_else(|| {
                let est = estimate(i, j);
                debug_assert_eq!(
                    algo.pair_priority(i, j, &est).to_bits(),
                    score.to_bits(),
                    "{}: a static priority must not depend on the estimate",
                    algo.name()
                );
                est
            });
            self.queue.push(t, Event::ContactOpen { i, j, est, priority: score });
        }
        if self.cfg.obs.enabled() {
            self.cfg.obs.add("net.contact.estimates", estimates);
        }

        for v in 0..self.n {
            self.queue.push(t, Event::TrainSlice { node: v });
        }
        if t >= self.next_eval {
            self.queue.push(t, Event::Eval);
            self.next_eval += self.cfg.eval_every;
        }
        // Frame times accumulate by repeated `+ dt`; the recorded fixtures
        // pin that float sequence.
        if t + self.dt < self.cfg.duration {
            self.queue.push(t + self.dt, Event::Frame);
        }
    }

    fn handle_train_slice(&mut self, algo: &mut A, t: f64, v: usize) {
        if self.busy_until[v] > t {
            return;
        }
        // Fractional iteration accounting keeps any rate exact over time.
        self.train_debt[v] += self.cfg.train_iters_per_second * self.dt;
        let iters = self.train_debt[v].floor() as usize;
        if iters > 0 {
            self.train_debt[v] -= iters as f64;
            let stats = algo.local_training(v, iters, &mut self.rng);
            self.metrics.train_iterations += iters as u64;
            if self.cfg.obs.enabled() && stats.batches > 0 {
                self.cfg.obs.add("train.batch", stats.batches);
                self.cfg.obs.add("train.samples", stats.samples);
                self.cfg.obs.add("train.scratch_reuse", stats.scratch_reuse);
            }
        }
    }

    /// Runs one algorithm callback `f` over a freshly built [`SessionCtx`]
    /// — the only place one is built. `rng` is the session's own RNG, or
    /// `None` for the shared frame-order RNG a synchronous session draws
    /// from. Returns `f`'s result and the session clock it left behind.
    fn with_ctx<R>(
        &mut self,
        link: Link,
        rng: Option<&mut rand::rngs::StdRng>,
        f: impl FnOnce(&mut SessionCtx<'_>) -> R,
    ) -> (R, f64) {
        let mut ctx = SessionCtx {
            start: link.start,
            i: link.i,
            j: link.j,
            trace: self.trace,
            channel: &self.channel,
            rng: rng.unwrap_or(&mut self.rng),
            metrics: &mut self.metrics,
            est: link.est,
            elapsed: link.elapsed,
            codec: self.cfg.codec,
            obs: &self.cfg.obs,
        };
        let ret = f(&mut ctx);
        (ret, ctx.elapsed)
    }

    /// [`EventLoop::with_ctx`] for a live (contention-mode) session: checks
    /// the session's RNG and protocol state out of its record for the call
    /// and checks them back in, with the session clock, afterwards. `f`
    /// leaves in the state slot whatever the session should carry on with.
    /// `None` when the RNG is already checked out.
    fn with_live_ctx<R>(
        &mut self,
        sid: usize,
        f: impl FnOnce(&mut Option<A::Session>, &mut SessionCtx<'_>) -> R,
    ) -> Option<R> {
        let live = &mut self.sessions[sid];
        let mut rng = live.rng.take()?;
        let mut state = live.state.take();
        let link =
            Link { start: live.start, i: live.i, j: live.j, est: live.est, elapsed: live.elapsed };
        let (ret, elapsed) = self.with_ctx(link, Some(&mut rng), |ctx| f(&mut state, ctx));
        let live = &mut self.sessions[sid];
        live.elapsed = elapsed;
        live.rng = Some(rng);
        live.state = state;
        Some(ret)
    }

    /// Synchronous session: runs the whole lifecycle at the open event on
    /// the shared RNG.
    fn open_synchronous(
        &mut self,
        algo: &mut A,
        i: usize,
        j: usize,
        est: ContactEstimate,
        score: f64,
        t: f64,
    ) {
        self.metrics.sessions += 1;
        let link = Link { start: t, i, j, est, elapsed: 0.0 };
        let (duration, _) = self.with_ctx(link, None, |ctx| drive_session(algo, ctx));
        if self.cfg.obs.enabled() {
            self.cfg.obs.add("sessions", 1);
            self.cfg.obs.emit(
                "session",
                &[
                    ("i", i.into()),
                    ("j", j.into()),
                    ("t", t.into()),
                    ("priority", score.into()),
                    ("duration_s", duration.into()),
                ],
            );
        }
        let until = t + duration.max(self.dt);
        self.busy_until[i] = until;
        self.busy_until[j] = until;
        self.cooldown.set(i, j, until + self.cfg.pair_cooldown);
    }

    /// Contention-mode session open: allocate a live record with its own
    /// seeded RNG, mark both nodes busy for the session's lifetime, and run
    /// `session_open`.
    fn open_streaming(
        &mut self,
        algo: &mut A,
        i: usize,
        j: usize,
        est: ContactEstimate,
        score: f64,
        t: f64,
    ) {
        self.metrics.sessions += 1;
        let sid = self.sessions.len();
        let seed = exec::derive_seed(self.cfg.seed, "session", sid as u64);
        self.sessions.push(Live {
            i,
            j,
            est,
            start: t,
            score,
            rng: Some(rand::rngs::StdRng::seed_from_u64(seed)),
            elapsed: 0.0,
            state: None,
            pending: None,
            closed: false,
        });
        if self.cfg.obs.enabled() {
            self.cfg.obs.add("session.opened", 1);
            self.cfg.obs.emit(
                "session.open",
                &[("i", i.into()), ("j", j.into()), ("t", t.into()), ("priority", score.into())],
            );
        }
        let Some(first) = self.with_live_ctx(sid, |state, ctx| {
            let (opened, first) = algo.session_open(ctx)?;
            *state = Some(opened);
            Some(first)
        }) else {
            return;
        };
        match first {
            None => {
                // Declined pairing: a zero-duration session — busy one
                // frame, cooldown applies.
                self.sessions[sid].closed = true;
                self.finish_session(sid, t, 0.0);
            }
            Some(step) => {
                self.busy_until[i] = f64::INFINITY;
                self.busy_until[j] = f64::INFINITY;
                self.queue.push(t + est.duration.max(self.dt), Event::ContactClose { session: sid });
                self.apply_step(algo, sid, step, t);
            }
        }
    }

    /// Applies a session's next step at time `t`: schedules a streaming
    /// transfer, completes zero-byte transfers inline, or closes.
    fn apply_step(&mut self, algo: &mut A, sid: usize, mut step: SessionStep, t: f64) {
        loop {
            match step {
                SessionStep::Done => {
                    self.close_session(algo, sid, t);
                    return;
                }
                SessionStep::Transfer(spec) => {
                    let live = &mut self.sessions[sid];
                    let t0 = live.start + live.elapsed;
                    if spec.bytes == 0 {
                        // Instant, like the synchronous channel.
                        let out = TransferOutcome::Delivered { elapsed: 0.0 };
                        record_transfer_obs(&self.cfg.obs, live.i, live.j, t0, 0, &out);
                        step = self.call_step(algo, sid, out);
                        continue;
                    }
                    live.pending = Some(Pending {
                        spec,
                        t0,
                        airtime: 0.0,
                        delivered_packets: 0,
                        n_packets: self.channel.config().packets_for(spec.bytes),
                        fail_streak: 0,
                    });
                    self.schedule_window_step(sid, t);
                    return;
                }
            }
        }
    }

    /// Schedules the session's next window share at the next window
    /// boundary after `t` (boundaries are integer multiples of `window_s`,
    /// so every batch lands on an exactly representable shared timestamp).
    fn schedule_window_step(&mut self, sid: usize, t: f64) {
        let Some(medium) = &self.medium else { return };
        let w = medium.window_index(t);
        let t_next = (w + 1) as f64 * medium.config().window_s;
        self.queue.push(t_next, Event::TransferStep { session: sid });
    }

    /// Runs one window for every session in `batch` (all at time `t`):
    /// serial load registration, parallel packet streaming, then a serial
    /// fixed-order reduction applying outcomes — identical for any worker
    /// count because shares and losses come from the previous window.
    fn handle_transfer_batch(&mut self, algo: &mut A, t: f64) {
        let Some(medium) = &mut self.medium else { return };
        medium.advance_to(t);
        let t_next = (medium.window_index(t) + 1) as f64 * medium.config().window_s;
        let pt = self.channel.config().packet_time();
        self.jobs.clear();
        for &sid in &self.batch {
            let live = &mut self.sessions[sid];
            if live.closed {
                continue;
            }
            let (Some(pending), Some(rng)) = (live.pending.take(), live.rng.take()) else {
                continue;
            };
            let (pi, pj) = (self.trace.position(live.i, t), self.trace.position(live.j, t));
            let cell = medium.cell_of(Vec2::new((pi.x + pj.x) * 0.5, (pi.y + pj.y) * 0.5));
            let share_s = medium.fair_share(cell);
            let extra = medium.collision_per(cell);
            medium.register(cell);
            let base = self.channel.per_for(pending.spec.loss, self.trace.distance(live.i, live.j, t));
            self.jobs.push(WindowJob {
                session: sid,
                cell,
                pending,
                rng,
                share_s,
                per: base + extra * (1.0 - base),
                contended: extra > 0.0,
                pt,
                consumed: 0.0,
                drops: 0,
                status: WindowStatus::InProgress,
            });
        }

        exec::par_for_each_mut(&mut self.jobs, |_, job| stream_window(job));

        // Fixed-order reduction, in pop order. `finished` is checked out of
        // `self` because the callbacks it feeds need all of `&mut self`.
        let mut finished = std::mem::take(&mut self.finished);
        for job in self.jobs.drain(..) {
            let sid = job.session;
            medium.book(job.cell, job.consumed);
            if self.cfg.obs.enabled() && job.drops > 0 {
                self.cfg.obs.add("net.contention.drops", job.drops);
            }
            let packet_bytes = self.channel.config().packet_bytes;
            let live = &mut self.sessions[sid];
            live.rng = Some(job.rng);
            match job.status {
                WindowStatus::Backoff | WindowStatus::InProgress => {
                    if job.status == WindowStatus::Backoff && self.cfg.obs.enabled() {
                        self.cfg.obs.add("net.contention.backoff", 1);
                    }
                    live.pending = Some(job.pending);
                    self.queue.push(t_next, Event::TransferStep { session: sid });
                }
                WindowStatus::Complete => {
                    let out = TransferOutcome::Delivered { elapsed: job.pending.airtime };
                    finished.push((sid, job.pending.spec.bytes, job.pending.t0, out));
                }
                WindowStatus::Failed => {
                    let out = TransferOutcome::Failed {
                        elapsed: job.pending.airtime,
                        delivered_bytes: job.pending.delivered_packets * packet_bytes,
                    };
                    finished.push((sid, job.pending.spec.bytes, job.pending.t0, out));
                }
            }
        }
        for (sid, bytes, t0, out) in finished.drain(..) {
            let live = &mut self.sessions[sid];
            live.elapsed += out.elapsed();
            record_transfer_obs(&self.cfg.obs, live.i, live.j, t0, bytes, &out);
            let step = self.call_step(algo, sid, out);
            self.apply_step(algo, sid, step, t);
        }
        self.finished = finished;
    }

    /// Hands a transfer outcome to the algorithm's `session_step`.
    fn call_step(&mut self, algo: &mut A, sid: usize, out: TransferOutcome) -> SessionStep {
        self.with_live_ctx(sid, |state, ctx| match state {
            Some(state) => algo.session_step(state, out, ctx),
            None => SessionStep::Done,
        })
        .unwrap_or(SessionStep::Done)
    }

    /// Force-closes a still-open session at `t` (contact window ended or
    /// the run hit its horizon): the in-flight transfer is reported as
    /// failed, any further requested transfers fail instantly, then the
    /// session closes normally.
    fn force_close(&mut self, algo: &mut A, sid: usize, t: f64) {
        if let Some(p) = self.sessions[sid].pending.take() {
            let out = TransferOutcome::Failed {
                elapsed: p.airtime,
                delivered_bytes: p.delivered_packets * self.channel.config().packet_bytes,
            };
            let live = &mut self.sessions[sid];
            live.elapsed += p.airtime;
            record_transfer_obs(&self.cfg.obs, live.i, live.j, p.t0, p.spec.bytes, &out);
            let mut step = self.call_step(algo, sid, out);
            let mut feeds = 0u32;
            while let SessionStep::Transfer(spec) = step {
                feeds += 1;
                if feeds > FORCED_CLOSE_FEEDS {
                    break;
                }
                let out = TransferOutcome::Failed { elapsed: 0.0, delivered_bytes: 0 };
                let live = &self.sessions[sid];
                let t0 = live.start + live.elapsed;
                record_transfer_obs(&self.cfg.obs, live.i, live.j, t0, spec.bytes, &out);
                step = self.call_step(algo, sid, out);
            }
        }
        self.close_session(algo, sid, t);
    }

    /// Closes a session: runs `session_close`, frees both nodes, applies
    /// the cooldown, and emits the close events.
    fn close_session(&mut self, algo: &mut A, sid: usize, t: f64) {
        if self.sessions[sid].closed {
            return;
        }
        self.sessions[sid].closed = true;
        let closed = self.with_live_ctx(sid, |state, ctx| {
            state.take().map(|state| algo.session_close(state, ctx))
        });
        let Some(Some(duration)) = closed else { return };
        self.finish_session(sid, t, duration);
    }

    /// Shared tail of every close path: busy/cooldown bookkeeping plus the
    /// `session` (legacy) and `session.close` events.
    fn finish_session(&mut self, sid: usize, t: f64, duration: f64) {
        let live = &self.sessions[sid];
        let (i, j) = (live.i, live.j);
        // The session occupied its nodes until `t` in wall-clock terms even
        // if the protocol consumed less airtime than that.
        let until = t.max(live.start + duration.max(self.dt));
        self.busy_until[i] = until;
        self.busy_until[j] = until;
        self.cooldown.set(i, j, until + self.cfg.pair_cooldown);
        if self.cfg.obs.enabled() {
            self.cfg.obs.add("sessions", 1);
            self.cfg.obs.emit(
                "session",
                &[
                    ("i", i.into()),
                    ("j", j.into()),
                    ("t", live.start.into()),
                    ("priority", live.score.into()),
                    ("duration_s", duration.into()),
                ],
            );
            self.cfg.obs.add("session.closed", 1);
            self.cfg.obs.emit(
                "session.close",
                &[("i", i.into()), ("j", j.into()), ("t", t.into()), ("duration_s", duration.into())],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::Probe;
    use super::*;

    /// 32 vehicles parked on a 140 m lattice: every vehicle has several
    /// radio neighbours, so matching, sessions and cooldowns stay busy.
    fn parked_lattice(n: usize, seconds: f64) -> MobilityTrace {
        let frames = (seconds * 2.0) as usize + 1;
        let cols = (n as f64).sqrt().ceil() as usize;
        let positions = (0..n)
            .map(|k| vec![Vec2::new((k % cols) as f32 * 140.0, (k / cols) as f32 * 140.0); frames])
            .collect();
        MobilityTrace::new(2.0, positions)
    }

    /// The frame-matching buffers live on the loop and are refilled, not
    /// reallocated: once the first frames have sized them (frame 0 is the
    /// peak — everyone free, nothing cooling down) no later frame grows the
    /// roster, the candidate list or the taken marks, nor the grid and the
    /// route cache behind them.
    #[test]
    fn warm_frames_do_not_grow_the_matching_buffers() {
        const WARM_FRAMES: usize = 2;
        let n = 32;
        let cfg = RuntimeConfig {
            duration: 60.0,
            eval_every: 60.0,
            pair_cooldown: 10.0,
            seed: 9,
            ..RuntimeConfig::default()
        };
        let trace = parked_lattice(n, cfg.duration);
        let mut probe = Probe::new(n);
        let mut el = EventLoop::new(&cfg, &trace, &[], n);
        el.queue.push(0.0, Event::Frame);
        let capacities = |el: &EventLoop<'_, Probe>| {
            (el.free.capacity(), el.candidates.capacity(), el.taken.capacity())
        };
        let (mut frames, mut matched, mut warm) = (0usize, 0usize, None);
        while let Some((t, ev)) = el.queue.pop() {
            if t >= cfg.duration {
                break;
            }
            let is_frame = matches!(ev, Event::Frame);
            el.dispatch(&mut probe, t, ev);
            if !is_frame {
                continue;
            }
            frames += 1;
            matched += usize::from(!el.candidates.is_empty());
            if frames == WARM_FRAMES {
                warm = Some(capacities(&el));
            } else if frames > WARM_FRAMES {
                assert_eq!(Some(capacities(&el)), warm, "frame {frames} grew a matching buffer");
                assert!(!el.grid.grew(), "frame {frames} grew the encounter grid");
                assert!(!el.routes.grew(), "frame {frames} grew the route cache");
            }
        }
        assert_eq!(frames, 120, "2 fps over 60 s");
        assert!(matched > 10, "cooldowns expire, so matching keeps finding pairs: {matched}");
        assert!(el.metrics.sessions > n as u64, "the fleet kept chatting: {}", el.metrics.sessions);
    }
}
