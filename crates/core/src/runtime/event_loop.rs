//! The discrete-event execution engine behind [`super::Runtime::run`].
//!
//! Frames, session opens, training, and evaluations are events on the
//! deterministic queue in [`super::sched`]: each frame pushes one
//! `ContactOpen` per matched pair, one `Train` that runs every node's
//! training slice, and its evaluation as same-timestamp events in phase
//! order, and every session runs to completion at its `ContactOpen` through
//! [`drive_session`] on the shared RNG.

use super::sched::{Event, EventQueue};
use super::{
    drive_session, emit_round, CollabAlgorithm, FrameCtx, PairCooldown, RuntimeConfig, SessionCtx,
};
use crate::metrics::Metrics;
use crate::obs::{Counter, EventKind};
use rand::SeedableRng;
use simnet::channel::Channel;
use simnet::contact::{ContactEstimate, ContactPredictor};
use simnet::grid::EncounterGrid;
use simnet::trace::{Encounter, MobilityTrace, RouteCache};

/// Runs `algo` over `trace` on the event scheduler. The caller
/// ([`super::Runtime::run`]) has already validated the config and the
/// trace size.
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
    let loss = algo.mean_eval_loss(eval);
    el.metrics.record_loss(cfg.duration, loss);
    emit_round(&cfg.obs, algo.name(), cfg.duration, loss);
    el.metrics
}

struct EventLoop<'a, A: CollabAlgorithm> {
    cfg: &'a RuntimeConfig,
    trace: &'a MobilityTrace,
    eval: &'a [A::Sample],
    n: usize,
    dt: f64,
    channel: Channel,
    predictor: ContactPredictor,
    /// The shared (frame-order) RNG: frame hooks, sessions, and training
    /// draw from it in event order.
    rng: rand::rngs::StdRng,
    metrics: Metrics,
    busy_until: Vec<f64>,
    cooldown: PairCooldown,
    train_debt: Vec<f64>,
    next_eval: f64,
    queue: EventQueue<Event>,
    /// Spatial-hash encounter discovery — bit-identical to the all-pairs
    /// sweep ([`MobilityTrace::encounters_at`]), O(local density) per frame.
    grid: EncounterGrid,
    /// Per-frame shared-route cache: each agent's future route is sampled
    /// at most once per frame, however many candidate pairs it appears in.
    routes: RouteCache,
    // Buffers below are refilled every frame and kept for their capacity;
    // none carries state from one frame to the next.
    /// The frame's roster: vehicles not in a session, ascending.
    free: Vec<usize>,
    /// In-range pairs among `free`, refilled by the grid.
    encounters: Vec<Encounter>,
    /// Every pairing the frame may open.
    candidates: Vec<Candidate>,
    /// The contact estimates that ranked candidates, for the pairs whose
    /// method stated no static priority; [`Candidate::estimate`] indexes it.
    estimates: Vec<ContactEstimate>,
    /// Per node: already matched this frame.
    taken: Vec<bool>,
}

/// A pairing frame matching may open. Kept small because frame 0 of a dense
/// fleet lists and sorts every pair in range (32 640 at 256 vehicles). Node
/// ids fit `u32`: the pair cooldown table already holds `n²/2` entries.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Matching priority.
    score: f64,
    /// Lower endpoint.
    i: u32,
    /// Higher endpoint.
    j: u32,
    /// Index into [`EventLoop::estimates`] of the estimate the pair was
    /// ranked by; `None` when its method stated the priority without one,
    /// and matching estimates the pair only if it opens.
    estimate: Option<u32>,
}

const _: () = assert!(std::mem::size_of::<Candidate>() <= 24);

impl Candidate {
    /// Descending priority, ties by `(i, j)`. The grid emits pairs in
    /// ascending `(i, j)` order, so an unstable sort by this order lists
    /// candidates exactly as a stable sort by priority alone would.
    fn rank(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
        b.score.total_cmp(&a.score).then(a.i.cmp(&b.i)).then(a.j.cmp(&b.j))
    }
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
            grid: EncounterGrid::new(),
            routes: RouteCache::new(n, cfg.route_share_samples),
            free: Vec::with_capacity(n),
            encounters: Vec::new(),
            candidates: Vec::new(),
            estimates: Vec::new(),
            taken: vec![false; n],
        }
    }

    fn dispatch(&mut self, algo: &mut A, t: f64, ev: Event) {
        match ev {
            Event::Frame => self.handle_frame(algo, t),
            Event::ContactOpen { i, j, est, priority } => {
                self.handle_session(algo, i, j, est, priority, t);
            }
            Event::Train => {
                for v in 0..self.n {
                    self.handle_train_slice(algo, t, v);
                }
            }
            Event::Eval => {
                let loss = algo.mean_eval_loss(self.eval);
                self.metrics.record_loss(t, loss);
                emit_round(&self.cfg.obs, algo.name(), t, loss);
            }
        }
    }

    /// One trace frame: infrastructure hook, pair matching, then the
    /// frame's sessions, training, and evaluation pushed as same-timestamp
    /// events in phase order.
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
            self.cfg.obs.add(Counter::NetEncounterCandidates, stats.candidates);
            self.cfg.obs.add(Counter::NetEncounterCells, stats.cells);
        }
        // A method that states a pair's priority without the contact
        // estimate is ranked with no route sampled; its estimate is computed
        // below, for the pairs matching opens only. The estimate is a pure
        // function of (trace, i, j, t) and draws no RNG, so either order
        // hands `ContactOpen` the same bits (DESIGN.md §4).
        let mut estimated = 0u64;
        let mut estimate = |i, j| {
            estimated += 1;
            let (fut_i, fut_j) = self.routes.pair(self.trace, i, j, t, self.dt);
            self.predictor.estimate(fut_i, fut_j, self.dt)
        };
        self.candidates.clear();
        self.estimates.clear();
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
            let slot = est.map(|est| {
                self.estimates.push(est);
                (self.estimates.len() - 1) as u32
            });
            self.candidates.push(Candidate { score, i: i as u32, j: j as u32, estimate: slot });
        }
        // Greedy matching by descending priority — each vehicle serves its
        // best-scored neighbor first (§III-A). total_cmp: scores are finite.
        self.candidates.sort_unstable_by(Candidate::rank);
        self.taken.fill(false);
        for &Candidate { score, i, j, estimate: slot } in &self.candidates {
            let (i, j) = (i as usize, j as usize);
            if self.taken[i] || self.taken[j] {
                continue;
            }
            self.taken[i] = true;
            self.taken[j] = true;
            let est = match slot {
                Some(slot) => self.estimates[slot as usize],
                None => {
                    let est = estimate(i, j);
                    debug_assert_eq!(
                        algo.pair_priority(i, j, &est).to_bits(),
                        score.to_bits(),
                        "{}: a static priority must not depend on the estimate",
                        algo.name()
                    );
                    est
                }
            };
            self.queue.push(t, Event::ContactOpen { i, j, est, priority: score });
        }
        if self.cfg.obs.enabled() {
            self.cfg.obs.add(Counter::NetContactEstimates, estimated);
        }

        self.queue.push(t, Event::Train);
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
                self.cfg.obs.add(Counter::TrainBatch, stats.batches);
                self.cfg.obs.add(Counter::TrainSamples, stats.samples);
            }
        }
    }

    /// One session: runs the whole lifecycle at the open event on the
    /// shared RNG, then holds both vehicles busy for its duration.
    fn handle_session(
        &mut self,
        algo: &mut A,
        i: usize,
        j: usize,
        est: ContactEstimate,
        score: f64,
        t: f64,
    ) {
        self.metrics.sessions += 1;
        let mut ctx = SessionCtx {
            start: t,
            i,
            j,
            trace: self.trace,
            channel: &self.channel,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            est,
            elapsed: 0.0,
            obs: &self.cfg.obs,
        };
        let duration = drive_session(algo, &mut ctx);
        if self.cfg.obs.enabled() {
            self.cfg.obs.add(Counter::Sessions, 1);
            self.cfg.obs.emit(
                EventKind::Session,
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
}

#[cfg(test)]
mod tests {
    use super::super::tests::Probe;
    use super::*;
    use simnet::geom::Vec2;

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
            let matching = (el.candidates.capacity(), el.estimates.capacity());
            (el.free.capacity(), matching, el.taken.capacity())
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

    /// The pairs of a parked lattice fall in three priority tiers, hundreds
    /// of ties each, so the order the sort leaves ties in decides who is
    /// matched: the pairs must open as greedy matching over a *stable* sort
    /// of the grid's ascending `(i, j)` order opens them — the frame loop's
    /// order — whether the method states its priority or is ranked through
    /// the estimate.
    #[test]
    fn equal_priorities_open_in_pair_order() {
        let n = 30;
        let cfg = RuntimeConfig { duration: 1.0, ..RuntimeConfig::default() };
        let trace = parked_lattice(n, cfg.duration);
        let tier = |i: usize, j: usize| ((7 * i + 3 * j) % 3) as f64;
        for stated in [true, false] {
            let mut probe = Probe::new(n);
            (probe.priority, probe.stated) = (tier, stated);
            let mut el = EventLoop::new(&cfg, &trace, &[], n);
            el.handle_frame(&mut probe, 0.0);
            let mut pairs: Vec<(usize, usize)> = el.encounters.iter().map(|e| (e.a, e.b)).collect();
            assert!(pairs.is_sorted(), "the grid emits pairs in (i, j) order");
            assert!(pairs.len() > 150, "a dense frame: {} pairs", pairs.len());
            pairs.sort_by(|&(a, b), &(c, d)| tier(c, d).total_cmp(&tier(a, b)));
            let mut taken = vec![false; n];
            let mut want = Vec::new();
            for (i, j) in pairs {
                if !(taken[i] || taken[j]) {
                    (taken[i], taken[j]) = (true, true);
                    want.push((i, j));
                }
            }
            let mut opened = Vec::new();
            while let Some((_, ev)) = el.queue.pop() {
                if let Event::ContactOpen { i, j, .. } = ev {
                    opened.push((i, j));
                }
            }
            assert_eq!(opened, want, "stated priority {stated:?}");
        }
    }
}
