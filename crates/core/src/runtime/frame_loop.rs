//! The frame loop behind [`super::Runtime::run`].
//!
//! The trace plays frame by frame at `0, dt, dt + dt, …` while the time is
//! below the duration. Each frame runs, in order: the infrastructure hook,
//! pair matching, the matched sessions (each to completion, through
//! [`drive_session`] on the shared RNG), every node's training slice, and
//! the evaluation when one is due.
//!
//! Pair matching takes one of two paths, chosen by the method's
//! [`CollabAlgorithm::fixed_priority`]. A method that gives every pair the
//! same finite priority is matched *streamed*: greedy matching over a
//! stable sort of equal scores is the encounter scan's own ascending
//! `(i, j)` order, so a pair opens as the scan visits it, with no candidate
//! list, no sort and one contact estimate per opened pair (a method whose
//! fixed priority is `-inf` opens nothing; its scan still runs for the
//! `net.encounter.*` counters). A method that ranks by the estimate is
//! matched *ranked*: every pair past its cooldown is estimated and scored
//! into a candidate list, which is sorted by descending score and matched
//! greedily. On equal scores both paths open the same pairs in the same
//! order (DESIGN.md §4).

use super::{
    drive_session, emit_round, CollabAlgorithm, FrameCtx, PairCooldown, RuntimeConfig, SessionCtx,
};
use crate::metrics::Metrics;
use crate::obs::{Counter, EventKind};
use rand::SeedableRng;
use simnet::channel::Channel;
use simnet::contact::{ContactEstimate, ContactPredictor};
use simnet::grid::EncounterGrid;
use simnet::trace::{MobilityTrace, RouteCache};

/// Runs `algo` over `trace` frame by frame. The caller
/// ([`super::Runtime::run`]) has already validated the config and the
/// trace size.
pub(super) fn run<A: CollabAlgorithm>(
    cfg: &RuntimeConfig,
    algo: &mut A,
    trace: &MobilityTrace,
    eval: &[A::Sample],
) -> Metrics {
    let mut fl = FrameLoop::new(cfg, trace, eval, algo.n_nodes());
    // Frame times accumulate by repeated `+ dt`; the recorded fixtures pin
    // that float sequence.
    let mut t = 0.0;
    while t < cfg.duration {
        fl.frame(algo, t);
        t += fl.dt;
    }
    let loss = algo.mean_eval_loss(eval);
    fl.metrics.record_loss(cfg.duration, loss);
    emit_round(&cfg.obs, algo.name(), cfg.duration, loss);
    fl.metrics
}

struct FrameLoop<'a, A: CollabAlgorithm> {
    cfg: &'a RuntimeConfig,
    trace: &'a MobilityTrace,
    eval: &'a [A::Sample],
    n: usize,
    dt: f64,
    channel: Channel,
    predictor: ContactPredictor,
    /// The shared RNG: frame hooks, sessions, and training draw from it in
    /// frame order.
    rng: rand::rngs::StdRng,
    metrics: Metrics,
    busy_until: Vec<f64>,
    cooldown: PairCooldown,
    train_debt: Vec<f64>,
    next_eval: f64,
    /// Encounter discovery: one position snapshot per frame, then the
    /// ascending all-pairs sweep over the free roster.
    grid: EncounterGrid,
    /// Per-frame shared-route cache: each agent's future route is sampled
    /// at most once per frame, however many candidate pairs it appears in.
    routes: RouteCache,
    // Buffers below are refilled every frame and kept for their capacity;
    // none carries state from one frame to the next.
    /// The frame's roster: vehicles not in a session, ascending.
    free: Vec<usize>,
    /// Every pairing a ranked frame may open; never filled when the method
    /// states a fixed priority.
    candidates: Vec<Candidate>,
    /// The contact estimates that ranked the candidates;
    /// [`Candidate::estimate`] indexes it.
    estimates: Vec<ContactEstimate>,
    /// Per node: already matched this frame.
    taken: Vec<bool>,
    /// The pairs matching opened, in matching order, with the estimate and
    /// the priority each won with: the frame's sessions.
    opened: Vec<(usize, usize, ContactEstimate, f64)>,
}

/// A pairing ranked matching may open. Kept small because frame 0 of a
/// dense fleet under a ranking method lists and sorts every pair in range
/// (32 640 at 256 vehicles). Node ids fit `u32`: the pair cooldown table
/// already holds `n²/2` entries.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Matching priority.
    score: f64,
    /// Lower endpoint.
    i: u32,
    /// Higher endpoint.
    j: u32,
    /// Index into [`FrameLoop::estimates`] of the estimate the pair was
    /// ranked by.
    estimate: u32,
}

const _: () = assert!(std::mem::size_of::<Candidate>() <= 24);

impl Candidate {
    /// Descending priority, ties by `(i, j)`. The scan emits pairs in
    /// ascending `(i, j)` order, so an unstable sort by this order lists
    /// candidates exactly as a stable sort by priority alone would.
    fn rank(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
        b.score.total_cmp(&a.score).then(a.i.cmp(&b.i)).then(a.j.cmp(&b.j))
    }
}

impl<'a, A: CollabAlgorithm> FrameLoop<'a, A> {
    /// An idle loop over `n` nodes at simulated time zero.
    fn new(
        cfg: &'a RuntimeConfig,
        trace: &'a MobilityTrace,
        eval: &'a [A::Sample],
        n: usize,
    ) -> Self {
        FrameLoop {
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
            grid: EncounterGrid::new(),
            routes: RouteCache::new(n, cfg.route_share_samples),
            free: Vec::with_capacity(n),
            candidates: Vec::new(),
            estimates: Vec::new(),
            taken: vec![false; n],
            opened: Vec::new(),
        }
    }

    /// One trace frame: infrastructure hook, pair matching, the matched
    /// sessions in matching order, every node's training slice in id order,
    /// then the evaluation when it is due.
    fn frame(&mut self, algo: &mut A, t: f64) {
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

        self.match_pairs(algo, t);
        for k in 0..self.opened.len() {
            let (i, j, est, score) = self.opened[k];
            self.session(algo, i, j, est, score, t);
        }
        for v in 0..self.n {
            self.train_slice(algo, t, v);
        }
        if t >= self.next_eval {
            let loss = algo.mean_eval_loss(self.eval);
            self.metrics.record_loss(t, loss);
            emit_round(&self.cfg.obs, algo.name(), t, loss);
            self.next_eval += self.cfg.eval_every;
        }
    }

    /// Fills [`FrameLoop::opened`] with the frame's sessions, greedily by
    /// descending priority — each vehicle serves its best-scored neighbor
    /// first (§III-A) — over the vehicles free at this frame only: a busy
    /// vehicle can open no session, and the scan visits pairs in roster
    /// order, so scanning the free roster yields exactly the pairs a
    /// whole-fleet scan would keep after dropping the busy ones, in the
    /// same order (DESIGN.md §4). Each agent's shared route is interpolated
    /// at most once per frame through the route cache.
    fn match_pairs(&mut self, algo: &A, t: f64) {
        self.free.clear();
        self.free.extend((0..self.n).filter(|&v| self.busy_until[v] <= t));
        self.routes.begin_frame();
        self.taken.fill(false);
        self.opened.clear();
        self.candidates.clear();
        self.estimates.clear();
        let FrameLoop {
            cfg,
            trace,
            dt,
            predictor,
            cooldown,
            grid,
            routes,
            free,
            candidates,
            estimates,
            taken,
            opened,
            ..
        } = self;
        let (trace, dt, range_m) = (*trace, *dt, cfg.radio.range_m);
        // The estimate is a pure function of (trace, i, j, t) and draws no
        // RNG, so computing it while matching or before hands the session
        // the same bits (DESIGN.md §4).
        let mut estimated = 0u64;
        let mut estimate = |i, j| {
            estimated += 1;
            let (fut_i, fut_j) = routes.pair(trace, i, j, t, dt);
            predictor.estimate(fut_i, fut_j, dt)
        };
        let stats = match algo.fixed_priority() {
            // Streamed: equal scores open in the scan's (i, j) order, so a
            // pair opens as it is visited and only opened pairs are
            // estimated; the candidate list stays empty.
            Some(score) if score.is_finite() => grid.visit_encounters(trace, t, range_m, free, |e| {
                let (i, j) = (e.a, e.b);
                if cooldown.get(i, j) > t || taken[i] || taken[j] {
                    return;
                }
                (taken[i], taken[j]) = (true, true);
                opened.push((i, j, estimate(i, j), score));
            }),
            // The method opted out of every pairing.
            Some(_) => grid.visit_encounters(trace, t, range_m, free, |_| {}),
            // Ranked: every pair past its cooldown is estimated and scored.
            None => grid.visit_encounters(trace, t, range_m, free, |e| {
                let (i, j) = (e.a, e.b);
                if cooldown.get(i, j) > t {
                    return;
                }
                let est = estimate(i, j);
                let score = algo.pair_priority(i, j, &est);
                if !score.is_finite() {
                    return; // method opted out of this pairing
                }
                let (i, j, slot) = (i as u32, j as u32, estimates.len() as u32);
                candidates.push(Candidate { score, i, j, estimate: slot });
                estimates.push(est);
            }),
        };
        // total_cmp: scores are finite.
        candidates.sort_unstable_by(Candidate::rank);
        for &Candidate { score, i, j, estimate: slot } in candidates.iter() {
            let (i, j) = (i as usize, j as usize);
            if taken[i] || taken[j] {
                continue;
            }
            (taken[i], taken[j]) = (true, true);
            opened.push((i, j, estimates[slot as usize], score));
        }
        if cfg.obs.enabled() {
            cfg.obs.add(Counter::NetEncounterCandidates, stats.candidates);
            cfg.obs.add(Counter::NetContactEstimates, estimated);
        }
    }

    fn train_slice(&mut self, algo: &mut A, t: f64, v: usize) {
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

    /// One session: runs the whole lifecycle at the frame on the shared
    /// RNG, then holds both vehicles busy for its duration.
    fn session(
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

    /// `n` vehicles parked on a square lattice `spacing` metres apart.
    fn parked_lattice(n: usize, spacing: f32, seconds: f64) -> MobilityTrace {
        let frames = (seconds * 2.0) as usize + 1;
        let cols = (n as f64).sqrt().ceil() as usize;
        let positions = (0..n)
            .map(|k| {
                let at = Vec2::new((k % cols) as f32 * spacing, (k / cols) as f32 * spacing);
                vec![at; frames]
            })
            .collect();
        MobilityTrace::new(2.0, positions)
    }

    /// The frame-matching buffers live on the loop and are refilled, not
    /// reallocated: once the first frames have sized them (frame 0 is the
    /// peak — everyone free, nothing cooling down) no later frame grows the
    /// roster, the candidate list, the taken marks or the opened sessions,
    /// nor the encounter scan and the route cache behind them. 32 vehicles
    /// on a 140 m lattice: every vehicle has several radio neighbours, so
    /// matching, sessions and cooldowns stay busy.
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
        let trace = parked_lattice(n, 140.0, cfg.duration);
        let mut probe = Probe::new(n);
        let mut fl = FrameLoop::new(&cfg, &trace, &[], n);
        let capacities = |fl: &FrameLoop<'_, Probe>| {
            let matching = (fl.candidates.capacity(), fl.estimates.capacity());
            (fl.free.capacity(), matching, fl.taken.capacity(), fl.opened.capacity())
        };
        let (mut frames, mut matched, mut warm) = (0usize, 0usize, None);
        let mut t = 0.0;
        while t < cfg.duration {
            fl.frame(&mut probe, t);
            t += fl.dt;
            frames += 1;
            matched += usize::from(!fl.candidates.is_empty());
            if frames == WARM_FRAMES {
                warm = Some(capacities(&fl));
            } else if frames > WARM_FRAMES {
                assert_eq!(Some(capacities(&fl)), warm, "frame {frames} grew a matching buffer");
                assert!(!fl.grid.grew(), "frame {frames} grew the encounter grid");
                assert!(!fl.routes.grew(), "frame {frames} grew the route cache");
            }
        }
        assert_eq!(frames, 120, "2 fps over 60 s");
        assert!(matched > 10, "cooldowns expire, so matching keeps finding pairs: {matched}");
        assert!(fl.metrics.sessions > n as u64, "the fleet kept chatting: {}", fl.metrics.sessions);
    }

    /// A method that gives every pair one priority is matched as the scan
    /// visits the pairs: on a fleet where every pair is in range at frame
    /// 0, sessions open frame after frame while the candidate list and the
    /// ranking estimates are never allocated.
    #[test]
    fn a_fixed_priority_matches_with_no_candidate_buffers() {
        let n = 144;
        let cfg = RuntimeConfig {
            duration: 30.0,
            eval_every: 30.0,
            pair_cooldown: 5.0,
            ..RuntimeConfig::default()
        };
        // 30 m spacing: the 12 × 12 lattice's diagonal is 467 m, inside
        // the default 500 m range.
        let trace = parked_lattice(n, 30.0, cfg.duration);
        let everyone: Vec<usize> = (0..n).collect();
        let mut pairs = Vec::new();
        EncounterGrid::new().encounters_into(&trace, 0.0, cfg.radio.range_m, &everyone, &mut pairs);
        assert_eq!(pairs.len(), n * (n - 1) / 2, "every pair is in range at frame 0");
        let mut probe = Probe::new(n);
        probe.fixed = Some(0.0);
        let mut fl = FrameLoop::new(&cfg, &trace, &[], n);
        let mut t = 0.0;
        while t < cfg.duration {
            fl.frame(&mut probe, t);
            if t == 0.0 {
                assert_eq!(fl.opened.len(), n / 2, "frame 0 pairs the whole fleet");
            }
            assert_eq!((fl.candidates.capacity(), fl.estimates.capacity()), (0, 0), "t = {t}");
            t += fl.dt;
        }
        assert!(fl.metrics.sessions > n as u64, "the fleet kept chatting: {}", fl.metrics.sessions);
    }

    /// 30 vehicles on a 140 m lattice, every pair scored from three
    /// priority tiers (hundreds of ties each) or given one fixed priority:
    /// the order ties are broken in decides who is matched. Both paths must
    /// open the pairs as greedy matching over a *stable* sort of the scan's
    /// ascending `(i, j)` order opens them — the ranked path through its
    /// sort's tie order, the streamed path by matching in the scan's order.
    #[test]
    fn equal_priorities_open_in_pair_order() {
        let n = 30;
        let cfg = RuntimeConfig { duration: 1.0, ..RuntimeConfig::default() };
        let trace = parked_lattice(n, 140.0, cfg.duration);
        let everyone: Vec<usize> = (0..n).collect();
        let mut grid_pairs = Vec::new();
        let range_m = cfg.radio.range_m;
        EncounterGrid::new().encounters_into(&trace, 0.0, range_m, &everyone, &mut grid_pairs);
        let grid_pairs: Vec<(usize, usize)> = grid_pairs.iter().map(|e| (e.a, e.b)).collect();
        assert!(grid_pairs.is_sorted(), "the scan visits pairs in (i, j) order");
        assert!(grid_pairs.len() > 150, "a dense frame: {} pairs", grid_pairs.len());
        let tier = |i: usize, j: usize| ((7 * i + 3 * j) % 3) as f64;
        for fixed in [None, Some(1.5)] {
            let mut probe = Probe::new(n);
            (probe.priority, probe.fixed) = (tier, fixed);
            let mut fl = FrameLoop::new(&cfg, &trace, &[], n);
            fl.frame(&mut probe, 0.0);
            let mut pairs = grid_pairs.clone();
            if fixed.is_none() {
                pairs.sort_by(|&(a, b), &(c, d)| tier(c, d).total_cmp(&tier(a, b)));
            }
            let mut taken = vec![false; n];
            let mut want = Vec::new();
            for (i, j) in pairs {
                if !(taken[i] || taken[j]) {
                    (taken[i], taken[j]) = (true, true);
                    want.push((i, j));
                }
            }
            let opened: Vec<(usize, usize)> = fl.opened.iter().map(|&(i, j, ..)| (i, j)).collect();
            assert_eq!(opened, want, "fixed priority {fixed:?}");
        }
    }
}
