//! The unoptimised frame loop, kept verbatim as a test-only oracle:
//! compiled under `#[cfg(test)]`, reachable from nowhere but the runtime's
//! own unit tests.
//!
//! [`super::Runtime::run`] must reproduce this loop's metrics and final
//! models bit for bit; the equivalence tests in `runtime::tests` pin that.
//! Keep this file boring: no optimizations, no restructuring — it is the
//! spec. It differs from the runtime's frame loop in exactly the work that
//! loop saves, never in what a frame does or in which order:
//!
//! - it scans the **whole roster** every frame and drops busy vehicles
//!   pair by pair, where the runtime scans only the vehicles free at the
//!   frame;
//! - it keeps a **dense** `n × n` cooldown matrix, where the runtime keeps
//!   the triangular [`super::PairCooldown`];
//! - it estimates every candidate's contact **eagerly** and ranks it
//!   through `pair_priority`, where the runtime, for a method with a fixed
//!   priority, keeps no candidate list and opens pairs as the grid visits
//!   them, estimating only the pairs that open;
//! - it ranks candidates with a **stable** sort by priority, where the
//!   runtime sorts a ranking method's candidates unstably by priority and
//!   then `(i, j)`.
//!
//! The two loops therefore emit *different* `net.encounter.*` counters
//! (whole fleet here, free vehicles there) and `net.contact.estimates`
//! (this loop never adds it), and identical everything else.
//!
//! One shared exception: encounter discovery and route sampling go through
//! [`EncounterGrid`] and [`RouteCache`], the same components the runtime
//! uses, not through the all-pairs sweep or per-call route sampling. Those
//! two (the sweep in `simnet`'s tests / [`MobilityTrace::future`]) are
//! `simnet`'s oracles: the grid and the cache are proptested byte-identical
//! to them, so this loop's semantics are unchanged.

use super::{drive_session, emit_round, CollabAlgorithm, FrameCtx, RuntimeConfig, SessionCtx};
use crate::metrics::Metrics;
use crate::obs::{Counter, EventKind};
use rand::SeedableRng;
use simnet::channel::Channel;
use simnet::contact::{ContactEstimate, ContactPredictor};
use simnet::grid::EncounterGrid;
use simnet::trace::{Encounter, MobilityTrace, RouteCache};

/// Runs `algo` over `trace` with the synchronous frame loop. The trace must
/// have at least `algo.n_nodes()` agents.
pub(super) fn run<A: CollabAlgorithm>(
    cfg: &RuntimeConfig,
    algo: &mut A,
    trace: &MobilityTrace,
    eval: &[A::Sample],
) -> Metrics {
    let n = algo.n_nodes();
    let dt = 1.0 / trace.fps();
    let channel = Channel::new(cfg.radio.clone(), cfg.loss_model.clone());
    let predictor = ContactPredictor::new(
        cfg.radio.range_m,
        cfg.radio.max_retx,
        cfg.loss_model.clone(),
        cfg.contact_reference_time,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed.wrapping_add(0xC0FFEE));
    let mut metrics = Metrics::new();
    let mut busy_until = vec![0.0f64; n];
    let mut pair_cooldown_until = vec![0.0f64; n * n];
    let mut train_debt = vec![0.0f64; n];
    let mut next_eval = 0.0f64;
    let active: Vec<usize> = (0..n).collect();
    let mut grid = EncounterGrid::new();
    let mut encounters: Vec<Encounter> = Vec::new();
    let mut routes = RouteCache::new(n, cfg.route_share_samples);

    let mut time = 0.0f64;
    while time < cfg.duration {
        // 1. Infrastructure hook.
        {
            let mut fctx = FrameCtx {
                time,
                trace,
                channel: &channel,
                busy_until: &busy_until,
                rng: &mut rng,
                metrics: &mut metrics,
                loss_model: &cfg.loss_model,
                obs: &cfg.obs,
            };
            algo.on_frame(&mut fctx);
        }

        // 2. Encounters among free vehicles (grid ≡ all-pairs, routes
        // sampled once per agent per frame — see the module docs).
        routes.begin_frame();
        let stats =
            grid.encounters_into(trace, time, cfg.radio.range_m, &active, &mut encounters);
        if cfg.obs.enabled() {
            cfg.obs.add(Counter::NetEncounterCandidates, stats.candidates);
            cfg.obs.add(Counter::NetEncounterCells, stats.cells);
        }
        let mut candidates: Vec<(f64, usize, usize, ContactEstimate)> = Vec::new();
        for e in &encounters {
            let (i, j) = (e.a, e.b);
            if busy_until[i] > time || busy_until[j] > time {
                continue;
            }
            if pair_cooldown_until[pair_idx(i, j, n)] > time {
                continue;
            }
            let (fut_i, fut_j) = routes.pair(trace, i, j, time, dt);
            let est = predictor.estimate(fut_i, fut_j, dt);
            let score = algo.pair_priority(i, j, &est);
            if !score.is_finite() {
                continue; // method opted out of this pairing
            }
            candidates.push((score, i, j, est));
        }
        // Greedy matching by descending priority — each vehicle serves
        // its best-scored neighbor first (§III-A).
        // total_cmp: scores are finite (non-finite ones are filtered
        // above), and a total order never panics mid-sort.
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut taken = vec![false; n];
        for (score, i, j, est) in candidates {
            if taken[i] || taken[j] {
                continue;
            }
            taken[i] = true;
            taken[j] = true;
            metrics.sessions += 1;
            let mut link = SessionCtx {
                start: time,
                i,
                j,
                trace,
                channel: &channel,
                rng: &mut rng,
                metrics: &mut metrics,
                est,
                elapsed: 0.0,
                obs: &cfg.obs,
            };
            let duration = drive_session(algo, &mut link);
            if cfg.obs.enabled() {
                cfg.obs.add(Counter::Sessions, 1);
                cfg.obs.emit(
                    EventKind::Session,
                    &[
                        ("i", i.into()),
                        ("j", j.into()),
                        ("t", time.into()),
                        ("priority", score.into()),
                        ("duration_s", duration.into()),
                    ],
                );
            }
            let until = time + duration.max(dt);
            busy_until[i] = until;
            busy_until[j] = until;
            pair_cooldown_until[pair_idx(i, j, n)] = until + cfg.pair_cooldown;
            pair_cooldown_until[pair_idx(j, i, n)] = until + cfg.pair_cooldown;
        }

        // 3. Local training for free vehicles (fractional iteration
        // accounting keeps any iters-per-second rate exact over time).
        for v in 0..n {
            if busy_until[v] > time {
                continue;
            }
            train_debt[v] += cfg.train_iters_per_second * dt;
            let iters = train_debt[v].floor() as usize;
            if iters > 0 {
                train_debt[v] -= iters as f64;
                let stats = algo.local_training(v, iters, &mut rng);
                metrics.train_iterations += iters as u64;
                if cfg.obs.enabled() && stats.batches > 0 {
                    cfg.obs.add(Counter::TrainBatch, stats.batches);
                    cfg.obs.add(Counter::TrainSamples, stats.samples);
                }
            }
        }

        // 4. Periodic evaluation.
        if time >= next_eval {
            let loss = algo.mean_eval_loss(eval);
            metrics.record_loss(time, loss);
            emit_round(&cfg.obs, algo.name(), time, loss);
            next_eval += cfg.eval_every;
        }

        time += dt;
    }
    let loss = algo.mean_eval_loss(eval);
    metrics.record_loss(cfg.duration, loss);
    emit_round(&cfg.obs, algo.name(), cfg.duration, loss);
    metrics
}

/// Flat index of the ordered pair `(i, j)` in the `n × n` cooldown
/// matrix. Both ids come from the trace roster, so `i < n` and `j < n`
/// by construction and the product stays within the `n * n` allocation.
/// (The runtime uses the triangular [`super::PairCooldown`] instead; this
/// dense form is part of the frozen reference semantics.)
fn pair_idx(i: usize, j: usize, n: usize) -> usize {
    i * n + j
}
