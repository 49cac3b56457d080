//! The interval-bounded packet loop against the per-attempt loop.
//!
//! [`Channel::run`] decides most attempts of a link transfer from the draw
//! alone once its distance source can bound the distance over a stretch of
//! time ([`PairTrack`] does, per trace segment), in a burst that compares
//! the draw's integer numerator with integer thresholds. These tests pin
//! that path to the loop it replaced — kept here verbatim as [`oracle_run`]
//! — bit for bit, RNG stream included, and pin the three steps it rests on:
//! the cursor's distance bounds contain every computed distance, the
//! table's PER bounds contain every computed PER, and the integer threshold
//! is the float comparison.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, RngExt, SeedableRng};
use simnet::channel::{
    draw_threshold, Channel, DistanceBounds, LinkDistance, RadioConfig, TransferOutcome,
    TransferSpec, DEAD_LINK_ATTEMPTS,
};
use simnet::geom::Vec2;
use simnet::loss::{LossModel, DEFAULT_LOOKUP};
use simnet::trace::MobilityTrace;

/// `Channel::run` as it was before the PER windows: the exact error rate is
/// evaluated on every attempt. The spec the fast path must reproduce.
fn oracle_run<R: Rng + ?Sized>(
    ch: &Channel,
    spec: &TransferSpec,
    mut distance_at: impl FnMut(f64) -> f32,
    rng: &mut R,
) -> TransferOutcome {
    if spec.bytes == 0 {
        return TransferOutcome::Delivered { elapsed: 0.0 };
    }
    let n_packets = ch.config().packets_for(spec.bytes);
    let pt = ch.config().packet_time();
    let mut t = 0.0f64;
    for pkt in 0..n_packets {
        let mut delivered = false;
        for _attempt in 0..DEAD_LINK_ATTEMPTS {
            if t + pt > spec.deadline {
                return TransferOutcome::Failed {
                    elapsed: t,
                    delivered_bytes: pkt * ch.config().packet_bytes,
                };
            }
            let per = ch.per_for(distance_at(t));
            t += pt;
            if per <= 0.0 || rng.random::<f32>() >= per {
                delivered = true;
                break;
            }
        }
        if !delivered {
            return TransferOutcome::Failed {
                elapsed: t,
                delivered_bytes: pkt * ch.config().packet_bytes,
            };
        }
    }
    TransferOutcome::Delivered { elapsed: t }
}

/// Outcome as comparable bits: variant, elapsed bits, delivered bytes.
fn bits(out: TransferOutcome) -> (bool, u64, usize) {
    match out {
        TransferOutcome::Delivered { elapsed } => (true, elapsed.to_bits(), usize::MAX),
        TransferOutcome::Failed { elapsed, delivered_bytes } => {
            (false, elapsed.to_bits(), delivered_bytes)
        }
    }
}

/// A PER column that rises, falls and rises again.
fn non_monotone_table() -> LossModel {
    LossModel::Distance(vec![
        (0.0, 0.02),
        (80.0, 0.30),
        (160.0, 0.05),
        (240.0, 0.45),
        (320.0, 0.20),
        (400.0, 0.85),
        (500.0, 0.60),
    ])
}

/// Stretches of PER exactly 0 (no draw at all) and exactly 1 (every attempt
/// lost: a `DEAD_LINK_ATTEMPTS` streak aborts the transfer).
fn zero_one_table() -> LossModel {
    LossModel::Distance(vec![
        (0.0, 0.0),
        (120.0, 0.0),
        (200.0, 0.35),
        (280.0, 1.0),
        (360.0, 1.0),
        (420.0, 0.25),
        (500.0, 0.9),
    ])
}

/// Unsorted with a repeated breakpoint: fails `validate`, so the channel
/// must keep evaluating it attempt by attempt, misreadings and all.
fn malformed_table() -> LossModel {
    LossModel::Distance(vec![(0.0, 0.1), (300.0, 0.4), (100.0, 0.2), (100.0, 0.7), (500.0, 0.9)])
}

/// One PER at every in-range distance. Over any distance band its PER
/// window is the zero-width `lo = hi = per`; a rate that is no probability
/// fails `validate`, so the channel takes it attempt by attempt.
fn flat(per: f32) -> LossModel {
    LossModel::Distance(vec![(0.0, per), (500.0, per)])
}

fn loss_model(which: u32) -> LossModel {
    match which % 5 {
        0 => LossModel::None,
        1 => LossModel::distance_default(),
        2 => non_monotone_table(),
        3 => zero_one_table(),
        _ => malformed_table(),
    }
}

/// A two-agent trace drawn from `seed`: agent 0 wanders, agent 1 circles it
/// at a radius that swings across the 500 m radio range and back (up to
/// 30 m/s radially, 10 m/s around) with its own velocity noise on top — the
/// gap opens and closes at up to 60 m/s, pairs leave range and re-enter.
/// `origin` shifts the whole scene to exercise the margin at large
/// coordinates.
fn wandering_pair(seed: u64, frames: usize, fps: f64, origin: f32) -> MobilityTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let dt = (1.0 / fps) as f32;
    let base = rng.random_range(60.0f32..520.0);
    let swing = rng.random_range(1.0f32..260.0);
    let omega = rng.random_range(0.0f32..30.0) * dt / swing;
    let spin = rng.random_range(-10.0f32..10.0) * dt / base;
    let phase = rng.random_range(0.0f32..6.0);
    let bearing = rng.random_range(0.0f32..6.0);
    let mut a = Vec2::new(origin, origin * 0.5);
    let mut drift = Vec2::ZERO;
    let (mut pa, mut pb) = (Vec::with_capacity(frames), Vec::with_capacity(frames));
    for f in 0..frames {
        let k = f as f32;
        let r = base + swing * (omega * k + phase).sin();
        let th = bearing + spin * k;
        pa.push(a);
        pb.push(a + Vec2::new(r * th.cos(), r * th.sin()) + drift);
        let mut step = |v: f32| Vec2::new(rng.random_range(-v..v), rng.random_range(-v..v)) * dt;
        a = a + step(30.0);
        drift = drift + step(14.0);
    }
    MobilityTrace::new(fps, vec![pa, pb])
}

/// Runs `spec` three ways from clones of `rng` — the oracle over `distance`,
/// `Channel::run` over `distance` (a closure: no bounds), `Channel::run`
/// over `bounded`, which must report the same distances — and asserts equal
/// outcome bits and an equal next draw.
fn assert_runs_agree<R: Rng + Clone>(
    ch: &Channel,
    spec: &TransferSpec,
    distance: impl Fn(f64) -> f32,
    bounded: impl LinkDistance,
    rng: &R,
) -> Result<TransferOutcome, TestCaseError> {
    let mut r_oracle = rng.clone();
    let want = oracle_run(ch, spec, &distance, &mut r_oracle);
    let mut r_closure = rng.clone();
    let closure = ch.run(spec, &distance, &mut r_closure);
    let mut r_bounded = rng.clone();
    let bounded = ch.run(spec, bounded, &mut r_bounded);
    prop_assert_eq!(bits(closure), bits(want), "closure path diverged from the oracle");
    prop_assert_eq!(bits(bounded), bits(want), "bounded path diverged from the oracle");
    let next = r_oracle.random::<u64>();
    prop_assert_eq!(r_closure.random::<u64>(), next, "closure path left the RNG elsewhere");
    prop_assert_eq!(r_bounded.random::<u64>(), next, "bounded path left the RNG elsewhere");
    Ok(want)
}

/// [`assert_runs_agree`] for agents 0 and 1 of `trace` from `t0` on: the
/// bounded source is the trace's cursor.
fn assert_three_ways_agree(
    ch: &Channel,
    spec: &TransferSpec,
    trace: &MobilityTrace,
    t0: f64,
    rng_seed: u64,
) -> Result<TransferOutcome, TestCaseError> {
    let distance = |t| trace.distance(0, 1, t0 + t);
    let cursor = trace.pair_track(0, 1).starting_at(t0);
    assert_runs_agree(ch, spec, distance, cursor, &StdRng::seed_from_u64(rng_seed))
}

/// A distance source whose bounds windows are written by the test.
struct Windowed<D, B> {
    distance: D,
    bounds: B,
}

impl<D: Fn(f64) -> f32, B: Fn(f64) -> Option<DistanceBounds>> LinkDistance for Windowed<D, B> {
    fn distance_at(&mut self, t: f64) -> f32 {
        (self.distance)(t)
    }

    fn bounds(&mut self, t: f64) -> Option<DistanceBounds> {
        (self.bounds)(t)
    }
}

/// Draws the scripted 24-bit numerators first (as `random::<f32>()` and
/// `random::<u32>() >> 8` both read them), then whatever `rest` holds.
#[derive(Clone)]
struct ScriptedRng {
    script: Vec<u32>,
    rest: StdRng,
}

impl RngCore for ScriptedRng {
    fn next_u64(&mut self) -> u64 {
        if self.script.is_empty() {
            self.rest.next_u64()
        } else {
            u64::from(self.script.remove(0)) << 40
        }
    }
}

/// `u >= p` for the draw with numerator `k`, as the per-attempt loop has it.
fn draw_survives(k: u32, p: f32) -> bool {
    k as f32 * (1.0 / (1u32 << 24) as f32) >= p
}

/// `draw_threshold(p)` splits the numerators exactly where `u >= p` does,
/// checked around the split (computed here by truncation, so a wrong
/// rounding in the kernel cannot hide) and at both ends of the range.
fn assert_threshold_is_the_float_comparison(p: f32) -> Result<(), TestCaseError> {
    let threshold = draw_threshold(p);
    let around = (f64::from(p) * f64::from(1u32 << 24)) as i64;
    for k in (around - 2..=around + 3).chain([0, (1 << 24) - 1]) {
        if let Some(k) = u32::try_from(k).ok().filter(|&k| k < 1 << 24) {
            prop_assert_eq!(draw_survives(k, p), k >= threshold, "p={:e} k={}", p, k);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// (a) The cursor reads the trace exactly as `MobilityTrace::distance`
    /// does — before the trace starts, on frame times, on the last frame,
    /// past the end — whatever order the times come in.
    #[test]
    fn pair_track_distance_is_trace_distance(
        seed in 0u64..1_000_000,
        frames in 1usize..24,
        fps_pick in 0u32..3,
        t0 in -3.0f64..12.0,
        times in prop::collection::vec(-4.0f64..16.0, 1..40),
    ) {
        let fps = [2.0, 10.0, 3.7][fps_pick as usize];
        let trace = wandering_pair(seed, frames, fps, 0.0);
        let mut track = trace.pair_track(0, 1).starting_at(t0);
        let last = (frames - 1) as f64 / fps;
        let frame_times = (0..frames).map(|f| f as f64 / fps - t0);
        let edges = [-t0, last - t0, last - t0 + 1e-9, last - t0 + 50.0, -t0 - 1.0];
        for t in times.iter().copied().chain(frame_times).chain(edges) {
            let want = trace.distance(0, 1, t0 + t);
            let got = track.distance_at(t);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "t0={} t={}", t0, t);
        }
    }

    /// The cursor's bounds contain the computed distance at every sampled
    /// instant of the window they claim, ends included.
    #[test]
    fn pair_track_bounds_contain_every_distance(
        seed in 0u64..1_000_000,
        frames in 1usize..16,
        fps_pick in 0u32..3,
        origin in -80_000.0f32..80_000.0,
        far in 0u32..3,
        t0 in -1.0f64..6.0,
        t in 0.0f64..8.0,
    ) {
        // Two cases in three sit on a paper-sized map, where the margin is
        // centimetres and cannot paper over a wrong bound.
        let origin = if far == 0 { origin } else { origin / 100.0 };
        let fps = [2.0, 10.0, 3.7][fps_pick as usize];
        let trace = wandering_pair(seed, frames, fps, origin);
        let mut track = trace.pair_track(0, 1).starting_at(t0);
        if let Some(b) = track.bounds(t) {
            prop_assert!(b.until >= t && b.lo <= b.hi, "{:?}", b);
            let end = if b.until.is_finite() { b.until } else { t + 100.0 };
            for k in 0..=64 {
                let at = t + (end - t) * f64::from(k) / 64.0;
                let at = at.min(end);
                let d = trace.distance(0, 1, t0 + at);
                prop_assert!(b.lo <= d && d <= b.hi, "d({})={} outside {:?}", at, d, b);
            }
            // Tight enough to be worth having: two vehicles cannot open or
            // close more than 60 m/s · window, plus the margin.
            let size = origin.abs() + 1_000.0;
            prop_assert!(f64::from(b.hi - b.lo) <= 60.0 * 0.06 + f64::from(size) * 1e-3, "{:?}", b);
        }
    }

    /// (b) Equal `TransferOutcome` bits and an equal next draw, cursor and
    /// closure against the verbatim old loop, across loss tables, payloads
    /// from one packet to several MiB, deadlines that cut a window, and
    /// start times anywhere in a segment.
    #[test]
    fn channel_run_matches_the_per_attempt_loop(
        seed in 0u64..1_000_000,
        which_loss in 0u32..5,
        size_pick in 0u32..4,
        raw_bytes in 1usize..6_000_000,
        deadline in 0.0f64..14.0,
        t0 in -0.7f64..9.0,
        origin in -4_000.0f32..4_000.0,
        fps_pick in 0u32..2,
    ) {
        let fps = [2.0, 10.0][fps_pick as usize];
        let frames = (12.0 * fps) as usize;
        let trace = wandering_pair(seed, frames, fps, origin);
        let ch = Channel::new(RadioConfig::default(), loss_model(which_loss));
        let bytes = match size_pick {
            0 => 1 + raw_bytes % 1500,          // one packet
            1 => 1 + raw_bytes % 60_000,        // a coreset's worth
            _ => raw_bytes,                     // up to several MiB
        };
        // Every other case runs to the end of the payload or the link.
        let deadline = if seed % 2 == 0 { deadline } else { 1e9 };
        let spec = TransferSpec::link(bytes, deadline);
        assert_three_ways_agree(&ch, &spec, &trace, t0, seed ^ 0x5EED)?;
    }

    /// Link transfers over a flat table inside a bounded band: `0.0` draws
    /// nothing, `1.0` dies after one streak, and NaN, negative and
    /// above-one rates (no valid table) go attempt by attempt — NaN loses
    /// every draw.
    #[test]
    fn flat_table_transfers_match_the_per_attempt_loop(
        seed in 0u64..1_000_000,
        per_pick in 0u32..6,
        per in 0.0f32..1.0,
        bytes in 1usize..400_000,
        deadline in 0.0f64..3.0,
    ) {
        let per = [per, 0.0, 1.0, f32::NAN, -0.5, 1.5][per_pick as usize];
        let ch = Channel::new(RadioConfig::default(), flat(per));
        let spec = TransferSpec::link(bytes, deadline);
        let bounded = Windowed { distance: steady, bounds: endless_band };
        assert_runs_agree(&ch, &spec, steady, bounded, &StdRng::seed_from_u64(seed))?;
    }

    /// The integer threshold is the float comparison, for PERs of every
    /// magnitude (the mantissa and exponent are drawn separately, so tiny
    /// rates are as likely as large ones).
    #[test]
    fn draw_threshold_is_the_float_comparison(mantissa in 1.0f32..2.0, exponent in -30i32..1) {
        assert_threshold_is_the_float_comparison(mantissa * 2f32.powi(exponent))?;
    }

    /// (c) `per_bounds` contains `per(d)` for every sampled `d` of the
    /// interval, on the default table, a non-monotone one, one with flat
    /// 0/1 stretches, and random valid tables.
    #[test]
    fn per_bounds_contain_every_per(
        seed in 0u64..1_000_000,
        which in 0u32..4,
        lo in -20.0f32..620.0,
        width in 0.0f32..90.0,
    ) {
        let model = match which {
            0 => LossModel::distance_default(),
            1 => non_monotone_table(),
            2 => zero_one_table(),
            _ => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut d = rng.random_range(-10.0f32..40.0);
                let table = (0..rng.random_range(1usize..12))
                    .map(|_| {
                        d += rng.random_range(0.001f32..120.0);
                        (d, rng.random_range(0.0f32..1.0))
                    })
                    .collect();
                LossModel::Distance(table)
            }
        };
        prop_assert!(model.validate().is_ok());
        let hi = lo + width;
        let (p_lo, p_hi) = model.per_bounds(lo, hi);
        let mut probes: Vec<f32> = (0..=200).map(|k| lo + width * k as f32 / 200.0).collect();
        if let LossModel::Distance(table) = &model {
            // Either side of every breakpoint, to the ulp.
            for &(d, _) in table {
                let ulp = |by: i32| f32::from_bits(d.to_bits().wrapping_add_signed(by));
                probes.extend([ulp(-1), d, ulp(1)]);
            }
        }
        for d in probes {
            if lo <= d && d <= hi {
                let p = model.per(d);
                prop_assert!(p_lo <= p && p <= p_hi, "per({})={} outside {:?}", d, p, (p_lo, p_hi));
            }
        }
    }
}

/// The cases the strategy above only reaches by luck, each pinned once.
#[test]
fn channel_run_matches_on_hand_picked_links() {
    let radio = RadioConfig::default;
    let straight = |x0: f32, v: f32, frames: usize| {
        let a = vec![Vec2::ZERO; frames];
        let b = (0..frames).map(|f| Vec2::new(x0 + v * 0.5 * f as f32, 0.0)).collect();
        MobilityTrace::new(2.0, vec![a, b])
    };
    let check = |ch: &Channel, spec: TransferSpec, trace: &MobilityTrace, t0: f64| {
        match assert_three_ways_agree(ch, &spec, trace, t0, 99) {
            Ok(out) => out,
            Err(e) => panic!("{spec:?} at t0={t0}: {e:?}"),
        }
    };

    // Closing head-on at 60 m/s from beyond range: dead air first (the
    // streak must abort exactly where the old loop did), and from inside
    // range a 4 MiB model rides the PER table all the way down.
    let closing = straight(700.0, -60.0, 40);
    let lossy = Channel::new(radio(), LossModel::distance_default());
    assert!(!check(&lossy, TransferSpec::link(4 << 20, 1e9), &closing, 0.0).is_delivered());
    assert!(check(&lossy, TransferSpec::link(4 << 20, 1e9), &closing, 4.1).is_delivered());

    // Receding through the range boundary mid-transfer.
    let receding = straight(470.0, 25.0, 40);
    assert!(!check(&lossy, TransferSpec::link(8 << 20, 1e9), &receding, 0.25).is_delivered());

    // The loss-free radio in range draws nothing at all, and out of range
    // loses every attempt to a draw against PER 1.
    let clean = Channel::new(radio(), LossModel::None);
    assert!(check(&clean, TransferSpec::link(2 << 20, 1e9), &receding, 0.0).is_delivered());
    assert!(!check(&clean, TransferSpec::link(2 << 20, 1e9), &receding, 3.0).is_delivered());

    // Flat PER-0 and PER-1 stretches of a lossy table.
    let zero_one = Channel::new(radio(), zero_one_table());
    let creeping = straight(60.0, 12.0, 120);
    check(&zero_one, TransferSpec::link(6 << 20, 1e9), &creeping, 0.0);
    check(&zero_one, TransferSpec::link(6 << 20, 1e9), &creeping, 9.9);

    // Transfers that start before the trace, outlive it, or sit on a
    // one-frame trace.
    check(&lossy, TransferSpec::link(1 << 20, 1e9), &straight(300.0, -5.0, 3), -2.0);
    check(&lossy, TransferSpec::link(3 << 20, 1e9), &straight(300.0, -5.0, 3), 0.9);
    check(&lossy, TransferSpec::link(1 << 20, 1e9), &straight(350.0, 0.0, 1), 5.0);

    // A deadline one packet time long, and one that cuts mid-window.
    let pt = lossy.config().packet_time();
    check(&lossy, TransferSpec::link(9000, pt), &closing, 5.0);
    check(&lossy, TransferSpec::link(1 << 20, 0.0731), &closing, 5.0);
}

/// The PERs the threshold has to get right by name: nothing, the smallest
/// positive rate, the table's entries, the largest rate below 1, and the
/// rates no draw survives.
#[test]
fn draw_threshold_matches_on_hand_picked_rates() {
    let named = [0.0, f32::MIN_POSITIVE, 0.005, 1.0 - 1.0 / (1u32 << 24) as f32, 1.0, 1.5];
    for p in named.into_iter().chain(DEFAULT_LOOKUP.iter().map(|&(_, p)| p)) {
        assert_threshold_is_the_float_comparison(p).unwrap_or_else(|e| panic!("{e:?}"));
    }
    assert_eq!(draw_threshold(f32::MIN_POSITIVE), 1, "only the zero draw is lost");
    assert_eq!(draw_threshold(1.5), 1 << 24, "clamped one past the largest draw");
    assert_eq!(draw_threshold(f32::INFINITY), 1 << 24);
}

/// [`assert_runs_agree`] over a [`Windowed`] source, panicking on a mismatch.
fn check<R: Rng + Clone>(
    ch: &Channel,
    spec: TransferSpec,
    distance: impl Fn(f64) -> f32 + Copy,
    bounds: impl Fn(f64) -> Option<DistanceBounds>,
    rng: &R,
) -> TransferOutcome {
    assert_runs_agree(ch, &spec, distance, Windowed { distance, bounds }, rng)
        .unwrap_or_else(|e| panic!("{spec:?}: {e:?}"))
}

/// Transfers built to end *inside* a burst — the exits and the hand-back
/// must fire at the attempt the per-attempt loop fires them at.
#[test]
fn bursts_end_where_the_per_attempt_loop_does() {
    let ch = Channel::new(RadioConfig::default(), LossModel::distance_default());
    let pt = ch.config().packet_time();

    // A dead-link streak that starts in one window and reaches 40 in the
    // next: in range (PER 0.54) for 51 attempts, out of range after, in
    // windows 50 attempts wide. A streak that forgot itself at the window
    // edge would die 40 attempts past it — later than every run below that
    // was already losing when it crossed.
    let edge = 50.5 * pt;
    let receding = |t: f64| if t < edge { 390.0 } else { 600.0 };
    let windows = |t: f64| {
        let d = receding(t);
        let until = if t < edge { edge - 0.25 * pt } else { t + 49.5 * pt };
        Some(DistanceBounds { lo: d, hi: d, until })
    };
    let mut crossed = 0;
    for seed in 0..16 {
        let rng = StdRng::seed_from_u64(seed);
        let out = check(&ch, TransferSpec::link(1 << 20, 1e9), receding, windows, &rng);
        assert!(!out.is_delivered());
        crossed += u32::from(out.elapsed() < (51 + DEAD_LINK_ATTEMPTS) as f64 * pt - 0.5 * pt);
    }
    assert!(crossed >= 4, "only {crossed} of 16 streaks crossed the window edge");

    // One endless window with a real band (150–250 m around a 200 m link):
    // a last packet and a deadline that fall mid-window.
    let steady = |_: f64| 200.0;
    let endless = |_: f64| Some(DistanceBounds { lo: 150.0, hi: 250.0, until: f64::INFINITY });
    for seed in 0..8 {
        let rng = StdRng::seed_from_u64(seed);
        let (last_packet, deadline) =
            (TransferSpec::link(20 * 1500, 1e9), TransferSpec::link(1 << 20, 37.5 * pt));
        assert!(check(&ch, last_packet, steady, endless, &rng).is_delivered());
        assert!(!check(&ch, deadline, steady, endless, &rng).is_delivered());
    }

    // Draws landing on the band's edges, with the exact rate sitting on the
    // matching bound: `lo_k` is the first draw that survives `lo` (and so the
    // first to need the exact rate), `hi_k - 1` the last that `hi` loses.
    let (lo, hi) = ch.loss_model().per_bounds(100.0, 200.0);
    assert_eq!((lo, hi), (ch.per_for(100.0), ch.per_for(200.0)));
    let (lo_k, hi_k) = (draw_threshold(lo), draw_threshold(hi));
    assert!(0 < lo_k && lo_k + 1 < hi_k);
    let band = |_: f64| Some(DistanceBounds { lo: 100.0, hi: 200.0, until: f64::INFINITY });
    for (d, survivors) in [(100.0f32, 3usize), (200.0, 1)] {
        let at = move |_: f64| d;
        let script = vec![lo_k - 1, lo_k, hi_k - 1, hi_k];
        let rng = ScriptedRng { script, rest: StdRng::seed_from_u64(17) };
        // Four packets, four scripted attempts: the survivors say which.
        let spec = TransferSpec::link(4 * 1500, 4.5 * pt);
        let out = check(&ch, spec, at, band, &rng);
        assert_eq!(bits(out), (false, (4.0 * pt).to_bits(), survivors * 1500), "at {d} m");
    }
}

/// Nothing that never ends hangs the loop: a NaN deadline never expires
/// (`t + pt > NaN` is false — and so is `t + pt <= NaN`, which is why the
/// exits are written in the first form), an infinite one neither; a parked
/// pair's window runs until +inf, a closure's `UNKNOWN` until -inf, and so
/// does a flat table's band.
#[test]
fn unbounded_deadlines_and_windows_terminate_with_the_oracle() {
    let parked = MobilityTrace::new(2.0, vec![vec![Vec2::ZERO], vec![Vec2::new(320.0, 0.0)]]);
    let gone = MobilityTrace::new(2.0, vec![vec![Vec2::ZERO], vec![Vec2::new(620.0, 0.0)]]);
    let moving = wandering_pair(7, 24, 2.0, 0.0);
    let lossy = Channel::new(RadioConfig::default(), LossModel::distance_default());
    for deadline in [f64::NAN, f64::INFINITY] {
        let spec = TransferSpec::link(300_000, deadline);
        for (trace, link_delivers) in [(&parked, Some(true)), (&gone, Some(false)), (&moving, None)] {
            let out = assert_three_ways_agree(&lossy, &spec, trace, 0.0, 5)
                .unwrap_or_else(|e| panic!("{spec:?}: {e:?}"));
            if let Some(delivered) = link_delivers {
                assert_eq!(out.is_delivered(), delivered, "{spec:?}");
            }
        }
        for per in [0.3, 1.0] {
            let ch = Channel::new(RadioConfig::default(), flat(per));
            let out = check(&ch, spec, steady, endless_band, &StdRng::seed_from_u64(5));
            assert_eq!(out.is_delivered(), per < 1.0, "{spec:?} at PER {per}");
        }
    }
}

/// A distance source without bounds — any closure — takes the exact path on
/// every attempt: one distance evaluation per attempt, as before.
#[test]
fn closures_are_evaluated_once_per_attempt() {
    let ch = Channel::new(RadioConfig::default(), LossModel::distance_default());
    let mut calls = 0u32;
    let mut rng = StdRng::seed_from_u64(3);
    let out = ch.run(
        &TransferSpec::link(150_000, 1e9),
        |_| {
            calls += 1;
            250.0
        },
        &mut rng,
    );
    let attempts = (out.elapsed() / ch.config().packet_time()).round() as u32;
    assert!(out.is_delivered());
    assert_eq!(calls, attempts);
}

/// Airtime after `n` attempts, accumulated as the loop accumulates it:
/// `t += pt`, `n` times from 0.
fn airtime_after(n: usize, pt: f64) -> f64 {
    (0..n).fold(0.0, |t, _| t + pt)
}

/// A 200 m link in a 150–250 m band that never ends.
fn steady(_: f64) -> f32 {
    200.0
}

fn endless_band(_: f64) -> Option<DistanceBounds> {
    Some(DistanceBounds { lo: 150.0, hi: 250.0, until: f64::INFINITY })
}

/// Runs end where the deadline does. With the deadline on the airtime
/// after `n` attempts to the ulp (the `n`-th attempt ends exactly on it),
/// one ulp either side, and half an attempt past it, the loss-free radio
/// (no draw) stops after exactly the attempts that fit, and banded runs —
/// flat tables' included — stop where the per-attempt loop does.
#[test]
fn runs_end_exactly_at_the_deadline() {
    let lossy = Channel::new(RadioConfig::default(), LossModel::distance_default());
    let clean = Channel::new(RadioConfig::default(), LossModel::None);
    let flats = [0.0, 0.3].map(|per| Channel::new(RadioConfig::default(), flat(per)));
    let pt = lossy.config().packet_time();
    let rng = StdRng::seed_from_u64(23);
    for n in [1usize, 2, 3, 40, 129, 1000, 2796] {
        let end = airtime_after(n, pt);
        for (deadline, fit) in [(end.next_down(), n - 1), (end, n), (end.next_up(), n), (end + 0.5 * pt, n)] {
            // 2 797 packets: the deadline cuts every one of these.
            let spec = TransferSpec::link(4 << 20, deadline);
            let out = check(&clean, spec, steady, endless_band, &rng);
            let want = (false, airtime_after(fit, pt).to_bits(), fit * 1500);
            assert_eq!(bits(out), want, "n={n} deadline={deadline:e}");
            for ch in [&lossy].into_iter().chain(&flats) {
                check(ch, spec, steady, endless_band, &rng);
            }
        }
    }
}

/// Runs end where their window does: the attempt that starts exactly at
/// `until` still belongs to it, the next one does not. The link is in range
/// for the window and out of range after it, so the loss-free radio
/// delivers exactly the window's attempts and then loses 40 in a row — one
/// attempt booked under the wrong window changes the bytes delivered — and
/// the lossy one must agree with the per-attempt loop on every seed.
#[test]
fn runs_end_exactly_at_the_window_end() {
    let lossy = Channel::new(RadioConfig::default(), LossModel::distance_default());
    let clean = Channel::new(RadioConfig::default(), LossModel::None);
    let pt = lossy.config().packet_time();
    for n in [0usize, 1, 2, 3, 40, 129, 700] {
        let end = airtime_after(n, pt);
        for (until, in_window) in
            [(end.next_down(), n), (end, n + 1), (end.next_up(), n + 1), (end + 0.5 * pt, n + 1)]
        {
            let near = move |t: f64| if t <= until { 100.0 } else { 600.0 };
            let windows = move |t: f64| {
                let d = near(t);
                Some(DistanceBounds { lo: d, hi: d, until: if t <= until { until } else { f64::INFINITY } })
            };
            let spec = TransferSpec::link(4 << 20, 1e9);
            let out = check(&clean, spec, near, windows, &StdRng::seed_from_u64(0));
            let attempts = in_window + DEAD_LINK_ATTEMPTS as usize;
            let want = (false, airtime_after(attempts, pt).to_bits(), in_window * 1500);
            assert_eq!(bits(out), want, "n={n} until={until:e}");
            for seed in 0..4 {
                check(&lossy, spec, near, windows, &StdRng::seed_from_u64(seed));
            }
        }
    }
}

/// A run is at most the packets left, so a delivered transfer completes on
/// a run's last attempt. One to three packets, a partial last packet, a
/// 4 MiB model: loss-free, one attempt per packet exactly; lossy, where the
/// per-attempt loop completes.
#[test]
fn completion_lands_on_a_runs_last_attempt() {
    let lossy = Channel::new(RadioConfig::default(), LossModel::distance_default());
    let clean = Channel::new(RadioConfig::default(), LossModel::None);
    let flats = [0.01, 0.3].map(|per| Channel::new(RadioConfig::default(), flat(per)));
    let pt = lossy.config().packet_time();
    for bytes in [1usize, 1500, 1501, 3000, 4500, 17 * 1500 - 1, 4 << 20] {
        // Room for every payload here, lossy or not.
        let spec = TransferSpec::link(bytes, 10.0);
        let out = check(&clean, spec, steady, endless_band, &StdRng::seed_from_u64(0));
        let want = (true, airtime_after(bytes.div_ceil(1500), pt).to_bits(), usize::MAX);
        assert_eq!(bits(out), want, "{bytes} bytes");
        for seed in 0..4 {
            let rng = StdRng::seed_from_u64(seed);
            for ch in [&lossy].into_iter().chain(&flats) {
                assert!(check(ch, spec, steady, endless_band, &rng).is_delivered());
            }
        }
    }
}

/// The dead-link streak ends a run mid-way and on its last attempt. At
/// PER 1 a 7-packet payload makes runs of 7, so the 40th straight loss
/// lands inside the sixth; 1, 10 and 40 packets put it on a run's last
/// attempt. At PER 0.97 most transfers die after a few deliveries.
#[test]
fn dead_links_end_runs_where_the_per_attempt_loop_does() {
    let dead = Channel::new(RadioConfig::default(), flat(1.0));
    let dying = Channel::new(RadioConfig::default(), flat(0.97));
    let pt = dead.config().packet_time();
    for packets in [1usize, 7, 10, 40, 41, 1000] {
        let spec = TransferSpec::link(packets * 1500, 1e9);
        let out = check(&dead, spec, steady, endless_band, &StdRng::seed_from_u64(1));
        assert_eq!(bits(out), (false, airtime_after(40, pt).to_bits(), 0), "{packets} packets");
        for seed in 0..8 {
            check(&dying, spec, steady, endless_band, &StdRng::seed_from_u64(seed));
        }
    }
}

/// Deadlines and windows that never end: NaN and `+inf` deadlines, windows
/// that end at NaN (`t > NaN` never holds) or `+inf`. Runs are as long as
/// the payload, and the transfer completes as the per-attempt loop's does.
#[test]
fn runs_under_unbounded_deadlines_and_windows() {
    let lossy = Channel::new(RadioConfig::default(), LossModel::distance_default());
    let clean = Channel::new(RadioConfig::default(), LossModel::None);
    let flat_lossy = Channel::new(RadioConfig::default(), flat(0.3));
    let pt = lossy.config().packet_time();
    for deadline in [f64::NAN, f64::INFINITY] {
        for until in [f64::NAN, f64::INFINITY] {
            let band = move |_: f64| Some(DistanceBounds { lo: 150.0, hi: 250.0, until });
            let spec = TransferSpec::link(1 << 20, deadline);
            let out = check(&clean, spec, steady, band, &StdRng::seed_from_u64(0));
            assert_eq!(bits(out), (true, airtime_after(700, pt).to_bits(), usize::MAX));
            for seed in 0..4 {
                let rng = StdRng::seed_from_u64(seed);
                assert!(check(&lossy, spec, steady, band, &rng).is_delivered());
                assert!(check(&flat_lossy, spec, steady, band, &rng).is_delivered());
            }
        }
    }
}

/// Millions of attempts of under 3 ns each: the airtime chain far from its
/// first steps and past the longest run, with deadlines exactly on it, an
/// ulp short of it, and half an attempt past it.
#[test]
fn long_runs_of_short_attempts_keep_the_airtime_chain() {
    let radio = RadioConfig { packet_bytes: 1, bandwidth_bps: 3e9, ..RadioConfig::default() };
    let clean = Channel::new(radio.clone(), LossModel::None);
    let lossy = Channel::new(radio, flat(0.01));
    let pt = clean.config().packet_time();
    let rng = StdRng::seed_from_u64(8);
    let (bytes, n) = (3_000_000usize, 2_500_001usize);
    let end = airtime_after(n, pt);
    for (deadline, fit) in [(end, n), (end.next_down(), n - 1), (end + 0.5 * pt, n)] {
        let out = check(&clean, TransferSpec::link(bytes, deadline), steady, endless_band, &rng);
        assert_eq!(bits(out), (false, airtime_after(fit, pt).to_bits(), fit), "deadline={deadline:e}");
        check(&lossy, TransferSpec::link(bytes, deadline), steady, endless_band, &rng);
    }
    let out = check(&clean, TransferSpec::link(bytes, f64::INFINITY), steady, endless_band, &rng);
    assert_eq!(bits(out), (true, airtime_after(bytes, pt).to_bits(), usize::MAX));
}
