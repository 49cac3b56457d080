//! Packetized transfer simulation.
//!
//! Transfers are chopped into 1500-byte packets sent at the channel
//! bandwidth; each packet is retransmitted up to three times on loss, and a
//! transfer aborts when its deadline (end of radio contact) passes — the
//! exact communication model of §IV-A.

use crate::loss::LossModel;
use rand::{Rng, RngExt};

/// A packet that fails this many consecutive attempts marks the link dead
/// and aborts the transfer (sustained PER ≈ 1 — effectively out of range).
/// Below this, packets are retried persistently: the MAC's `max_retx` cap
/// bounds one retransmission *window*, and the reliable transport above it
/// keeps re-queueing the packet, each attempt costing airtime.
pub const DEAD_LINK_ATTEMPTS: u32 = 40;

/// The paper's §IV-A link bandwidth in bits per second: the default of
/// [`RadioConfig::bandwidth_bps`], and the homogeneous `min(B_i, B_j)`
/// factor of the Eq. (5) neighbour priority.
pub const PAPER_BANDWIDTH_BPS: f64 = 31e6;

/// Radio parameters (defaults are the paper's §IV-A values).
#[derive(Debug, Clone, PartialEq)]
pub struct RadioConfig {
    /// Payload bytes per packet.
    pub packet_bytes: usize,
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Maximum communication range in meters.
    pub range_m: f32,
    /// Maximum retransmissions per packet after the first attempt.
    pub max_retx: u32,
    /// Size of the assist message (route + bandwidth info) in bytes.
    pub assist_bytes: usize,
}

impl Default for RadioConfig {
    fn default() -> Self {
        Self {
            packet_bytes: 1500,
            bandwidth_bps: PAPER_BANDWIDTH_BPS,
            range_m: 500.0,
            max_retx: 3,
            assist_bytes: 184,
        }
    }
}

impl RadioConfig {
    /// Airtime of a single packet attempt in seconds.
    pub fn packet_time(&self) -> f64 {
        (self.packet_bytes * 8) as f64 / self.bandwidth_bps
    }

    /// Number of packets needed for `bytes` of payload.
    pub fn packets_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.packet_bytes)
    }

    /// Loss-free transfer time for `bytes` at full bandwidth.
    pub fn ideal_transfer_time(&self, bytes: usize) -> f64 {
        self.packets_for(bytes) as f64 * self.packet_time()
    }
}

/// One requested payload movement over the pairwise link: how many bytes,
/// and how much airtime may be spent (measured from the transfer's first
/// packet) — the argument of [`Channel::run`]. Every packet's error rate is
/// the channel's [`LossModel`] at the live endpoint distance (packets
/// beyond range always fail).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSpec {
    /// Payload size in bytes.
    pub bytes: usize,
    /// Airtime budget in seconds, measured from the transfer start.
    pub deadline: f64,
}

impl TransferSpec {
    /// A link transfer of `bytes` within `deadline` seconds of airtime.
    pub fn link(bytes: usize, deadline: f64) -> Self {
        Self { bytes, deadline }
    }
}

/// Result of a simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferOutcome {
    /// All packets delivered; field is the elapsed time in seconds.
    Delivered {
        /// Total time from first packet to last delivery.
        elapsed: f64,
    },
    /// Transfer aborted: a packet exhausted retransmissions, or the deadline
    /// passed. Fields give elapsed time at abort and delivered payload bytes.
    Failed {
        /// Time spent before the abort.
        elapsed: f64,
        /// Payload bytes that made it across before the abort.
        delivered_bytes: usize,
    },
}

impl TransferOutcome {
    /// Whether the transfer fully completed.
    pub fn is_delivered(&self) -> bool {
        matches!(self, TransferOutcome::Delivered { .. })
    }

    /// Elapsed time in seconds regardless of outcome.
    pub fn elapsed(&self) -> f64 {
        match *self {
            TransferOutcome::Delivered { elapsed } => elapsed,
            TransferOutcome::Failed { elapsed, .. } => elapsed,
        }
    }
}

/// Where a transfer's endpoint distance comes from.
///
/// Any `FnMut(f64) -> f32` closure is one (`|t| distance t seconds in`), so
/// the channel composes with every mobility source. A source that can also
/// *bound* its distance over a stretch of time — [`crate::trace::PairTrack`]
/// does, per trace segment — lets [`Channel::run`] settle most packet
/// attempts from the random draw alone, without evaluating the distance.
pub trait LinkDistance {
    /// Endpoint distance in meters `t` seconds into the transfer.
    fn distance_at(&mut self, t: f64) -> f32;

    /// Conservative bounds on [`LinkDistance::distance_at`] from `t` on, or
    /// `None` when the source has none to offer at `t` (the default): the
    /// channel then evaluates that attempt exactly and asks again at the
    /// next one.
    fn bounds(&mut self, _t: f64) -> Option<DistanceBounds> {
        None
    }
}

impl<F: FnMut(f64) -> f32> LinkDistance for F {
    fn distance_at(&mut self, t: f64) -> f32 {
        self(t)
    }
}

/// What [`LinkDistance::bounds`] promises at time `t`: every `t'` in
/// `[t, until]` has `lo <= distance_at(t') <= hi` — for the distance *as
/// computed*, rounding included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBounds {
    /// Lower bound, meters.
    pub lo: f32,
    /// Upper bound, meters.
    pub hi: f32,
    /// Last transfer-local time the bounds cover, seconds.
    pub until: f64,
}

/// Draws are 24-bit: `rand::RngExt::random::<f32>()` is
/// `(random::<u32>() >> 8) as f32 * 2⁻²⁴` (pinned by a test in the `rand`
/// stand-in), so a draw is its integer numerator `k` and this many values
/// are possible.
const DRAW_RANGE: u32 = 1 << 24;

/// The `f32` draw with numerator `k`, exactly.
fn draw_value(k: u32) -> f32 {
    k as f32 * (1.0 / DRAW_RANGE as f32)
}

/// The smallest draw numerator that survives error rate `per`: for every
/// `k < 2²⁴`, `k as f32 * 2⁻²⁴ >= per` exactly when `k >= draw_threshold(per)`.
///
/// The same comparison, moved to the integers: `k · 2⁻²⁴` is exact in `f32`
/// and `per · 2²⁴` is exact in `f64`, so `u >= per ⇔ k >= per · 2²⁴ ⇔
/// k >= ceil(per · 2²⁴)`. The clamp to `2²⁴` (one past the largest `k`) keeps
/// `per > 1`, `+inf` and NaN from ever delivering; `per <= 0` gives `0`.
/// [`Channel::run`] asks for neither end. The ceiling is taken in the
/// integers — truncate, then add one if that lost a fraction — because on
/// baseline x86-64 (no SSE4.1) `f64::ceil` is a library call, and this runs
/// twice per PER window.
pub fn draw_threshold(per: f32) -> u32 {
    let x = (f64::from(per) * f64::from(DRAW_RANGE)).min(f64::from(DRAW_RANGE));
    // `as` truncates toward zero and saturates a negative `x` to 0.
    let k = x as u32;
    k + u32::from(f64::from(k) < x)
}

/// How the attempts of one [`PerWindow`] are decided, from the bounds
/// `lo <= per <= hi` on their error rate.
#[derive(Debug, Clone, Copy)]
enum Settle {
    /// `hi <= 0`: delivered, no draw.
    Free,
    /// `0 < lo <= hi`: every attempt draws, and the draw alone settles it —
    /// numerator `k < lo_k` is lost (`u < lo`), `k >= hi_k` delivered
    /// (`u >= hi`), with `lo_k`/`hi_k` the [`draw_threshold`]s of the bounds.
    /// Only `lo_k <= k < hi_k` needs the exact rate.
    Draw { lo_k: u32, hi_k: u32 },
    /// Anything else — `lo <= 0 < hi`, where whether a draw happens at all
    /// depends on the exact rate, or NaN bounds: the rate is evaluated on
    /// every attempt.
    Exact,
}

/// What [`Channel::run`] knows about the error rate of every attempt that
/// starts in `..= until`.
#[derive(Debug, Clone, Copy)]
struct PerWindow {
    settle: Settle,
    until: f64,
}

impl PerWindow {
    /// Nothing known: every attempt is evaluated exactly, and `until` makes
    /// the next one ask again.
    const UNKNOWN: PerWindow = PerWindow { settle: Settle::Exact, until: f64::NEG_INFINITY };

    /// The window over which the error rate stays within `[lo, hi]`.
    fn new(lo: f32, hi: f32, until: f64) -> Self {
        let settle = if hi <= 0.0 {
            Settle::Free
        } else if 0.0 < lo && lo <= hi {
            Settle::Draw { lo_k: draw_threshold(lo), hi_k: draw_threshold(hi) }
        } else {
            Settle::Exact
        };
        Self { settle, until }
    }
}

/// The longest run [`Progress::run_len`] hands out. Over this many `+= pt`
/// steps the rounded chain exceeds its exact sum by at most a factor
/// `(1 + 2⁻⁵³)^(2²⁰) < 1 + 2⁻³²`, which [`RUN_MARGIN`] covers.
const MAX_RUN: usize = 1 << 20;

/// Relative margin on the time limits of a run: the run stops where the
/// exact airtime would reach `end · (1 - 2⁻³⁰)`, so the rounded `t += pt`
/// chain (see [`MAX_RUN`]) and the rounding of the limit's own arithmetic
/// stay under `end`.
const RUN_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// A transfer between two attempts: what it may spend, and where it stands.
#[derive(Clone, Copy)]
struct Progress {
    /// Packets to deliver.
    n_packets: usize,
    /// Airtime of one attempt.
    pt: f64,
    /// Airtime budget.
    deadline: f64,
    /// Airtime spent, accumulated one packet time per attempt.
    t: f64,
    /// Packets delivered.
    pkt: usize,
    /// Attempts the current packet has lost in a row.
    streak: u32,
}

impl Progress {
    /// Whether the payload is across.
    #[inline]
    fn complete(&self) -> bool {
        self.pkt == self.n_packets
    }

    /// Whether the next attempt may not start: the link is dead, or the
    /// attempt would end past the deadline. Written so that a NaN deadline
    /// never expires.
    #[inline]
    fn cut_off(&self) -> bool {
        self.streak == DEAD_LINK_ATTEMPTS || self.t + self.pt > self.deadline
    }

    /// Books one attempt. Arithmetic on the outcome, not a branch: which way
    /// an attempt goes is the one thing in the loop a predictor cannot learn.
    #[inline]
    fn book(&mut self, arrived: bool) {
        let arrived = u32::from(arrived);
        self.t += self.pt;
        self.pkt += arrived as usize;
        // `streak + 1` when lost (the mask is all ones), 0 when arrived.
        self.streak = (self.streak + 1) & arrived.wrapping_sub(1);
    }

    /// The length of the next run: attempts that may go back to back with
    /// no exit test between them. At most the packets left, so completion
    /// can only land on the run's last attempt; and every attempt of the
    /// run starts by `until` and ends by the deadline, so neither the
    /// window nor the deadline runs out inside it. Always at least one —
    /// the caller has checked that the next attempt may start — and a run
    /// of one is the per-attempt loop.
    ///
    /// Both time limits are one: the `m` attempts whose `t += pt` chain
    /// stays `<= end = min(deadline, until + pt)` (an attempt that ends by
    /// `until + pt` started by `until`). With `t >= 0` and `pt > 0` each
    /// rounded step is at most `1 + 2⁻⁵³` times its exact sum, so
    /// `m <= MAX_RUN` steps land within `1 + 2⁻³²` of `t + m·pt`; the `m`
    /// below has `t + m·pt` within a few ulps of `end · (1 - 2⁻³⁰)`, so the
    /// chain stays under `end`. A NaN end drops out of the `min`, and a NaN
    /// or `+inf` one, which no `t > end` test crosses, sets no limit. A
    /// `pt` that is not positive gets runs of one.
    #[inline]
    fn run_len(&self, until: f64) -> usize {
        let end = self.deadline.min(until + self.pt);
        let timed = if self.pt.is_nan() || self.pt <= 0.0 {
            0
        } else if end.is_nan() || end == f64::INFINITY {
            usize::MAX
        } else {
            // `as` saturates: a negative or NaN quotient is 0 attempts.
            ((end - end.abs() * RUN_MARGIN - self.t) / self.pt) as usize
        };
        (self.n_packets - self.pkt).min(timed).clamp(1, MAX_RUN)
    }

    /// Settles attempts of a [`Settle::Draw`] window from the draw alone,
    /// a run ([`Progress::run_len`]) at a time. Returns the numerator of a
    /// draw that landed in `lo_k..hi_k`, its attempt not yet booked, or
    /// `None` once the transfer is complete or cut off or the window (which
    /// covers attempts starting in `..= until`) has run out.
    ///
    /// Inside a run the only exit that can fire is the dead-link streak,
    /// tested on every attempt; the exact exit tests follow the run.
    #[inline]
    fn burst<R>(&mut self, lo_k: u32, hi_k: u32, until: f64, rng: &mut R) -> Option<u32>
    where
        R: Rng + ?Sized,
    {
        loop {
            // A copy, so the run keeps `t`, `pkt` and `streak` in registers.
            let mut at = *self;
            for _ in 0..self.run_len(until) {
                let k = rng.random::<u32>() >> 8;
                if k.wrapping_sub(lo_k) < hi_k - lo_k {
                    *self = at;
                    return Some(k);
                }
                at.book(k >= hi_k);
                if at.streak == DEAD_LINK_ATTEMPTS {
                    break;
                }
            }
            *self = at;
            if self.complete() || self.cut_off() || self.t > until {
                return None;
            }
        }
    }
}

/// A point-to-point radio link between two (possibly moving) agents.
///
/// The distance between the endpoints over the course of a transfer is
/// supplied by a caller-provided [`LinkDistance`], so the channel composes
/// with any mobility source (live world or recorded trace).
#[derive(Debug, Clone)]
pub struct Channel {
    config: RadioConfig,
    loss: LossModel,
    /// Whether `loss` passes [`LossModel::validate`], checked once here:
    /// [`LossModel::per_bounds`] is only sound on such a table, so a
    /// malformed one (a struct-literal config that bypassed the builder)
    /// keeps evaluating every attempt exactly.
    boundable: bool,
}

impl Channel {
    /// Creates a channel with the given radio parameters and loss model.
    pub fn new(config: RadioConfig, loss: LossModel) -> Self {
        let boundable = loss.validate().is_ok();
        Self { config, loss, boundable }
    }

    /// Radio parameters in use.
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// Loss model in use.
    pub fn loss_model(&self) -> &LossModel {
        &self.loss
    }

    /// Per-packet error rate at endpoint distance `distance_m`: the loss
    /// model's, and 1 beyond `range_m`.
    pub fn per_for(&self, distance_m: f32) -> f32 {
        if distance_m > self.config.range_m {
            1.0
        } else {
            self.loss.per(distance_m)
        }
    }

    /// Bounds on [`Channel::per_for`] for the attempts starting at `t` and
    /// after, as far as `link` can bound its distance.
    fn per_window<D: LinkDistance>(&self, t: f64, link: &mut D) -> PerWindow {
        match self.boundable.then(|| link.bounds(t)).flatten() {
            Some(d) => {
                let (lo, hi) = self.link_per_bounds(d.lo, d.hi);
                PerWindow::new(lo, hi, d.until)
            }
            None => PerWindow::UNKNOWN,
        }
    }

    /// [`Channel::per_for`]`(d)` bounded over `d_lo <= d <= d_hi`: the
    /// table's bounds over the part of the interval within radio range,
    /// and `1.0` for the part beyond it.
    fn link_per_bounds(&self, d_lo: f32, d_hi: f32) -> (f32, f32) {
        let range = self.config.range_m;
        if d_lo > range {
            return (1.0, 1.0);
        }
        if d_hi > range {
            let (lo, hi) = self.loss.per_bounds(d_lo, range);
            (lo.min(1.0), hi.max(1.0))
        } else {
            self.loss.per_bounds(d_lo, d_hi)
        }
    }

    /// The unified transfer entry point: simulates moving `spec.bytes`
    /// starting at time 0 over `link`, aborting when `spec.deadline` passes
    /// or a packet fails [`DEAD_LINK_ATTEMPTS`] straight times.
    ///
    /// Each attempt's error rate is [`Channel::per_for`] at the distance
    /// `link` reports, so packets sent beyond `range_m` always fail.
    /// Packets are retried persistently (each attempt costs airtime, so a
    /// lossy link has proportionally lower goodput). Zero-byte transfers
    /// complete instantly.
    ///
    /// # Contract
    ///
    /// An attempt may start while packets remain, the current packet has
    /// lost fewer than [`DEAD_LINK_ATTEMPTS`] attempts in a row, and
    /// `t + packet_time > deadline` does not hold (a NaN deadline never
    /// expires). With error rate `per` it is delivered when `per <= 0` (no
    /// draw) or when its draw `u` satisfies `u >= per`; either way it costs
    /// one `t += packet_time`. Outcomes, airtime and the RNG stream are
    /// those of evaluating `per` on every attempt, bit for bit — but `per`
    /// is evaluated only where the answer depends on it:
    ///
    /// * The outer loop owns every exit, asks `link` for a new window of PER
    ///   bounds `[lo, hi]` once the last one has run out, and books the
    ///   attempts that need care: those of a window that is not
    ///   `0 < lo <= hi` and has not `hi <= 0` (`lo <= 0 < hi`, where whether
    ///   a draw happens depends on the exact rate; NaN bounds; a malformed
    ///   table or a source without bounds, which have no window) take the
    ///   rule above as written, one attempt at a time.
    /// * Attempts of a window with bounds go in *runs*: as many attempts as
    ///   no exit can interrupt — at most the packets left, so completion
    ///   lands on the run's last attempt if at all, and few enough that
    ///   each one starts by the window's end and ends by the deadline, with
    ///   a relative margin of `2⁻³⁰` over the rounded `t += packet_time`
    ///   chain. Only the dead-link streak is tested per attempt; the exact
    ///   exit tests follow the run, and a run of one is the per-attempt
    ///   loop. A window with `hi <= 0` books its runs as delivered, no draw.
    /// * In a window with `0 < lo <= hi` every attempt draws whatever `per`
    ///   is, so the inner *burst* settles attempts from the draw alone, in
    ///   the integer domain ([`draw_threshold`]): numerator `k >= hi_k` is
    ///   delivered, `k < lo_k` lost, and the bookkeeping is arithmetic on
    ///   that one comparison — no branch depends on the outcome. A draw with
    ///   `lo_k <= k < hi_k` is handed back, attempt not yet booked, and the
    ///   outer loop compares it with the exact rate. A flat stretch of the
    ///   table gives the zero-width window `lo = hi`, which never hands one
    ///   back.
    pub fn run<R, D>(&self, spec: &TransferSpec, mut link: D, rng: &mut R) -> TransferOutcome
    where
        R: Rng + ?Sized,
        D: LinkDistance,
    {
        if spec.bytes == 0 {
            return TransferOutcome::Delivered { elapsed: 0.0 };
        }
        let mut at = Progress {
            n_packets: self.config.packets_for(spec.bytes),
            pt: self.config.packet_time(),
            deadline: spec.deadline,
            t: 0.0,
            pkt: 0,
            streak: 0,
        };
        let mut known = PerWindow::UNKNOWN;
        loop {
            if at.complete() {
                return TransferOutcome::Delivered { elapsed: at.t };
            }
            if at.cut_off() {
                return TransferOutcome::Failed {
                    elapsed: at.t,
                    delivered_bytes: at.pkt * self.config.packet_bytes,
                };
            }
            if at.t > known.until {
                known = self.per_window(at.t, &mut link);
            }
            let arrived = match known.settle {
                Settle::Free => {
                    for _ in 0..at.run_len(known.until) {
                        at.book(true);
                    }
                    continue;
                }
                Settle::Exact => {
                    let per = self.per_for(link.distance_at(at.t));
                    per <= 0.0 || rng.random::<f32>() >= per
                }
                Settle::Draw { lo_k, hi_k } => match at.burst(lo_k, hi_k, known.until, rng) {
                    Some(k) => draw_value(k) >= self.per_for(link.distance_at(at.t)),
                    None => continue,
                },
            };
            at.book(arrived);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn default_config_matches_paper() {
        let c = RadioConfig::default();
        assert_eq!(c.packet_bytes, 1500);
        assert_eq!(c.bandwidth_bps, 31e6);
        assert_eq!(c.range_m, 500.0);
        assert_eq!(c.max_retx, 3);
        assert_eq!(c.assist_bytes, 184);
    }

    #[test]
    fn coreset_transfer_under_half_second() {
        // §IV-A: "the time to transmit a coreset is less than 0.5 seconds".
        let c = RadioConfig::default();
        let coreset_bytes = 600_000; // 0.6 MB
        assert!(c.ideal_transfer_time(coreset_bytes) < 0.5);
    }

    #[test]
    fn model_transfer_takes_tens_of_seconds() {
        // §III-B: exchanging a 52 MB model "can take tens of seconds".
        let c = RadioConfig::default();
        let t = c.ideal_transfer_time(52 * 1024 * 1024);
        assert!(t > 10.0 && t < 60.0, "52 MB at 31 Mbps should be ~14s, got {t}");
    }

    #[test]
    fn lossless_transfer_delivers_at_ideal_time() {
        let ch = Channel::new(RadioConfig::default(), LossModel::None);
        let out = ch.run(&TransferSpec::link(150_000, 100.0), |_| 10.0, &mut rng());
        match out {
            TransferOutcome::Delivered { elapsed } => {
                let ideal = ch.config().ideal_transfer_time(150_000);
                assert!((elapsed - ideal).abs() < 1e-9);
            }
            _ => panic!("lossless transfer must deliver"),
        }
    }

    #[test]
    fn deadline_aborts_transfer() {
        let ch = Channel::new(RadioConfig::default(), LossModel::None);
        let out = ch.run(&TransferSpec::link(52 * 1024 * 1024, 1.0), |_| 10.0, &mut rng());
        match out {
            TransferOutcome::Failed { elapsed, delivered_bytes } => {
                assert!(elapsed <= 1.0);
                assert!(delivered_bytes > 0);
                assert!(delivered_bytes < 52 * 1024 * 1024);
            }
            _ => panic!("deadline must abort"),
        }
    }

    #[test]
    fn out_of_range_fails_fast() {
        let ch = Channel::new(RadioConfig::default(), LossModel::None);
        let out = ch.run(&TransferSpec::link(3000, 100.0), |_| 600.0, &mut rng());
        assert!(!out.is_delivered(), "beyond range nothing can be delivered");
    }

    #[test]
    fn losses_slow_transfers_down() {
        let cfg = RadioConfig::default();
        let lossy = Channel::new(cfg.clone(), LossModel::distance_default());
        let clean = Channel::new(cfg, LossModel::None);
        let bytes = 1_500_000;
        // At 350 m PER is 0.40: expect noticeably more airtime than clean.
        let mut r = rng();
        let t_lossy = match lossy.run(&TransferSpec::link(bytes, 1000.0), |_| 350.0, &mut r) {
            TransferOutcome::Delivered { elapsed } => elapsed,
            TransferOutcome::Failed { .. } => return, // rare: retx exhausted is acceptable
        };
        let t_clean = clean.run(&TransferSpec::link(bytes, 1000.0), |_| 350.0, &mut r).elapsed();
        assert!(t_lossy > t_clean * 1.2, "lossy {t_lossy} vs clean {t_clean}");
    }

    #[test]
    fn zero_bytes_deliver_instantly() {
        let ch = Channel::new(RadioConfig::default(), LossModel::distance_default());
        let out = ch.run(&TransferSpec::link(0, 0.0), |_| 100.0, &mut rng());
        assert_eq!(out, TransferOutcome::Delivered { elapsed: 0.0 });
    }

    #[test]
    fn moving_apart_kills_transfer() {
        let ch = Channel::new(RadioConfig::default(), LossModel::distance_default());
        // Start at 480 m, recede at 20 m/s: leaves range in one second.
        let out = ch.run(
            &TransferSpec::link(10 * 1024 * 1024, 1000.0),
            |t| 480.0 + 20.0 * t as f32,
            &mut rng(),
        );
        assert!(!out.is_delivered());
    }
}
