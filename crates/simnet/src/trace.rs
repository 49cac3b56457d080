//! Mobility traces and encounter detection.
//!
//! The paper records vehicle locations at 2 fps for 120 hours and replays
//! them to simulate inter-vehicle communications. A [`MobilityTrace`] is that
//! recording: one position series per agent at a fixed frame rate, with
//! helpers to query interpolated positions and detect radio-range encounters.

use crate::channel::{DistanceBounds, LinkDistance};
use crate::geom::Vec2;

/// Identifier of an agent (vehicle) inside a trace, dense from zero.
pub type AgentId = usize;

/// Positions of every agent sampled at a fixed frame rate.
#[derive(Debug, Clone)]
pub struct MobilityTrace {
    fps: f64,
    /// `positions[agent][frame]`.
    positions: Vec<Vec<Vec2>>,
}

/// A pair of agents within radio range at some time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Encounter {
    /// First agent (lower id).
    pub a: AgentId,
    /// Second agent (higher id).
    pub b: AgentId,
    /// Distance between them in meters at detection time.
    pub distance: f32,
}

impl MobilityTrace {
    /// Creates a trace from per-agent position series recorded at `fps`
    /// frames per second. All agents must have the same number of frames.
    ///
    /// # Panics
    /// Panics if `fps` is not finite and positive (an infinite rate makes
    /// the frame step `1 / fps` zero), there are no agents, or series
    /// lengths differ.
    pub fn new(fps: f64, positions: Vec<Vec<Vec2>>) -> Self {
        assert!(fps > 0.0 && fps.is_finite(), "fps must be finite and positive");
        assert!(!positions.is_empty(), "trace needs at least one agent");
        let n = positions[0].len();
        assert!(
            positions.iter().all(|p| p.len() == n),
            "all agents must have the same number of frames"
        );
        Self { fps, positions }
    }

    /// Number of agents.
    pub fn n_agents(&self) -> usize {
        self.positions.len()
    }

    /// Number of frames per agent.
    pub fn n_frames(&self) -> usize {
        self.positions[0].len()
    }

    /// Frame rate the trace was recorded at.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Total duration covered, in seconds.
    pub fn duration(&self) -> f64 {
        if self.n_frames() == 0 {
            0.0
        } else {
            (self.n_frames() - 1) as f64 / self.fps
        }
    }

    /// Position of `agent` at time `t` (seconds), linearly interpolated
    /// between frames and clamped to the trace ends.
    ///
    /// # Panics
    /// Panics if `agent` is out of range or the trace has zero frames.
    pub fn position(&self, agent: AgentId, t: f64) -> Vec2 {
        let series = &self.positions[agent];
        assert!(!series.is_empty(), "trace has no frames");
        let ft = (t * self.fps).max(0.0);
        // `ft >= 0`: truncation is the floor, without `f64::floor`'s call.
        let i = ft as usize;
        if let (Some(a), Some(b)) = (series.get(i), series.get(i + 1)) {
            let frac = (ft - i as f64) as f32;
            return a.lerp(*b, frac);
        }
        // Past the last frame (or at it exactly): clamp to the end.
        *series.last().unwrap_or(&Vec2::ZERO)
    }

    /// Distance between two agents at time `t`.
    pub fn distance(&self, a: AgentId, b: AgentId, t: f64) -> f32 {
        self.position(a, t).distance(self.position(b, t))
    }

    /// A cursor over the distance between agents `a` and `b`: the same
    /// values as [`MobilityTrace::distance`], to the bit, with both series
    /// borrowed once and the current trace segment cached — plus distance
    /// *bounds* per stretch of a segment, which is what a packet loop wants.
    ///
    /// # Panics
    /// Panics if either agent is out of range.
    pub fn pair_track(&self, a: AgentId, b: AgentId) -> PairTrack<'_> {
        PairTrack {
            fps: self.fps,
            t0: 0.0,
            a: &self.positions[a],
            b: &self.positions[b],
            seg: None,
        }
    }

    /// Future trajectory of `agent` starting at time `t`: `n` samples spaced
    /// `dt` seconds — what a vehicle shares as its "route in the next few
    /// minutes".
    pub fn future(&self, agent: AgentId, t: f64, dt: f64, n: usize) -> Vec<Vec2> {
        (0..n).map(|k| self.position(agent, t + k as f64 * dt)).collect()
    }
}

/// How far ahead one [`PairTrack::bounds`] answer reaches, seconds: about
/// 130 packets of the paper's radio, a tenth of a 2 fps trace segment. Two
/// vehicles closing at 60 m/s move 3 m in it, which at the steepest slope of
/// the default distance→PER table is a PER interval 0.01 wide.
const TRACK_WINDOW_S: f64 = 0.05;

/// A clipped bounds window ends this fraction of a frame period before the
/// frame time that closes its segment.
const TRACK_CLIP: f64 = 1.0 / (1u64 << 20) as f64;

/// [`PairTrack::bounds`] widens both ends by this times the largest
/// coordinate magnitude of the segment. Worst-case `f32` rounding of the
/// interpolated distance is below `24 · 2⁻²⁴ ≈ 1.4e-6` of that magnitude
/// (three roundings per interpolated coordinate, one per difference, the
/// squares, sum and root), and a bound has to absorb it twice — once in the
/// end values it is built from, once in the value it is compared with.
/// `2⁻¹²` is 85 times that: 0.25 m on a 1 km map.
const TRACK_MARGIN: f32 = 1.0 / (1u32 << 12) as f32;

/// One trace segment of a pair, as [`PairTrack`] caches it.
#[derive(Debug, Clone, Copy)]
struct PairSegment {
    /// Frame index the segment starts at; every index at or past the last
    /// frame is the one parked segment `n_frames - 1`.
    index: usize,
    /// Both agents at frame `index` and at frame `index + 1`; `None` for
    /// the parked segment, where positions are the last frame's.
    next: Option<(Vec2, Vec2)>,
    a: Vec2,
    b: Vec2,
}

/// The distance between two agents of a [`MobilityTrace`] as a function of
/// time since an origin — see [`MobilityTrace::pair_track`].
#[derive(Debug, Clone)]
pub struct PairTrack<'a> {
    fps: f64,
    /// Trace time of the cursor's `t = 0`.
    t0: f64,
    a: &'a [Vec2],
    b: &'a [Vec2],
    seg: Option<PairSegment>,
}

impl PairTrack<'_> {
    /// Moves the cursor's clock origin: `distance_at(t)` reads the trace at
    /// `t0 + t`.
    pub fn starting_at(mut self, t0: f64) -> Self {
        self.t0 = t0;
        self
    }

    /// Frame index and in-segment fraction of transfer-local time `t` —
    /// [`MobilityTrace::position`]'s own arithmetic. Every operation is
    /// monotone in `t`, which [`PairTrack::bounds`] relies on.
    fn locate(&self, t: f64) -> (usize, f32) {
        let ft = ((self.t0 + t) * self.fps).max(0.0);
        // As in `position`: `ft >= 0`, so truncation is the floor.
        let i = ft as usize;
        (i, (ft - i as f64) as f32)
    }

    /// The cached segment holding frame index `i`, loading it on a miss.
    fn segment(&mut self, i: usize) -> PairSegment {
        let (a, b) = (self.a, self.b);
        assert!(!a.is_empty(), "trace has no frames");
        let last = a.len() - 1;
        let index = i.min(last);
        match self.seg {
            Some(seg) if seg.index == index => seg,
            _ => {
                // Both series have `last + 1` frames: `None` on the last one.
                let next = a.get(index + 1).copied().zip(b.get(index + 1).copied());
                let seg = PairSegment { index, next, a: a[index], b: b[index] };
                self.seg = Some(seg);
                seg
            }
        }
    }
}

impl PairSegment {
    /// The pair's distance at fraction `frac` of the segment — the
    /// expression [`MobilityTrace::distance`] evaluates.
    fn distance(&self, frac: f32) -> f32 {
        match self.next {
            Some((a1, b1)) => self.a.lerp(a1, frac).distance(self.b.lerp(b1, frac)),
            None => self.a.distance(self.b),
        }
    }
}

impl LinkDistance for PairTrack<'_> {
    fn distance_at(&mut self, t: f64) -> f32 {
        let (i, frac) = self.locate(t);
        self.segment(i).distance(frac)
    }

    /// Bounds over the next `TRACK_WINDOW_S` seconds, or up to the end of
    /// the current trace segment if that comes first.
    ///
    /// Inside a segment both agents move linearly in the interpolation
    /// fraction `s`, so the exact distance `|p + q·s|` is convex in `s`: over
    /// `[s0, s1]` it is at most the larger end value, and — being
    /// `|q|`-Lipschitz — at least `(d(s0) + d(s1) − |q|·(s1 − s0)) / 2`. The
    /// computed fraction is monotone in time, so the fractions of `t` and of
    /// the window's last instant bracket every one in between. Both ends
    /// are then widened by `TRACK_MARGIN` to cover the rounding between
    /// the exact and the computed distance.
    fn bounds(&mut self, t: f64) -> Option<DistanceBounds> {
        let (i, s0) = self.locate(t);
        let seg = self.segment(i);
        let Some((a1, b1)) = seg.next else {
            // Parked on the last frame: one value, for good.
            let d = seg.distance(0.0);
            return d.is_finite().then_some(DistanceBounds { lo: d, hi: d, until: f64::INFINITY });
        };
        let mut until = t + TRACK_WINDOW_S;
        let (mut j, mut s1) = self.locate(until);
        if j != i {
            until = ((i + 1) as f64 - TRACK_CLIP) / self.fps - self.t0;
            (j, s1) = self.locate(until);
            if j != i || until < t {
                // Too close to the frame time to fit a window in.
                return None;
            }
        }
        let (d0, d1) = (f64::from(seg.distance(s0)), f64::from(seg.distance(s1)));
        let reach = f64::from(((a1 - seg.a) - (b1 - seg.b)).norm()) * f64::from(s1 - s0);
        let size = [seg.a, seg.b, a1, b1]
            .iter()
            .fold(0.0f32, |m, p| m.max(p.x.abs()).max(p.y.abs()));
        let margin = f64::from(size * TRACK_MARGIN);
        let lo = (0.5 * (d0 + d1 - reach) - margin).max(0.0) as f32;
        let hi = (d0.max(d1) + margin) as f32;
        (lo.is_finite() && hi.is_finite()).then_some(DistanceBounds { lo, hi, until })
    }
}

/// Per-frame cache of shared future routes.
///
/// The runtime evaluates [`crate::contact::ContactPredictor`] on
/// every candidate encounter pair, and an agent in a dense cell appears in
/// many pairs per frame. Without a cache its route is resampled (one
/// [`MobilityTrace::position`] interpolation per sample) for every pair;
/// with one it is sampled **at most once per frame** into a flat reusable
/// arena, and later pairs borrow the filled slice.
///
/// Frames are delimited by [`RouteCache::begin_frame`], which bumps an
/// epoch instead of clearing anything — a slot is valid only if its
/// per-agent epoch mark matches the current epoch, so invalidation is O(1)
/// and the arena bytes are reused as-is.
#[derive(Debug, Clone)]
pub struct RouteCache {
    /// Samples per cached route (`route_share_samples`), the arena stride.
    samples: usize,
    /// Current frame epoch; starts at 1 so a zeroed `seen` never matches.
    epoch: u64,
    /// `seen[agent]` = epoch the agent's route was cached in.
    seen: Vec<u64>,
    /// `slot[agent]` = arena slot index holding that route.
    slot: Vec<u32>,
    /// Flat arena: slot `s` owns `buf[s * samples .. (s + 1) * samples]`.
    buf: Vec<Vec2>,
    /// Slots handed out this frame (arena high-water within the epoch).
    used: usize,
    /// Whether the last `begin_frame`…`pair` span reallocated the arena.
    grew: bool,
}

impl RouteCache {
    /// A cache for `n_agents` agents sharing `samples`-point routes. The
    /// arena starts empty and grows to the per-frame working set, then
    /// stays warm.
    pub fn new(n_agents: usize, samples: usize) -> Self {
        Self {
            samples,
            epoch: 1,
            seen: vec![0; n_agents],
            slot: vec![0; n_agents],
            buf: Vec::new(),
            used: 0,
            grew: false,
        }
    }

    /// Starts a new frame: every cached route becomes stale in O(1).
    pub fn begin_frame(&mut self) {
        self.epoch += 1;
        self.used = 0;
        self.grew = false;
    }

    /// Whether the arena reallocated since the last [`RouteCache::begin_frame`]
    /// (a warm cache at steady fleet density never does).
    pub fn grew(&self) -> bool {
        self.grew
    }

    /// The shared future routes of agents `a` and `b` at time `t`, each
    /// sampled at most once this frame (bit-identical to
    /// [`MobilityTrace::future`] with `n = samples`).
    ///
    /// # Panics
    /// Panics (debug) if `a == b`; the two slices must be disjoint.
    pub fn pair(
        &mut self,
        trace: &MobilityTrace,
        a: AgentId,
        b: AgentId,
        t: f64,
        dt: f64,
    ) -> (&[Vec2], &[Vec2]) {
        debug_assert!(a != b, "route pair needs two distinct agents");
        let sa = self.fill(trace, a, t, dt);
        let sb = self.fill(trace, b, t, dt);
        let stride = self.samples;
        let (lo, hi) = if sa < sb { (sa, sb) } else { (sb, sa) };
        let lo_off = lo * stride;
        let hi_off = hi * stride;
        let (head, tail) = self.buf.split_at(hi_off);
        let lo_end = lo_off + stride;
        let lo_slice = &head[lo_off..lo_end];
        let hi_slice = &tail[..stride];
        if sa < sb { (lo_slice, hi_slice) } else { (hi_slice, lo_slice) }
    }

    /// Ensures `agent`'s route is cached this frame; returns its slot.
    fn fill(&mut self, trace: &MobilityTrace, agent: AgentId, t: f64, dt: f64) -> usize {
        if self.seen[agent] == self.epoch {
            return self.slot[agent] as usize;
        }
        let s = self.used;
        self.used += 1;
        let need = self.used * self.samples;
        if need > self.buf.len() {
            if need > self.buf.capacity() {
                self.grew = true;
            }
            self.buf.resize(need, Vec2::ZERO);
        }
        let off = s * self.samples;
        let end = off + self.samples;
        for (k, cell) in self.buf[off..end].iter_mut().enumerate() {
            *cell = trace.position(agent, t + k as f64 * dt);
        }
        self.seen[agent] = self.epoch;
        self.slot[agent] = s as u32;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_agent_trace() -> MobilityTrace {
        // Agent 0 parked at origin; agent 1 drives east at 10 m/s, sampled
        // at 2 fps.
        let a0 = vec![Vec2::ZERO; 21];
        let a1: Vec<Vec2> = (0..21).map(|f| Vec2::new(f as f32 * 5.0, 0.0)).collect();
        MobilityTrace::new(2.0, vec![a0, a1])
    }

    #[test]
    fn interpolates_between_frames() {
        let tr = two_agent_trace();
        let p = tr.position(1, 0.25); // halfway between frames 0 and 1
        assert!((p.x - 2.5).abs() < 1e-6);
    }

    #[test]
    fn clamps_past_the_end() {
        let tr = two_agent_trace();
        let p = tr.position(1, 100.0);
        assert!((p.x - 100.0).abs() < 1e-6);
    }

    #[test]
    fn duration_accounts_for_fps() {
        let tr = two_agent_trace();
        assert!((tr.duration() - 10.0).abs() < 1e-9);
    }

    /// The active pairs within `range_m` at `t`, as the runtime finds them.
    fn encounters(tr: &MobilityTrace, t: f64, range_m: f32, active: &[AgentId]) -> Vec<Encounter> {
        let mut out = Vec::new();
        crate::grid::EncounterGrid::new().encounters_into(tr, t, range_m, active, &mut out);
        out
    }

    #[test]
    fn encounters_within_range() {
        let tr = two_agent_trace();
        let e = encounters(&tr, 0.0, 500.0, &[0, 1]);
        assert_eq!(e.len(), 1);
        assert_eq!((e[0].a, e[0].b), (0, 1));
        // At t = 10 s agent 1 is 100 m away: still in range at 500 m...
        assert_eq!(encounters(&tr, 10.0, 500.0, &[0, 1]).len(), 1);
        // ...but not at 50 m range.
        assert_eq!(encounters(&tr, 10.0, 50.0, &[0, 1]).len(), 0);
    }

    #[test]
    fn active_filter_restricts_pairs() {
        let tr = two_agent_trace();
        assert!(encounters(&tr, 0.0, 500.0, &[0]).is_empty());
    }

    #[test]
    fn future_samples_the_route() {
        let tr = two_agent_trace();
        let f = tr.future(1, 0.0, 1.0, 5);
        assert_eq!(f.len(), 5);
        assert!((f[4].x - 40.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "same number of frames")]
    fn ragged_series_panics() {
        let _ = MobilityTrace::new(2.0, vec![vec![Vec2::ZERO; 3], vec![Vec2::ZERO; 4]]);
    }

    #[test]
    #[should_panic(expected = "fps must be finite and positive")]
    fn infinite_fps_panics() {
        let _ = MobilityTrace::new(f64::INFINITY, vec![vec![Vec2::ZERO; 3]]);
    }

    #[test]
    fn route_cache_matches_future_bit_for_bit() {
        let tr = two_agent_trace();
        let mut cache = RouteCache::new(tr.n_agents(), 5);
        cache.begin_frame();
        let (ra, rb) = cache.pair(&tr, 0, 1, 0.25, 1.0);
        let (ra, rb) = (ra.to_vec(), rb.to_vec());
        let fa = tr.future(0, 0.25, 1.0, 5);
        let fb = tr.future(1, 0.25, 1.0, 5);
        for (got, want) in ra.iter().zip(&fa).chain(rb.iter().zip(&fb)) {
            assert_eq!((got.x.to_bits(), got.y.to_bits()), (want.x.to_bits(), want.y.to_bits()));
        }
        // Order of the pair must not matter for contents.
        let (rb2, ra2) = cache.pair(&tr, 1, 0, 0.25, 1.0);
        assert_eq!(ra, ra2);
        assert_eq!(rb, rb2);
    }

    #[test]
    fn route_cache_warm_frames_do_not_reallocate() {
        let tr = two_agent_trace();
        let mut cache = RouteCache::new(tr.n_agents(), 8);
        cache.begin_frame();
        let _ = cache.pair(&tr, 0, 1, 0.0, 0.5);
        assert!(cache.grew(), "cold frame fills the arena");
        for f in 1..5 {
            cache.begin_frame();
            let _ = cache.pair(&tr, 0, 1, f as f64 * 0.5, 0.5);
            let _ = cache.pair(&tr, 1, 0, f as f64 * 0.5, 0.5);
            assert!(!cache.grew(), "warm frame {f} reallocated the route arena");
        }
    }

    #[test]
    fn route_cache_invalidates_on_new_frame() {
        let tr = two_agent_trace();
        let mut cache = RouteCache::new(tr.n_agents(), 3);
        cache.begin_frame();
        let first = cache.pair(&tr, 0, 1, 0.0, 1.0).1.to_vec();
        cache.begin_frame();
        let second = cache.pair(&tr, 0, 1, 2.0, 1.0).1.to_vec();
        assert_ne!(first[0].x.to_bits(), second[0].x.to_bits(), "stale route survived the epoch bump");
        assert_eq!(second, tr.future(1, 2.0, 1.0, 3));
    }
}
