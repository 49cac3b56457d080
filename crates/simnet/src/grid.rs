//! Encounter discovery: one all-pairs sweep over a per-frame position
//! snapshot.
//!
//! Each scan interpolates every roster agent once, in roster order (the
//! same [`MobilityTrace::position`] call [`MobilityTrace::distance`] makes),
//! then tests every pair `(i, j)`, `i < j`, in ascending order with the
//! `f32` test `pos[i].distance(pos[j]) <= range_m`, the `d == range_m`
//! boundary included. A pair's distance is therefore the bits
//! [`MobilityTrace::distance`] returns for it, and the pairs arrive in the
//! roster's `(i, j)` order, which the runtime's streamed matching relies on.
//!
//! There is no spatial index. The paper's fleet drives a 1 km × 1 km map
//! with a 500 m range, so a hash cell as wide as the range is half the
//! map and every agent's 3×3 neighbourhood is the whole map: a uniform
//! grid tested every pair the sweep tests (the benchmark's
//! `simnet.encounter_hit_ratio` read the same 0.80 on `fleet256_w` for
//! both), after bucketing and sorting for them.
//!
//! The snapshot buffer is reused across frames; [`EncounterGrid::grew`]
//! reports whether the last scan had to reallocate (the zero-steady-state
//! allocation regression test counts exactly this signal).

use crate::geom::Vec2;
use crate::trace::{AgentId, Encounter, MobilityTrace};

/// Per-scan statistics, surfaced as the `net.encounter.*` observability
/// counters by the runtime (docs/OBSERVABILITY.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Pairs the scan distance-tested: `n·(n-1)/2` for a roster of `n`.
    pub candidates: u64,
}

/// The encounter scan: a per-frame position snapshot and the ascending
/// all-pairs sweep over it. It is no grid; the name stays only because the
/// stand-alone `lbchat_e2e` benchmark package still names it, and goes
/// once that package's `probes.rs` stops naming it.
#[derive(Debug, Clone, Default)]
pub struct EncounterGrid {
    /// Interpolated position per roster index (the per-frame snapshot).
    pos: Vec<Vec2>,
    /// Whether the last scan reallocated any internal buffer.
    grew: bool,
}

impl EncounterGrid {
    /// An empty scan; its buffer grows on first use and is then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the most recent scan ([`EncounterGrid::visit_encounters`]
    /// or [`EncounterGrid::encounters_into`]) reallocated any internal
    /// buffer (a warm scan at steady fleet size never does).
    pub fn grew(&self) -> bool {
        self.grew
    }

    /// Hands `visit` every pair of `active` within `range_m` at time `t`,
    /// in ascending `(i, j)` order of roster position, with its
    /// [`MobilityTrace::distance`] bits — no list is built — and reports
    /// the scan's work counters.
    pub fn visit_encounters(
        &mut self,
        trace: &MobilityTrace,
        t: f64,
        range_m: f32,
        active: &[AgentId],
        mut visit: impl FnMut(Encounter),
    ) -> GridStats {
        self.snapshot(trace, t, active);
        let pos = &self.pos;
        for (i, (&a, &pa)) in active.iter().zip(pos).enumerate() {
            for (&b, &pb) in active[i + 1..].iter().zip(&pos[i + 1..]) {
                let d = pa.distance(pb);
                if d <= range_m {
                    visit(Encounter { a, b, distance: d });
                }
            }
        }
        let n = active.len() as u64;
        GridStats { candidates: n * n.saturating_sub(1) / 2 }
    }

    /// [`EncounterGrid::visit_encounters`] into a vector: refills `out`
    /// with every pair of `active` within `range_m` at time `t`, in the
    /// same order. `out` is cleared first; its reallocation is covered by
    /// [`EncounterGrid::grew`].
    pub fn encounters_into(
        &mut self,
        trace: &MobilityTrace,
        t: f64,
        range_m: f32,
        active: &[AgentId],
        out: &mut Vec<Encounter>,
    ) -> GridStats {
        let cap = out.capacity();
        out.clear();
        let stats = self.visit_encounters(trace, t, range_m, active, |e| out.push(e));
        self.grew |= out.capacity() > cap;
        stats
    }

    /// One interpolation per roster agent, in roster order. It does not
    /// depend on the visitor, so it is compiled once, however many
    /// visitors the callers instantiate the sweep with.
    fn snapshot(&mut self, trace: &MobilityTrace, t: f64, active: &[AgentId]) {
        let cap = self.pos.capacity();
        self.pos.clear();
        self.pos.extend(active.iter().map(|&a| trace.position(a, t)));
        self.grew = self.pos.capacity() > cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parked(n: usize, spacing: f32) -> MobilityTrace {
        let cols = (n as f64).sqrt().ceil() as usize;
        let positions = (0..n)
            .map(|k| vec![Vec2::new((k % cols) as f32 * spacing, (k / cols) as f32 * spacing); 3])
            .collect();
        MobilityTrace::new(2.0, positions)
    }

    /// The oracle: every roster pair, in `(i, j)` order, kept when
    /// [`MobilityTrace::distance`] puts it within range.
    fn oracle(trace: &MobilityTrace, t: f64, range: f32, active: &[AgentId]) -> Vec<Encounter> {
        let pairs = active
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| active[i + 1..].iter().map(move |&b| (a, b)));
        pairs
            .map(|(a, b)| Encounter { a, b, distance: trace.distance(a, b, t) })
            .filter(|e| e.distance <= range)
            .collect()
    }

    fn assert_bit_identical(trace: &MobilityTrace, t: f64, range: f32, active: &[AgentId]) {
        let want = oracle(trace, t, range, active);
        let mut grid = EncounterGrid::new();
        let mut got = Vec::new();
        grid.encounters_into(trace, t, range, active, &mut got);
        assert_eq!(want.len(), got.len(), "encounter count diverged");
        for (a, b) in want.iter().zip(&got) {
            assert_eq!((a.a, a.b), (b.a, b.b), "pair order diverged");
            assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "distance bits diverged");
        }
    }

    #[test]
    fn matches_all_pairs_on_a_parked_lattice() {
        let trace = parked(100, 140.0);
        let active: Vec<AgentId> = (0..100).collect();
        for range in [1.0f32, 139.0, 140.0, 150.0, 199.0, 500.0, 5000.0] {
            assert_bit_identical(&trace, 0.25, range, &active);
        }
    }

    #[test]
    fn grid_finds_all_lattice_neighbors() {
        // 140 m spacing, 150 m range: interior nodes see exactly their
        // 4-neighborhood (the diagonal is ~198 m).
        let trace = parked(25, 140.0);
        let active: Vec<AgentId> = (0..25).collect();
        let mut grid = EncounterGrid::new();
        let mut out = Vec::new();
        let stats = grid.encounters_into(&trace, 0.0, 150.0, &active, &mut out);
        assert_eq!(out.len(), 2 * 5 * 4, "4-connected 5x5 lattice has 40 edges");
        assert_eq!(stats.candidates, 25 * 24 / 2, "every roster pair is tested");
    }

    #[test]
    fn exact_range_boundary_is_included() {
        // Pin the boundary by making the range *equal* to the computed
        // f32 distance — `d <= range_m` must accept.
        let p0 = Vec2::new(3.0, 4.0);
        let p1 = Vec2::new(153.7, 81.3);
        let d = p0.distance(p1);
        let trace = MobilityTrace::new(2.0, vec![vec![p0; 2], vec![p1; 2]]);
        assert_eq!(oracle(&trace, 0.0, d, &[0, 1]).len(), 1);
        assert_bit_identical(&trace, 0.0, d, &[0, 1]);
        // One ulp below the computed distance must exclude.
        let below = f32::from_bits(d.to_bits() - 1);
        assert_eq!(oracle(&trace, 0.0, below, &[0, 1]).len(), 0);
        assert_bit_identical(&trace, 0.0, below, &[0, 1]);
    }

    #[test]
    fn degenerate_range_zero() {
        let trace =
            MobilityTrace::new(2.0, vec![vec![Vec2::ZERO; 2], vec![Vec2::ZERO; 2], vec![Vec2::new(1.0, 0.0); 2]]);
        // Coincident agents are in range at range 0.
        assert_bit_identical(&trace, 0.0, 0.0, &[0, 1, 2]);
        assert_eq!(oracle(&trace, 0.0, 0.0, &[0, 1, 2]).len(), 1);
    }

    #[test]
    fn active_subset_is_respected() {
        let trace = parked(16, 100.0);
        let active: Vec<AgentId> = vec![3, 7, 8, 15];
        assert_bit_identical(&trace, 0.25, 150.0, &active);
    }

    #[test]
    fn empty_active_set() {
        let trace = parked(4, 100.0);
        let mut grid = EncounterGrid::new();
        let mut out = vec![Encounter { a: 0, b: 1, distance: 0.0 }];
        let stats = grid.encounters_into(&trace, 0.0, 100.0, &[], &mut out);
        assert!(out.is_empty(), "out must be cleared");
        assert_eq!(stats, GridStats { candidates: 0 });
    }

    #[test]
    fn warm_grid_does_not_reallocate() {
        let trace = parked(64, 140.0);
        let active: Vec<AgentId> = (0..64).collect();
        let mut grid = EncounterGrid::new();
        let mut out = Vec::new();
        grid.encounters_into(&trace, 0.0, 150.0, &active, &mut out);
        for f in 1..4 {
            grid.encounters_into(&trace, f as f64 * 0.5, 150.0, &active, &mut out);
            assert!(!grid.grew(), "warm scan reallocated at frame {f}");
        }
    }
}
