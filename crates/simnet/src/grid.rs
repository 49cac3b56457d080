//! Spatial-hash encounter discovery, bit-identical to the all-pairs sweep.
//!
//! The all-pairs sweep — the test oracle, kept in
//! `tests/all_pairs/mod.rs` — is an O(n²) distance sweep over every active
//! pair. At city-scale fleets the sweep dominates frame matching, so the
//! runtime discovers encounters through an [`EncounterGrid`] instead: a
//! uniform spatial hash rebuilt each frame from a per-frame position
//! snapshot (each agent's interpolated position computed once per frame,
//! not once per pair), with candidate pairs drawn from the 3×3
//! neighborhood of each agent's cell.
//!
//! The grid is not "close enough" — its output is **byte-for-byte equal**
//! to the all-pairs loop, which the tests keep verbatim as the spec:
//!
//! * The snapshot interpolates every active agent once, in `active` order,
//!   with the same [`MobilityTrace::position`] call the sweep makes, so
//!   both arms test identical `f32` coordinates.
//! * Pairs are emitted in the sweep's `(i, j)` order: for each snapshot
//!   index `i` ascending, the candidate `j > i` set from the neighbor
//!   cells is sorted ascending before testing, so the surviving
//!   subsequence is the sweep's exactly.
//! * The in-range test is the identical `f32` expression —
//!   `pos[i].distance(pos[j]) <= range_m` — including the `d == range_m`
//!   boundary.
//! * Cell width is `range_m · (1 + 2⁻¹⁰)`, not `range_m`: the sweep's
//!   computed distance `d` carries a few ulps of rounding, so a pair with
//!   `d <= range_m` can sit up to `range_m · (1 + 4·2⁻²⁴)` apart per axis.
//!   The widened cell keeps every such pair within one cell of each other,
//!   so the 3×3 gather provably covers the sweep's accept set (the
//!   equivalence proptests in `tests/grid_equivalence.rs` pin this,
//!   straddle cases and exact boundary included).
//!
//! All buffers are reused across frames; [`EncounterGrid::grew`] reports
//! whether the last scan had to reallocate (the zero-steady-state
//! allocation regression test counts exactly this signal).

use crate::geom::Vec2;
use crate::trace::{AgentId, Encounter, MobilityTrace};

/// Per-scan statistics, surfaced as the `net.encounter.*` observability
/// counters by the runtime (docs/OBSERVABILITY.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Candidate pairs the 3×3 gather produced — each cost one exact
    /// distance test (the all-pairs sweep would have tested
    /// `n·(n-1)/2`).
    pub candidates: u64,
    /// Occupied grid cells this frame.
    pub cells: u64,
}

/// A uniform spatial hash over the active agents' current positions,
/// rebuilt from scratch each scan into reused buffers.
#[derive(Debug, Clone, Default)]
pub struct EncounterGrid {
    /// Interpolated position per active index (the per-frame snapshot).
    pos: Vec<Vec2>,
    /// Cell coordinates per active index.
    coords: Vec<(i32, i32)>,
    /// `(cell key, active index)`, sorted — the bucket storage.
    entries: Vec<(u64, u32)>,
    /// Distinct cell keys, sorted (parallel to `starts`).
    keys: Vec<u64>,
    /// CSR offsets into `entries`: cell `c` owns `entries[starts[c]..starts[c+1]]`.
    starts: Vec<u32>,
    /// Per-agent candidate scratch (indices `j > i` from neighbor cells).
    cand: Vec<u32>,
    /// Whether the last scan reallocated any internal buffer.
    grew: bool,
}

/// Packs signed cell coordinates into one orderable key. Only equality
/// lookups matter (neighbor keys are searched exactly), so the packing
/// needs no sign bias.
fn cell_key(cx: i32, cy: i32) -> u64 {
    ((cx as u32 as u64) << 32) | (cy as u32 as u64)
}

/// Cell width for a radio range: slightly wider than the range so that
/// any pair the all-pairs sweep accepts (`f32`-computed `d <= range_m`,
/// which tolerates a few ulps past the true distance) lands within one
/// cell per axis of each other. Degenerate ranges (`<= 0`, where only
/// coincident-to-rounding pairs can pass) fall back to a unit cell.
fn cell_width(range_m: f32) -> f64 {
    let w = f64::from(range_m) * (1.0 + 0.000_976_562_5); // 1 + 2⁻¹⁰
    if w > 0.0 && w.is_finite() {
        w
    } else {
        1.0
    }
}

impl EncounterGrid {
    /// An empty grid; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the most recent [`EncounterGrid::encounters_into`] call
    /// reallocated any internal buffer (a warm grid at steady fleet size
    /// never does).
    pub fn grew(&self) -> bool {
        self.grew
    }

    /// Refills `out` with every active pair within `range_m` at time `t` —
    /// byte-for-byte the vector the all-pairs sweep returns —
    /// and reports the scan's work counters. `out` is cleared first; its
    /// reallocation is covered by the returned grid's [`EncounterGrid::grew`].
    pub fn encounters_into(
        &mut self,
        trace: &MobilityTrace,
        t: f64,
        range_m: f32,
        active: &[AgentId],
        out: &mut Vec<Encounter>,
    ) -> GridStats {
        let cap = (
            self.pos.capacity(),
            self.coords.capacity(),
            self.entries.capacity(),
            self.keys.capacity(),
            self.starts.capacity(),
            self.cand.capacity(),
            out.capacity(),
        );
        out.clear();
        let stats = self.scan(trace, t, range_m, active, out);
        self.grew = self.pos.capacity() > cap.0
            || self.coords.capacity() > cap.1
            || self.entries.capacity() > cap.2
            || self.keys.capacity() > cap.3
            || self.starts.capacity() > cap.4
            || self.cand.capacity() > cap.5
            || out.capacity() > cap.6;
        stats
    }

    /// The scan body: snapshot, bucket, gather, test.
    fn scan(
        &mut self,
        trace: &MobilityTrace,
        t: f64,
        range_m: f32,
        active: &[AgentId],
        out: &mut Vec<Encounter>,
    ) -> GridStats {
        let n = active.len();
        let w = cell_width(range_m);

        // Per-frame position snapshot: one interpolation per agent, in
        // `active` order — the same values (and the same `position` call)
        // the all-pairs sweep snapshots.
        self.pos.clear();
        self.pos.extend(active.iter().map(|&a| trace.position(a, t)));
        self.coords.clear();
        self.coords.extend(self.pos.iter().map(|p| {
            // f64 floor keeps the cell boundary exact for any finite
            // coordinate; the saturating `as i32` cast is monotone, so
            // extreme coordinates can only merge cells (a candidate
            // superset), never split neighbors apart.
            let cx = (f64::from(p.x) / w).floor() as i32;
            let cy = (f64::from(p.y) / w).floor() as i32;
            (cx, cy)
        }));

        // Bucket via sort: `(key, index)` entries sorted once gives
        // cells whose member indices are ascending — no hash map
        // (iteration order must be deterministic), no per-cell Vec.
        self.entries.clear();
        self.entries.extend(
            self.coords.iter().enumerate().map(|(i, &(cx, cy))| (cell_key(cx, cy), i as u32)),
        );
        self.entries.sort_unstable();
        self.keys.clear();
        self.starts.clear();
        for (e, &(key, _)) in self.entries.iter().enumerate() {
            if self.keys.last() != Some(&key) {
                self.keys.push(key);
                self.starts.push(e as u32);
            }
        }
        self.starts.push(n as u32);

        // Gather-and-test, in the sweep's (i, j) order.
        let mut stats =
            GridStats { candidates: 0, cells: self.keys.len() as u64 };
        for i in 0..n {
            let (cx, cy) = self.coords[i];
            self.cand.clear();
            for dx in -1i32..=1 {
                for dy in -1i32..=1 {
                    let key = cell_key(cx.saturating_add(dx), cy.saturating_add(dy));
                    let Ok(c) = self.keys.binary_search(&key) else { continue };
                    let next = c + 1;
                    let lo = self.starts[c] as usize;
                    let hi = self.starts[next] as usize;
                    for &(_, j) in &self.entries[lo..hi] {
                        if (j as usize) > i {
                            self.cand.push(j);
                        }
                    }
                }
            }
            // Saturated extreme cells can alias a neighbor offset onto the
            // same key; sorting ascending restores the sweep's j order and
            // dedup removes any such alias.
            self.cand.sort_unstable();
            self.cand.dedup();
            stats.candidates += self.cand.len() as u64;
            let pi = self.pos[i];
            for &j in &self.cand {
                let j = j as usize;
                // The identical f32 test the all-pairs sweep runs, on the
                // identical snapshot values.
                let d = pi.distance(self.pos[j]);
                if d <= range_m {
                    out.push(Encounter { a: active[i], b: active[j], distance: d });
                }
            }
        }
        stats
    }
}

/// The all-pairs sweep the unit tests below hold the grid to, shared with
/// `tests/grid_equivalence.rs`.
#[cfg(test)]
#[path = "../tests/all_pairs/mod.rs"]
mod all_pairs;

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

    fn assert_bit_identical(trace: &MobilityTrace, t: f64, range: f32, active: &[AgentId]) {
        let sweep = all_pairs::sweep(trace, t, range, active);
        let mut grid = EncounterGrid::new();
        let mut fast = Vec::new();
        grid.encounters_into(trace, t, range, active, &mut fast);
        assert_eq!(sweep.len(), fast.len(), "encounter count diverged");
        for (a, b) in sweep.iter().zip(&fast) {
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
        // 140 m spacing in ~150 m cells: adjacent lattice columns can share
        // a cell, but the occupancy stays spread out.
        assert!(stats.cells >= 9 && stats.cells <= 25, "got {} cells", stats.cells);
        assert!(stats.candidates < 25 * 24 / 2, "must test fewer pairs than the sweep");
    }

    #[test]
    fn exact_range_boundary_is_included() {
        // Pin the boundary by making the range *equal* to the computed
        // f32 distance — `d <= range_m` must accept, in both arms.
        let p0 = Vec2::new(3.0, 4.0);
        let p1 = Vec2::new(153.7, 81.3);
        let d = p0.distance(p1);
        let trace = MobilityTrace::new(2.0, vec![vec![p0; 2], vec![p1; 2]]);
        assert_eq!(all_pairs::sweep(&trace, 0.0, d, &[0, 1]).len(), 1);
        assert_bit_identical(&trace, 0.0, d, &[0, 1]);
        // One ulp below the computed distance must exclude, in both arms.
        let below = f32::from_bits(d.to_bits() - 1);
        assert_eq!(all_pairs::sweep(&trace, 0.0, below, &[0, 1]).len(), 0);
        assert_bit_identical(&trace, 0.0, below, &[0, 1]);
    }

    #[test]
    fn cell_straddling_pairs_are_found() {
        // Two agents a hair under the range apart, positioned to straddle
        // a cell boundary wherever it falls.
        let r = 250.0f32;
        for offset in [-0.5f32, 0.0, 0.5, 100.0, 249.9] {
            let p0 = Vec2::new(offset, 0.0);
            let p1 = Vec2::new(offset + r - 0.01, 0.0);
            let trace = MobilityTrace::new(2.0, vec![vec![p0; 2], vec![p1; 2]]);
            assert_bit_identical(&trace, 0.0, r, &[0, 1]);
        }
    }

    #[test]
    fn degenerate_range_zero() {
        let trace =
            MobilityTrace::new(2.0, vec![vec![Vec2::ZERO; 2], vec![Vec2::ZERO; 2], vec![Vec2::new(1.0, 0.0); 2]]);
        // Coincident agents are in range at range 0; all arms agree.
        assert_bit_identical(&trace, 0.0, 0.0, &[0, 1, 2]);
        assert_eq!(all_pairs::sweep(&trace, 0.0, 0.0, &[0, 1, 2]).len(), 1);
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
        assert_eq!(stats, GridStats { candidates: 0, cells: 0 });
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
