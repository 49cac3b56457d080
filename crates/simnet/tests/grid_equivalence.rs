//! Equivalence proofs for the contact-discovery arms.
//!
//! The encounter scan is held to an oracle that shares no code with it —
//! every roster pair filtered through [`MobilityTrace::distance`] — and
//! the route cache to [`MobilityTrace::future`]; these proptests pin both
//! **bit-identical** to their oracles over random fleets, ranges,
//! near-boundary geometry, and the exact `d == range_m` boundary.

use proptest::prelude::*;
use simnet::geom::Vec2;
use simnet::grid::EncounterGrid;
use simnet::trace::{AgentId, Encounter, MobilityTrace, RouteCache};

/// Every roster pair, in `(i, j)` order, kept when
/// [`MobilityTrace::distance`] puts it within `range`.
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

/// Asserts the scan's encounter list is byte-for-byte the oracle's.
fn assert_arms_agree(trace: &MobilityTrace, t: f64, range: f32, active: &[AgentId]) -> Result<(), TestCaseError> {
    let want = oracle(trace, t, range, active);
    let mut grid = EncounterGrid::new();
    let mut got: Vec<Encounter> = Vec::new();
    grid.encounters_into(trace, t, range, active, &mut got);
    prop_assert_eq!(want.len(), got.len(), "encounter counts diverged");
    for (w, g) in want.iter().zip(&got) {
        prop_assert_eq!((w.a, w.b), (g.a, g.b), "pair order diverged");
        prop_assert_eq!(w.distance.to_bits(), g.distance.to_bits(), "distance bits diverged");
    }
    Ok(())
}

/// A two-frame trace from flat `(x, y)` pairs (agents parked).
fn parked_trace(points: &[(f32, f32)]) -> MobilityTrace {
    let positions =
        points.iter().map(|&(x, y)| vec![Vec2::new(x, y); 2]).collect();
    MobilityTrace::new(2.0, positions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grid_matches_all_pairs_on_random_fleets(
        points in prop::collection::vec((-2000.0f32..2000.0, -2000.0f32..2000.0), 2..80),
        range in 1.0f32..800.0,
        t in 0.0f64..0.5,
    ) {
        let trace = parked_trace(&points);
        let active: Vec<AgentId> = (0..points.len()).collect();
        assert_arms_agree(&trace, t, range, &active)?;
    }

    #[test]
    fn grid_matches_all_pairs_near_the_range_boundary(
        // Pairs placed range·(1 ± ε) apart around an arbitrary origin:
        // every pair sits near the accept boundary.
        origin in -5000.0f32..5000.0,
        range in 10.0f32..600.0,
        eps in -0.02f32..0.02,
        angle in 0.0f32..core::f32::consts::TAU,
    ) {
        let d = range * (1.0 + eps);
        let p0 = (origin, origin * 0.5);
        let p1 = (origin + d * angle.cos(), origin * 0.5 + d * angle.sin());
        let trace = parked_trace(&[p0, p1, (origin + range, origin * 0.5 - range)]);
        assert_arms_agree(&trace, 0.0, range, &[0, 1, 2])?;
    }

    #[test]
    fn grid_includes_the_exact_range_boundary(
        x0 in -1000.0f32..1000.0,
        y0 in -1000.0f32..1000.0,
        x1 in -1000.0f32..1000.0,
        y1 in -1000.0f32..1000.0,
    ) {
        let p0 = Vec2::new(x0, y0);
        let p1 = Vec2::new(x1, y1);
        let d = p0.distance(p1);
        prop_assume!(d > 0.0 && d.is_finite());
        let trace = parked_trace(&[(x0, y0), (x1, y1)]);
        // Range equal to the computed f32 distance: `d <= range_m` accepts,
        // so the scan must emit the identical encounter…
        prop_assert_eq!(oracle(&trace, 0.0, d, &[0, 1]).len(), 1);
        assert_arms_agree(&trace, 0.0, d, &[0, 1])?;
        // …and one ulp below must reject in both arms.
        let below = f32::from_bits(d.to_bits() - 1);
        prop_assert_eq!(oracle(&trace, 0.0, below, &[0, 1]).len(), 0);
        assert_arms_agree(&trace, 0.0, below, &[0, 1])?;
    }

    #[test]
    fn route_cache_pair_is_bit_identical_to_future(
        n_agents in 2usize..12,
        samples in 1usize..40,
        t in 0.0f64..10.0,
        dt in 0.1f64..1.0,
    ) {
        let positions: Vec<Vec<Vec2>> = (0..n_agents)
            .map(|a| (0..41).map(|k| Vec2::new((a * 13 + k) as f32, (a * 7) as f32 * 0.5)).collect())
            .collect();
        let trace = MobilityTrace::new(2.0, positions);
        let mut cache = RouteCache::new(n_agents, samples);
        cache.begin_frame();
        for a in 0..n_agents {
            for b in (a + 1)..n_agents {
                let (ra, rb) = cache.pair(&trace, a, b, t, dt);
                let (fa, fb) = (trace.future(a, t, dt, samples), trace.future(b, t, dt, samples));
                for (got, want) in ra.iter().zip(&fa).chain(rb.iter().zip(&fb)) {
                    prop_assert_eq!(got.x.to_bits(), want.x.to_bits());
                    prop_assert_eq!(got.y.to_bits(), want.y.to_bits());
                }
            }
        }
    }
}

/// The scan's steady-state contract: after a cold first scan, repeated
/// scans over the same fleet (moving through time) allocate nothing —
/// the mirror of the route cache's `grew()` regression test.
#[test]
fn grid_and_route_cache_reach_zero_steady_state_allocation() {
    let n = 200;
    let cols = 15usize;
    let positions: Vec<Vec<Vec2>> = (0..n)
        .map(|k| {
            (0..21)
                .map(|f| {
                    Vec2::new(
                        (k % cols) as f32 * 120.0 + f as f32 * 2.5,
                        (k / cols) as f32 * 120.0,
                    )
                })
                .collect()
        })
        .collect();
    let trace = MobilityTrace::new(2.0, positions);
    let active: Vec<AgentId> = (0..n).collect();
    let mut grid = EncounterGrid::new();
    let mut encounters = Vec::new();
    let mut routes = RouteCache::new(n, 24);

    // Cold frame: everything grows.
    routes.begin_frame();
    grid.encounters_into(&trace, 0.0, 150.0, &active, &mut encounters);
    for &e in &encounters {
        let _ = routes.pair(&trace, e.a, e.b, 0.0, 0.5);
    }

    // Warm frames: the fleet keeps moving, buffers must not.
    for f in 1..8 {
        let t = f as f64 * 0.5;
        routes.begin_frame();
        grid.encounters_into(&trace, t, 150.0, &active, &mut encounters);
        assert!(!grid.grew(), "grid reallocated on warm frame {f}");
        for &e in &encounters {
            let _ = routes.pair(&trace, e.a, e.b, t, 0.5);
        }
        assert!(!routes.grew(), "route cache reallocated on warm frame {f}");
    }
}
