//! Equivalence proofs for the optimized contact-discovery arms.
//!
//! The spatial-hash grid and the fused contact estimate each retain a
//! verbatim reference arm ([`MobilityTrace::encounters_at`] and
//! [`ContactPredictor::estimate_reference`]); these proptests pin the
//! optimized versions **bit-identical** to them over random fleets,
//! ranges, cell-straddling geometry, and the exact `d == range_m`
//! boundary.

use proptest::prelude::*;
use simnet::contact::ContactPredictor;
use simnet::geom::Vec2;
use simnet::grid::EncounterGrid;
use simnet::loss::LossModel;
use simnet::trace::{AgentId, Encounter, MobilityTrace, RouteCache};

/// Asserts the grid's encounter list is byte-for-byte the sweep's.
fn assert_arms_agree(trace: &MobilityTrace, t: f64, range: f32, active: &[AgentId]) -> Result<(), TestCaseError> {
    let sweep = trace.encounters_at(t, range, active);
    let mut grid = EncounterGrid::new();
    let mut fast: Vec<Encounter> = Vec::new();
    grid.encounters_into(trace, t, range, active, &mut fast);
    prop_assert_eq!(sweep.len(), fast.len(), "encounter counts diverged");
    for (s, f) in sweep.iter().zip(&fast) {
        prop_assert_eq!((s.a, s.b), (f.a, f.b), "pair order diverged");
        prop_assert_eq!(s.distance.to_bits(), f.distance.to_bits(), "distance bits diverged");
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
    fn grid_matches_all_pairs_when_pairs_straddle_cells(
        // Pairs placed range·(1 ± ε) apart around an arbitrary origin:
        // every pair sits near the accept boundary and near a cell wall.
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
        // Range equal to the computed f32 distance: `d <= range_m` accepts
        // in the sweep, so the grid must emit the identical encounter…
        prop_assert_eq!(trace.encounters_at(0.0, d, &[0, 1]).len(), 1);
        assert_arms_agree(&trace, 0.0, d, &[0, 1])?;
        // …and one ulp below must reject in both arms.
        let below = f32::from_bits(d.to_bits() - 1);
        prop_assert_eq!(trace.encounters_at(0.0, below, &[0, 1]).len(), 0);
        assert_arms_agree(&trace, 0.0, below, &[0, 1])?;
    }

    #[test]
    fn fused_estimate_is_bit_identical_to_two_pass(
        dist in 0.0f32..900.0,
        speed_x in -25.0f32..25.0,
        speed_y in -10.0f32..10.0,
        range in 50.0f32..600.0,
        dt in 0.1f64..2.0,
        len in 1usize..200,
    ) {
        // Straight-line routes cover never-separate, immediate-separate,
        // and mid-route separation depending on the draw.
        let route_a: Vec<Vec2> = (0..len).map(|_| Vec2::ZERO).collect();
        let route_b: Vec<Vec2> = (0..len)
            .map(|k| Vec2::new(dist + speed_x * (k as f64 * dt) as f32, speed_y * (k as f64 * dt) as f32))
            .collect();
        let p = ContactPredictor::new(range, 3, LossModel::distance_default(), 30.0);
        let fused = p.estimate(&route_a, &route_b, dt);
        let two_pass = p.estimate_reference(&route_a, &route_b, dt);
        prop_assert_eq!(fused.duration.to_bits(), two_pass.duration.to_bits());
        prop_assert_eq!(fused.z.to_bits(), two_pass.z.to_bits());
        prop_assert_eq!(fused.p.to_bits(), two_pass.p.to_bits());
    }

    #[test]
    fn fused_estimate_matches_on_reentrant_routes(
        amplitude in 100.0f32..900.0,
        period in 4.0f32..60.0,
        range in 100.0f32..500.0,
    ) {
        // Oscillating separation drifts in and out of range repeatedly —
        // the shape that exercises the fused sweep's fallback window logic.
        let route_a: Vec<Vec2> = (0..121).map(|_| Vec2::ZERO).collect();
        let route_b: Vec<Vec2> = (0..121)
            .map(|k| Vec2::new(amplitude * (k as f32 * core::f32::consts::TAU / period).sin().abs(), 0.0))
            .collect();
        let p = ContactPredictor::new(range, 3, LossModel::distance_default(), 30.0);
        let fused = p.estimate(&route_a, &route_b, 0.5);
        let two_pass = p.estimate_reference(&route_a, &route_b, 0.5);
        prop_assert_eq!(fused.duration.to_bits(), two_pass.duration.to_bits());
        prop_assert_eq!(fused.z.to_bits(), two_pass.z.to_bits());
        prop_assert_eq!(fused.p.to_bits(), two_pass.p.to_bits());
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

/// The grid's steady-state contract: after a cold first scan, repeated
/// scans over the same fleet (moving through time) allocate nothing —
/// the mirror of PR 8's `route_grows()` regression test.
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
