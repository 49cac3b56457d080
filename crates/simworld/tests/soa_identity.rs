//! Bit-identity of the structure-of-arrays world against the retained
//! per-agent reference implementation ([`reference`]).
//!
//! The SoA rewrite is an *optimization*: every observable — agent
//! positions, expert routes and kinematic state, BEV rasterizations,
//! supervision targets — must match the reference to the f32 bit, for any
//! map seed and any number of ticks. The intent-order invariant is checked
//! here too, over randomized populations rather than the single seed the
//! in-module test pins.

#[expect(
    dead_code,
    reason = "the oracle is kept verbatim, including methods these checks do not call"
)]
mod reference;

use proptest::prelude::*;
use simworld::world::{World, WorldConfig};

/// Asserts every observable of `w` equals the reference world `r` bitwise.
fn assert_bit_identical(w: &World, r: &reference::World, ctx: &str) {
    let (wc, rc) = (w.car_positions(), r.car_positions());
    assert_eq!(wc.len(), rc.len(), "{ctx}: car count");
    for (i, (a, b)) in wc.iter().zip(&rc).enumerate() {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "{ctx}: car {i} x");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "{ctx}: car {i} y");
    }
    let (wp, rp) = (w.pedestrian_positions(), r.pedestrian_positions());
    assert_eq!(wp.len(), rp.len(), "{ctx}: ped count");
    for (i, (a, b)) in wp.iter().zip(&rp).enumerate() {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "{ctx}: ped {i} x");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "{ctx}: ped {i} y");
    }
    for i in 0..w.n_experts() {
        let v = w.expert_view(i);
        let e = r.experts()[i].view();
        assert_eq!(v.route.edges, e.route.edges, "{ctx}: expert {i} route");
        assert_eq!(v.edge_idx, e.edge_idx, "{ctx}: expert {i} edge_idx");
        assert_eq!(v.s.to_bits(), e.s.to_bits(), "{ctx}: expert {i} s");
        assert_eq!(v.speed.to_bits(), e.speed.to_bits(), "{ctx}: expert {i} speed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole contract: the SoA world reproduces the
    /// reference step for step, on any map, to the f32 bit.
    #[test]
    fn soa_matches_reference_at_seed_scale(seed in 0u64..200, ticks in 1usize..50) {
        let mut w = World::new(WorldConfig::small(seed));
        let mut r = reference::World::new(WorldConfig::small(seed));
        assert_bit_identical(&w, &r, "after spawn");
        for t in 0..ticks {
            w.step();
            r.step();
            assert_bit_identical(&w, &r, &format!("tick {t} seed {seed}"));
        }
    }

    /// Observations — the full BEV tensor and the supervision targets —
    /// match bit for bit after an arbitrary number of steps.
    #[test]
    fn soa_observations_match_reference(seed in 0u64..100, ticks in 0usize..30) {
        let mut w = World::new(WorldConfig::small(seed));
        let mut r = reference::World::new(WorldConfig::small(seed));
        for _ in 0..ticks {
            w.step();
            r.step();
        }
        for i in 0..w.n_experts() {
            let (wb, ws) = w.observe_expert(i);
            let (rb, rs) = r.observe_expert(i);
            prop_assert_eq!(&wb, &rb, "BEV expert {} seed {}", i, seed);
            prop_assert_eq!(ws.command, rs.command);
            prop_assert_eq!(ws.waypoints.len(), rs.waypoints.len());
            for (a, b) in ws.waypoints.iter().zip(&rs.waypoints) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "waypoint bits expert {}", i);
            }
            prop_assert_eq!(ws.speed.to_bits(), rs.speed.to_bits());
            prop_assert_eq!(ws.turn_distance.to_bits(), rs.turn_distance.to_bits());
            prop_assert_eq!(ws.turn_sign.to_bits(), rs.turn_sign.to_bits());
        }
    }

    /// Shuffling the intent-phase visit order never changes a single output
    /// bit: the phase is pure, whatever populations share the roads.
    #[test]
    fn intent_order_permutation_is_invariant(seed in 0u64..50, perm in 0u64..1000, n_background in 0usize..40) {
        let cfg = WorldConfig { n_background, ..WorldConfig::small(seed) };
        let mut a = World::new(cfg.clone());
        let mut b = World::new(cfg);
        for t in 0..60 {
            a.step();
            b.step_permuted(perm.wrapping_mul(31).wrapping_add(t));
        }
        let (pa, pb) = (a.car_positions(), b.car_positions());
        for (p, q) in pa.iter().zip(&pb) {
            prop_assert_eq!(p.x.to_bits(), q.x.to_bits());
            prop_assert_eq!(p.y.to_bits(), q.y.to_bits());
        }
        let (ea, eb) = (a.pedestrian_positions(), b.pedestrian_positions());
        for (p, q) in ea.iter().zip(&eb) {
            prop_assert_eq!(p.x.to_bits(), q.x.to_bits());
            prop_assert_eq!(p.y.to_bits(), q.y.to_bits());
        }
    }
}
