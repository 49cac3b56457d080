//! Property-based tests over the driving world's invariants.

use proptest::prelude::*;
use simnet::geom::Vec2;
#[path = "reference/bev.rs"]
mod bev_reference;
#[path = "reference/router.rs"]
mod router_reference;

use simworld::bev::{self, rasterize, rasterize_into, Bev, BevConfig, Pose};
use simworld::map::{RoadKind, RoadNetwork};
use router_reference::Router;
use simworld::route::RoutingTable;
use simworld::world::{World, WorldConfig, N_WAYPOINTS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn maps_are_strongly_connected_for_any_seed(seed in 0u64..500) {
        let m = RoadNetwork::generate(seed);
        prop_assert!(m.is_strongly_connected());
    }

    #[test]
    fn all_routes_chain_correctly(seed in 0u64..100, a in 0usize..30, b in 0usize..30) {
        let m = RoadNetwork::generate(seed);
        let (a, b) = (a % m.n_nodes(), b % m.n_nodes());
        prop_assume!(a != b);
        let r = RoutingTable::new(&m).route(a, b).expect("strongly connected");
        prop_assert_eq!(m.edge(r.edges[0]).from, a);
        prop_assert_eq!(r.destination(&m), b);
        for w in r.edges.windows(2) {
            prop_assert_eq!(m.edge(w[0]).to, m.edge(w[1]).from);
        }
    }

    #[test]
    fn shortest_route_no_longer_than_detours(seed in 0u64..50) {
        let m = RoadNetwork::generate(seed);
        let r = RoutingTable::new(&m);
        let n = m.n_nodes();
        let (a, mid, b) = (0, n / 2, n - 1);
        prop_assume!(a != mid && mid != b && a != b);
        let direct = r.route(a, b).unwrap().length(&m);
        let detour =
            r.route(a, mid).unwrap().length(&m) + r.route(mid, b).unwrap().length(&m);
        prop_assert!(direct <= detour + 1e-3);
    }

    #[test]
    fn vehicles_stay_on_drivable_area(seed in 0u64..20) {
        let mut w = World::new(WorldConfig::small(seed));
        for _ in 0..60 {
            w.step();
        }
        let raster = w.raster();
        for i in 0..w.n_experts() {
            let p = w.expert_view(i).position(w.map());
            prop_assert!(raster.is_road(p), "vehicle off-road at {p:?} (seed {seed})");
        }
    }

    #[test]
    fn bev_fast_path_matches_reference_on_random_scenes(
        seed in 0u64..6,
        (px, py) in (100.0f32..500.0, 100.0f32..500.0),
        heading in -3.2f32..3.2,
        speed in 0.0f32..25.0,
        route in prop::collection::vec((-60.0f32..60.0, -60.0f32..60.0), 0..8),
    ) {
        // A real road raster plus the world's live agents: the optimized
        // rasterizer must reproduce the reference's sparse occupancy (all
        // four channels, every cell) bit for bit.
        let w = World::new(WorldConfig::small(seed));
        let cfg = BevConfig::default();
        let pose = Pose { pos: Vec2::new(px, py), heading };
        let cars = w.car_positions();
        let peds = w.pedestrian_positions();
        let route: Vec<Vec2> =
            route.into_iter().map(|(dx, dy)| Vec2::new(px + dx, py + dy)).collect();
        let fast = rasterize(&cfg, pose, speed, w.raster(), &cars, &peds, &route);
        let slow =
            bev_reference::rasterize(&cfg, pose, speed, w.raster(), &cars, &peds, &route);
        prop_assert!(slow.matches(&fast), "optimized rasterizer diverged from the reference");

        // Reusing a dirty frame must match a fresh rasterization exactly.
        let mut frame = Bev::blank(cfg.cells);
        rasterize_into(
            &cfg,
            Pose { pos: Vec2::new(py, px), heading: -heading },
            speed + 1.0,
            w.raster(),
            &peds,
            &cars,
            &[],
            &mut frame,
        );
        rasterize_into(&cfg, pose, speed, w.raster(), &cars, &peds, &route, &mut frame);
        prop_assert_eq!(&frame, &fast);
    }

    #[test]
    fn features_into_matches_float_pooling_bits(
        seed in 0u64..6,
        (px, py) in (100.0f32..500.0, 100.0f32..500.0),
        heading in -3.2f32..3.2,
        speed in 0.0f32..25.0,
        agents in prop::collection::vec((-40.0f32..60.0, -40.0f32..40.0), 0..80),
    ) {
        // Real road under the pose plus a crowd of stamps around it, so
        // blocks hold anything from no set cell to all of them; every pool
        // that divides the 24-cell side, one output buffer reused dirty.
        let w = World::new(WorldConfig::small(seed));
        let cfg = BevConfig::default();
        let pose = Pose { pos: Vec2::new(px, py), heading };
        let near: Vec<Vec2> =
            agents.iter().map(|&(dx, dy)| pose.to_world(Vec2::new(dx, dy))).collect();
        let (cars, rest) = near.split_at(near.len() / 3);
        let (peds, route) = rest.split_at(rest.len() / 2);
        let frame = rasterize(&cfg, pose, speed, w.raster(), cars, peds, route);
        let mut out = vec![9.0f32; 5];
        for pool in [1, 2, 3, 4, 6, 8, 12, 24] {
            frame.features_into(pool, &mut out);
            let oracle = float_pooled_features(&frame, pool);
            prop_assert_eq!(out.len(), oracle.len());
            for (k, (a, b)) in out.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "pool {} feature {}", pool, k);
            }
        }
    }

    #[test]
    fn expert_observation_shapes_hold_over_time(seed in 0u64..10, steps in 0usize..50) {
        let mut w = World::new(WorldConfig::small(seed));
        for _ in 0..steps {
            w.step();
        }
        let v = w.expert_view(seed as usize % 8);
        let mut bev = Bev::blank(w.config().bev.cells);
        w.observe_route(v, v.pose(w.map()), Some(seed as usize % 8), &mut bev);
        let waypoints = w.expert_waypoints(v);
        let cfg = &w.config().bev;
        let feats = bev.features(cfg.pool);
        prop_assert_eq!(feats.len(), cfg.feature_len());
        prop_assert!(feats.iter().all(|f| (0.0..=1.0).contains(f)));
        prop_assert_eq!(waypoints.len(), 2 * N_WAYPOINTS);
        // Ego-frame waypoints are bounded by the speed-based horizon.
        let horizon = 25.0 * N_WAYPOINTS as f32; // max speed * n
        for c in waypoints.chunks(2) {
            prop_assert!(c[0].abs() <= horizon && c[1].abs() <= horizon);
        }
    }
}

/// `Bev::features_into` as first written: one float accumulator per block,
/// `1.0` added per set cell, blocks row-major within a channel, channels in
/// order, the normalized speed last.
fn float_pooled_features(frame: &Bev, pool: usize) -> Vec<f32> {
    let side = frame.cells() / pool;
    let norm = 1.0 / (pool * pool) as f32;
    let mut out = Vec::new();
    for c in 0..bev::channel::COUNT {
        for by in 0..side {
            for bx in 0..side {
                let mut acc = 0.0f32;
                for dy in 0..pool {
                    for dx in 0..pool {
                        if frame.get(c, bx * pool + dx, by * pool + dy) {
                            acc += 1.0;
                        }
                    }
                }
                out.push(acc * norm);
            }
        }
    }
    out.push(frame.speed() / 25.0);
    out
}

#[test]
fn town_and_rural_road_shares_are_both_substantial() {
    let m = RoadNetwork::generate(0);
    let town = m.edges().iter().filter(|e| e.kind == RoadKind::Town).count();
    let rural = m.edges().iter().filter(|e| e.kind == RoadKind::Rural).count();
    assert!(town >= 10 && rural >= 6, "town {town} rural {rural}");
}

#[test]
fn speed_limits_respected_by_traffic() {
    let mut w = World::new(WorldConfig::small(4));
    for _ in 0..400 {
        w.step();
        for i in 0..w.n_experts() {
            let v = w.expert_view(i);
            let limit = w.map().edge(v.edge()).kind.speed_limit();
            // A vehicle crossing onto a slower road mid-frame only starts
            // braking the next frame, so entry overshoot is bounded by two
            // frames of maximum deceleration.
            let slack = 2.0 * simworld::agents::MAX_ACCEL * 0.5;
            assert!(v.speed <= limit + slack, "{} over limit {limit}", v.speed);
        }
    }
}

#[test]
fn traces_cover_the_training_window_densely() {
    let mut w = World::new(WorldConfig::small(5));
    let trace = w.record_trace(120.0);
    // Every vehicle should actually move over two minutes.
    for a in 0..trace.n_agents() {
        let start = trace.position(a, 0.0);
        let moved = (0..240)
            .map(|k| trace.position(a, k as f64 * 0.5).distance(start))
            .fold(0.0f32, f32::max);
        assert!(moved > 20.0, "agent {a} barely moved: {moved} m");
    }
}

/// The table the world routes with reproduces the per-query Dijkstra's
/// paths for every node pair, and its longest-route bound holds.
#[test]
fn routing_table_matches_router_on_all_pairs() {
    for seed in [0, 7, 19] {
        let m = RoadNetwork::generate(seed);
        let table = RoutingTable::new(&m);
        let router = Router::new(&m);
        let n = m.n_nodes();
        let mut buf = Vec::new();
        for a in 0..n {
            for b in 0..n {
                let fast = table.route_into(a, b, &mut buf);
                let slow = router.route(a, b);
                match slow {
                    None => assert!(fast.is_none(), "pair ({a},{b}) seed {seed}"),
                    Some(r) => {
                        assert!(fast.is_some(), "pair ({a},{b}) seed {seed}");
                        assert_eq!(buf, r.edges, "pair ({a},{b}) seed {seed}");
                        assert!(buf.len() <= table.max_route_edges());
                    }
                }
            }
        }
    }
}
