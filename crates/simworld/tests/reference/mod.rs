//! The pre-SoA world, retained verbatim as the bit-identity oracle.
//!
//! This is the per-agent-struct `World` exactly as it stood before the
//! structure-of-arrays refactor (the pattern of `bev.rs` beside it and of
//! `lbchat`'s `tests/reference/`): vehicles and
//! pedestrians as owned structs, a fresh per-step [`Router`] (the
//! per-query Dijkstra in `router.rs`, also the oracle of
//! `simworld::route::shortest_route`), and a
//! single serial step loop interleaving movement with RNG reroute draws.
//! `simworld::world::World` must reproduce this world bit for bit — the
//! property tests in `soa_identity.rs` and the golden trajectory fixture
//! pin that contract. It lives with the integration tests, not in the
//! library, and reaches the library only through its public API. Only two
//! mechanical adaptations were made while moving the code here: types
//! shared with the new world ([`WorldConfig`], [`RoadRaster`]) are
//! imported from `simworld::world`, and expert-autopilot helpers are
//! called through [`RoadVehicle::view`] after their signatures moved to
//! [`simworld::agents::VehicleRef`]. Its vehicle struct, [`RoadVehicle`]
//! (`road_vehicle.rs`), later moved here from `simworld::agents` too, once
//! nothing in the library used it. The two identity checks above are what
//! pin this module: edit it only together with them. Since the library
//! stopped bundling an expert's supervision into one struct,
//! [`World::observe_expert`] returns its parts as a tuple, composed here
//! from the library's label functions. The frame rate, waypoint count and
//! town geometry, once fields of [`WorldConfig`], are read from the
//! library's constants ([`FPS`], [`N_WAYPOINTS`], `simworld::map`'s
//! `TOWN_*`), in the same expressions.

use simworld::agents::{radii, Pedestrian};
use simworld::bev::{rasterize, Bev, Pose};
use simworld::expert::{command_for, hazard_ahead, next_turn_info, waypoints_timed, Command};
use simworld::map::{RoadNetwork, TOWN_BLOCK_M, TOWN_GRID, TOWN_ORIGIN};
use simworld::route::Route;
use simworld::world::{RoadRaster, WorldConfig, FPS, N_WAYPOINTS};
use rand::{Rng, RngExt, SeedableRng};
use simnet::geom::Vec2;
use simnet::trace::MobilityTrace;
use std::collections::BTreeMap;

mod road_vehicle;
mod router;
pub use road_vehicle::RoadVehicle;
pub use router::Router;

/// The running world. `Clone` snapshots the full state (map, agents, RNG),
/// letting evaluation run independent trials from a common base world.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    map: RoadNetwork,
    raster: RoadRaster,
    experts: Vec<RoadVehicle>,
    background: Vec<RoadVehicle>,
    pedestrians: Vec<Pedestrian>,
    rng: rand::rngs::StdRng,
    time: f64,
}

impl World {
    /// Builds a world: generates the map, spawns experts and background
    /// traffic on random routes, and scatters pedestrians over the town.
    pub fn new(config: WorldConfig) -> Self {
        let map = RoadNetwork::generate(config.seed);
        let raster = RoadRaster::from_map(&map);
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed.wrapping_add(0x9E3779B9));
        let router = Router::new(&map);
        let spawn = |rng: &mut rand::rngs::StdRng| -> RoadVehicle {
            loop {
                let a = map.random_node(rng);
                let b = map.random_node(rng);
                if let Some(route) = router.route(a, b) {
                    let mut v = RoadVehicle::new(route);
                    // Spread vehicles along their first edge.
                    v.s = rng.random_range(0.0..map.edge(v.edge()).length * 0.8);
                    return v;
                }
            }
        };
        let experts = (0..config.n_experts).map(|_| spawn(&mut rng)).collect();
        let background = (0..config.n_background).map(|_| spawn(&mut rng)).collect();
        let town_area = (
            TOWN_ORIGIN,
            TOWN_ORIGIN
                + Vec2::new(
                    (TOWN_GRID - 1) as f32 * TOWN_BLOCK_M,
                    (TOWN_GRID - 1) as f32 * TOWN_BLOCK_M,
                ),
        );
        let pedestrians =
            (0..config.n_pedestrians).map(|_| Pedestrian::spawn_in(town_area, &mut rng)).collect();
        Self { config, map, raster, experts, background, pedestrians, rng, time: 0.0 }
    }

    /// Construction parameters.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The road network.
    pub fn map(&self) -> &RoadNetwork {
        &self.map
    }

    /// The drivable-area raster.
    pub fn raster(&self) -> &RoadRaster {
        &self.raster
    }

    /// Simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The expert (learning) vehicles.
    pub fn experts(&self) -> &[RoadVehicle] {
        &self.experts
    }

    /// Positions of all pedestrians.
    pub fn pedestrian_positions(&self) -> Vec<Vec2> {
        self.pedestrians.iter().map(|p| p.pos).collect()
    }

    /// Positions of all cars (experts + background).
    pub fn car_positions(&self) -> Vec<Vec2> {
        self.experts
            .iter()
            .chain(&self.background)
            .map(|v| v.position(&self.map))
            .collect()
    }

    /// Positions of cars excluding expert `skip` (for that expert's BEV).
    pub fn car_positions_except(&self, skip: usize) -> Vec<Vec2> {
        self.experts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, v)| v.position(&self.map))
            .chain(self.background.iter().map(|v| v.position(&self.map)))
            .collect()
    }

    /// Advances the world by one frame (`1 / fps` seconds).
    pub fn step(&mut self) {
        let dt = (1.0 / FPS) as f32;
        let gaps = self.compute_gaps();
        let ped_positions: Vec<Vec2> = self.pedestrians.iter().map(|p| p.pos).collect();
        let router = Router::new(&self.map);

        let vehicles = self.experts.iter_mut().chain(self.background.iter_mut());
        for (vehicle, &gap) in vehicles.zip(&gaps) {
            let mut target = vehicle.target_speed(&self.map, gap);
            // Privileged braking for pedestrians in the path.
            if hazard_ahead(&self.map, vehicle.view(), &ped_positions, 10.0, 2.5) {
                target = 0.0;
            }
            let still_going = vehicle.advance(&self.map, target, dt);
            if !still_going {
                // Arrived: plan a fresh random route from the destination.
                let here = vehicle.route.destination(&self.map);
                loop {
                    let next = self.map.random_node(&mut self.rng);
                    if let Some(route) = router.route(here, next) {
                        let speed = vehicle.speed;
                        *vehicle = RoadVehicle::new(route);
                        vehicle.speed = speed;
                        break;
                    }
                }
            }
        }

        let town_area = (
            TOWN_ORIGIN,
            TOWN_ORIGIN
                + Vec2::new(
                    (TOWN_GRID - 1) as f32 * TOWN_BLOCK_M,
                    (TOWN_GRID - 1) as f32 * TOWN_BLOCK_M,
                ),
        );
        for p in &mut self.pedestrians {
            p.step(town_area, dt, &mut self.rng);
        }
        self.time += dt as f64;
    }

    /// Leader gap for every road vehicle (experts then background):
    /// the free distance to the nearest vehicle ahead on the same edge or
    /// the immediate next route edge, `None` when clear.
    fn compute_gaps(&self) -> Vec<Option<f32>> {
        let all: Vec<&RoadVehicle> =
            self.experts.iter().chain(&self.background).collect();
        // Group (s, slot) by edge. BTreeMap keeps iteration (and thus any
        // future order-sensitive use) deterministic; the map is tiny, so
        // the tree overhead is irrelevant here.
        let mut by_edge: BTreeMap<usize, Vec<(f32, usize)>> = BTreeMap::new();
        for (slot, v) in all.iter().enumerate() {
            by_edge.entry(v.edge()).or_default().push((v.s, slot));
        }
        for list in by_edge.values_mut() {
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        all.iter()
            .map(|v| {
                let mut best: Option<f32> = None;
                // Same edge, ahead of us.
                if let Some(list) = by_edge.get(&v.edge()) {
                    for &(s, _) in list {
                        if s > v.s + 0.1 {
                            best = Some(s - v.s);
                            break;
                        }
                    }
                }
                // Next edge on our route, near its start.
                if best.is_none() {
                    let next_idx = v.edge_idx + 1;
                    if let Some(&next) = v.route.edges.get(next_idx) {
                        if let Some(list) = by_edge.get(&next) {
                            if let Some(&(s, _)) = list.first() {
                                best = Some(v.remaining_on_edge(&self.map) + s);
                            }
                        }
                    }
                }
                best.filter(|&g| g < 60.0)
            })
            .collect()
    }

    /// Captures expert `idx`'s BEV observation and supervision for the
    /// current frame — one training sample: the BEV, the command, the
    /// waypoints and the turn scalars. Supervision waypoints are
    /// time-spaced at the world frame interval using the expert's privileged
    /// speed decision (turn slowdown, car-following, pedestrian braking).
    pub fn observe_expert(&self, idx: usize) -> (Bev, Command, Vec<f32>, (f32, f32)) {
        let v = &self.experts[idx];
        let pose = Pose {
            pos: v.position(&self.map),
            heading: v.heading(&self.map).angle(),
        };
        let cars = self.car_positions_except(idx);
        let peds = self.pedestrian_positions();
        let route_ahead = self.route_ahead_polyline(v, 60.0);
        let bev = rasterize(&self.config.bev, pose, v.speed, &self.raster, &cars, &peds, &route_ahead);
        let gap = simworld::expert::forward_gap(&self.map, v.view(), &cars, 40.0, 3.0);
        let mut v_target = v.target_speed(&self.map, gap);
        if hazard_ahead(&self.map, v.view(), &peds, 10.0, 2.5) {
            v_target = 0.0;
        }
        let waypoints = waypoints_timed(
            &self.map,
            v.view(),
            N_WAYPOINTS,
            (1.0 / FPS) as f32,
            v_target,
        );
        let command = command_for(&self.map, v.view());
        (bev, command, waypoints, next_turn_info(&self.map, v.view()))
    }

    /// Densely sampled world-frame points along the next `horizon` meters of
    /// a vehicle's route (the BEV route channel input).
    pub fn route_ahead_polyline(&self, v: &RoadVehicle, horizon: f32) -> Vec<Vec2> {
        self.route_polyline_from(&v.route, v.edge_idx, v.s, horizon)
    }

    /// Same as [`World::route_ahead_polyline`] but for an arbitrary route
    /// progress expressed as (route, edge index, arc length) — used by the
    /// closed-loop evaluator whose vehicle is not road-locked.
    pub fn route_polyline_from(&self, route: &Route, edge_idx: usize, s: f32, horizon: f32) -> Vec<Vec2> {
        let mut pts = Vec::new();
        let mut remaining = horizon;
        let mut first = true;
        for &eid in &route.edges[edge_idx..] {
            let edge = self.map.edge(eid);
            let start = if first { s } else { 0.0 };
            first = false;
            let mut cur = start;
            while cur < edge.length && remaining > 0.0 {
                pts.push(self.map.position_on_edge(eid, cur));
                cur += 2.0;
                remaining -= 2.0;
            }
            if remaining <= 0.0 {
                break;
            }
        }
        pts
    }

    /// Whether a circle at `pos` with `radius` collides with any car or
    /// pedestrian (the closed-loop failure check).
    pub fn collides(&self, pos: Vec2, radius: f32) -> bool {
        for v in &self.experts {
            if v.position(&self.map).distance(pos) < radius + radii::CAR {
                return true;
            }
        }
        for v in &self.background {
            if v.position(&self.map).distance(pos) < radius + radii::CAR {
                return true;
            }
        }
        for p in &self.pedestrians {
            if p.pos.distance(pos) < radius + radii::PEDESTRIAN {
                return true;
            }
        }
        false
    }

    /// Runs the world for `seconds` of simulated time recording expert
    /// positions each frame — the paper's "run the vehicles for an
    /// additional 120 hours and collect their locations" step.
    pub fn record_trace(&mut self, seconds: f64) -> MobilityTrace {
        let frames = (seconds * FPS).ceil() as usize + 1;
        let mut positions: Vec<Vec<Vec2>> =
            vec![Vec::with_capacity(frames); self.experts.len()];
        for _ in 0..frames {
            for (i, v) in self.experts.iter().enumerate() {
                positions[i].push(v.position(&self.map));
            }
            self.step();
        }
        MobilityTrace::new(FPS, positions)
    }

    /// Future route samples of expert `idx` (assist-message content).
    pub fn expert_future(&self, idx: usize, dt: f64, n: usize) -> Vec<Vec2> {
        self.experts[idx].predict_future(&self.map, dt, n)
    }

    /// Mutable access to an expert vehicle (tests and the evaluator use this
    /// to reposition or re-route).
    pub fn expert_mut(&mut self, idx: usize) -> &mut RoadVehicle {
        &mut self.experts[idx]
    }

    /// The world's RNG, for auxiliary draws that must stay reproducible.
    pub fn rng_mut(&mut self) -> &mut rand::rngs::StdRng {
        &mut self.rng
    }

    /// A per-query Dijkstra router borrowed over this world's map (the
    /// search `simworld::route::shortest_route` reproduces).
    pub fn router(&self) -> Router<'_> {
        Router::new(&self.map)
    }

    /// Draws a random route with at least `min_len` meters, for evaluation
    /// tasks.
    pub fn random_route<R: Rng + ?Sized>(&self, min_len: f32, rng: &mut R) -> Route {
        let router = Router::new(&self.map);
        loop {
            let a = self.map.random_node(rng);
            let b = self.map.random_node(rng);
            if let Some(r) = router.route(a, b) {
                if r.length(&self.map) >= min_len {
                    return r;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_world_is_deterministic() {
        let mut a = World::new(WorldConfig::small(9));
        let mut b = World::new(WorldConfig::small(9));
        for _ in 0..50 {
            a.step();
            b.step();
        }
        for (x, y) in a.car_positions().iter().zip(&b.car_positions()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn reference_world_constructs_the_requested_population() {
        let w = World::new(WorldConfig::small(3));
        assert_eq!(w.experts().len(), 8);
        assert_eq!(w.car_positions().len(), 8 + 12);
        assert_eq!(w.pedestrian_positions().len(), 40);
    }
}
