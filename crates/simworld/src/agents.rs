//! Traffic agents: road-locked vehicles, free-moving vehicles, pedestrians.

use crate::map::{EdgeId, RoadNetwork};
use crate::route::{classify_turn, Route, TurnKind};
use rand::{Rng, RngExt};
use simnet::geom::Vec2;

/// Physical footprint radii used for collision checks (meters).
pub mod radii {
    /// Collision radius of a car.
    pub const CAR: f32 = 2.0;
    /// Collision radius of a pedestrian.
    pub const PEDESTRIAN: f32 = 0.4;
}

/// Maximum acceleration / braking magnitude (m/s²).
pub const MAX_ACCEL: f32 = 3.0;
/// Comfortable speed through a turn (m/s).
pub const TURN_SPEED: f32 = 5.0;
/// Distance before an intersection at which turn slowdown starts (m).
pub const TURN_SLOWDOWN_DIST: f32 = 20.0;
/// Desired time headway to the vehicle ahead (s).
pub const HEADWAY: f32 = 1.6;
/// Minimum standstill gap to the vehicle ahead (m).
pub const MIN_GAP: f32 = 6.0;

/// Index of an agent in the structure-of-arrays world's columns. The id
/// space is laid out as `[experts][background][pedestrians]`, so every
/// vehicle id precedes every pedestrian id.
pub type AgentId = usize;

/// A borrowed, `Copy` view of road-vehicle state: the route plus the
/// scalar columns `(edge_idx, s, speed)`. Both the per-agent-struct
/// [`RoadVehicle`] and the structure-of-arrays world project into this
/// view, so the driving model (target speed, expert supervision, hazard
/// cone) is one shared code path — which is what makes the SoA world's
/// bit-identity to `crate::reference` provable rather than aspirational.
#[derive(Debug, Clone, Copy)]
pub struct VehicleRef<'a> {
    /// Route being followed.
    pub route: &'a Route,
    /// Index into `route.edges` of the current edge.
    pub edge_idx: usize,
    /// Arc-length progress along the current edge (m).
    pub s: f32,
    /// Current speed (m/s).
    pub speed: f32,
}

impl VehicleRef<'_> {
    /// Current edge id.
    pub fn edge(&self) -> EdgeId {
        self.route.edges[self.edge_idx]
    }

    /// World position.
    pub fn position(&self, map: &RoadNetwork) -> Vec2 {
        map.position_on_edge(self.edge(), self.s)
    }

    /// Unit heading vector.
    pub fn heading(&self, map: &RoadNetwork) -> Vec2 {
        map.tangent_on_edge(self.edge(), self.s)
    }

    /// Remaining distance to the end of the current edge.
    pub fn remaining_on_edge(&self, map: &RoadNetwork) -> f32 {
        (map.edge(self.edge()).length - self.s).max(0.0)
    }

    /// The speed this vehicle should aim for given speed limits, upcoming
    /// turns, and the gap to the vehicle ahead (`None` when the road ahead is
    /// clear within sensing range).
    pub fn target_speed(&self, map: &RoadNetwork, gap_ahead: Option<f32>) -> f32 {
        let edge = map.edge(self.edge());
        let mut target = edge.kind.speed_limit();
        let remaining = self.remaining_on_edge(map);
        let next_idx = self.edge_idx + 1;
        // Slow down into turns.
        if remaining < TURN_SLOWDOWN_DIST {
            if let Some(&next) = self.route.edges.get(next_idx) {
                if classify_turn(map, self.edge(), next) != TurnKind::Straight {
                    target = target.min(TURN_SPEED);
                }
            } else {
                // Approaching the destination: come down gently.
                target = target.min(TURN_SPEED);
            }
        }
        // Anticipatory braking for a lower limit on the next edge: the
        // highest speed from which the next limit is reachable within the
        // remaining distance at MAX_ACCEL braking.
        if let Some(&next) = self.route.edges.get(next_idx) {
            let next_limit = map.edge(next).kind.speed_limit();
            if next_limit < target {
                let reachable =
                    (next_limit * next_limit + 2.0 * MAX_ACCEL * remaining).sqrt();
                target = target.min(reachable);
            }
        }
        // Car-following: keep a time headway to the leader.
        if let Some(gap) = gap_ahead {
            let safe = ((gap - MIN_GAP) / HEADWAY).max(0.0);
            target = target.min(safe);
        }
        target
    }
}

/// Advances road-locked vehicle state `(edge_idx, s, speed)` along `route`
/// by `dt` seconds toward `target_speed`, transitioning across edges.
/// Returns `true` while the route still has road left, `false` once the
/// destination is reached. This is the single integrator both
/// [`RoadVehicle::advance`] and the SoA apply pass run.
pub fn advance_on_route(
    map: &RoadNetwork,
    route: &Route,
    edge_idx: &mut usize,
    s: &mut f32,
    speed: &mut f32,
    target_speed: f32,
    dt: f32,
) -> bool {
    let accel = (target_speed - *speed).clamp(-MAX_ACCEL * dt, MAX_ACCEL * dt);
    *speed = (*speed + accel).max(0.0);
    let mut travel = *speed * dt;
    loop {
        let idx = *edge_idx;
        let cur = route.edges[idx];
        let edge_len = map.edge(cur).length;
        if *s + travel < edge_len {
            *s += travel;
            return true;
        }
        travel -= edge_len - *s;
        if *edge_idx + 1 < route.edges.len() {
            *edge_idx += 1;
            *s = 0.0;
        } else {
            *s = edge_len;
            return false;
        }
    }
}

/// A vehicle locked to the road network, progressing along a [`Route`].
#[derive(Debug, Clone)]
pub struct RoadVehicle {
    /// Current route being followed.
    pub route: Route,
    /// Index into `route.edges` of the current edge.
    pub edge_idx: usize,
    /// Arc-length progress along the current edge (m).
    pub s: f32,
    /// Current speed (m/s).
    pub speed: f32,
}

impl RoadVehicle {
    /// Places a vehicle at the start of `route`.
    ///
    /// # Panics
    /// Panics if the route is empty.
    pub fn new(route: Route) -> Self {
        assert!(!route.edges.is_empty(), "route must have at least one edge");
        Self { route, edge_idx: 0, s: 0.0, speed: 0.0 }
    }

    /// A borrowed [`VehicleRef`] over this vehicle's state.
    pub fn view(&self) -> VehicleRef<'_> {
        VehicleRef { route: &self.route, edge_idx: self.edge_idx, s: self.s, speed: self.speed }
    }

    /// Current edge id.
    pub fn edge(&self) -> EdgeId {
        self.view().edge()
    }

    /// World position.
    pub fn position(&self, map: &RoadNetwork) -> Vec2 {
        self.view().position(map)
    }

    /// Unit heading vector.
    pub fn heading(&self, map: &RoadNetwork) -> Vec2 {
        self.view().heading(map)
    }

    /// Remaining distance to the end of the current edge.
    pub fn remaining_on_edge(&self, map: &RoadNetwork) -> f32 {
        self.view().remaining_on_edge(map)
    }

    /// Whether the vehicle has consumed its whole route.
    pub fn route_finished(&self, map: &RoadNetwork) -> bool {
        self.edge_idx + 1 >= self.route.edges.len()
            && self.s >= map.edge(self.edge()).length - 0.5
    }

    /// Remaining route distance to the destination.
    pub fn distance_to_destination(&self, map: &RoadNetwork) -> f32 {
        let mut d = self.remaining_on_edge(map);
        let rest = self.edge_idx + 1;
        for &eid in &self.route.edges[rest..] {
            d += map.edge(eid).length;
        }
        d
    }

    /// The speed this vehicle should aim for given speed limits, upcoming
    /// turns, and the gap to the vehicle ahead (`None` when the road ahead is
    /// clear within sensing range).
    pub fn target_speed(&self, map: &RoadNetwork, gap_ahead: Option<f32>) -> f32 {
        self.view().target_speed(map, gap_ahead)
    }

    /// Advances the vehicle by `dt` seconds toward `target_speed`,
    /// transitioning across edges. Returns `true` while the route still has
    /// road left, `false` once the destination is reached.
    pub fn advance(&mut self, map: &RoadNetwork, target_speed: f32, dt: f32) -> bool {
        advance_on_route(
            map,
            &self.route,
            &mut self.edge_idx,
            &mut self.s,
            &mut self.speed,
            target_speed,
            dt,
        )
    }

    /// Samples the vehicle's future positions assuming it keeps to its route
    /// at its current target cruise profile — the trajectory shared in
    /// assist messages.
    pub fn predict_future(&self, map: &RoadNetwork, dt: f64, n: usize) -> Vec<Vec2> {
        let mut ghost = self.clone();
        let mut out = Vec::with_capacity(n);
        out.push(ghost.position(map));
        for _ in 1..n {
            let tgt = ghost.target_speed(map, None);
            ghost.advance(map, tgt, dt as f32);
            out.push(ghost.position(map));
        }
        out
    }
}

/// A free-moving vehicle controlled by steering/throttle — the body a
/// *learned policy* drives during closed-loop evaluation (it is not locked
/// to the lane graph precisely because an imperfect policy may leave it).
#[derive(Debug, Clone)]
pub struct FreeVehicle {
    /// World position.
    pub pos: Vec2,
    /// Heading angle in radians.
    pub heading: f32,
    /// Speed (m/s).
    pub speed: f32,
}

/// Maximum steering rate of the free vehicle (rad/s).
pub const MAX_YAW_RATE: f32 = 1.2;

impl FreeVehicle {
    /// Spawns a vehicle at `pos` facing `heading`.
    pub fn new(pos: Vec2, heading: f32) -> Self {
        Self { pos, heading, speed: 0.0 }
    }

    /// Unit heading vector.
    pub fn heading_vec(&self) -> Vec2 {
        Vec2::new(self.heading.cos(), self.heading.sin())
    }

    /// Advances with a kinematic bicycle-like update: the commanded yaw rate
    /// and target speed are clamped to physical limits.
    pub fn step(&mut self, yaw_rate: f32, target_speed: f32, dt: f32) {
        let yaw = yaw_rate.clamp(-MAX_YAW_RATE, MAX_YAW_RATE);
        self.heading += yaw * dt;
        let accel = (target_speed - self.speed).clamp(-MAX_ACCEL * dt, MAX_ACCEL * dt);
        self.speed = (self.speed + accel).max(0.0);
        self.pos = self.pos + self.heading_vec() * (self.speed * dt);
    }

    /// Transforms a world point into this vehicle's ego frame (x forward,
    /// y left).
    pub fn to_ego(&self, world: Vec2) -> Vec2 {
        (world - self.pos).rotated(-self.heading)
    }

    /// Transforms an ego-frame point back to world coordinates.
    pub fn to_world(&self, ego: Vec2) -> Vec2 {
        self.pos + ego.rotated(self.heading)
    }
}

/// A pedestrian roaming between random waypoints inside the town area.
#[derive(Debug, Clone)]
pub struct Pedestrian {
    /// World position.
    pub pos: Vec2,
    /// Current waypoint being walked toward.
    pub target: Vec2,
    /// Walking speed (m/s).
    pub speed: f32,
}

impl Pedestrian {
    /// Spawns a pedestrian at a random position within `area` (min, max
    /// corners) with a random walking speed.
    pub fn spawn_in<R: Rng + ?Sized>(area: (Vec2, Vec2), rng: &mut R) -> Self {
        let p = random_point(area, rng);
        let t = random_point(area, rng);
        Self { pos: p, target: t, speed: rng.random_range(0.8..1.8) }
    }

    /// Walks toward the target; picks a fresh target when arrived.
    pub fn step<R: Rng + ?Sized>(&mut self, area: (Vec2, Vec2), dt: f32, rng: &mut R) {
        let to_target = self.target - self.pos;
        let dist = to_target.norm();
        if dist < 1.0 {
            self.target = random_point(area, rng);
            return;
        }
        self.pos = self.pos + to_target.normalized() * (self.speed * dt);
    }
}

fn random_point<R: Rng + ?Sized>(area: (Vec2, Vec2), rng: &mut R) -> Vec2 {
    Vec2::new(
        rng.random_range(area.0.x..area.1.x),
        rng.random_range(area.0.y..area.1.y),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::RoadNetwork;
    use crate::route::Router;
    use rand::SeedableRng;

    fn setup() -> (RoadNetwork, RoadVehicle) {
        let map = RoadNetwork::generate(1);
        let router = Router::new(&map);
        let route = router.route(0, map.n_nodes() - 1).unwrap();
        (map, RoadVehicle::new(route))
    }

    #[test]
    fn vehicle_progresses_along_route() {
        let (map, mut v) = setup();
        let p0 = v.position(&map);
        for _ in 0..100 {
            let tgt = v.target_speed(&map, None);
            v.advance(&map, tgt, 0.5);
        }
        assert!(v.position(&map).distance(p0) > 50.0, "vehicle should have moved");
        assert!(v.speed > 0.0);
    }

    #[test]
    fn vehicle_reaches_destination() {
        let (map, mut v) = setup();
        let mut steps = 0;
        while v.advance(&map, v.target_speed(&map, None), 0.5) {
            steps += 1;
            assert!(steps < 10_000, "route must terminate");
        }
        assert!(v.route_finished(&map));
        assert!(v.distance_to_destination(&map) < 1.0);
    }

    #[test]
    fn car_following_caps_speed() {
        let (map, v) = setup();
        let clear = v.target_speed(&map, None);
        let blocked = v.target_speed(&map, Some(MIN_GAP));
        assert_eq!(blocked, 0.0, "at the minimum gap the car must stop");
        assert!(clear > 0.0);
        let mid = v.target_speed(&map, Some(MIN_GAP + 8.0));
        assert!(mid > 0.0 && mid < clear);
    }

    #[test]
    fn acceleration_is_limited() {
        let (map, mut v) = setup();
        v.advance(&map, 100.0, 1.0);
        assert!(v.speed <= MAX_ACCEL + 1e-6);
    }

    #[test]
    fn predicted_future_starts_at_position() {
        let (map, v) = setup();
        let f = v.predict_future(&map, 0.5, 10);
        assert_eq!(f.len(), 10);
        assert!(f[0].distance(v.position(&map)) < 1e-6);
        // Predictions should move forward monotonically in route terms.
        assert!(f.last().unwrap().distance(f[0]) > 0.0);
    }

    #[test]
    fn free_vehicle_drives_straight() {
        let mut v = FreeVehicle::new(Vec2::ZERO, 0.0);
        for _ in 0..20 {
            v.step(0.0, 10.0, 0.5);
        }
        assert!(v.pos.x > 30.0);
        assert!(v.pos.y.abs() < 1e-4);
    }

    #[test]
    fn free_vehicle_turns() {
        let mut v = FreeVehicle::new(Vec2::ZERO, 0.0);
        v.speed = 5.0;
        for _ in 0..10 {
            v.step(0.5, 5.0, 0.5);
        }
        assert!(v.heading > 0.5, "heading should have rotated left");
    }

    #[test]
    fn ego_transform_roundtrip() {
        let v = FreeVehicle::new(Vec2::new(10.0, 5.0), 1.0);
        let w = Vec2::new(-3.0, 7.0);
        let back = v.to_world(v.to_ego(w));
        assert!(back.distance(w) < 1e-4);
    }

    #[test]
    fn pedestrian_stays_usable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let area = (Vec2::new(0.0, 0.0), Vec2::new(100.0, 100.0));
        let mut p = Pedestrian::spawn_in(area, &mut rng);
        for _ in 0..1000 {
            p.step(area, 0.5, &mut rng);
            assert!(p.pos.x >= -5.0 && p.pos.x <= 105.0);
            assert!(p.speed > 0.0);
        }
    }
}
