//! Traffic agents: road-locked vehicles, free-moving vehicles, pedestrians.

use crate::bev::Pose;
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
/// scalar columns `(edge_idx, s, speed)`. The structure-of-arrays world,
/// the closed-loop evaluator's route tracker and the per-agent reference
/// world of the integration tests all project into this view, so the
/// driving model (target speed, expert supervision, hazard cone, what a
/// route follower observes) is one shared code path — which is what makes
/// the SoA world's bit-identity to that reference provable rather than
/// aspirational.
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

    /// The road pose at this progress: the lane point and its tangent's
    /// angle — the frame the expert's labels and hazard cones are in.
    pub fn pose(&self, map: &RoadNetwork) -> Pose {
        Pose { pos: self.position(map), heading: self.heading(map).angle() }
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
/// destination is reached. This is the single integrator the SoA apply
/// pass and the reference world's vehicles run.
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

/// A free-moving vehicle controlled by steering/throttle — the body a
/// *learned policy* drives during closed-loop evaluation (it is not locked
/// to the lane graph precisely because an imperfect policy may leave it).
#[derive(Debug, Clone)]
pub struct FreeVehicle {
    /// World position and heading.
    pub pose: Pose,
    /// Speed (m/s).
    pub speed: f32,
}

/// Maximum steering rate of the free vehicle (rad/s).
pub const MAX_YAW_RATE: f32 = 1.2;

impl FreeVehicle {
    /// Spawns a vehicle standing at `pose`.
    pub fn new(pose: Pose) -> Self {
        Self { pose, speed: 0.0 }
    }

    /// Advances with a kinematic bicycle-like update: the commanded yaw rate
    /// and target speed are clamped to physical limits.
    pub fn step(&mut self, yaw_rate: f32, target_speed: f32, dt: f32) {
        let yaw = yaw_rate.clamp(-MAX_YAW_RATE, MAX_YAW_RATE);
        let pose = &mut self.pose;
        pose.heading += yaw * dt;
        let accel = (target_speed - self.speed).clamp(-MAX_ACCEL * dt, MAX_ACCEL * dt);
        self.speed = (self.speed + accel).max(0.0);
        let forward = Vec2::new(pose.heading.cos(), pose.heading.sin());
        pose.pos = pose.pos + forward * (self.speed * dt);
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
    use crate::route::shortest_route;
    use rand::SeedableRng;

    fn setup() -> (RoadNetwork, Route) {
        let map = RoadNetwork::generate(1);
        let route = shortest_route(&map, 0, map.n_nodes() - 1).unwrap();
        (map, route)
    }

    /// Road-vehicle state `(edge_idx, s, speed)` along a route.
    #[derive(Clone, Copy)]
    struct Progress(usize, f32, f32);

    impl Progress {
        fn view(self, route: &Route) -> VehicleRef<'_> {
            VehicleRef { route, edge_idx: self.0, s: self.1, speed: self.2 }
        }

        fn advance(&mut self, map: &RoadNetwork, route: &Route, target: f32, dt: f32) -> bool {
            advance_on_route(map, route, &mut self.0, &mut self.1, &mut self.2, target, dt)
        }
    }

    const START: Progress = Progress(0, 0.0, 0.0);

    #[test]
    fn vehicle_progresses_along_route() {
        let (map, route) = setup();
        let mut v = START;
        let p0 = v.view(&route).position(&map);
        for _ in 0..100 {
            let tgt = v.view(&route).target_speed(&map, None);
            v.advance(&map, &route, tgt, 0.5);
        }
        assert!(v.view(&route).position(&map).distance(p0) > 50.0, "vehicle should have moved");
        assert!(v.2 > 0.0);
    }

    #[test]
    fn vehicle_reaches_destination() {
        let (map, route) = setup();
        let mut v = START;
        let mut steps = 0;
        while v.advance(&map, &route, v.view(&route).target_speed(&map, None), 0.5) {
            steps += 1;
            assert!(steps < 10_000, "route must terminate");
        }
        let last = route.edges.len() - 1;
        assert_eq!(v.0, last);
        assert_eq!(v.1, map.edge(route.edges[last]).length, "parked at the destination");
    }

    #[test]
    fn car_following_caps_speed() {
        let (map, route) = setup();
        let v = START.view(&route);
        let clear = v.target_speed(&map, None);
        let blocked = v.target_speed(&map, Some(MIN_GAP));
        assert_eq!(blocked, 0.0, "at the minimum gap the car must stop");
        assert!(clear > 0.0);
        let mid = v.target_speed(&map, Some(MIN_GAP + 8.0));
        assert!(mid > 0.0 && mid < clear);
    }

    #[test]
    fn acceleration_is_limited() {
        let (map, route) = setup();
        let mut v = START;
        v.advance(&map, &route, 100.0, 1.0);
        assert!(v.2 <= MAX_ACCEL + 1e-6);
    }

    const ORIGIN: Pose = Pose { pos: Vec2::ZERO, heading: 0.0 };

    #[test]
    fn free_vehicle_drives_straight() {
        let mut v = FreeVehicle::new(ORIGIN);
        for _ in 0..20 {
            v.step(0.0, 10.0, 0.5);
        }
        assert!(v.pose.pos.x > 30.0);
        assert!(v.pose.pos.y.abs() < 1e-4);
    }

    #[test]
    fn free_vehicle_turns() {
        let mut v = FreeVehicle::new(ORIGIN);
        v.speed = 5.0;
        for _ in 0..10 {
            v.step(0.5, 5.0, 0.5);
        }
        assert!(v.pose.heading > 0.5, "heading should have rotated left");
    }

    /// A route point ahead of the road pose sits on its +x axis, and the
    /// world → ego → world round trip returns where it started.
    #[test]
    fn ego_transform_roundtrip() {
        let (map, route) = setup();
        let pose = START.view(&route).pose(&map);
        let ahead = START.view(&route).position(&map) + START.view(&route).heading(&map) * 8.0;
        let ego = pose.to_ego(ahead);
        assert!((ego.x - 8.0).abs() < 1e-3 && ego.y.abs() < 1e-3, "{ego:?}");
        assert!(pose.to_world(ego).distance(ahead) < 1e-3);
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
