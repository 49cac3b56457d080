//! The privileged expert autopilot.
//!
//! The paper's data collectors are CARLA's "built-in expert autopilot"
//! vehicles which "perform safe and professional driving using the built-in
//! model and privileged information". Our expert follows its planned route
//! (it is road-locked, so steering is exact), controls speed with turn
//! slowdown and car-following, brakes for pedestrians in its path using
//! privileged world access, and emits the imitation-learning supervision:
//! the high-level command and the ground-truth future waypoints.

use crate::agents::VehicleRef;
use crate::map::RoadNetwork;
use crate::route::{classify_turn, TurnKind};
use simnet::geom::Vec2;

/// High-level navigation command, the conditional input of the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Keep following the road (no intersection imminent).
    Follow,
    /// Turn left at the upcoming intersection.
    Left,
    /// Turn right at the upcoming intersection.
    Right,
    /// Go straight through the upcoming intersection.
    Straight,
}

impl Command {
    /// Number of distinct commands (the policy's branch count).
    pub const COUNT: usize = 4;

    /// Dense index for branch selection and per-command bookkeeping.
    pub fn index(self) -> usize {
        match self {
            Command::Follow => 0,
            Command::Left => 1,
            Command::Right => 2,
            Command::Straight => 3,
        }
    }

    /// Inverse of [`Command::index`].
    ///
    /// # Panics
    /// Panics if `i >= Command::COUNT`.
    #[expect(clippy::panic, reason = "the panic is this method's documented contract.")]
    pub fn from_index(i: usize) -> Self {
        match i {
            0 => Command::Follow,
            1 => Command::Left,
            2 => Command::Right,
            3 => Command::Straight,
            _ => panic!("command index out of range: {i}"),
        }
    }
}

/// Distance to the next intersection below which the turn command is
/// announced (above it the command is `Follow`).
pub const COMMAND_HORIZON: f32 = 30.0;

/// Navigation horizon for the turn-distance feature, meters.
pub const TURN_LOOKAHEAD: f32 = 100.0;

/// Route distance (m) to the next Left/Right turn and its sign, walking the
/// vehicle's remaining route, capped at [`TURN_LOOKAHEAD`].
pub fn next_turn_info(map: &RoadNetwork, vehicle: VehicleRef<'_>) -> (f32, f32) {
    let VehicleRef { route, edge_idx, s, .. } = vehicle;
    let route_edges = &route.edges;
    let mut dist = 0.0f32;
    for (k, &eid) in route_edges[edge_idx..].iter().enumerate() {
        let edge_len = map.edge(eid).length;
        let start = if k == 0 { s } else { 0.0 };
        dist += edge_len - start;
        if dist >= TURN_LOOKAHEAD {
            return (TURN_LOOKAHEAD, 0.0);
        }
        match route_edges.get(edge_idx + k + 1) {
            None => return (TURN_LOOKAHEAD, 0.0),
            Some(&next) => match classify_turn(map, eid, next) {
                TurnKind::Left => return (dist, 1.0),
                TurnKind::Right => return (dist, -1.0),
                TurnKind::Straight => {}
            },
        }
    }
    (TURN_LOOKAHEAD, 0.0)
}

/// Computes the high-level command for a route-following vehicle: the turn
/// direction of the next intersection when within [`COMMAND_HORIZON`],
/// otherwise `Follow`.
pub fn command_for(map: &RoadNetwork, vehicle: VehicleRef<'_>) -> Command {
    if vehicle.remaining_on_edge(map) > COMMAND_HORIZON {
        return Command::Follow;
    }
    match vehicle.route.edges.get(vehicle.edge_idx + 1) {
        None => Command::Follow, // destination ahead, keep lane
        Some(&next) => match classify_turn(map, vehicle.edge(), next) {
            TurnKind::Left => Command::Left,
            TurnKind::Right => Command::Right,
            TurnKind::Straight => Command::Straight,
        },
    }
}

/// Time-spaced supervision waypoints: waypoint `k` sits at arc-length
/// `k · step_dt · v_target` along the remaining route, in the ego frame.
///
/// Time spacing (as in *Learning by Cheating*) encodes the expert's speed
/// decision in the geometry: when the expert brakes (hazard ahead,
/// `v_target ≈ 0`) the waypoints bunch at the bumper, teaching the policy to
/// stop; at cruise they spread out along the route.
pub fn waypoints_timed(
    map: &RoadNetwork,
    vehicle: VehicleRef<'_>,
    n: usize,
    step_dt: f32,
    v_target: f32,
) -> Vec<f32> {
    let pose = vehicle.pose(map);
    let spacing = (v_target.max(0.0)) * step_dt;
    let mut out = Vec::with_capacity(2 * n);
    if spacing < 1e-3 {
        // Full stop: every waypoint at the current position.
        for _ in 0..n {
            out.push(0.0);
            out.push(0.0);
        }
        return out;
    }
    let mut targets: Vec<f32> = (1..=n).map(|k| k as f32 * spacing).collect();
    targets.reverse();
    let mut walked = 0.0f32;
    let mut last_point = pose.pos;
    'outer: for (i, &eid) in vehicle.route.edges[vehicle.edge_idx..].iter().enumerate() {
        let edge = map.edge(eid);
        let start_s = if i == 0 { vehicle.s } else { 0.0 };
        let seg_len = edge.length - start_s;
        while let Some(&t) = targets.last() {
            if t <= walked + seg_len {
                let p = map.position_on_edge(eid, start_s + (t - walked));
                let ego = pose.to_ego(p);
                out.push(ego.x);
                out.push(ego.y);
                last_point = p;
                targets.pop();
            } else {
                break;
            }
        }
        if targets.is_empty() {
            break 'outer;
        }
        walked += seg_len;
    }
    while out.len() < 2 * n {
        let ego = pose.to_ego(last_point);
        out.push(ego.x);
        out.push(ego.y);
    }
    out
}

/// Distance to the nearest car in the forward cone (the privileged
/// car-following sensor), or `None` when clear within `lookahead`.
pub fn forward_gap(
    map: &RoadNetwork,
    vehicle: VehicleRef<'_>,
    cars: &[Vec2],
    lookahead: f32,
    half_width: f32,
) -> Option<f32> {
    let pose = vehicle.pose(map);
    cars.iter()
        .filter_map(|&c| {
            let ego = pose.to_ego(c);
            (ego.x > 0.5 && ego.x < lookahead && ego.y.abs() < half_width).then_some(ego.x)
        })
        .fold(None, |acc: Option<f32>, d| Some(acc.map_or(d, |a| a.min(d))))
}

/// Privileged hazard check: returns `true` when any obstacle position lies
/// within a forward cone of the vehicle (distance < `lookahead`, lateral
/// offset < `half_width`), meaning the expert should brake.
pub fn hazard_ahead(
    map: &RoadNetwork,
    vehicle: VehicleRef<'_>,
    obstacles: &[Vec2],
    lookahead: f32,
    half_width: f32,
) -> bool {
    let pose = vehicle.pose(map);
    obstacles.iter().any(|&o| {
        let ego = pose.to_ego(o);
        ego.x > 0.5 && ego.x < lookahead && ego.y.abs() < half_width
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::advance_on_route;
    use crate::map::RoadNetwork;
    use crate::route::{shortest_route, Route};

    fn route_on(map: &RoadNetwork, from: usize, to: usize) -> Route {
        shortest_route(map, from, to).unwrap()
    }

    /// Standing at the start of `route`.
    fn start_of(route: &Route) -> VehicleRef<'_> {
        VehicleRef { route, edge_idx: 0, s: 0.0, speed: 0.0 }
    }

    /// Waypoint spacing `v_target · dt` of 3 m.
    const DT: f32 = 0.5;
    const V_3M: f32 = 6.0;

    #[test]
    fn command_is_follow_far_from_intersection() {
        let map = RoadNetwork::generate(1);
        let route = route_on(&map, 0, map.n_nodes() - 1);
        // Fresh on a ~110 m town edge: intersection > 30 m away.
        assert_eq!(command_for(&map, start_of(&route)), Command::Follow);
    }

    #[test]
    fn command_announces_turns_near_intersections() {
        let map = RoadNetwork::generate(1);
        let route = route_on(&map, 0, map.n_nodes() - 1);
        let (mut edge_idx, mut s, mut speed) = (0, 0.0, 0.0);
        let mut saw_non_follow = false;
        let mut guard = 0;
        while advance_on_route(&map, &route, &mut edge_idx, &mut s, &mut speed, 8.0, 0.5) {
            let v = VehicleRef { route: &route, edge_idx, s, speed };
            if command_for(&map, v) != Command::Follow {
                saw_non_follow = true;
                assert!(v.remaining_on_edge(&map) <= COMMAND_HORIZON);
            }
            guard += 1;
            assert!(guard < 10_000);
        }
        assert!(saw_non_follow, "a grid route must announce at least one command");
    }

    #[test]
    fn waypoints_have_requested_count_and_progress_forward() {
        let map = RoadNetwork::generate(2);
        let route = route_on(&map, 0, map.n_nodes() - 1);
        let wps = waypoints_timed(&map, start_of(&route), 5, DT, V_3M);
        assert_eq!(wps.len(), 10);
        // On a straight stretch waypoints advance along +x in ego frame.
        let xs: Vec<f32> = wps.chunks(2).map(|c| c[0]).collect();
        for w in xs.windows(2) {
            assert!(w[1] >= w[0] - 1e-3, "x must be non-decreasing: {xs:?}");
        }
        assert!((xs[0] - DT * V_3M).abs() < 1.0);
    }

    #[test]
    fn waypoints_pad_at_destination() {
        let map = RoadNetwork::generate(3);
        let route = route_on(&map, 0, 1);
        let last = route.edges.len() - 1;
        let end_s = map.edge(route.edges[last]).length;
        let at_end = VehicleRef { route: &route, edge_idx: last, s: end_s, speed: 0.0 };
        let wps = waypoints_timed(&map, at_end, 4, DT, V_3M);
        assert_eq!(wps.len(), 8);
        // All padded to (near) the destination = current position.
        for c in wps.chunks(2) {
            assert!(c[0].abs() < 2.0 && c[1].abs() < 2.0);
        }
    }

    #[test]
    fn hazard_detected_in_cone_only() {
        let map = RoadNetwork::generate(4);
        let route = route_on(&map, 0, map.n_nodes() - 1);
        let v = start_of(&route);
        let pos = v.position(&map);
        let heading = v.heading(&map);
        let ahead = pos + heading * 8.0;
        let behind = pos - heading * 8.0;
        let beside = pos + heading.perp() * 8.0;
        assert!(hazard_ahead(&map, v, &[ahead], 12.0, 3.0));
        assert!(!hazard_ahead(&map, v, &[behind], 12.0, 3.0));
        assert!(!hazard_ahead(&map, v, &[beside], 12.0, 3.0));
    }

    #[test]
    fn command_index_roundtrip() {
        for i in 0..Command::COUNT {
            assert_eq!(Command::from_index(i).index(), i);
        }
    }
}
