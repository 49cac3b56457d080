//! The per-agent road vehicle the reference world is built from, moved
//! here from `simworld::agents` with that world: the library's own
//! vehicles live in the structure-of-arrays columns and reach the driving
//! model through [`VehicleRef`], which this struct projects into.

use simnet::geom::Vec2;
use simworld::agents::{advance_on_route, VehicleRef};
use simworld::map::{EdgeId, RoadNetwork};
use simworld::route::Route;

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

#[cfg(test)]
mod tests {
    use super::*;
    use simworld::route::shortest_route;

    #[test]
    fn predicted_future_starts_at_position() {
        let map = RoadNetwork::generate(1);
        let route = shortest_route(&map, 0, map.n_nodes() - 1).unwrap();
        let v = RoadVehicle::new(route);
        let f = v.predict_future(&map, 0.5, 10);
        assert_eq!(f.len(), 10);
        assert!(f[0].distance(v.position(&map)) < 1e-6);
        // Predictions should move forward monotonically in route terms.
        assert!(f.last().unwrap().distance(f[0]) > 0.0);
    }
}
