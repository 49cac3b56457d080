//! Routing and high-level command classification.
//!
//! Vehicles follow routes computed by Dijkstra over the road graph — the
//! stand-in for the navigation service the paper assumes ("future routes in
//! next few minutes, which can be obtained from navigation services").
//!
//! Routes are computed per query by [`shortest_route`]. The paper's world
//! asks for a few hundred routes per scenario (a spawn per vehicle, then a
//! reroute per arrival, plus the evaluator's draws) on a map of a few
//! dozen nodes, so no query outgrows one early-exit Dijkstra.

use crate::map::{EdgeId, NodeId, RoadNetwork};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A planned route: a sequence of connected directed edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Edge ids from origin to destination, each starting where the previous
    /// ended.
    pub edges: Vec<EdgeId>,
}

impl Route {
    /// Total length in meters.
    pub fn length(&self, map: &RoadNetwork) -> f32 {
        self.edges.iter().map(|&e| map.edge(e).length).sum()
    }

    /// Destination node.
    ///
    /// # Panics
    /// Panics on an empty route.
    #[expect(clippy::expect_used, reason = "the panic is this method's documented contract.")]
    pub fn destination(&self, map: &RoadNetwork) -> NodeId {
        map.edge(*self.edges.last().expect("route must have edges")).to
    }

    /// Number of intersections where the route turns (heading change of at
    /// least ~30°) — used to pick "one turn" / "navigation" evaluation
    /// routes.
    pub fn turn_count(&self, map: &RoadNetwork) -> usize {
        self.edges
            .windows(2)
            .filter(|w| {
                matches!(
                    classify_turn(map, w[0], w[1]),
                    TurnKind::Left | TurnKind::Right
                )
            })
            .count()
    }
}

/// How the route bends from one edge into the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TurnKind {
    /// Heading continues (|Δheading| < 30°).
    Straight,
    /// Left turn (Δheading ≥ 30° counter-clockwise).
    Left,
    /// Right turn (Δheading ≥ 30° clockwise).
    Right,
}

/// Classifies the turn between two consecutive route edges.
pub fn classify_turn(map: &RoadNetwork, from: EdgeId, to: EdgeId) -> TurnKind {
    let e_in = map.edge(from);
    let e_out = map.edge(to);
    let last = e_in.polyline.len() - 1;
    let penult = last - 1;
    let dir_in = (e_in.polyline[last] - e_in.polyline[penult]).normalized();
    let dir_out = (e_out.polyline[1] - e_out.polyline[0]).normalized();
    let cross = dir_in.cross(dir_out);
    let dot = dir_in.dot(dir_out);
    let angle = cross.atan2(dot); // signed heading change
    let thirty = 30.0f32.to_radians();
    if angle > thirty {
        TurnKind::Left
    } else if angle < -thirty {
        TurnKind::Right
    } else {
        TurnKind::Straight
    }
}

#[derive(PartialEq)]
struct QueueItem {
    dist: f32,
    node: NodeId,
}

impl Eq for QueueItem {}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance: the reference router's comparator, so
        // equal-length paths break ties the same way.
        other.dist.total_cmp(&self.dist)
    }
}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest route (by length) from `from` to `to` over `map`, or `None`
/// when `from == to` or `to` is unreachable (never on generated maps,
/// which are strongly connected).
///
/// One Dijkstra per query, stopping when the target pops off the heap —
/// the comparator, relaxation order and early exit of the reference
/// router (`tests/reference/router.rs`), so every path (and with it every
/// tie between equal-length paths) is that router's, which
/// `shortest_route_matches_router_on_all_pairs` pins for every pair.
pub fn shortest_route(map: &RoadNetwork, from: NodeId, to: NodeId) -> Option<Route> {
    if from == to {
        return None;
    }
    let n = map.n_nodes();
    let mut dist = vec![f32::INFINITY; n];
    let mut prev: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[from] = 0.0;
    heap.push(QueueItem { dist: 0.0, node: from });
    while let Some(QueueItem { dist: d, node }) = heap.pop() {
        if d > dist[node] {
            continue;
        }
        if node == to {
            break;
        }
        for &eid in map.out_edges(node) {
            let e = map.edge(eid);
            let nd = d + e.length;
            if nd < dist[e.to] {
                dist[e.to] = nd;
                prev[e.to] = Some(eid);
                heap.push(QueueItem { dist: nd, node: e.to });
            }
        }
    }
    let mut edges = Vec::new();
    let mut cur = to;
    while cur != from {
        // An unreached `to` has no predecessor: no route.
        let eid = prev[cur]?;
        edges.push(eid);
        cur = map.edge(eid).from;
    }
    edges.reverse();
    Some(Route { edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::RoadNetwork;

    #[test]
    fn routes_connect_endpoints() {
        let m = RoadNetwork::generate(1);
        let route = shortest_route(&m, 0, m.n_nodes() - 1).expect("strongly connected");
        assert_eq!(m.edge(route.edges[0]).from, 0);
        assert_eq!(route.destination(&m), m.n_nodes() - 1);
        // consecutive edges chain
        for w in route.edges.windows(2) {
            assert_eq!(m.edge(w[0]).to, m.edge(w[1]).from);
        }
    }

    #[test]
    fn same_node_has_no_route() {
        let m = RoadNetwork::generate(1);
        assert!(shortest_route(&m, 3, 3).is_none());
    }

    #[test]
    fn routes_are_shortest() {
        let m = RoadNetwork::generate(2);
        // Triangle inequality spot check: route(a,c) <= route(a,b)+route(b,c)
        let (a, b, c) = (0, m.n_nodes() / 2, m.n_nodes() - 1);
        let ac = shortest_route(&m, a, c).unwrap().length(&m);
        let ab = shortest_route(&m, a, b).unwrap().length(&m);
        let bc = shortest_route(&m, b, c).unwrap().length(&m);
        assert!(ac <= ab + bc + 1e-3);
    }

    #[test]
    fn turn_classification_on_grid() {
        let m = RoadNetwork::generate(3);
        // Gather some routes and check every classified turn is sane.
        let route = shortest_route(&m, 0, m.n_nodes() - 1).unwrap();
        for w in route.edges.windows(2) {
            let _ = classify_turn(&m, w[0], w[1]); // must not panic
        }
    }

    #[test]
    fn turn_count_zero_for_straight_grid_route() {
        let m = RoadNetwork::generate(4);
        // Nodes 0 and 1 in the town grid are adjacent along one axis: a
        // single-edge route has no turns.
        let route = shortest_route(&m, 0, 1).unwrap();
        assert_eq!(route.turn_count(&m), 0);
    }
}
