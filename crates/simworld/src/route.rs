//! Routing and high-level command classification.
//!
//! Vehicles follow routes computed by Dijkstra over the road graph — the
//! stand-in for the navigation service the paper assumes ("future routes in
//! next few minutes, which can be obtained from navigation services").
//!
//! Routes come from the precomputed [`RoutingTable`]: one all-sources
//! Dijkstra sweep at construction, after which every query is an
//! allocation-free predecessor walk. It reproduces the per-query Dijkstra
//! of the reference world (`tests/reference/router.rs`) *exactly* — same
//! comparator, same relaxation order, no early exit (see
//! [`RoutingTable::new`]) — which `routing_table_matches_router_on_all_pairs`
//! pins for every pair.

use crate::map::{EdgeId, NodeId, RoadNetwork};
use simnet::geom::Vec2;
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

    /// Concatenated polyline of the whole route.
    pub fn polyline(&self, map: &RoadNetwork) -> Vec<Vec2> {
        let mut out: Vec<Vec2> = Vec::new();
        for &eid in &self.edges {
            for p in &map.edge(eid).polyline {
                if out.last().map_or(true, |l| l.distance(*p) > 1e-6) {
                    out.push(*p);
                }
            }
        }
        out
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
        // Min-heap on distance. `total_cmp` agrees with the former
        // `partial_cmp(..).unwrap_or(Equal)` on every value that can occur
        // here (finite, non-negative, never -0.0 except the shared source
        // zero), so heap order — and thus tie-breaking between
        // equal-length paths — is unchanged.
        other.dist.total_cmp(&self.dist)
    }
}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// All-pairs shortest-path table: one full Dijkstra per source node at
/// construction, stored as a flattened predecessor-edge matrix. Queries
/// walk predecessors backward — no heap, no per-query allocation
/// ([`RoutingTable::route_into`] refills a caller-owned buffer).
///
/// Paths are identical to a per-query Dijkstra's that stops when the
/// target pops off the heap: each source sweep runs the same relaxation
/// loop with the same heap comparator and edge order, only without the
/// early exit. Early exit cannot change reconstruction —
/// when the target pops off the heap every node on its predecessor chain
/// (strictly smaller distance, positive edge lengths) is already
/// finalized, and finalized predecessor entries never change again.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    n_nodes: usize,
    /// `prev[src * n_nodes + node]`: the edge entering `node` on the
    /// shortest path from `src`, `None` for `node == src` or unreachable.
    prev: Vec<Option<EdgeId>>,
    /// `edge_from[e]`: source node of edge `e` (copied out of the map so
    /// queries need no map borrow).
    edge_from: Vec<NodeId>,
    /// Edge count of the longest shortest path over all pairs — the
    /// capacity bound that makes per-vehicle route buffers allocation-free
    /// for the lifetime of the world.
    max_route_edges: usize,
}

impl RoutingTable {
    /// Precomputes shortest paths from every source node of `map`.
    pub fn new(map: &RoadNetwork) -> Self {
        let n = map.n_nodes();
        let mut prev: Vec<Option<EdgeId>> = vec![None; n * n];
        let mut dist = vec![f32::INFINITY; n];
        let mut heap: BinaryHeap<QueueItem> = BinaryHeap::new();
        for src in 0..n {
            dist.fill(f32::INFINITY);
            heap.clear();
            let row_base = src * n;
            let row_end = row_base + n;
            let row = &mut prev[row_base..row_end];
            dist[src] = 0.0;
            heap.push(QueueItem { dist: 0.0, node: src });
            while let Some(QueueItem { dist: d, node }) = heap.pop() {
                if d > dist[node] {
                    continue;
                }
                for &eid in map.out_edges(node) {
                    let e = map.edge(eid);
                    let nd = d + e.length;
                    if nd < dist[e.to] {
                        dist[e.to] = nd;
                        row[e.to] = Some(eid);
                        heap.push(QueueItem { dist: nd, node: e.to });
                    }
                }
            }
        }
        let edge_from: Vec<NodeId> = map.edges().iter().map(|e| e.from).collect();
        let mut max_route_edges = 0;
        for src in 0..n {
            for dst in 0..n {
                let mut len = 0usize;
                let mut cur = dst;
                let row_base = src * n;
                while cur != src {
                    let cell = row_base + cur;
                    let Some(eid) = prev[cell] else { break };
                    len += 1;
                    cur = edge_from[eid];
                }
                if cur == src {
                    max_route_edges = max_route_edges.max(len);
                }
            }
        }
        Self { n_nodes: n, prev, edge_from, max_route_edges }
    }

    /// Edge count of the longest shortest path between any node pair.
    pub fn max_route_edges(&self) -> usize {
        self.max_route_edges
    }

    /// Refills `edges` with the shortest route from `from` to `to`.
    /// Returns `None` when no route exists (`from == to`, or unreachable —
    /// never on generated maps), leaving `edges` empty; otherwise
    /// `Some(grew)` where `grew` reports whether the buffer had to
    /// reallocate (a warm buffer sized to [`RoutingTable::max_route_edges`]
    /// never does — the zero-allocation regression test counts exactly
    /// this signal).
    pub fn route_into(
        &self,
        from: NodeId,
        to: NodeId,
        edges: &mut Vec<EdgeId>,
    ) -> Option<bool> {
        edges.clear();
        if from == to {
            return None;
        }
        let cap_before = edges.capacity();
        let row_base = from * self.n_nodes;
        let mut cur = to;
        while cur != from {
            let cell = row_base + cur;
            let Some(eid) = self.prev[cell] else {
                edges.clear();
                return None;
            };
            edges.push(eid);
            cur = self.edge_from[eid];
        }
        edges.reverse();
        Some(edges.capacity() > cap_before)
    }

    /// Shortest route from `from` to `to` as an owned [`Route`] — the
    /// convenience the evaluator and tests use.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Route> {
        let mut edges = Vec::new();
        self.route_into(from, to, &mut edges)?;
        Some(Route { edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::RoadNetwork;

    #[test]
    fn routes_connect_endpoints() {
        let m = RoadNetwork::generate(1);
        let r = RoutingTable::new(&m);
        let route = r.route(0, m.n_nodes() - 1).expect("strongly connected");
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
        assert!(RoutingTable::new(&m).route(3, 3).is_none());
    }

    #[test]
    fn routes_are_shortest() {
        let m = RoadNetwork::generate(2);
        let r = RoutingTable::new(&m);
        // Triangle inequality spot check: route(a,c) <= route(a,b)+route(b,c)
        let (a, b, c) = (0, m.n_nodes() / 2, m.n_nodes() - 1);
        let ac = r.route(a, c).unwrap().length(&m);
        let ab = r.route(a, b).unwrap().length(&m);
        let bc = r.route(b, c).unwrap().length(&m);
        assert!(ac <= ab + bc + 1e-3);
    }

    #[test]
    fn turn_classification_on_grid() {
        let m = RoadNetwork::generate(3);
        let r = RoutingTable::new(&m);
        // Gather some routes and check every classified turn is sane.
        let route = r.route(0, m.n_nodes() - 1).unwrap();
        for w in route.edges.windows(2) {
            let _ = classify_turn(&m, w[0], w[1]); // must not panic
        }
    }

    #[test]
    fn turn_count_zero_for_straight_grid_route() {
        let m = RoadNetwork::generate(4);
        let r = RoutingTable::new(&m);
        // Nodes 0 and 1 in the town grid are adjacent along one axis: a
        // single-edge route has no turns.
        let route = r.route(0, 1).unwrap();
        assert_eq!(route.turn_count(&m), 0);
    }

    #[test]
    fn warm_route_buffer_never_reallocates() {
        let m = RoadNetwork::generate(6);
        let table = RoutingTable::new(&m);
        let mut buf = Vec::with_capacity(table.max_route_edges());
        let n = m.n_nodes();
        for a in 0..n {
            for b in 0..n {
                if let Some(grew) = table.route_into(a, b, &mut buf) {
                    assert!(!grew, "pair ({a},{b}) grew a warm buffer");
                }
            }
        }
    }

    #[test]
    fn polyline_is_continuous() {
        let m = RoadNetwork::generate(5);
        let r = RoutingTable::new(&m);
        let route = r.route(0, m.n_nodes() - 1).unwrap();
        let poly = route.polyline(&m);
        for w in poly.windows(2) {
            assert!(w[0].distance(w[1]) < 400.0, "polyline jump detected");
        }
    }
}
