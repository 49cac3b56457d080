//! The per-query Dijkstra router, retained verbatim as the oracle
//! `simworld::route::shortest_route` is pinned to.
//!
//! One Dijkstra per `route` call, stopping when the target pops off the
//! heap. The reference world (`mod.rs` beside this file) routes with it,
//! and `shortest_route_matches_router_on_all_pairs` in `properties.rs`
//! holds the library's paths to its paths for every node pair. It reaches
//! the library only through its public API.

use simworld::map::{EdgeId, NodeId, RoadNetwork};
use simworld::route::Route;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Shortest-path router over a road network.
#[derive(Debug, Clone)]
pub struct Router<'a> {
    map: &'a RoadNetwork,
}

#[derive(PartialEq)]
struct QueueItem {
    dist: f32,
    node: NodeId,
}

impl Eq for QueueItem {}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance, the comparator `shortest_route` uses.
        other.dist.total_cmp(&self.dist)
    }
}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a> Router<'a> {
    /// Creates a router over `map`.
    pub fn new(map: &'a RoadNetwork) -> Self {
        Self { map }
    }

    /// Shortest route (by length) from `from` to `to`, or `None` when
    /// `from == to` or unreachable (never on generated maps, which are
    /// strongly connected).
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Route> {
        if from == to {
            return None;
        }
        let n = self.map.n_nodes();
        let mut dist = vec![f32::INFINITY; n];
        let mut prev_edge: Vec<Option<EdgeId>> = vec![None; n];
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
            for &eid in self.map.out_edges(node) {
                let e = self.map.edge(eid);
                let nd = d + e.length;
                if nd < dist[e.to] {
                    dist[e.to] = nd;
                    prev_edge[e.to] = Some(eid);
                    heap.push(QueueItem { dist: nd, node: e.to });
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = to;
        while cur != from {
            // A reached node always has a predecessor; bail defensively
            // instead of panicking if that invariant ever broke.
            let eid = prev_edge[cur]?;
            edges.push(eid);
            cur = self.map.edge(eid).from;
        }
        edges.reverse();
        Some(Route { edges })
    }
}
