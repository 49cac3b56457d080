//! The procedural road network: town grid + rural loop on a 1 km × 1 km map.
//!
//! The paper uses "the largest built-in map ... which covers an area of about
//! 1km×1km, including both town and rural areas". We generate an equivalent:
//! a Manhattan-style town grid occupying the south-west of the map and a
//! rural loop with long, gently curved roads around the north and east,
//! attached to the grid at several junctions.

use rand::{Rng, RngExt, SeedableRng};
use simnet::geom::{polyline_length, Vec2};

/// Index of an intersection node.
pub type NodeId = usize;
/// Index of a directed lane edge.
pub type EdgeId = usize;

/// Classification of a road, determining its speed limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoadKind {
    /// Dense urban streets (low speed).
    Town,
    /// Sparse rural roads (higher speed).
    Rural,
}

impl RoadKind {
    /// Speed limit in m/s (town ≈ 36 km/h, rural ≈ 72 km/h).
    pub fn speed_limit(self) -> f32 {
        match self {
            RoadKind::Town => 10.0,
            RoadKind::Rural => 20.0,
        }
    }
}

/// An intersection.
#[derive(Debug, Clone)]
pub struct Node {
    /// Position in meters.
    pub pos: Vec2,
}

/// A directed lane from one node to another along a polyline.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Start node.
    pub from: NodeId,
    /// End node.
    pub to: NodeId,
    /// Geometry from `from` to `to` (at least two points).
    pub polyline: Vec<Vec2>,
    /// Cached arc length of the polyline in meters.
    pub length: f32,
    /// Road classification.
    pub kind: RoadKind,
}

/// The directed road graph. Adjacency is stored in compressed-sparse-row
/// form: `out_flat[out_offsets[n]..out_offsets[n + 1]]` lists the edges
/// leaving node `n`, in ascending edge-id order (the same order the
/// previous `Vec<Vec<EdgeId>>` representation produced, so every
/// traversal — Dijkstra relaxation included — visits edges identically).
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// CSR row offsets into `out_flat`, one per node plus a final sentinel.
    out_offsets: Vec<u32>,
    /// CSR column data: edge ids grouped by source node.
    out_flat: Vec<EdgeId>,
}

/// Side length of the square map in meters (§IV-A: "about 1km×1km").
pub const MAP_EXTENT_M: f32 = 1000.0;
/// Town-grid intersections per axis.
pub const TOWN_GRID: usize = 6;
/// Spacing between town intersections in meters.
pub const TOWN_BLOCK_M: f32 = 110.0;
/// South-west corner of the town grid.
pub const TOWN_ORIGIN: Vec2 = Vec2::new(80.0, 80.0);
/// Nodes on the rural loop.
pub const RURAL_NODES: usize = 10;
/// Random jitter (m) applied to rural road midpoints for gentle curves.
pub const RURAL_JITTER_M: f32 = 40.0;

/// Builds the CSR `(offsets, flat)` adjacency from an edge list: a
/// counting pass sizes each row, a prefix sum places it, and a fill pass
/// walks edges in ascending id so each row keeps ascending edge order.
fn csr_adjacency(n_nodes: usize, edges: &[Edge]) -> (Vec<u32>, Vec<EdgeId>) {
    let mut offsets = vec![0u32; n_nodes + 1];
    for e in edges {
        let row = e.from + 1;
        offsets[row] += 1;
    }
    for i in 1..offsets.len() {
        let prev = i - 1;
        offsets[i] += offsets[prev];
    }
    let mut flat = vec![0 as EdgeId; edges.len()];
    let mut cursor: Vec<u32> = offsets[..n_nodes].to_vec();
    for (eid, e) in edges.iter().enumerate() {
        let slot = cursor[e.from] as usize;
        flat[slot] = eid;
        cursor[e.from] += 1;
    }
    (offsets, flat)
}

impl RoadNetwork {
    /// Generates the 1 km × 1 km town + rural map from a seed.
    pub fn generate(seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut nodes = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();

        // --- Town grid ---
        let g = TOWN_GRID;
        let node_id = |ix: usize, iy: usize| ix * g + iy;
        for ix in 0..g {
            for iy in 0..g {
                nodes.push(Node {
                    pos: Vec2::new(
                        TOWN_ORIGIN.x + ix as f32 * TOWN_BLOCK_M,
                        TOWN_ORIGIN.y + iy as f32 * TOWN_BLOCK_M,
                    ),
                });
            }
        }
        let add_road = |edges: &mut Vec<Edge>,
                            nodes: &[Node],
                            a: NodeId,
                            b: NodeId,
                            kind: RoadKind,
                            mid: Option<Vec2>| {
            let mut poly = vec![nodes[a].pos];
            if let Some(m) = mid {
                poly.push(m);
            }
            poly.push(nodes[b].pos);
            let length = polyline_length(&poly);
            edges.push(Edge { from: a, to: b, polyline: poly.clone(), length, kind });
            poly.reverse();
            edges.push(Edge { from: b, to: a, polyline: poly, length, kind });
        };
        for ix in 0..g {
            for iy in 0..g {
                if ix + 1 < g {
                    add_road(&mut edges, &nodes, node_id(ix, iy), node_id(ix + 1, iy), RoadKind::Town, None);
                }
                if iy + 1 < g {
                    add_road(&mut edges, &nodes, node_id(ix, iy), node_id(ix, iy + 1), RoadKind::Town, None);
                }
            }
        }

        // --- Rural loop around the north and east of the map ---
        // Anchor the loop at three town-boundary intersections and sweep the
        // remaining nodes along the map's NE periphery.
        let town_ne = node_id(g - 1, g - 1);
        let town_se = node_id(g - 1, 0);
        let town_nw = node_id(0, g - 1);
        let mut loop_ids: Vec<NodeId> = vec![town_se, town_ne];
        let margin = 90.0f32;
        for k in 0..RURAL_NODES {
            // Sweep from east edge (south) up and around to the north edge
            // (west) — a quarter-circle-ish arc in the map's NE corner.
            let t = (k as f32 + 1.0) / (RURAL_NODES as f32 + 1.0);
            let angle = -std::f32::consts::FRAC_PI_2 + t * std::f32::consts::PI;
            let center = Vec2::new(MAP_EXTENT_M * 0.45, MAP_EXTENT_M * 0.45);
            let radius = MAP_EXTENT_M * 0.5 - margin;
            let pos = Vec2::new(
                (center.x + radius * angle.cos()).clamp(margin, MAP_EXTENT_M - margin),
                (center.y + radius * angle.sin()).clamp(margin, MAP_EXTENT_M - margin),
            );
            nodes.push(Node { pos });
            loop_ids.push(nodes.len() - 1);
        }
        loop_ids.push(town_nw);
        for w in loop_ids.windows(2) {
            let (a, b) = (w[0], w[1]);
            let midpoint = nodes[a].pos.lerp(nodes[b].pos, 0.5);
            let dir = (nodes[b].pos - nodes[a].pos).normalized().perp();
            let jitter: f32 = rng.random_range(-RURAL_JITTER_M..RURAL_JITTER_M);
            add_road(&mut edges, &nodes, a, b, RoadKind::Rural, Some(midpoint + dir * jitter));
        }

        let (out_offsets, out_flat) = csr_adjacency(nodes.len(), &edges);
        Self { nodes, edges, out_offsets, out_flat }
    }

    /// Number of intersections.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Intersection `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Directed edge `id`.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id]
    }

    /// Edges leaving node `id`, in ascending edge-id order.
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        let next = id + 1;
        let lo = self.out_offsets[id] as usize;
        let hi = self.out_offsets[next] as usize;
        &self.out_flat[lo..hi]
    }

    /// All edges (for rasterization and tests).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Position at arc-length `s` along edge `eid`, clamped.
    pub fn position_on_edge(&self, eid: EdgeId, s: f32) -> Vec2 {
        simnet::geom::point_at_arclength(&self.edges[eid].polyline, s)
    }

    /// Unit tangent at arc-length `s` along edge `eid`.
    pub fn tangent_on_edge(&self, eid: EdgeId, s: f32) -> Vec2 {
        simnet::geom::tangent_at_arclength(&self.edges[eid].polyline, s)
    }

    /// The reverse counterpart of `eid` (the opposite lane of the same
    /// road), if present. Generated maps always create both directions
    /// consecutively, so this is a cheap parity lookup validated by the
    /// endpoints.
    pub fn reverse_of(&self, eid: EdgeId) -> Option<EdgeId> {
        let e = &self.edges[eid];
        let candidate = if eid % 2 == 0 { eid + 1 } else { eid - 1 };
        let c = self.edges.get(candidate)?;
        (c.from == e.to && c.to == e.from).then_some(candidate)
    }

    /// A uniformly random node id.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        rng.random_range(0..self.nodes.len())
    }

    /// Whether every node can reach every other node (the generator must
    /// produce a strongly connected graph or routing would dead-end).
    pub fn is_strongly_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let reach = |start: NodeId, reversed: bool| -> usize {
            let mut seen = vec![false; self.nodes.len()];
            let mut stack = vec![start];
            seen[start] = true;
            let mut count = 1;
            while let Some(n) = stack.pop() {
                for (eid, e) in self.edges.iter().enumerate() {
                    let _ = eid;
                    let (a, b) = if reversed { (e.to, e.from) } else { (e.from, e.to) };
                    if a == n && !seen[b] {
                        seen[b] = true;
                        count += 1;
                        stack.push(b);
                    }
                }
            }
            count
        };
        reach(0, false) == self.n_nodes() && reach(0, true) == self.n_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_map_has_town_and_rural() {
        let m = RoadNetwork::generate(1);
        assert!(m.edges().iter().any(|e| e.kind == RoadKind::Town));
        assert!(m.edges().iter().any(|e| e.kind == RoadKind::Rural));
    }

    #[test]
    fn map_fits_extent() {
        let m = RoadNetwork::generate(2);
        for e in m.edges() {
            for p in &e.polyline {
                assert!(p.x >= 0.0 && p.x <= MAP_EXTENT_M, "x out of map: {p:?}");
                assert!(p.y >= 0.0 && p.y <= MAP_EXTENT_M, "y out of map: {p:?}");
            }
        }
    }

    #[test]
    fn edges_come_in_directed_pairs() {
        let m = RoadNetwork::generate(3);
        for eid in 0..m.n_edges() {
            let rev = m.reverse_of(eid).expect("every road is bidirectional");
            assert_eq!(m.edge(rev).from, m.edge(eid).to);
            assert_eq!(m.edge(rev).to, m.edge(eid).from);
            assert_eq!(m.reverse_of(rev), Some(eid));
        }
    }

    #[test]
    fn strongly_connected() {
        for seed in 0..5 {
            assert!(RoadNetwork::generate(seed).is_strongly_connected(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RoadNetwork::generate(7);
        let b = RoadNetwork::generate(7);
        assert_eq!(a.n_nodes(), b.n_nodes());
        for eid in 0..a.n_edges() {
            assert_eq!(a.edge(eid).polyline, b.edge(eid).polyline);
        }
    }

    #[test]
    fn edge_lengths_match_polylines() {
        let m = RoadNetwork::generate(4);
        for e in m.edges() {
            assert!((e.length - polyline_length(&e.polyline)).abs() < 1e-4);
            assert!(e.length > 1.0, "degenerate edge");
        }
    }

    #[test]
    fn rural_roads_are_longer_and_faster() {
        let m = RoadNetwork::generate(5);
        let town_avg = average_len(&m, RoadKind::Town);
        let rural_avg = average_len(&m, RoadKind::Rural);
        assert!(rural_avg > town_avg, "rural {rural_avg} town {town_avg}");
        assert!(RoadKind::Rural.speed_limit() > RoadKind::Town.speed_limit());
    }

    fn average_len(m: &RoadNetwork, kind: RoadKind) -> f32 {
        let v: Vec<f32> =
            m.edges().iter().filter(|e| e.kind == kind).map(|e| e.length).collect();
        v.iter().sum::<f32>() / v.len() as f32
    }

    #[test]
    fn out_edges_indexed_correctly() {
        let m = RoadNetwork::generate(6);
        for n in 0..m.n_nodes() {
            for &eid in m.out_edges(n) {
                assert_eq!(m.edge(eid).from, n);
            }
        }
    }

    #[test]
    fn csr_rows_are_complete_and_ascending() {
        // The CSR adjacency must list every edge exactly once, under its
        // source node, in ascending edge-id order — the order the previous
        // Vec<Vec<EdgeId>> build produced, which routing depends on.
        let m = RoadNetwork::generate(6);
        let mut seen = vec![false; m.n_edges()];
        for n in 0..m.n_nodes() {
            let row = m.out_edges(n);
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {n} not ascending: {row:?}");
            }
            for &eid in row {
                assert!(!seen[eid], "edge {eid} listed twice");
                seen[eid] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every edge must appear in some row");
    }
}
