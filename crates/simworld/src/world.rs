//! The simulated world: map + traffic + stepping + trace recording.
//!
//! # Structure-of-arrays layout
//!
//! Agents live in parallel columns keyed by [`AgentId`], laid out as
//! `[experts][background][pedestrians]`. Road vehicles carry
//! `(route, edge_idx, s, speed)` in four columns plus a cached world
//! position; pedestrians keep their tiny waypoint state in a side table
//! and mirror their position into the shared `pos` column so the vehicle
//! hazard scan reads one contiguous slice.
//!
//! # Two-phase tick
//!
//! [`World::step`] splits each frame into an **intent** phase and an
//! **apply** phase:
//!
//! 1. *Intent* — for every vehicle, compute its final target speed
//!    (speed limits, turn slowdown, car-following against a pre-built gap
//!    index, pedestrian braking) from pre-step state only. Its result is
//!    the same for any evaluation order, and the signature says so:
//!    `intent_for` takes `&self`, so it cannot write the world, and every
//!    draw needs the `&mut StdRng` only the apply pass holds, so it cannot
//!    draw.
//! 2. *Apply* — serial, in ascending [`AgentId`] order: integrate every
//!    vehicle, then step every pedestrian. All RNG draws (reroutes,
//!    pedestrian waypoints) happen here, in id order — exactly the draw
//!    order of the retained per-agent oracle in `tests/reference`, which is
//!    what makes the two worlds bit-identical.

use crate::agents::{advance_on_route, radii, AgentId, Pedestrian, VehicleRef};
use crate::bev::{rasterize_skipping, Bev, BevConfig, Pose};
use crate::expert::{command_for, forward_gap, waypoints_timed, Command};
use crate::map::{EdgeId, RoadNetwork, MAP_EXTENT_M, TOWN_BLOCK_M, TOWN_GRID, TOWN_ORIGIN};
use crate::route::{shortest_route, Route};
use rand::{Rng, RngExt, SeedableRng};
use simnet::geom::Vec2;
use simnet::trace::MobilityTrace;

/// Precomputed drivable-area raster of the whole map, shared by every BEV
/// rasterization (sampling this grid is far cheaper than re-walking all road
/// polylines per frame).
#[derive(Debug, Clone)]
pub struct RoadRaster {
    extent: f32,
    cell: f32,
    /// `1 / cell` when multiplying by it is bit-identical to dividing by
    /// `cell` (i.e. `cell` is a power of two, the map default): both are
    /// correctly-rounded results of the same exact real value, so
    /// [`RoadRaster::is_road`] can use the multiply on its hot path without
    /// any lookup changing.
    inv_cell: Option<f32>,
    side: usize,
    bits: Vec<bool>,
}

/// Whether `x` is a (positive, normal) power of two, i.e. its reciprocal is
/// exactly representable and scaling by it is exact.
pub(crate) fn exact_reciprocal(x: f32) -> Option<f32> {
    let mantissa = x.to_bits() & 0x007f_ffff;
    let inv = x.recip();
    (x.is_normal() && x > 0.0 && mantissa == 0 && inv.is_normal()).then_some(inv)
}

impl RoadRaster {
    /// An all-empty raster (for tests).
    pub fn empty(extent: f32, cell: f32) -> Self {
        let side = (extent / cell).ceil() as usize;
        Self { extent, cell, inv_cell: exact_reciprocal(cell), side, bits: vec![false; side * side] }
    }

    /// Rasterizes a set of road polylines with the given half-width.
    pub fn from_polylines(extent: f32, cell: f32, polylines: &[Vec<Vec2>], half_width: f32) -> Self {
        let mut r = Self::empty(extent, cell);
        let step = cell * 0.5;
        for poly in polylines {
            for seg in poly.windows(2) {
                let len = seg[0].distance(seg[1]);
                let n = (len / step).ceil() as usize + 1;
                for k in 0..=n {
                    let p = seg[0].lerp(seg[1], k as f32 / n as f32);
                    r.mark_disc(p, half_width);
                }
            }
        }
        r
    }

    /// Builds the raster for a road network (half-width 4 m per lane pair).
    pub fn from_map(map: &RoadNetwork) -> Self {
        let polys: Vec<Vec<Vec2>> =
            map.edges().iter().map(|e| e.polyline.clone()).collect();
        Self::from_polylines(MAP_EXTENT_M, 2.0, &polys, 4.0)
    }

    fn mark_disc(&mut self, center: Vec2, radius: f32) {
        let r_cells = (radius / self.cell).ceil() as i32;
        let cx = (center.x / self.cell) as i32;
        let cy = (center.y / self.cell) as i32;
        for dy in -r_cells..=r_cells {
            for dx in -r_cells..=r_cells {
                let (x, y) = (cx + dx, cy + dy);
                if x >= 0 && y >= 0 && (x as usize) < self.side && (y as usize) < self.side {
                    let p = Vec2::new((x as f32 + 0.5) * self.cell, (y as f32 + 0.5) * self.cell);
                    if p.distance(center) <= radius {
                        let cell = y as usize * self.side + x as usize;
                        self.bits[cell] = true;
                    }
                }
            }
        }
    }

    /// Whether `p` lies on drivable road.
    #[inline]
    pub fn is_road(&self, p: Vec2) -> bool {
        if p.x < 0.0 || p.y < 0.0 || p.x >= self.extent || p.y >= self.extent {
            return false;
        }
        let (x, y) = match self.inv_cell {
            Some(inv) => ((p.x * inv) as usize, (p.y * inv) as usize),
            None => ((p.x / self.cell) as usize, (p.y / self.cell) as usize),
        };
        let cell = y * self.side + x;
        self.bits[cell]
    }
}

/// Unused: the world has no fleet axis. The type stays only because the
/// stand-alone `lbchat_e2e` benchmark package still names it; it goes once
/// that package's `workloads.rs` stops naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetScale {
    /// The paper's world, the only one there is.
    #[default]
    Seed,
}

impl FleetScale {
    /// Always 0.
    pub const fn n_fleet(self) -> usize {
        0
    }
}

/// Simulation frame rate in frames per second (§IV-A: 2 fps).
pub const FPS: f64 = 2.0;

/// Waypoints per supervision frame.
pub const N_WAYPOINTS: usize = 5;

/// Node pairs [`World::random_route_where`] draws before it gives up.
const ROUTE_DRAWS: usize = 4000;

/// World construction parameters (§IV-A defaults).
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// RNG seed controlling the map, spawns, and traffic decisions.
    pub seed: u64,
    /// Number of expert autopilot (learning) vehicles. Paper: 32.
    pub n_experts: usize,
    /// Number of background cars. Paper: 50.
    pub n_background: usize,
    /// Unused, and must be 0 ([`World::new`] asserts it). The field stays
    /// only because the stand-alone `lbchat_e2e` benchmark package still
    /// sets it; it goes once that package's `workloads.rs` stops naming it.
    pub n_fleet: usize,
    /// Number of pedestrians. Paper: 250.
    pub n_pedestrians: usize,
    /// BEV geometry.
    pub bev: BevConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            n_experts: 32,
            n_background: 50,
            n_fleet: 0,
            n_pedestrians: 250,
            bev: BevConfig::default(),
        }
    }
}

impl WorldConfig {
    /// A reduced-scale config for fast tests and examples.
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            n_experts: 8,
            n_background: 12,
            n_pedestrians: 40,
            ..Self::default()
        }
    }
}

/// The running world, structure-of-arrays edition. `Clone` snapshots the
/// full state (map, columns, RNG), letting evaluation run independent
/// trials from a common base world.
///
/// This world is bit-identical to the retained per-agent oracle in
/// `tests/reference` — same RNG draw order, same f32 arithmetic — which
/// the property suite and the golden trajectory fixture pin.
#[derive(Clone)]
pub struct World {
    config: WorldConfig,
    map: RoadNetwork,
    raster: RoadRaster,
    // --- agent columns, indexed by AgentId ---
    /// World position: vehicles refresh it in the apply pass; pedestrians
    /// mirror theirs after stepping. `pos[ped_base..]` is the contiguous
    /// pedestrian slice the hazard scan reads.
    pos: Vec<Vec2>,
    // --- vehicle columns, `ped_base` long ---
    speed: Vec<f32>,
    edge_idx: Vec<usize>,
    s: Vec<f32>,
    /// Route of each vehicle; an arrival replaces it with a fresh one.
    routes: Vec<Route>,
    /// Pedestrian waypoint state, `peds[j]` ↔ agent id `ped_base + j`.
    peds: Vec<Pedestrian>,
    ped_base: usize,
    // --- tick machinery (reused scratch) ---
    intents: Vec<f32>,
    gap_index: Vec<(EdgeId, f32)>,
    rng: rand::rngs::StdRng,
    time: f64,
}

impl World {
    /// Builds a world: generates the map, spawns experts and background
    /// traffic on random routes, and scatters pedestrians over the town.
    ///
    /// # Panics
    /// Panics if `config.n_fleet` is not 0: the world has no fleet.
    pub fn new(config: WorldConfig) -> Self {
        assert_eq!(config.n_fleet, 0, "the world has no fleet vehicles; n_fleet must be 0");
        let map = RoadNetwork::generate(config.seed);
        let raster = RoadRaster::from_map(&map);
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed.wrapping_add(0x9E3779B9));
        let n_vehicles = config.n_experts + config.n_background;
        let n_agents = n_vehicles + config.n_pedestrians;

        let mut pos = Vec::with_capacity(n_agents);
        let speed = vec![0.0f32; n_vehicles];
        let edge_idx = vec![0usize; n_vehicles];
        let mut s = vec![0.0f32; n_vehicles];
        let mut routes: Vec<Route> = Vec::with_capacity(n_vehicles);

        // Experts then background: the exact draw sequence of the reference
        // world (route retries included — a pair has no route iff its two
        // endpoints coincide).
        for s_slot in &mut s {
            let route = loop {
                let a = map.random_node(&mut rng);
                let b = map.random_node(&mut rng);
                if let Some(r) = shortest_route(&map, a, b) {
                    break r;
                }
            };
            let first = route.edges[0];
            // Spread vehicles along their first edge.
            let spawn_s = rng.random_range(0.0..map.edge(first).length * 0.8);
            *s_slot = spawn_s;
            pos.push(map.position_on_edge(first, spawn_s));
            routes.push(route);
        }

        let town_area = town_area();
        let mut peds = Vec::with_capacity(config.n_pedestrians);
        for _ in 0..config.n_pedestrians {
            let p = Pedestrian::spawn_in(town_area, &mut rng);
            pos.push(p.pos);
            peds.push(p);
        }

        Self {
            config,
            map,
            raster,
            pos,
            speed,
            edge_idx,
            s,
            routes,
            peds,
            ped_base: n_vehicles,
            intents: Vec::new(),
            gap_index: Vec::new(),
            rng,
            time: 0.0,
        }
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

    /// Number of expert (learning) vehicles.
    pub fn n_experts(&self) -> usize {
        self.config.n_experts
    }

    /// Total number of agents across all kinds.
    pub fn n_agents(&self) -> usize {
        self.pos.len()
    }

    /// A borrowed view of road-vehicle `id` (experts and background).
    ///
    /// # Panics
    /// Panics if `id` is a pedestrian.
    pub fn vehicle_view(&self, id: AgentId) -> VehicleRef<'_> {
        assert!(id < self.ped_base, "agent {id} is a pedestrian and has no route");
        VehicleRef {
            route: &self.routes[id],
            edge_idx: self.edge_idx[id],
            s: self.s[id],
            speed: self.speed[id],
        }
    }

    /// A borrowed view of expert `idx` (experts hold ids `0..n_experts`).
    pub fn expert_view(&self, idx: usize) -> VehicleRef<'_> {
        assert!(idx < self.config.n_experts, "expert index out of range");
        self.vehicle_view(idx)
    }

    /// Positions of all pedestrians.
    pub fn pedestrian_positions(&self) -> Vec<Vec2> {
        self.pos[self.ped_base..].to_vec()
    }

    /// Positions of all cars (experts + background).
    pub fn car_positions(&self) -> Vec<Vec2> {
        self.pos[..self.ped_base].to_vec()
    }

    /// Advances the world by one frame (`1 / FPS` seconds): the pure
    /// intent phase, then the serial id-ordered apply pass.
    pub fn step(&mut self) {
        let mut intents = std::mem::take(&mut self.intents);
        let mut gap_index = std::mem::take(&mut self.gap_index);
        self.build_gap_index(&mut gap_index);
        intents.clear();
        intents.extend((0..self.ped_base).map(|id| self.intent_for(id, &gap_index)));
        self.apply(&intents);
        self.intents = intents;
        self.gap_index = gap_index;
    }

    /// Rebuilds the leader-gap index: `(edge, s)` of every vehicle, sorted
    /// by edge then progress. Pushed in ascending id order and
    /// stable-sorted, this is element-for-element the order the reference
    /// world's per-edge `BTreeMap` lists take.
    fn build_gap_index(&self, out: &mut Vec<(EdgeId, f32)>) {
        out.clear();
        for (id, route) in self.routes.iter().enumerate() {
            out.push((route.edges[self.edge_idx[id]], self.s[id]));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    }

    /// The final target speed of vehicle `id` from pre-step state: speed
    /// limits + turn slowdown + car-following + pedestrian braking. `&self`
    /// and no RNG in reach: no write, no draw, so the visit order never
    /// shows.
    fn intent_for(&self, id: AgentId, gap_index: &[(EdgeId, f32)]) -> f32 {
        let v = self.vehicle_view(id);
        self.speed_rule(v, gap_from_index(&self.map, gap_index, v))
    }

    /// The one speed rule every road-locked driver follows: limits, turn
    /// slowdown and car-following at `gap` ([`VehicleRef::target_speed`]),
    /// then a full stop for any pedestrian in the path.
    fn speed_rule(&self, v: VehicleRef<'_>, gap: Option<f32>) -> f32 {
        if self.ped_hazard(v) {
            0.0
        } else {
            v.target_speed(&self.map, gap)
        }
    }

    /// Pedestrian-braking check with a conservative town-bbox prefilter:
    /// the forward cone ([`forward_gap`]) only sees obstacles within
    /// `sqrt(lookahead² + half_width²)` ≈ 10.4 m of the vehicle, and
    /// pedestrians never leave the town rectangle (their waypoints and
    /// steps stay inside it), so a vehicle further than that from the
    /// rectangle can skip the scan — the answer is exactly `false` either
    /// way, keeping the filter bit-transparent.
    fn ped_hazard(&self, v: VehicleRef<'_>) -> bool {
        let peds = &self.pos[self.ped_base..];
        if peds.is_empty() {
            return false;
        }
        const REACH: f32 = 10.5;
        let p = v.position(&self.map);
        let (lo, hi) = town_area();
        let dx = (lo.x - p.x).max(p.x - hi.x).max(0.0);
        let dy = (lo.y - p.y).max(p.y - hi.y).max(0.0);
        if dx * dx + dy * dy > REACH * REACH {
            return false;
        }
        forward_gap(&self.map, v, peds, 10.0, 2.5).is_some()
    }

    /// The serial apply pass: integrate vehicles in ascending id order
    /// (reroutes draw RNG here), then step every pedestrian. Vehicles read
    /// pre-step pedestrian positions from the `pos` column because every
    /// vehicle id precedes every pedestrian id — no snapshot copy needed.
    fn apply(&mut self, intents: &[f32]) {
        let dt = (1.0 / FPS) as f32;
        for (id, &intent) in intents.iter().enumerate() {
            let still_going = advance_on_route(
                &self.map,
                &self.routes[id],
                &mut self.edge_idx[id],
                &mut self.s[id],
                &mut self.speed[id],
                intent,
                dt,
            );
            if still_going {
                let eid = self.routes[id].edges[self.edge_idx[id]];
                self.pos[id] = self.map.position_on_edge(eid, self.s[id]);
            } else {
                // Arrived: plan a fresh random route from the destination,
                // carrying speed across the reroute (reference semantics).
                let here = self.routes[id].destination(&self.map);
                self.routes[id] = loop {
                    let next = self.map.random_node(&mut self.rng);
                    if let Some(r) = shortest_route(&self.map, here, next) {
                        break r;
                    }
                };
                self.edge_idx[id] = 0;
                self.s[id] = 0.0;
                let eid = self.routes[id].edges[0];
                self.pos[id] = self.map.position_on_edge(eid, 0.0);
            }
        }

        let town = town_area();
        let base = self.ped_base;
        for j in 0..self.peds.len() {
            self.peds[j].step(town, dt, &mut self.rng);
            let id = base + j;
            self.pos[id] = self.peds[j].pos;
        }
        self.time += f64::from(dt);
    }

    /// What a vehicle following a route sees: rasterizes into `bev`, from
    /// `pose`, every car but expert `skip`, every pedestrian and the next
    /// 60 m of the route from `progress` (whose `speed` the frame records),
    /// and returns the command at that progress. Data collection looks
    /// from an expert's road pose with the expert left out; the closed-loop
    /// evaluator looks from its free ego's pose with nobody left out.
    pub fn observe_route(
        &self,
        progress: VehicleRef<'_>,
        pose: Pose,
        skip: Option<usize>,
        bev: &mut Bev,
    ) -> Command {
        let route_ahead =
            self.route_polyline_from(progress.route, progress.edge_idx, progress.s, 60.0);
        rasterize_skipping(
            &self.config.bev,
            pose,
            progress.speed,
            &self.raster,
            &self.pos[..self.ped_base],
            skip,
            &self.pos[self.ped_base..],
            &route_ahead,
            bev,
        );
        command_for(&self.map, progress)
    }

    /// The expert's waypoint labels at route progress `v`
    /// ([`waypoints_timed`], spaced at the world's frame interval) for the
    /// speed the one speed rule gives at the gap to the nearest car in a
    /// 40 m × 3 m forward cone ([`forward_gap`]). A collecting expert sits
    /// at its own cone's origin (`x > 0.5` excludes it), so every car is
    /// scanned. The tick measures the gap differently: every vehicle the
    /// world drives, the collecting experts included, follows its leader
    /// on the same edge or the next route edge within 60 m
    /// (`gap_from_index`), so a label can encode a speed its expert did
    /// not drive.
    pub fn expert_waypoints(&self, v: VehicleRef<'_>) -> Vec<f32> {
        let gap = forward_gap(&self.map, v, &self.pos[..self.ped_base], 40.0, 3.0);
        waypoints_timed(
            &self.map,
            v,
            N_WAYPOINTS,
            (1.0 / FPS) as f32,
            self.speed_rule(v, gap),
        )
    }

    /// Densely sampled world-frame points along the next `horizon` meters of
    /// a route from progress `(edge_idx, s)` (the BEV route channel input).
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
        let (cars, peds) = self.pos.split_at(self.ped_base);
        let (car_r, ped_r) = (radius + radii::CAR, radius + radii::PEDESTRIAN);
        cars.iter().any(|c| c.distance(pos) < car_r)
            || peds.iter().any(|p| p.distance(pos) < ped_r)
    }

    /// Runs the world for `seconds` of simulated time recording expert
    /// positions each frame — the paper's "run the vehicles for an
    /// additional 120 hours and collect their locations" step.
    pub fn record_trace(&mut self, seconds: f64) -> MobilityTrace {
        let frames = (seconds * FPS).ceil() as usize + 1;
        let mut positions: Vec<Vec<Vec2>> =
            vec![Vec::with_capacity(frames); self.config.n_experts];
        for _ in 0..frames {
            for (i, track) in positions.iter_mut().enumerate() {
                track.push(self.pos[i]);
            }
            self.step();
        }
        MobilityTrace::new(FPS, positions)
    }

    /// Draws node pairs `(a, b)` from `rng` until the route between one
    /// satisfies `accept`; `None` after 4 000 pairs without one.
    /// A pair with no route (`a == b`) counts as a draw.
    pub fn random_route_where<R: Rng + ?Sized>(
        &self,
        mut accept: impl FnMut(&Route) -> bool,
        rng: &mut R,
    ) -> Option<Route> {
        (0..ROUTE_DRAWS).find_map(|_| {
            let a = self.map.random_node(rng);
            let b = self.map.random_node(rng);
            shortest_route(&self.map, a, b).filter(|r| accept(r))
        })
    }

    /// Draws a random route with at least `min_len` meters, for evaluation
    /// tasks.
    ///
    /// # Panics
    /// Panics if none of the routes of 4 000 draws is `min_len` long.
    #[expect(
        clippy::panic,
        reason = "a length no route of the map reaches is a caller bug no draw can serve"
    )]
    pub fn random_route<R: Rng + ?Sized>(&self, min_len: f32, rng: &mut R) -> Route {
        self.random_route_where(|r| r.length(&self.map) >= min_len, rng)
            .unwrap_or_else(|| panic!("no route of at least {min_len} m in {ROUTE_DRAWS} draws"))
    }
}

/// The town rectangle pedestrians roam, `(min, max)` corners — the same
/// f32 expression the reference world evaluates.
fn town_area() -> (Vec2, Vec2) {
    let side = (TOWN_GRID - 1) as f32 * TOWN_BLOCK_M;
    (TOWN_ORIGIN, TOWN_ORIGIN + Vec2::new(side, side))
}

/// Leader gap for one vehicle against the sorted `(edge, s)` gap index:
/// free distance to the nearest vehicle ahead on the same edge or the
/// immediate next route edge, `None` when clear within 60 m — value-for-
/// value the reference world's `compute_gaps` answer.
fn gap_from_index(map: &RoadNetwork, index: &[(EdgeId, f32)], v: VehicleRef<'_>) -> Option<f32> {
    let edge = v.edge();
    let mut best: Option<f32> = None;
    // Same edge, ahead of us: the first entry past `s + 0.1` in the
    // edge's sorted run.
    let lo = index.partition_point(|&(e, _)| e < edge);
    let run = &index[lo..];
    let hi = run.partition_point(|&(e, _)| e == edge);
    let same = &run[..hi];
    let cut = v.s + 0.1;
    let k = same.partition_point(|&(_, s)| s <= cut);
    if let Some(&(_, s)) = same.get(k) {
        best = Some(s - v.s);
    }
    // Next edge on our route, near its start.
    if best.is_none() {
        let next_idx = v.edge_idx + 1;
        if let Some(&next) = v.route.edges.get(next_idx) {
            let nlo = index.partition_point(|&(e, _)| e < next);
            if let Some(&(e, s)) = index.get(nlo) {
                if e == next {
                    best = Some(v.remaining_on_edge(map) + s);
                }
            }
        }
    }
    best.filter(|&g| g < 60.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::new(WorldConfig::small(3))
    }

    /// Destructured without `..`: adding or removing a field fails to
    /// compile here until the count is a decision someone made.
    #[test]
    fn defaults_are_the_paper_world_over_six_fields() {
        let WorldConfig { seed, n_experts, n_background, n_fleet, n_pedestrians, bev } =
            WorldConfig::default();
        assert_eq!(seed, 0);
        assert_eq!(n_experts, 32);
        assert_eq!(n_background, 50);
        assert_eq!(n_fleet, 0);
        assert_eq!(n_pedestrians, 250);
        assert_eq!(bev, BevConfig::default());
        assert_eq!((FPS, N_WAYPOINTS, MAP_EXTENT_M), (2.0, 5, 1000.0));
    }

    #[test]
    fn reciprocal_cell_lookup_matches_division_exactly() {
        // Power-of-two cells take the multiply path; it must agree with the
        // division the raster was built with on every probe, including cell
        // boundaries and near-edge points.
        assert_eq!(exact_reciprocal(2.0), Some(0.5));
        assert_eq!(exact_reciprocal(3.0), None);
        assert_eq!(exact_reciprocal(0.0), None);
        assert_eq!(exact_reciprocal(-4.0), None);
        let pts: Vec<Vec2> = (0..=200).map(|i| Vec2::new(i as f32, 77.3)).collect();
        let fast = RoadRaster::from_polylines(200.0, 2.0, std::slice::from_ref(&pts), 4.0);
        let mut slow = fast.clone();
        slow.inv_cell = None;
        for i in 0..4000 {
            let p = Vec2::new((i as f32 * 0.0501) - 2.0, (i as f32 * 0.0777) - 2.0);
            assert_eq!(fast.is_road(p), slow.is_road(p), "probe {p:?}");
            let edge = Vec2::new((i % 110) as f32 * 2.0, 77.0);
            assert_eq!(fast.is_road(edge), slow.is_road(edge), "boundary {edge:?}");
        }
    }

    #[test]
    fn world_constructs_with_requested_population() {
        let w = small_world();
        assert_eq!(w.n_experts(), 8);
        assert_eq!(w.car_positions().len(), 8 + 12);
        assert_eq!(w.pedestrian_positions().len(), 40);
        assert_eq!(w.n_agents(), 8 + 12 + 40);
    }

    #[test]
    fn stepping_advances_time_and_traffic() {
        let mut w = small_world();
        let p0 = w.car_positions();
        for _ in 0..40 {
            w.step();
        }
        assert!((w.time() - 20.0).abs() < 1e-9);
        let p1 = w.car_positions();
        let moved = p0.iter().zip(&p1).filter(|(a, b)| a.distance(**b) > 1.0).count();
        assert!(moved > p0.len() / 2, "most cars should move in 20 s");
    }

    #[test]
    fn vehicles_reroute_forever() {
        let mut w = small_world();
        for _ in 0..600 {
            w.step();
        }
        // No panics and everyone still has a live route.
        for idx in 0..w.n_experts() {
            let v = w.expert_view(idx);
            assert!(v.edge_idx < v.route.edges.len());
        }
    }

    /// Expert 0's observation, as collection takes it.
    fn expert_bev(w: &World) -> Bev {
        let v = w.expert_view(0);
        let mut bev = Bev::blank(w.config().bev.cells);
        w.observe_route(v, v.pose(w.map()), Some(0), &mut bev);
        bev
    }

    #[test]
    fn observation_has_consistent_shapes() {
        let w = small_world();
        let bev = expert_bev(&w);
        let cfg = &w.config().bev;
        assert_eq!(bev.features(cfg.pool).len(), cfg.feature_len());
        assert_eq!(w.expert_waypoints(w.expert_view(0)).len(), 2 * N_WAYPOINTS);
    }

    #[test]
    fn observation_sees_road() {
        let w = small_world();
        let bev = expert_bev(&w);
        assert!(
            bev.popcount(crate::bev::channel::ROAD) > 5,
            "an on-road vehicle must see road"
        );
        assert!(
            bev.popcount(crate::bev::channel::ROUTE) > 0,
            "route channel must show the plan"
        );
    }

    #[test]
    fn trace_recording_matches_duration() {
        let mut w = small_world();
        let trace = w.record_trace(30.0);
        assert_eq!(trace.n_agents(), 8);
        assert!((trace.duration() - 30.0).abs() < 1.0);
    }

    #[test]
    fn trace_positions_stay_on_map() {
        let mut w = small_world();
        let trace = w.record_trace(60.0);
        for a in 0..trace.n_agents() {
            for k in 0..trace.n_frames() {
                let p = trace.position(a, k as f64 / trace.fps());
                assert!(p.x >= 0.0 && p.x <= 1000.0 && p.y >= 0.0 && p.y <= 1000.0);
            }
        }
    }

    #[test]
    fn collision_detection_works() {
        let w = small_world();
        let car = w.car_positions()[0];
        assert!(w.collides(car, 2.0));
        assert!(!w.collides(Vec2::new(-100.0, -100.0), 2.0));
    }

    #[test]
    fn deterministic_worlds() {
        let mut a = World::new(WorldConfig::small(9));
        let mut b = World::new(WorldConfig::small(9));
        for _ in 0..50 {
            a.step();
            b.step();
        }
        let pa = a.car_positions();
        let pb = b.car_positions();
        for (x, y) in pa.iter().zip(&pb) {
            assert!(x.distance(*y) < 1e-6);
        }
    }

    #[test]
    fn random_route_respects_min_length() {
        let w = small_world();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = w.random_route(400.0, &mut rng);
        assert!(r.length(w.map()) >= 400.0);
    }

    #[test]
    #[should_panic(expected = "no route of at least")]
    fn random_route_gives_up_on_an_unreachable_length() {
        let w = small_world();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        w.random_route(1.0e6, &mut rng);
    }

    #[test]
    #[should_panic(expected = "n_fleet must be 0")]
    fn a_fleet_is_refused() {
        World::new(WorldConfig { n_fleet: 1, ..WorldConfig::small(3) });
    }
}
