//! Bird's-eye-view rasterization.
//!
//! The paper's model input is "a sparse binary tensor depicting the front
//! view of a vehicle in a top-down view". We rasterize an ego-frame grid
//! ahead of the vehicle with four binary channels: drivable road, other
//! vehicles, pedestrians, and the vehicle's own planned route. A pooled
//! float feature vector (plus the current speed) is what the policy network
//! consumes.

use crate::world::RoadRaster;
use simnet::geom::Vec2;

/// Pose of the observing vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// World position.
    pub pos: Vec2,
    /// Heading in radians.
    pub heading: f32,
}

impl Pose {
    /// Transforms a world point into the ego frame (x forward, y left).
    pub fn to_ego(&self, world: Vec2) -> Vec2 {
        (world - self.pos).rotated(-self.heading)
    }

    /// Transforms an ego-frame point to world coordinates.
    pub fn to_world(&self, ego: Vec2) -> Vec2 {
        self.pos + ego.rotated(self.heading)
    }
}

/// BEV channel indices.
pub mod channel {
    /// Drivable road.
    pub const ROAD: usize = 0;
    /// Other vehicles.
    pub const VEHICLES: usize = 1;
    /// Pedestrians.
    pub const PEDESTRIANS: usize = 2;
    /// Own planned route.
    pub const ROUTE: usize = 3;
    /// Number of channels.
    pub const COUNT: usize = 4;
}

/// Side length of one BEV cell in meters.
pub const CELL_M: f32 = 2.0;

/// How far ahead of the vehicle the BEV grid center sits, in meters.
pub const FORWARD_OFFSET_M: f32 = 16.0;

/// Geometry of the BEV grid.
#[derive(Debug, Clone, PartialEq)]
pub struct BevConfig {
    /// Cells per side (square grid).
    /// One value in every non-test caller; kept only because the
    /// stand-alone `lbchat_e2e` benchmark package names it.
    pub cells: usize,
    /// Pooling factor for the feature vector: each `pool x pool` cell block
    /// becomes one float. Must divide `cells`.
    /// One value in every non-test caller; kept only because the
    /// stand-alone `lbchat_e2e` benchmark package names it.
    pub pool: usize,
}

impl Default for BevConfig {
    fn default() -> Self {
        // 24 cells * 2 m = 48 m square window, centered 16 m ahead.
        Self { cells: 24, pool: 4 }
    }
}

impl BevConfig {
    /// Side length of the window in meters.
    pub fn window_m(&self) -> f32 {
        self.cells as f32 * CELL_M
    }

    /// Length of the pooled feature vector including the speed scalar.
    pub fn feature_len(&self) -> usize {
        let side = self.cells / self.pool;
        side * side * channel::COUNT + 1
    }
}

/// A rasterized sparse binary BEV tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Bev {
    cells: usize,
    /// One bit vector per channel, row-major `y * cells + x`.
    channels: [Vec<bool>; channel::COUNT],
    /// Ego speed at capture time (m/s).
    speed: f32,
}

impl Bev {
    /// An all-clear frame, usable as the reusable target of
    /// [`rasterize_into`].
    pub fn blank(cells: usize) -> Self {
        Self {
            cells,
            channels: std::array::from_fn(|_| vec![false; cells * cells]),
            speed: 0.0,
        }
    }

    /// Clears every channel and resizes to `cells`, keeping allocations.
    fn reset(&mut self, cells: usize, speed: f32) {
        for ch in &mut self.channels {
            ch.clear();
            ch.resize(cells * cells, false);
        }
        self.cells = cells;
        self.speed = speed;
    }

    /// Grid side length in cells.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Whether channel `c` is set at `(ix, iy)`.
    pub fn get(&self, c: usize, ix: usize, iy: usize) -> bool {
        let cell = iy * self.cells + ix;
        self.channels[c][cell]
    }

    /// Number of set bits in channel `c` (sparsity diagnostics).
    pub fn popcount(&self, c: usize) -> usize {
        self.channels[c].iter().filter(|&&b| b).count()
    }

    /// Ego speed recorded with the frame.
    pub fn speed(&self) -> f32 {
        self.speed
    }

    /// Pooled float features: each `pool x pool` block averages to one value
    /// per channel, concatenated channel-major, with normalized speed
    /// appended. This is the policy-network input.
    ///
    /// # Panics
    /// Panics if `pool` does not divide the grid side.
    pub fn features(&self, pool: usize) -> Vec<f32> {
        let mut out = Vec::new();
        self.features_into(pool, &mut out);
        out
    }

    /// [`Bev::features`] into a caller-owned buffer, so per-step feature
    /// extraction in closed-loop rollouts reuses one allocation. The buffer
    /// is cleared first. A block's set cells are counted, not branched on —
    /// column counts of whole rows, folded per block — which is to the bit
    /// the one-float-accumulator-per-block pooling it stands for
    /// (`tests/properties.rs` holds it to one).
    ///
    /// # Panics
    /// Panics if `pool` does not divide the grid side.
    pub fn features_into(&self, pool: usize, out: &mut Vec<f32>) {
        assert!(pool > 0 && self.cells % pool == 0, "pool must divide grid side");
        let side = self.cells / pool;
        out.clear();
        out.reserve(side * side * channel::COUNT + 1 + self.cells);
        let norm = 1.0 / (pool * pool) as f32;
        for ch in &self.channels {
            // A band is the `pool` grid rows one row of blocks covers.
            for band in ch.chunks_exact(pool * self.cells) {
                // The band's blocks, then — scratch, cut off again below —
                // its column counts: whole rows added side by side, no
                // branch per cell. Every partial sum is a small integer,
                // exact in `f32`, so a block reads `k as f32 * norm`: to the
                // bit the `k` additions of `1.0` onto `0.0`, then the
                // scaling, of a float accumulator.
                let start = out.len();
                out.resize(start + side + self.cells, 0.0);
                let (blocks, cols) = out[start..].split_at_mut(side);
                for row in band.chunks_exact(self.cells) {
                    for (count, &set) in cols.iter_mut().zip(row) {
                        *count += f32::from(u8::from(set));
                    }
                }
                for (block, counts) in blocks.iter_mut().zip(cols.chunks_exact(pool)) {
                    *block = counts.iter().sum::<f32>() * norm;
                }
                out.truncate(start + side);
            }
        }
        out.push(self.speed / 25.0); // normalize by the map's top speed
    }
}

/// Rasterizes the BEV for a vehicle at `pose` moving at `speed`.
///
/// * `road` — the precomputed global drivable-area raster.
/// * `cars` — world positions of every *other* vehicle.
/// * `pedestrians` — world positions of pedestrians.
/// * `route_ahead` — world-frame polyline of the next stretch of the planned
///   route (the navigation hint; sampled densely by the caller).
///
/// Allocates a fresh frame; data collection rasterizes every expert every
/// frame, so hot loops should hold one [`Bev::blank`] and call
/// [`rasterize_into`] instead. Output is bit-identical to the first
/// implementation, which `tests/reference/bev.rs` keeps as the oracle.
pub fn rasterize(
    cfg: &BevConfig,
    pose: Pose,
    speed: f32,
    road: &RoadRaster,
    cars: &[Vec2],
    pedestrians: &[Vec2],
    route_ahead: &[Vec2],
) -> Bev {
    let mut out = Bev::blank(cfg.cells);
    rasterize_into(cfg, pose, speed, road, cars, pedestrians, route_ahead, &mut out);
    out
}

/// [`rasterize`] into a reused frame, with the per-frame trigonometry
/// hoisted out of the cell loop.
///
/// The reference evaluates `sin`/`cos` of the heading once per grid cell
/// (inside [`Pose::to_world`]) and twice per visible agent; here the two
/// rotations (world→ego and ego→world) are computed once per frame and the
/// row's rotation terms once per row, which the road loop then combines
/// with the exact arithmetic the reference uses — cell classifications
/// cannot drift. Reusing `out` across frames makes a call allocate nothing
/// once `out` has the frame's size.
#[expect(
    clippy::too_many_arguments,
    reason = "`rasterize`'s seven inputs plus the reused output frame"
)]
pub fn rasterize_into(
    cfg: &BevConfig,
    pose: Pose,
    speed: f32,
    road: &RoadRaster,
    cars: &[Vec2],
    pedestrians: &[Vec2],
    route_ahead: &[Vec2],
    out: &mut Bev,
) {
    rasterize_skipping(cfg, pose, speed, road, cars, None, pedestrians, route_ahead, out);
}

/// [`rasterize_into`] with car `skip` of `cars` left out — an expert's
/// view of the world's whole car column, without copying it.
#[expect(
    clippy::too_many_arguments,
    reason = "`rasterize_into`'s eight inputs plus the car it leaves out"
)]
pub(crate) fn rasterize_skipping(
    cfg: &BevConfig,
    pose: Pose,
    speed: f32,
    road: &RoadRaster,
    cars: &[Vec2],
    skip: Option<usize>,
    pedestrians: &[Vec2],
    route_ahead: &[Vec2],
    out: &mut Bev,
) {
    let n = cfg.cells;
    out.reset(n, speed);
    let channels = &mut out.channels;
    let half = cfg.window_m() / 2.0;

    // One sin_cos per frame for each rotation direction — the same values
    // `Vec2::rotated(±heading)` recomputes per call.
    let (s_fwd, c_fwd) = pose.heading.sin_cos();
    let (s_inv, c_inv) = (-pose.heading).sin_cos();

    // Road channel: sample each cell center against the global road raster.
    // ego.x depends only on the row, so its two rotation products are taken
    // once per row; ego.y's two are taken per cell, with no per-call column
    // table. The final sums keep the reference's exact association:
    // world = pos + (c·ex − s·ey, s·ex + c·ey).
    for iy in 0..n {
        let ex = FORWARD_OFFSET_M - half + (iy as f32 + 0.5) * CELL_M;
        let (c_ex, s_ex) = (c_fwd * ex, s_fwd * ex);
        let row_base = iy * n;
        let row_end = row_base + n;
        let row = &mut channels[channel::ROAD][row_base..row_end];
        for (ix, cell) in row.iter_mut().enumerate() {
            let ey = half - (ix as f32 + 0.5) * CELL_M;
            let (s_ey, c_ey) = (s_fwd * ey, c_fwd * ey);
            let world = Vec2::new(pose.pos.x + (c_ex - s_ey), pose.pos.y + (s_ex + c_ey));
            // `reset` cleared the row, so the branchless store matches the
            // reference's set-only-true writes.
            *cell = road.is_road(world);
        }
    }

    // Point-agent channels with a small footprint stamp. The ego transform
    // is computed once per agent (the reference recomputes it inside the
    // stamp) using the hoisted inverse rotation.
    let to_ego = |world: Vec2| -> Vec2 {
        let d = world - pose.pos;
        Vec2::new(c_inv * d.x - s_inv * d.y, s_inv * d.x + c_inv * d.y)
    };
    // A division by the power-of-two `CELL_M`, which the compiler emits as
    // the bit-identical multiply by its exact reciprocal.
    let over_cell = |v: f32| v / CELL_M;
    let mut stamp = |ch: usize, ego: Vec2, radius_cells: i32| {
        // Invert the cell-center mapping used for the road channel.
        let fy = over_cell(ego.x - FORWARD_OFFSET_M + half) - 0.5;
        let fx = over_cell(half - ego.y) - 0.5;
        let (cx, cy) = (fx.round() as i32, fy.round() as i32);
        for dy in -radius_cells..=radius_cells {
            for dx in -radius_cells..=radius_cells {
                let (x, y) = (cx + dx, cy + dy);
                if x >= 0 && y >= 0 && (x as usize) < n && (y as usize) < n {
                    let cell = y as usize * n + x as usize;
                    channels[ch][cell] = true;
                }
            }
        }
    };
    // Conservative pre-rotation reject: rotation preserves length, so an
    // agent whose axis-aligned offset exceeds the window by 10% has a true
    // ego distance > 1.1·window, and the rounded `ego.norm()` (three f32
    // ops of relative error ~2⁻²³ each) cannot fall back under `window` —
    // the reference's post-rotation check rejects exactly the same agents,
    // just after paying for the transform.
    let reject = 1.1 * cfg.window_m();
    let far = |world: Vec2| -> bool {
        let d = world - pose.pos;
        d.x.abs() > reject || d.y.abs() > reject
    };
    for (id, &c) in cars.iter().enumerate() {
        if Some(id) == skip || far(c) {
            continue;
        }
        let ego = to_ego(c);
        if ego.norm() < cfg.window_m() {
            stamp(channel::VEHICLES, ego, 1);
        }
    }
    for &p in pedestrians {
        if far(p) {
            continue;
        }
        let ego = to_ego(p);
        if ego.norm() < cfg.window_m() {
            stamp(channel::PEDESTRIANS, ego, 0);
        }
    }
    for &r in route_ahead {
        if far(r) {
            continue;
        }
        let ego = to_ego(r);
        if ego.norm() < cfg.window_m() {
            stamp(channel::ROUTE, ego, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::RoadRaster;

    fn empty_raster() -> RoadRaster {
        RoadRaster::empty(1000.0, 2.0)
    }

    fn straight_road_raster() -> RoadRaster {
        // A single horizontal road along y = 500.
        let pts: Vec<Vec2> = (0..=500).map(|i| Vec2::new(i as f32 * 2.0, 500.0)).collect();
        RoadRaster::from_polylines(1000.0, 2.0, &[pts], 4.0)
    }

    /// Destructured without `..`: adding or removing a field fails to
    /// compile here until the count is a decision someone made.
    #[test]
    fn defaults_are_the_paper_window_over_two_fields() {
        let BevConfig { cells, pool } = BevConfig::default();
        assert_eq!((cells, pool), (24, 4));
        assert_eq!((CELL_M, FORWARD_OFFSET_M), (2.0, 16.0));
        assert_eq!(BevConfig::default().window_m(), 48.0);
    }

    #[test]
    fn feature_len_matches_config() {
        let cfg = BevConfig::default();
        let bev = rasterize(
            &cfg,
            Pose { pos: Vec2::new(500.0, 500.0), heading: 0.0 },
            5.0,
            &empty_raster(),
            &[],
            &[],
            &[],
        );
        assert_eq!(bev.features(cfg.pool).len(), cfg.feature_len());
    }

    #[test]
    fn road_channel_sees_the_road() {
        let cfg = BevConfig::default();
        let bev = rasterize(
            &cfg,
            Pose { pos: Vec2::new(500.0, 500.0), heading: 0.0 },
            5.0,
            &straight_road_raster(),
            &[],
            &[],
            &[],
        );
        assert!(bev.popcount(channel::ROAD) > 10, "road ahead must be visible");
        assert_eq!(bev.popcount(channel::VEHICLES), 0);
    }

    #[test]
    fn vehicle_ahead_is_stamped() {
        let cfg = BevConfig::default();
        let pose = Pose { pos: Vec2::new(500.0, 500.0), heading: 0.0 };
        let bev = rasterize(
            &cfg,
            pose,
            5.0,
            &empty_raster(),
            &[Vec2::new(515.0, 500.0)], // 15 m ahead
            &[],
            &[],
        );
        assert!(bev.popcount(channel::VEHICLES) >= 4, "3x3 stamp expected");
    }

    #[test]
    fn agents_outside_window_ignored() {
        let cfg = BevConfig::default();
        let pose = Pose { pos: Vec2::new(500.0, 500.0), heading: 0.0 };
        let bev = rasterize(
            &cfg,
            pose,
            5.0,
            &empty_raster(),
            &[Vec2::new(700.0, 500.0)],
            &[Vec2::new(500.0, 300.0)],
            &[],
        );
        assert_eq!(bev.popcount(channel::VEHICLES), 0);
        assert_eq!(bev.popcount(channel::PEDESTRIANS), 0);
    }

    #[test]
    fn rotation_keeps_forward_agent_visible() {
        let cfg = BevConfig::default();
        // Facing north; agent due north should appear.
        let pose =
            Pose { pos: Vec2::new(500.0, 500.0), heading: std::f32::consts::FRAC_PI_2 };
        let bev = rasterize(
            &cfg,
            pose,
            5.0,
            &empty_raster(),
            &[Vec2::new(500.0, 515.0)],
            &[],
            &[],
        );
        assert!(bev.popcount(channel::VEHICLES) > 0);
    }

    #[test]
    fn features_are_bounded() {
        let cfg = BevConfig::default();
        let bev = rasterize(
            &cfg,
            Pose { pos: Vec2::new(500.0, 500.0), heading: 0.3 },
            12.5,
            &straight_road_raster(),
            &[Vec2::new(510.0, 500.0)],
            &[Vec2::new(505.0, 505.0)],
            &[Vec2::new(520.0, 500.0)],
        );
        for f in bev.features(cfg.pool) {
            assert!((0.0..=1.0).contains(&f), "feature out of range: {f}");
        }
    }

    #[test]
    fn rasterize_into_reuse_is_bit_identical() {
        let cfg = BevConfig::default();
        let road = straight_road_raster();
        let mut frame = Bev::blank(cfg.cells);
        // Dirty the frame with one scene, then overwrite with another: the
        // reused buffers must not leak the first scene's bits.
        rasterize_into(
            &cfg,
            Pose { pos: Vec2::new(500.0, 500.0), heading: 1.1 },
            7.0,
            &road,
            &[Vec2::new(505.0, 505.0)],
            &[],
            &[],
            &mut frame,
        );
        let pose = Pose { pos: Vec2::new(480.0, 502.0), heading: -0.4 };
        let cars = [Vec2::new(490.0, 500.0)];
        rasterize_into(&cfg, pose, 3.0, &road, &cars, &[], &[], &mut frame);
        let fresh = rasterize(&cfg, pose, 3.0, &road, &cars, &[], &[]);
        assert_eq!(frame, fresh);
    }

    #[test]
    fn ego_transform_roundtrip() {
        let pose = Pose { pos: Vec2::new(3.0, -2.0), heading: 0.7 };
        let w = Vec2::new(10.0, 10.0);
        assert!(pose.to_world(pose.to_ego(w)).distance(w) < 1e-4);
    }
}
