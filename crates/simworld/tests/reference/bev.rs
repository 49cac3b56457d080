//! The pre-optimization BEV rasterizer, kept verbatim as the golden
//! baseline: `simworld::bev::rasterize` must produce the same occupancy
//! bit for bit (`properties.rs` proves it on random scenes). It lives with
//! the integration tests, next to the world oracle in `mod.rs`, and
//! reaches the library only through its public API. That test is what
//! pins this module: edit it only together with it.

use simnet::geom::Vec2;
use simworld::bev::{channel, Bev, BevConfig, Pose, CELL_M, FORWARD_OFFSET_M};
use simworld::world::RoadRaster;

/// What the reference rasterizer produces: the state a [`Bev`] holds, in
/// the open (`Bev`'s fields are private to the library).
#[derive(Debug)]
pub struct Occupancy {
    cells: usize,
    /// One bit vector per channel, row-major `y * cells + x`.
    channels: [Vec<bool>; channel::COUNT],
    speed: f32,
}

impl Occupancy {
    /// Whether `bev` has this grid size, these bits in every channel and
    /// cell, and this speed.
    pub fn matches(&self, bev: &Bev) -> bool {
        let n = self.cells;
        bev.cells() == n
            && bev.speed().to_bits() == self.speed.to_bits()
            && (0..channel::COUNT).all(|c| {
                (0..n * n).all(|cell| bev.get(c, cell % n, cell / n) == self.channels[c][cell])
            })
    }
}

/// BEV rasterization exactly as first implemented: fresh channel
/// allocations and a full `sin`/`cos` rotation per cell and per stamp.
pub fn rasterize(
    cfg: &BevConfig,
    pose: Pose,
    speed: f32,
    road: &RoadRaster,
    cars: &[Vec2],
    pedestrians: &[Vec2],
    route_ahead: &[Vec2],
) -> Occupancy {
    let n = cfg.cells;
    let mut channels: [Vec<bool>; channel::COUNT] = [
        vec![false; n * n],
        vec![false; n * n],
        vec![false; n * n],
        vec![false; n * n],
    ];
    let half = cfg.window_m() / 2.0;

    for iy in 0..n {
        for ix in 0..n {
            let ego = Vec2::new(
                FORWARD_OFFSET_M - half + (iy as f32 + 0.5) * CELL_M,
                half - (ix as f32 + 0.5) * CELL_M,
            );
            let world = pose.to_world(ego);
            if road.is_road(world) {
                let cell = iy * n + ix;
                channels[channel::ROAD][cell] = true;
            }
        }
    }

    let stamp = |ch: usize, world: Vec2, radius_cells: i32, channels: &mut [Vec<bool>; 4]| {
        let ego = pose.to_ego(world);
        let fy = (ego.x - FORWARD_OFFSET_M + half) / CELL_M - 0.5;
        let fx = (half - ego.y) / CELL_M - 0.5;
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
    for &c in cars {
        if pose.to_ego(c).norm() < cfg.window_m() {
            stamp(channel::VEHICLES, c, 1, &mut channels);
        }
    }
    for &p in pedestrians {
        if pose.to_ego(p).norm() < cfg.window_m() {
            stamp(channel::PEDESTRIANS, p, 0, &mut channels);
        }
    }
    for &r in route_ahead {
        if pose.to_ego(r).norm() < cfg.window_m() {
            stamp(channel::ROUTE, r, 0, &mut channels);
        }
    }

    Occupancy { cells: n, channels, speed }
}
