//! The driving training sample.

use simworld::agents::VehicleRef;
use simworld::bev::{Bev, Pose};
use simworld::expert::{next_turn_info, Command, TURN_LOOKAHEAD};
use simworld::world::World;
use std::sync::Arc;

/// One imitation-learning sample: the policy input (pooled BEV, speed and
/// navigation scalars), the conditional command, and the expert's
/// time-spaced waypoints (the regression target).
///
/// The BEV is a sparse binary occupancy tensor, so every pooled block is
/// `k / pool²` for an integer count `0 ≤ k ≤ pool²`. A frame keeps that
/// count, one byte per block, and expands it on use as `k as f32 * (1 /
/// pool²)` — the product [`Bev::features_into`] computes — so a decoded
/// input has the exact bits collection observed. The speed, the
/// [`NAV_FEATURES`] scalars and the waypoints stay `f32`, in a second
/// slice. [`Frame::pack`] is the one constructor.
///
/// A frame is recorded once and never edited, and LbChat hands frames
/// around all day — every cell starts from the scenario's datasets, every
/// chat ships a coreset each way, §III-D folds the peer's coreset into the
/// local dataset — so both payloads are immutable shared slices:
/// [`Clone`] copies two handles, not two buffers, and a fleet's frames
/// cost what was collected however many nodes hold them. Equality is by
/// content.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Occupancy count of each pooled BEV block, in feature order.
    blocks: Arc<[u8]>,
    /// The normalized speed and the [`NAV_FEATURES`] scalars, then the
    /// target waypoints `[x1, y1, ..]` in the ego frame.
    scalars: Arc<[f32]>,
    /// High-level command selecting the policy branch.
    pub command: Command,
    /// The pooling factor: a block covers `pool²` grid cells.
    pool: u8,
}

/// Extra navigation scalars appended after the BEV features: normalized
/// distance to the next turn and its direction sign.
pub const NAV_FEATURES: usize = 2;

/// What a route follower at `progress` sees, as the policy takes it:
/// [`World::observe_route`] from `pose`, leaving out expert `skip`, into
/// `bev`; then, into `features` (cleared first), `bev`'s pooled features
/// (speed included) and the [`NAV_FEATURES`] scalars of the progress's
/// [`next_turn_info`] — the distance over [`TURN_LOOKAHEAD`], then the
/// sign. Returns the command and that turn distance in meters.
///
/// This is the one observer: collection looks from an expert's road pose
/// with the expert left out, the closed-loop evaluator from its free ego's
/// pose with nobody left out.
pub fn observe_into(
    world: &World,
    progress: VehicleRef<'_>,
    pose: Pose,
    skip: Option<usize>,
    bev: &mut Bev,
    features: &mut Vec<f32>,
) -> (Command, f32) {
    let command = world.observe_route(progress, pose, skip, bev);
    let (turn_distance, turn_sign) = next_turn_info(world.map(), progress);
    bev.features_into(world.config().bev.pool, features);
    features.push(turn_distance / TURN_LOOKAHEAD);
    features.push(turn_sign);
    (command, turn_distance)
}

/// Policy-input features a frame stores as `f32` after its blocks: the
/// speed, then the [`NAV_FEATURES`] scalars.
const INPUT_SCALARS: usize = 1 + NAV_FEATURES;

impl Frame {
    /// Packs one observation: `features` as [`observe_into`] leaves it
    /// (the blocks of a BEV pooled by `pool`, the speed, the
    /// [`NAV_FEATURES`] scalars), with `waypoints` as the target.
    ///
    /// # Panics
    /// Panics if `features` is shorter than its scalars, if `pool²` does
    /// not fit a byte, or if a block value is not exactly `k as f32 * (1 /
    /// pool²)` for an integer `0 ≤ k ≤ pool²` — compared by bits, so `-0.0`
    /// is off the grid too.
    pub fn pack(features: &[f32], pool: usize, command: Command, waypoints: &[f32]) -> Self {
        let cells = pool * pool;
        assert!(
            pool > 0 && cells <= usize::from(u8::MAX),
            "a {pool}×{pool} block count does not fit a byte"
        );
        assert!(features.len() >= INPUT_SCALARS, "features lack the speed and navigation scalars");
        let (bev, tail) = features.split_at(features.len() - INPUT_SCALARS);
        let norm = 1.0 / cells as f32;
        let blocks = bev
            .iter()
            .map(|&v| {
                // Saturating: anything outside `0..=255` fails the checks.
                let k = (v * cells as f32).round() as u8;
                assert!(
                    usize::from(k) <= cells && (f32::from(k) * norm).to_bits() == v.to_bits(),
                    "BEV value {v:?} is off the occupancy grid of a {pool}×{pool} block"
                );
                k
            })
            .collect();
        Self {
            blocks,
            scalars: tail.iter().chain(waypoints).copied().collect(),
            command,
            pool: pool as u8,
        }
    }

    /// The stored block counts, one byte per pooled BEV block.
    pub fn blocks(&self) -> &[u8] {
        &self.blocks
    }

    /// The stored floats: the speed, the [`NAV_FEATURES`] scalars, then
    /// the waypoints.
    pub fn scalars(&self) -> &[f32] {
        &self.scalars
    }

    /// Target waypoints `[x1, y1, ..]` in the ego frame.
    pub fn waypoints(&self) -> &[f32] {
        &self.scalars[INPUT_SCALARS..]
    }

    /// Number of waypoints in the target.
    pub fn n_waypoints(&self) -> usize {
        self.waypoints().len() / 2
    }

    /// Length of the policy input this frame decodes to.
    pub fn input_dim(&self) -> usize {
        self.blocks.len() + INPUT_SCALARS
    }

    /// Decodes the policy input into `row`: every block's `k as f32 * (1 /
    /// pool²)`, then the speed and the [`NAV_FEATURES`] scalars — the
    /// bits [`Frame::pack`] was given.
    ///
    /// # Panics
    /// Panics if `row` is not [`Frame::input_dim`] long.
    pub fn input_into(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.input_dim(), "input dimension mismatch");
        let (bev, tail) = row.split_at_mut(self.blocks.len());
        let pool = usize::from(self.pool);
        let norm = 1.0 / (pool * pool) as f32;
        for (x, &k) in bev.iter_mut().zip(self.blocks.iter()) {
            *x = f32::from(k) * norm;
        }
        tail.copy_from_slice(&self.scalars[..INPUT_SCALARS]);
    }

    /// [`Frame::input_into`] into a caller-owned buffer, resized to fit.
    pub fn features_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.input_dim(), 0.0);
        self.input_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simworld::world::WorldConfig;

    /// Expert `i`'s frame, as collection records it.
    fn collected(w: &World, i: usize) -> Frame {
        let v = w.expert_view(i);
        let mut bev = Bev::blank(w.config().bev.cells);
        let mut features = Vec::new();
        let (command, _) = observe_into(w, v, v.pose(w.map()), Some(i), &mut bev, &mut features);
        Frame::pack(&features, w.config().bev.pool, command, &w.expert_waypoints(v))
    }

    #[test]
    fn collected_frame_has_expected_shape() {
        let w = World::new(WorldConfig::small(1));
        let f = collected(&w, 0);
        let bev = &w.config().bev;
        assert_eq!(f.input_dim(), bev.feature_len() + NAV_FEATURES);
        assert_eq!(f.blocks().len(), bev.feature_len() - 1, "one byte per block");
        assert_eq!(f.n_waypoints(), w.config().n_waypoints);
        assert_eq!(f.scalars().len(), 1 + NAV_FEATURES + 2 * f.n_waypoints());
    }

    #[test]
    fn clone_shares_both_payloads_and_equality_is_by_content() {
        let w = World::new(WorldConfig::small(3));
        let f = collected(&w, 1);
        let g = f.clone();
        assert!(Arc::ptr_eq(&f.blocks, &g.blocks));
        assert!(Arc::ptr_eq(&f.scalars, &g.scalars));
        // A frame rebuilt from the same observation owns fresh buffers and
        // still compares equal; one differing float does not.
        let rebuilt = collected(&w, 1);
        assert!(!Arc::ptr_eq(&f.blocks, &rebuilt.blocks));
        assert_eq!(f, rebuilt);
        let mut features = Vec::new();
        f.features_into(&mut features);
        let mut wp = f.waypoints().to_vec();
        wp[0] += 1.0;
        assert_ne!(f, Frame::pack(&features, w.config().bev.pool, f.command, &wp));
    }

    #[test]
    fn features_are_finite() {
        let w = World::new(WorldConfig::small(2));
        let f = collected(&w, 3);
        let mut features = Vec::new();
        f.features_into(&mut features);
        assert!(features.iter().all(|v| v.is_finite()));
        assert!(f.waypoints().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn a_packed_input_decodes_to_its_bits() {
        // Every count of a 4×4 block, then a negative zero and a negative
        // speed and turn sign, which are stored as they are.
        let mut features: Vec<f32> = (0..=16).map(|k| k as f32 / 16.0).collect();
        features.extend([-0.3, -0.0, -1.0]);
        let f = Frame::pack(&features, 4, Command::Left, &[0.5, -0.25]);
        assert_eq!(f.blocks(), (0..=16).collect::<Vec<u8>>());
        let mut decoded = vec![7.0; 3];
        f.features_into(&mut decoded);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&features));
        assert_eq!(f.waypoints(), [0.5, -0.25]);
    }
}
