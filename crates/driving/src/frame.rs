//! The driving training sample.

use simworld::agents::VehicleRef;
use simworld::bev::{Bev, Pose};
use simworld::expert::{next_turn_info, Command, TURN_LOOKAHEAD};
use simworld::world::World;
use std::sync::Arc;

/// One imitation-learning sample: featurized BEV observation, the
/// conditional command, and the expert's time-spaced waypoints (the
/// regression target).
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
    /// Pooled BEV features + normalized speed (the policy input).
    pub features: Arc<[f32]>,
    /// High-level command selecting the policy branch.
    pub command: Command,
    /// Target waypoints `[x1, y1, ..]` in the ego frame.
    pub waypoints: Arc<[f32]>,
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

impl Frame {
    /// Number of waypoints in the target.
    pub fn n_waypoints(&self) -> usize {
        self.waypoints.len() / 2
    }

    /// Approximate serialized size of a frame in bytes (features + targets
    /// + command), used to size coreset transfers.
    pub fn wire_bytes(&self) -> usize {
        4 * (self.features.len() + self.waypoints.len()) + 1
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
        Frame { features: features.into(), command, waypoints: w.expert_waypoints(v).into() }
    }

    #[test]
    fn collected_frame_has_expected_shape() {
        let w = World::new(WorldConfig::small(1));
        let f = collected(&w, 0);
        assert_eq!(f.features.len(), w.config().bev.feature_len() + NAV_FEATURES);
        assert_eq!(f.n_waypoints(), w.config().n_waypoints);
        assert!(f.wire_bytes() > 0);
    }

    #[test]
    fn clone_shares_both_payloads_and_equality_is_by_content() {
        let w = World::new(WorldConfig::small(3));
        let f = collected(&w, 1);
        let g = f.clone();
        assert!(Arc::ptr_eq(&f.features, &g.features));
        assert!(Arc::ptr_eq(&f.waypoints, &g.waypoints));
        // A frame rebuilt from the same observation owns fresh buffers and
        // still compares equal; one differing float does not.
        let rebuilt = collected(&w, 1);
        assert!(!Arc::ptr_eq(&f.features, &rebuilt.features));
        assert_eq!(f, rebuilt);
        let mut wp = f.waypoints.to_vec();
        wp[0] += 1.0;
        assert_ne!(f, Frame { waypoints: wp.into(), ..f.clone() });
    }

    #[test]
    fn features_are_finite() {
        let w = World::new(WorldConfig::small(2));
        let f = collected(&w, 3);
        assert!(f.features.iter().all(|v| v.is_finite()));
        assert!(f.waypoints.iter().all(|v| v.is_finite()));
    }
}
