//! The driving training sample.

use simworld::bev::Bev;
use simworld::expert::{Command, ExpertOutput};
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

impl Frame {
    /// Builds a frame from a world observation: pooled BEV features plus
    /// the [`NAV_FEATURES`] navigation scalars.
    pub fn from_observation(bev: &Bev, sup: &ExpertOutput, pool: usize) -> Self {
        let mut features = bev.features(pool);
        features.push(sup.turn_distance / simworld::expert::TURN_LOOKAHEAD);
        features.push(sup.turn_sign);
        // `From<Vec>` / `From<&[f32]>` allocate the slice at its exact
        // length; the staging vector's spare capacity is not kept.
        Self {
            features: features.into(),
            command: sup.command,
            waypoints: sup.waypoints.as_slice().into(),
        }
    }

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
    use simworld::world::{World, WorldConfig};

    #[test]
    fn frame_from_observation_has_expected_shape() {
        let w = World::new(WorldConfig::small(1));
        let (bev, sup) = w.observe_expert(0);
        let f = Frame::from_observation(&bev, &sup, w.config().bev.pool);
        assert_eq!(f.features.len(), w.config().bev.feature_len() + NAV_FEATURES);
        assert_eq!(f.n_waypoints(), w.config().n_waypoints);
        assert!(f.wire_bytes() > 0);
    }

    #[test]
    fn clone_shares_both_payloads_and_equality_is_by_content() {
        let w = World::new(WorldConfig::small(3));
        let (bev, sup) = w.observe_expert(1);
        let f = Frame::from_observation(&bev, &sup, w.config().bev.pool);
        let g = f.clone();
        assert!(Arc::ptr_eq(&f.features, &g.features));
        assert!(Arc::ptr_eq(&f.waypoints, &g.waypoints));
        // A frame rebuilt from the same observation owns fresh buffers and
        // still compares equal; one differing float does not.
        let rebuilt = Frame::from_observation(&bev, &sup, w.config().bev.pool);
        assert!(!Arc::ptr_eq(&f.features, &rebuilt.features));
        assert_eq!(f, rebuilt);
        let mut wp = f.waypoints.to_vec();
        wp[0] += 1.0;
        assert_ne!(f, Frame { waypoints: wp.into(), ..f.clone() });
    }

    #[test]
    fn features_are_finite() {
        let w = World::new(WorldConfig::small(2));
        let (bev, sup) = w.observe_expert(3);
        let f = Frame::from_observation(&bev, &sup, w.config().bev.pool);
        assert!(f.features.iter().all(|v| v.is_finite()));
        assert!(f.waypoints.iter().all(|v| v.is_finite()));
    }
}
