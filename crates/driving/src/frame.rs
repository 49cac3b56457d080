//! The driving training sample.

use simworld::bev::Bev;
use simworld::expert::{Command, ExpertOutput, TURN_LOOKAHEAD};
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

/// The policy input, into `out` (cleared first): `bev`'s pooled features
/// (speed included), then the [`NAV_FEATURES`] scalars built from
/// `(turn_distance, turn_sign)` as [`simworld::expert::next_turn_info`]
/// reports them — the distance over [`TURN_LOOKAHEAD`], then the sign.
/// Collection ([`Frame::from_observation`]) and the closed-loop evaluator
/// both lay the input out here.
pub fn policy_input_into(
    bev: &Bev,
    pool: usize,
    (turn_distance, turn_sign): (f32, f32),
    out: &mut Vec<f32>,
) {
    bev.features_into(pool, out);
    out.push(turn_distance / TURN_LOOKAHEAD);
    out.push(turn_sign);
}

impl Frame {
    /// Builds a frame from a world observation: the [`policy_input_into`]
    /// of the BEV and the expert's turn scalars.
    pub fn from_observation(bev: &Bev, sup: &ExpertOutput, pool: usize) -> Self {
        let mut features = Vec::new();
        policy_input_into(bev, pool, (sup.turn_distance, sup.turn_sign), &mut features);
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
    use simworld::bev::Pose;
    use simworld::expert::next_turn_info;
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

    /// Train/eval parity: the evaluator's path — the world's route
    /// observer, the tracked progress's turn scalars, the one input
    /// layout — rebuilds a collected frame's input and command bit for bit
    /// when it looks from the expert's road pose with the expert left out.
    #[test]
    fn the_evaluator_path_rebuilds_collected_frames() {
        let mut w = World::new(WorldConfig::small(4));
        let pool = w.config().bev.pool;
        let mut bev = Bev::blank(w.config().bev.cells);
        let mut input = Vec::new();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for tick in 0..60 {
            if tick % 12 == 0 {
                for i in 0..w.n_experts() {
                    let (collected_bev, sup) = w.observe_expert(i);
                    let frame = Frame::from_observation(&collected_bev, &sup, pool);
                    let v = w.expert_view(i);
                    let pose =
                        Pose { pos: v.position(w.map()), heading: v.heading(w.map()).angle() };
                    let command = w.observe_route(v, pose, Some(i), &mut bev);
                    policy_input_into(&bev, pool, next_turn_info(w.map(), v), &mut input);
                    let ctx = format!("expert {i} tick {tick}");
                    assert_eq!(command, frame.command, "{ctx}: command");
                    assert_eq!(bits(&input), bits(&frame.features), "{ctx}: input");
                }
            }
            w.step();
        }
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
