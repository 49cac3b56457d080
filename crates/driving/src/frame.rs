//! The driving training sample.

use simworld::agents::VehicleRef;
use simworld::bev::{Bev, Pose};
use simworld::expert::{next_turn_info, Command, TURN_LOOKAHEAD};
use simworld::world::World;
use std::fmt;
use std::sync::Arc;

/// One imitation-learning sample: the policy input (pooled BEV, speed and
/// navigation scalars), the conditional command, and the expert's
/// time-spaced waypoints (the regression target).
///
/// The BEV is a sparse binary occupancy tensor, so every pooled block is
/// `k / pool²` for an integer count `0 ≤ k ≤ pool²`. A frame keeps that
/// count, one byte per block, and expands it on use as `k as f32 * (1 /
/// pool²)` — the product [`Bev::features_into`] computes — so a decoded
/// input has the exact bits collection observed. [`Frame::pack`] is the
/// one constructor.
///
/// Everything a frame stores is one immutable `Arc<[f32]>`: the speed, the
/// [`NAV_FEATURES`] scalars and the waypoints, then the block counts
/// packed four to a little-endian word (`f32::from_bits`, zero-padded
/// after the last block). A frame is recorded once and never edited, and
/// LbChat hands frames around all day — every cell starts from the
/// scenario's datasets, every chat ships a coreset each way, §III-D folds
/// the peer's coreset into the local dataset — so [`Clone`] copies one
/// 24-byte handle, not a buffer, and a fleet's frames cost what was
/// collected however many nodes hold them.
///
/// Equality is by content, bit for bit: a frame equals its clone whatever
/// floats it holds (NaN included), and `0.0` and `-0.0` differ.
#[derive(Clone)]
pub struct Frame {
    /// The normalized speed and the [`NAV_FEATURES`] scalars, the target
    /// waypoints `[x1, y1, ..]` in the ego frame, then the block counts
    /// in feature order, four to a word.
    data: Arc<[f32]>,
    /// Number of pooled BEV blocks.
    n_blocks: u32,
    /// High-level command selecting the policy branch.
    pub command: Command,
    /// The pooling factor: a block covers `pool²` grid cells.
    pool: u8,
}

const _: () = assert!(std::mem::size_of::<Frame>() <= 24);

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

/// Block counts packed into one stored word.
const BLOCKS_PER_WORD: usize = 4;

impl Frame {
    /// Packs one observation: `features` as [`observe_into`] leaves it
    /// (the blocks of a BEV pooled by `pool`, the speed, the
    /// [`NAV_FEATURES`] scalars), with `waypoints` as the target.
    ///
    /// # Panics
    /// Panics if `features` is shorter than its scalars, if `pool²` does
    /// not fit a byte, if the block count does not fit a `u32`, or if a
    /// block value is not exactly `k as f32 * (1 / pool²)` for an integer
    /// `0 ≤ k ≤ pool²` — compared by bits, so `-0.0` is off the grid too.
    pub fn pack(features: &[f32], pool: usize, command: Command, waypoints: &[f32]) -> Self {
        let cells = pool * pool;
        assert!(
            pool > 0 && cells <= usize::from(u8::MAX),
            "a {pool}×{pool} block count does not fit a byte"
        );
        assert!(features.len() >= INPUT_SCALARS, "features lack the speed and navigation scalars");
        let (bev, tail) = features.split_at(features.len() - INPUT_SCALARS);
        assert!(bev.len() <= u32::MAX as usize, "{} blocks do not fit a frame", bev.len());
        let norm = 1.0 / cells as f32;
        let count = |v: f32| {
            // Saturating: anything outside `0..=255` fails the checks.
            let k = (v * cells as f32).round() as u8;
            assert!(
                usize::from(k) <= cells && (f32::from(k) * norm).to_bits() == v.to_bits(),
                "BEV value {v:?} is off the occupancy grid of a {pool}×{pool} block"
            );
            k
        };
        let words = bev.chunks(BLOCKS_PER_WORD).map(|chunk| {
            let mut word = [0u8; BLOCKS_PER_WORD];
            for (k, &v) in word.iter_mut().zip(chunk) {
                *k = count(v);
            }
            f32::from_bits(u32::from_le_bytes(word))
        });
        let data = tail.iter().chain(waypoints).copied().chain(words).collect();
        Self { data, n_blocks: bev.len() as u32, command, pool: pool as u8 }
    }

    /// Where the packed block words start in `data`.
    fn words_start(&self) -> usize {
        self.data.len() - (self.n_blocks as usize).div_ceil(BLOCKS_PER_WORD)
    }

    /// The stored block counts, one per pooled BEV block, in feature order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = u8> + '_ {
        let words = &self.data[self.words_start()..];
        (0..self.n_blocks as usize)
            .map(move |i| words[i / BLOCKS_PER_WORD].to_bits().to_le_bytes()[i % BLOCKS_PER_WORD])
    }

    /// The stored floats: the speed, the [`NAV_FEATURES`] scalars, then
    /// the waypoints. They open the frame's one allocation, so the
    /// slice's address is the payload's.
    pub fn scalars(&self) -> &[f32] {
        &self.data[..self.words_start()]
    }

    /// Target waypoints `[x1, y1, ..]` in the ego frame.
    pub fn waypoints(&self) -> &[f32] {
        &self.scalars()[INPUT_SCALARS..]
    }

    /// Number of waypoints in the target.
    pub fn n_waypoints(&self) -> usize {
        self.waypoints().len() / 2
    }

    /// Length of the policy input this frame decodes to.
    pub fn input_dim(&self) -> usize {
        self.n_blocks as usize + INPUT_SCALARS
    }

    /// Decodes the policy input into `row`: every block's `k as f32 * (1 /
    /// pool²)`, then the speed and the [`NAV_FEATURES`] scalars — the
    /// bits [`Frame::pack`] was given.
    ///
    /// # Panics
    /// Panics if `row` is not [`Frame::input_dim`] long.
    pub fn input_into(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.input_dim(), "input dimension mismatch");
        let (bev, tail) = row.split_at_mut(self.n_blocks as usize);
        let pool = usize::from(self.pool);
        let norm = 1.0 / (pool * pool) as f32;
        let words = &self.data[self.words_start()..];
        let expand = |xs: &mut [f32], word: &f32| {
            for (x, k) in xs.iter_mut().zip(word.to_bits().to_le_bytes()) {
                *x = f32::from(k) * norm;
            }
        };
        let mut full = bev.chunks_exact_mut(BLOCKS_PER_WORD);
        for (xs, word) in full.by_ref().zip(words) {
            expand(xs, word);
        }
        // A ragged last word; when there is none, the remainder is empty.
        if let Some(last) = words.last() {
            expand(full.into_remainder(), last);
        }
        tail.copy_from_slice(&self.data[..INPUT_SCALARS]);
    }

    /// [`Frame::input_into`] into a caller-owned buffer, resized to fit.
    pub fn features_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.input_dim(), 0.0);
        self.input_into(out);
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        (self.n_blocks, self.command, self.pool) == (other.n_blocks, other.command, other.pool)
            && (Arc::ptr_eq(&self.data, &other.data)
                || self.data.iter().map(|x| x.to_bits()).eq(other.data.iter().map(|x| x.to_bits())))
    }
}

impl Eq for Frame {}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("blocks", &self.blocks().collect::<Vec<u8>>())
            .field("scalars", &self.scalars())
            .field("command", &self.command)
            .field("pool", &self.pool)
            .finish()
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
        assert_eq!(f.n_waypoints(), simworld::world::N_WAYPOINTS);
        assert_eq!(f.scalars().len(), 1 + NAV_FEATURES + 2 * f.n_waypoints());
    }

    #[test]
    fn clone_shares_the_payload_and_equality_is_by_content() {
        let w = World::new(WorldConfig::small(3));
        let f = collected(&w, 1);
        let g = f.clone();
        assert!(Arc::ptr_eq(&f.data, &g.data));
        // A frame rebuilt from the same observation owns a fresh buffer and
        // still compares equal; one differing float does not.
        let rebuilt = collected(&w, 1);
        assert!(!Arc::ptr_eq(&f.data, &rebuilt.data));
        assert_eq!(f, rebuilt);
        let mut features = Vec::new();
        f.features_into(&mut features);
        let mut wp = f.waypoints().to_vec();
        wp[0] += 1.0;
        assert_ne!(f, Frame::pack(&features, w.config().bev.pool, f.command, &wp));
    }

    #[test]
    fn a_word_that_reads_as_a_signaling_nan_keeps_its_bits() {
        // At 15×15 pooling, counts 1, 0, 128, 127 pack to 0x7f80_0001.
        let norm = 1.0 / 225.0;
        let mut features: Vec<f32> = [1u8, 0, 128, 127].map(|k| f32::from(k) * norm).to_vec();
        features.extend([0.5, 0.0, 1.0]);
        let f = Frame::pack(&features, 15, Command::Straight, &[1.0, 2.0]);
        assert!(f.data[INPUT_SCALARS + 2].is_nan());
        assert_eq!(f.blocks().collect::<Vec<u8>>(), [1, 0, 128, 127]);
        let mut decoded = Vec::new();
        f.clone().features_into(&mut decoded);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&features));
        assert_eq!(Frame::pack(&decoded, 15, f.command, f.waypoints()), f);
    }

    #[test]
    fn equality_compares_bits() {
        let features = [0.25, 0.5, 0.0, 0.1, 1.0];
        let nan = Frame::pack(&features, 2, Command::Follow, &[f32::NAN, 1.0]);
        let rebuilt = Frame::pack(&features, 2, Command::Follow, &[f32::NAN, 1.0]);
        assert_eq!(nan.clone(), nan);
        assert_eq!(rebuilt, nan, "same bits in separate buffers");
        let pos = Frame::pack(&features, 2, Command::Follow, &[0.0, 1.0]);
        let neg = Frame::pack(&features, 2, Command::Follow, &[-0.0, 1.0]);
        assert_ne!(pos, neg);
        assert_ne!(pos, Frame::pack(&features, 2, Command::Left, &[0.0, 1.0]));
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
        assert_eq!(f.blocks().collect::<Vec<u8>>(), (0..=16).collect::<Vec<u8>>());
        let mut decoded = vec![7.0; 3];
        f.features_into(&mut decoded);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&features));
        assert_eq!(f.waypoints(), [0.5, -0.25]);
    }
}
