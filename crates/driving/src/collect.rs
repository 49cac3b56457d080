//! Per-vehicle dataset collection (§IV-A: "vehicles collect data at two
//! frames per second ... we run the vehicles for one hour to collect the
//! local datasets for training").
//!
//! Each expert keeps only what its own route showed it, so local datasets
//! are naturally *route-conditioned*: a vehicle looping the rural ring sees
//! almost no turns or pedestrians, a downtown vehicle sees plenty. This
//! per-vehicle skew is precisely what coreset exchange measures and
//! exploits.

use crate::frame::{observe_into, Frame};
use lbchat::WeightedDataset;
use simworld::bev::Bev;
use simworld::expert::{Command, TURN_LOOKAHEAD};
use simworld::world::{World, FPS};

/// Data-collection parameters.
#[derive(Debug, Clone)]
pub struct CollectConfig {
    /// Simulated seconds of driving to record (paper: 3600).
    pub seconds: f64,
    /// Keep every `stride`-th frame (1 = the paper's every-frame capture;
    /// larger strides decorrelate samples in fast runs).
    /// One value in every non-test caller; kept only because the
    /// stand-alone `lbchat_e2e` benchmark package names it.
    pub stride: usize,
    /// Balance command classes via the sample weights `w(d)`: turn frames
    /// are rare (a turn lasts a few seconds) but safety-critical, so they
    /// get a higher original weight. This is exactly the non-uniform-w(d)
    /// generality the paper's Algorithm 1 supports.
    /// One value in every non-test caller; kept only because the
    /// stand-alone `lbchat_e2e` benchmark package names it.
    pub balance_commands: bool,
}

impl Default for CollectConfig {
    fn default() -> Self {
        Self { seconds: 3600.0, stride: 1, balance_commands: true }
    }
}

/// The original weight `w(d)` of a frame by its command class and
/// turn proximity: the few frames where the expert actually bends into the
/// corner (small normalized turn distance) carry the safety-critical
/// steering signal and get boosted hardest.
pub fn command_weight(command: Command, turn_distance_norm: f32) -> f32 {
    let base = match command {
        Command::Follow => 1.0,
        Command::Straight => 1.5,
        Command::Left | Command::Right => 3.0,
    };
    let proximity = (0.15 - turn_distance_norm).max(0.0) / 0.15; // 0..1
    base + 8.0 * proximity
}

/// Runs `world` for `cfg.seconds`, recording every expert's observations.
/// Returns one weighted dataset per expert vehicle.
///
/// Each kept frame observes the experts in id order on the calling thread,
/// through one reused BEV and feature buffer, and [`Frame::pack`] stores
/// each observation in one allocation of exact length: the speed,
/// navigation scalars and waypoints as `f32`, then one count byte per
/// pooled BEV block.
pub fn collect_datasets(world: &mut World, cfg: &CollectConfig) -> Vec<WeightedDataset<Frame>> {
    let n = world.n_experts();
    let frames = (cfg.seconds * FPS).ceil() as usize;
    let mut per_vehicle: Vec<(Vec<Frame>, Vec<f32>)> = vec![(Vec::new(), Vec::new()); n];
    let mut bev = Bev::blank(world.config().bev.cells);
    let mut features = Vec::new();
    let pool = world.config().bev.pool;
    for f in 0..frames {
        if f % cfg.stride.max(1) == 0 {
            for (i, (kept, weights)) in per_vehicle.iter_mut().enumerate() {
                let v = world.expert_view(i);
                let (command, turn_distance) =
                    observe_into(world, v, v.pose(world.map()), Some(i), &mut bev, &mut features);
                let waypoints = world.expert_waypoints(v);
                kept.push(Frame::pack(&features, pool, command, &waypoints));
                weights.push(command_weight(command, turn_distance / TURN_LOOKAHEAD));
            }
        }
        world.step();
    }
    per_vehicle
        .into_iter()
        .map(|(frames, weights)| {
            if cfg.balance_commands {
                WeightedDataset::new(frames, weights)
            } else {
                WeightedDataset::uniform(frames)
            }
        })
        .collect()
}

/// The evaluation set: `per_vehicle` frames spaced evenly over each
/// vehicle's whole dataset, pooled in vehicle order — a fixed sample of the
/// training frames over the joint distribution, on which the Fig. 2/3
/// "training loss" curves are measured. The frames are not held out: they
/// stay in the datasets the fleet trains on.
pub fn eval_set(datasets: &[WeightedDataset<Frame>], per_vehicle: usize) -> Vec<Frame> {
    let mut out = Vec::new();
    for d in datasets {
        let n = d.len();
        let take = per_vehicle.min(n);
        if take == 0 {
            continue;
        }
        let stride = (n / take).max(1);
        for k in 0..take {
            out.push(d.sample((k * stride).min(n - 1)).clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simworld::world::WorldConfig;

    #[test]
    fn collection_yields_per_vehicle_datasets() {
        let mut w = World::new(WorldConfig::small(5));
        let ds = collect_datasets(&mut w, &CollectConfig { seconds: 30.0, stride: 1, balance_commands: true });
        assert_eq!(ds.len(), 8);
        for d in &ds {
            assert_eq!(d.len(), 60, "30 s at 2 fps");
        }
    }

    #[test]
    fn stride_thins_the_data() {
        let mut w = World::new(WorldConfig::small(5));
        let ds = collect_datasets(&mut w, &CollectConfig { seconds: 30.0, stride: 3, balance_commands: true });
        assert_eq!(ds[0].len(), 20);
    }

    #[test]
    fn datasets_differ_across_vehicles() {
        let mut w = World::new(WorldConfig::small(6));
        let ds = collect_datasets(&mut w, &CollectConfig { seconds: 20.0, stride: 1, balance_commands: true });
        // Different routes ⇒ different features.
        assert!(!ds[0].sample(0).blocks().eq(ds[1].sample(0).blocks()));
    }

    #[test]
    fn eval_set_draws_from_everyone() {
        let mut w = World::new(WorldConfig::small(7));
        let ds = collect_datasets(&mut w, &CollectConfig { seconds: 20.0, stride: 1, balance_commands: true });
        let eval = eval_set(&ds, 5);
        assert_eq!(eval.len(), 5 * 8);
    }

    #[test]
    fn eval_set_of_zero_per_vehicle_is_empty() {
        let mut w = World::new(WorldConfig::small(7));
        let ds = collect_datasets(&mut w, &CollectConfig { seconds: 5.0, stride: 1, balance_commands: true });
        assert!(eval_set(&ds, 0).is_empty());
    }
}
