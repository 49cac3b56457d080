//! Scenario construction: everything every method shares.

use driving::{collect_datasets, CollectConfig, DrivingLearner, Frame};
use lbchat::prelude::Codec;
use lbchat::WeightedDataset;
use rand::SeedableRng;
use simnet::geom::Vec2;
use simnet::trace::MobilityTrace;
use simworld::world::{FleetScale, World, WorldConfig};
use vnn::PolicySpec;

/// Experiment scale knobs. `paper()` matches §IV-A; the default is a
/// laptop-friendly reduction preserving every ratio that matters (frame
/// rate, radio, coreset size vs model size, task mix).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Learning vehicles (paper: 32).
    pub n_vehicles: usize,
    /// Background cars (paper: 50).
    pub n_background: usize,
    /// Pedestrians (paper: 250).
    pub n_pedestrians: usize,
    /// Seconds of data collection (paper: 3600).
    pub data_seconds: f64,
    /// Seconds of collaborative training to simulate.
    pub train_seconds: f64,
    /// Seconds between loss-curve samples.
    pub eval_every: f64,
    /// Evaluation frames sampled from each vehicle's training data.
    pub eval_per_vehicle: usize,
    /// Closed-loop trials per task.
    pub trials: usize,
    /// Local training iterations per simulated second.
    pub iters_per_second: f64,
    /// Dense model wire size in bytes (paper: 52 MB).
    pub model_wire_bytes: usize,
    /// Coreset size in frames (paper: 150).
    pub coreset_size: usize,
    /// Learning rate for the policy.
    pub lr: f32,
    /// Base seed for world/data/training.
    pub seed: u64,
    /// Unused: nothing in the workspace reads it, and the run manifest does
    /// not record it. Every share path sends magnitude top-k, the only
    /// [`Codec`] (docs/COMPRESSION.md). The field stays only because the
    /// stand-alone `lbchat_e2e` benchmark package still sets it; it goes
    /// once that package's `workloads.rs` stops naming it.
    pub codec: Codec,
    /// Unused: nothing in the workspace reads it, and the run manifest does
    /// not record it; the world has no fleet axis. The field stays only
    /// because the stand-alone `lbchat_e2e` benchmark package still sets it;
    /// it goes once that package's `workloads.rs` stops naming it.
    pub fleet: FleetScale,
}

impl Scale {
    /// Smoke-test scale: seconds of wall time.
    pub fn quick() -> Self {
        Self {
            n_vehicles: 4,
            n_background: 8,
            n_pedestrians: 30,
            data_seconds: 120.0,
            train_seconds: 600.0,
            eval_every: 120.0,
            eval_per_vehicle: 20,
            trials: 4,
            iters_per_second: 1.0,
            model_wire_bytes: 8 * 1024 * 1024,
            coreset_size: 40,
            lr: 3e-3,
            seed: 42,
            codec: Codec::TopK,
            fleet: FleetScale::Seed,
        }
    }

    /// The default reduced scale: about a minute of wall time per method
    /// on one core.
    pub fn default_scale() -> Self {
        Self {
            n_vehicles: 8,
            n_background: 20,
            n_pedestrians: 80,
            data_seconds: 360.0,
            train_seconds: 1500.0,
            eval_every: 125.0,
            eval_per_vehicle: 25,
            trials: 10,
            iters_per_second: 1.0,
            model_wire_bytes: 16 * 1024 * 1024,
            coreset_size: 60,
            lr: 3e-3,
            seed: 42,
            codec: Codec::TopK,
            fleet: FleetScale::Seed,
        }
    }

    /// The paper's §IV-A counts. Hours of wall time.
    pub fn paper() -> Self {
        Self {
            n_vehicles: 32,
            n_background: 50,
            n_pedestrians: 250,
            data_seconds: 3600.0,
            train_seconds: 14_400.0,
            eval_every: 300.0,
            eval_per_vehicle: 50,
            trials: 25,
            iters_per_second: 2.0,
            model_wire_bytes: 52 * 1024 * 1024,
            coreset_size: 150,
            lr: 1e-3,
            seed: 42,
            codec: Codec::TopK,
            fleet: FleetScale::Seed,
        }
    }
}

/// The shared experimental fixture.
pub struct Scenario {
    /// Scale this scenario was built at.
    pub scale: Scale,
    /// Per-vehicle route-conditioned training datasets.
    pub datasets: Vec<WeightedDataset<Frame>>,
    /// Evaluation frames: a fixed sample of the training frames (joint
    /// distribution), not held out; see [`driving::collect::eval_set`].
    pub eval: Vec<Frame>,
    /// Mobility trace for the training window.
    pub trace: MobilityTrace,
    /// Policy architecture.
    pub spec: PolicySpec,
    /// RSU deployment sites (road crossings, for RSU-L).
    pub rsu_positions: Vec<Vec2>,
}

impl Scenario {
    /// Builds the fixture: collects data with expert autopilots, then keeps
    /// driving to record the mobility trace for the training window — the
    /// paper's two-phase procedure ("run the vehicles for one hour to
    /// collect the local datasets ... run the vehicles for an additional
    /// 120 hours and collect their locations").
    pub fn build(scale: Scale) -> Self {
        let mut world = World::new(WorldConfig {
            seed: scale.seed,
            n_experts: scale.n_vehicles,
            n_background: scale.n_background,
            n_pedestrians: scale.n_pedestrians,
            ..WorldConfig::default()
        });
        let datasets = collect_datasets(
            &mut world,
            &CollectConfig { seconds: scale.data_seconds, stride: 1, balance_commands: true },
        );
        let eval = driving::collect::eval_set(&datasets, scale.eval_per_vehicle);
        let trace = world.record_trace(scale.train_seconds + 60.0);

        let spec = DrivingLearner::spec_for(
            world.config().bev.feature_len(),
            simworld::world::N_WAYPOINTS,
        );

        // RSUs at four spread town crossings plus one rural junction —
        // "we simulate the behavior of RSUs at road crosses".
        let map = world.map();
        let targets = [
            Vec2::new(250.0, 250.0),
            Vec2::new(250.0, 550.0),
            Vec2::new(550.0, 250.0),
            Vec2::new(550.0, 550.0),
            Vec2::new(850.0, 850.0),
        ];
        let rsu_positions = targets
            .iter()
            .map(|t| {
                let mut best = (f32::INFINITY, Vec2::ZERO);
                for n in 0..map.n_nodes() {
                    let p = map.node(n).pos;
                    let d = p.distance(*t);
                    if d < best.0 {
                        best = (d, p);
                    }
                }
                best.1
            })
            .collect();

        Self { scale, datasets, eval, trace, spec, rsu_positions }
    }

    /// Identically initialized learners for every vehicle (the paper's
    /// same-initialization assumption).
    pub fn make_learners(&self) -> Vec<DrivingLearner> {
        (0..self.scale.n_vehicles)
            .map(|_| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(self.scale.seed ^ 0xABCD);
                DrivingLearner::new(&self.spec, self.scale.lr, &mut rng)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbchat::Learner;

    #[test]
    fn quick_scenario_builds_consistently() {
        let s = Scenario::build(Scale::quick());
        assert_eq!(s.datasets.len(), 4);
        assert_eq!(s.trace.n_agents(), 4);
        assert!(s.trace.duration() >= 600.0);
        assert!(!s.eval.is_empty());
        assert_eq!(s.rsu_positions.len(), 5);
        let learners = s.make_learners();
        assert_eq!(learners.len(), 4);
        assert_eq!(learners[0].params(), learners[3].params(), "identical init");
    }

    #[test]
    fn datasets_are_route_conditioned() {
        let s = Scenario::build(Scale::quick());
        // Command distributions should differ across vehicles.
        let hist = |d: &WeightedDataset<Frame>| {
            let mut h = [0usize; 4];
            for f in d.samples() {
                h[f.command.index()] += 1;
            }
            h
        };
        let h0 = hist(&s.datasets[0]);
        let others: Vec<_> = (1..4).map(|i| hist(&s.datasets[i])).collect();
        assert!(
            others.iter().any(|h| *h != h0),
            "different routes must show different command mixes"
        );
    }
}
