//! Golden fixture for the traffic the 256-vehicle benchmark workload sends.
//!
//! `lbchat_e2e`'s `fleet256_w` holds its metrics to pass-to-pass identity
//! only, so nothing pinned that workload *across commits*. This is the same
//! scenario at a quarter of the fleet: 64 vehicles from `World::new` +
//! `record_trace`, `baselines::Dp` gossiping a 4 MiB model over a
//! two-parameter learner, the paper's distance→PER table, 60 simulated
//! seconds. Every session moves ~2 800 packets along the two vehicles'
//! recorded motion, so a change to the packet loop, the link-distance
//! source, the loss table or frame matching that perturbs one draw shows up
//! as a fixture diff. Floats are recorded as raw bit patterns.
//!
//! The fixture was recorded on the commit *before* `Channel::run` learned to
//! bound the link distance per trace segment. To regenerate after an
//! *intentional* behaviour change, run
//! `LBCHAT_GOLDEN_WRITE=1 cargo test -p experiments --test fleet_traffic_golden`
//! and commit the diff.

use baselines::dp::{Dp, DpConfig};
use lbchat::runtime::{Runtime, RuntimeConfig};
use lbchat::{Learner, WeightedDataset};
use rand::{RngExt, SeedableRng};
use simnet::loss::LossModel;
use simworld::world::{World, WorldConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use vnn::ParamVec;

const VEHICLES: usize = 64;
const HORIZON_S: f64 = 60.0;

/// `y = a·x + b` with squared loss — training costs nanoseconds, so the run
/// is the runtime and the radio.
#[derive(Debug, Clone)]
struct Line(ParamVec);

#[derive(Debug, Clone, Copy)]
struct Pt {
    x: f32,
    y: f32,
}

impl Learner for Line {
    type Sample = Pt;
    fn params(&self) -> &ParamVec {
        &self.0
    }
    fn set_params(&mut self, p: ParamVec) {
        self.0 = p;
    }
    fn loss_with(&self, p: &ParamVec, s: &Pt) -> f32 {
        let w = p.as_slice();
        let r = w[0] * s.x + w[1] - s.y;
        r * r
    }
    fn train_step(&mut self, batch: &[(&Pt, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let w = self.0.as_slice();
        let (mut ga, mut gb, mut loss, mut wsum) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (s, wt) in batch {
            let r = w[0] * s.x + w[1] - s.y;
            ga += wt * 2.0 * r * s.x;
            gb += wt * 2.0 * r;
            loss += wt * r * r;
            wsum += wt;
        }
        let inv = 1.0 / wsum;
        let p = self.0.as_mut_slice();
        p[0] -= 0.05 * ga * inv;
        p[1] -= 0.05 * gb * inv;
        loss * inv
    }
    fn group_of(&self, _s: &Pt) -> usize {
        0
    }
    fn n_groups(&self) -> usize {
        1
    }
}

fn render_run() -> String {
    let mut world = World::new(WorldConfig {
        seed: 42,
        n_experts: VEHICLES,
        n_background: 0,
        n_pedestrians: 0,
        ..WorldConfig::default()
    });
    let trace = world.record_trace(HORIZON_S + 60.0);

    // Every vehicle holds 64 points of its own line.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1EE7);
    let mut datasets = Vec::with_capacity(VEHICLES);
    let mut eval = Vec::new();
    for _ in 0..VEHICLES {
        let a = rng.random_range(1.5f32..2.5);
        let b = rng.random_range(-1.5f32..-0.5);
        let points: Vec<Pt> = (0..64)
            .map(|_| {
                let x = rng.random_range(-2.0f32..2.0);
                Pt { x, y: a * x + b + rng.random_range(-0.05f32..0.05) }
            })
            .collect();
        eval.extend_from_slice(&points[..2]);
        datasets.push(WeightedDataset::uniform(points));
    }
    let learners = vec![Line(ParamVec::from_vec(vec![0.0, 0.0])); VEHICLES];
    let mut algo = Dp::new(
        learners,
        datasets,
        DpConfig { model_bytes: 4 * 1024 * 1024, ..DpConfig::default() },
    );
    let cfg = RuntimeConfig {
        duration: HORIZON_S,
        train_iters_per_second: 0.5,
        loss_model: LossModel::distance_default(),
        eval_every: HORIZON_S / 4.0,
        seed: 42,
        ..RuntimeConfig::default()
    };
    let m = Runtime::new(cfg).run(&mut algo, &trace, &eval).expect("trace hosts the fleet");

    let mut out = String::new();
    let _ = writeln!(out, "# DP[line] x{VEHICLES}, 4 MiB model, distance_default, {HORIZON_S} sim-s");
    let _ = writeln!(out, "sessions {}", m.sessions);
    let _ = writeln!(out, "model_sends {} model_receives {}", m.model_sends, m.model_receives);
    let _ = writeln!(out, "coreset_sends {} coreset_receives {}", m.coreset_sends, m.coreset_receives);
    let _ = writeln!(out, "bytes_delivered {}", m.bytes_delivered);
    let _ = writeln!(out, "comm_seconds {:016x}", m.comm_seconds.to_bits());
    let _ = writeln!(out, "train_iterations {}", m.train_iterations);
    for (t, loss) in &m.loss_curve {
        let _ = writeln!(out, "loss t={:016x} l={:016x}", t.to_bits(), loss.to_bits());
    }
    out
}

#[test]
fn fleet_traffic_matches_golden_fixture() {
    let rendered = render_run();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fleet_traffic.txt");
    if std::env::var_os("LBCHAT_GOLDEN_WRITE").is_some_and(|v| v == "1") {
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `LBCHAT_GOLDEN_WRITE=1 cargo test -p experiments --test fleet_traffic_golden` to record it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "the fleet's traffic drifted from the committed fixture; if the change is intentional, regenerate it"
    );
}
