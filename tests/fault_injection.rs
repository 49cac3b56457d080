//! Failure-injection integration tests: the stack must behave sanely under
//! degenerate traces, hostile channels, and pathological datasets.

use lbchat::node::LbChatAlgorithm;
use lbchat::runtime::{Runtime, RuntimeConfig};
use lbchat::{LbChatConfig, Learner, WeightedDataset};
use rand::SeedableRng;
use simnet::geom::Vec2;
use simnet::loss::LossModel;
use simnet::trace::MobilityTrace;
use vnn::ParamVec;

/// The same analytic learner the unit tests use, kept local to this suite.
#[derive(Debug, Clone)]
struct Line {
    params: ParamVec,
    lr: f32,
}

#[derive(Debug, Clone, Copy)]
struct Pt {
    x: f32,
    y: f32,
}

impl Line {
    fn new() -> Self {
        Self { params: ParamVec::from_vec(vec![0.0, 0.0]), lr: 0.05 }
    }
}

impl Learner for Line {
    type Sample = Pt;
    fn params(&self) -> &ParamVec {
        &self.params
    }
    fn set_params(&mut self, p: ParamVec) {
        self.params = p;
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
        let w = self.params.as_slice();
        let (mut ga, mut gb, mut acc, mut ws) = (0.0f32, 0.0, 0.0, 0.0);
        for (s, wt) in batch {
            let r = w[0] * s.x + w[1] - s.y;
            ga += wt * 2.0 * r * s.x;
            gb += wt * 2.0 * r;
            acc += wt * r * r;
            ws += wt;
        }
        let p = self.params.as_mut_slice();
        p[0] -= self.lr * ga / ws;
        p[1] -= self.lr * gb / ws;
        acc / ws
    }
    fn group_of(&self, _s: &Pt) -> usize {
        0
    }
    fn n_groups(&self) -> usize {
        1
    }
}

fn run_ok(
    rt: &Runtime,
    a: &mut LbChatAlgorithm<Line>,
    trace: &MobilityTrace,
    eval: &[Pt],
) -> lbchat::prelude::Metrics {
    rt.run(a, trace, eval).expect("trace fits fleet")
}

fn data(a: f32, n: usize) -> Vec<Pt> {
    (0..n).map(|i| {
        let x = i as f32 / n as f32 * 4.0 - 2.0;
        Pt { x, y: a * x }
    }).collect()
}

fn algo(n: usize) -> LbChatAlgorithm<Line> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let learners = vec![Line::new(); n];
    let datasets: Vec<_> =
        (0..n).map(|i| WeightedDataset::uniform(data(i as f32, 120))).collect();
    let cfg = LbChatConfig {
        coreset_size: 20,
        coreset_bytes_per_sample: 256,
        model_wire_bytes: 2 * 1024 * 1024,
        batch_size: 16,
        ..LbChatConfig::default()
    };
    LbChatAlgorithm::new(learners, datasets, cfg, &mut rng)
}

#[test]
fn teleporting_vehicles_do_not_break_the_runtime() {
    // A trace whose agent jumps across the map every frame: contacts are
    // one frame long and estimates are garbage. Nothing should panic and
    // training must proceed.
    let frames = 401;
    let jumper: Vec<Vec2> = (0..frames)
        .map(|k| if k % 2 == 0 { Vec2::ZERO } else { Vec2::new(3000.0, 0.0) })
        .collect();
    let parked = vec![Vec2::new(60.0, 0.0); frames];
    let trace = MobilityTrace::new(2.0, vec![jumper, parked]);
    let mut a = algo(2);
    let rt = Runtime::new(RuntimeConfig { duration: 200.0, ..RuntimeConfig::default() });
    let m = run_ok(&rt, &mut a, &trace, &data(0.5, 20));
    assert!(m.train_iterations > 0);
}

#[test]
fn always_out_of_range_means_pure_local_training() {
    let frames = 401;
    let trace = MobilityTrace::new(
        2.0,
        vec![vec![Vec2::ZERO; frames], vec![Vec2::new(9000.0, 0.0); frames]],
    );
    let mut a = algo(2);
    let rt = Runtime::new(RuntimeConfig { duration: 200.0, ..RuntimeConfig::default() });
    // Evaluate on node 1's distribution (slope 1): its local SGD improves
    // the fleet mean even with zero communication.
    let m = run_ok(&rt, &mut a, &trace, &data(1.0, 20));
    assert_eq!(m.sessions, 0);
    assert_eq!(m.coreset_sends, 0);
    let c = &m.loss_curve;
    assert!(c.last().unwrap().1 < c.first().unwrap().1, "local SGD still works");
}

#[test]
fn total_packet_loss_channel_stops_all_payloads() {
    // PER = 1 everywhere: every session dies in the assist phase; no
    // coresets or models are ever delivered, but the runtime completes.
    let frames = 401;
    let trace = MobilityTrace::new(
        2.0,
        vec![vec![Vec2::ZERO; frames], vec![Vec2::new(50.0, 0.0); frames]],
    );
    let mut a = algo(2);
    let rt = Runtime::new(RuntimeConfig {
        duration: 200.0,
        loss_model: LossModel::Distance(vec![(0.0, 1.0), (500.0, 1.0)]),
        ..RuntimeConfig::default()
    });
    let m = run_ok(&rt, &mut a, &trace, &data(0.5, 20));
    assert_eq!(m.coreset_receives, 0, "nothing can get through a PER=1 channel");
    assert_eq!(m.model_receives, 0);
}

#[test]
fn single_vehicle_fleet_is_fine() {
    let frames = 201;
    let trace = MobilityTrace::new(2.0, vec![vec![Vec2::ZERO; frames]]);
    let mut a = algo(1);
    let rt = Runtime::new(RuntimeConfig { duration: 100.0, ..RuntimeConfig::default() });
    let m = run_ok(&rt, &mut a, &trace, &data(0.0, 20));
    assert_eq!(m.sessions, 0);
    assert!(m.train_iterations > 0);
}

#[test]
fn tiny_datasets_still_chat() {
    // Datasets smaller than the coreset size: coresets are the whole
    // dataset; the protocol still works.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let learners = vec![Line::new(), Line::new()];
    let datasets = vec![
        WeightedDataset::uniform(data(1.0, 5)),
        WeightedDataset::uniform(data(-1.0, 5)),
    ];
    let cfg = LbChatConfig {
        coreset_size: 50,
        coreset_bytes_per_sample: 256,
        model_wire_bytes: 1024 * 1024,
        batch_size: 4,
        ..LbChatConfig::default()
    };
    let mut a = LbChatAlgorithm::new(learners, datasets, cfg, &mut rng);
    let frames = 401;
    let trace = MobilityTrace::new(
        2.0,
        vec![vec![Vec2::ZERO; frames], vec![Vec2::new(40.0, 0.0); frames]],
    );
    let rt = Runtime::new(RuntimeConfig { duration: 200.0, ..RuntimeConfig::default() });
    let m = run_ok(&rt, &mut a, &trace, &data(0.0, 10));
    assert!(m.sessions > 0);
    assert!(m.coreset_receives > 0);
    assert!(a.node(0).vehicle.dataset().len() > 5, "absorption still expands tiny datasets");
}

#[test]
fn zero_duration_run_is_a_noop() {
    let frames = 11;
    let trace = MobilityTrace::new(2.0, vec![vec![Vec2::ZERO; frames]; 2]);
    let mut a = algo(2);
    let rt = Runtime::new(RuntimeConfig { duration: 0.0, ..RuntimeConfig::default() });
    let m = run_ok(&rt, &mut a, &trace, &data(0.5, 10));
    assert_eq!(m.train_iterations, 0);
    assert_eq!(m.sessions, 0);
    assert_eq!(m.loss_curve.len(), 1, "only the final evaluation");
}
