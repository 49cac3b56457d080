//! The closed-loop evaluator's diagnosis at the given scale. Prints three
//! tables to stdout, then drives trial 0 of two tasks under LbChat:
//!
//! 1. the ceiling — the privileged expert at the wheel of every task, at
//!    the scale's evaluation traffic and at the paper's, with each trial's
//!    end (success, collision, off-route, timeout);
//! 2. the no-communication upper bound — one learner trained on every
//!    vehicle's pooled frames, for a cell's iteration budget and for the
//!    whole fleet's, beside LbChat's (loss-free) vehicle 0;
//! 3. open-loop L1 error and frame count by command, for those learners.
//!
//! Trial 0 of Straight and One Turn — the trial the success tables count
//! first — prints per-frame telemetry to stderr and its outcome to stdout.

use driving::eval::{privileged_success_rate, success_rate, EvalConfig, Task, TaskResult};
use driving::{DrivingLearner, Frame};
use experiments::report::Table;
use experiments::{exit_on_error, run_method, Args, Condition, Method, Scenario};
use lbchat::learner::mean_loss;
use lbchat::config::BATCH_SIZE;
use lbchat::{Learner, Vehicle, WeightedDataset};
use rand::SeedableRng;
use simworld::expert::Command;

/// Trials per task in every closed-loop row.
const TRIALS: usize = 25;

/// How a failed trial can end, in [`ends`] order.
const ENDS: [&str; 3] = ["collision", "off_route", "timeout"];

fn main() {
    let s = Scenario::build(Args::parse().scale);
    let cfg = EvalConfig { trials: TRIALS, ..experiments::harness::eval_config(&s) };
    print!("{}", ceiling_table(&cfg).render());

    let lbchat = exit_on_error(run_method(Method::LbChat, &s, Condition::NoLoss)).representative;
    let frames = s.datasets.iter().flat_map(WeightedDataset::samples).cloned().collect();
    let weights = s.datasets.iter().flat_map(WeightedDataset::weights).copied().collect();
    let cell_iters = (s.scale.train_seconds * s.scale.iters_per_second).round() as usize;
    let fleet_iters = cell_iters * s.scale.n_vehicles;
    let learner = vec![s.make_learners().swap_remove(0)];
    let dataset = vec![WeightedDataset::new(frames, weights)];
    let mut pooled = Vehicle::fleet(learner, dataset, BATCH_SIZE, |n| n).remove(0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(s.scale.seed);
    pooled.train(cell_iters, &mut rng, |_, _, _| {});
    let at_cell = pooled.learner.clone();
    pooled.train(fleet_iters - cell_iters, &mut rng, |_, _, _| {});
    let learners = [
        ("LbChat W/O v0".to_string(), &lbchat),
        (format!("pooled {cell_iters} (cell)"), &at_cell),
        (format!("pooled {fleet_iters} (fleet)"), &pooled.learner),
    ];

    let title = format!(
        "Upper bound — one learner on all {} pooled frames for a cell's or the fleet's \
         iterations; successes of {TRIALS} trials at traffic {:.2}",
        pooled.dataset().len(),
        cfg.traffic_scale
    );
    let columns = Task::ALL.iter().map(|t| t.name()).chain(ENDS).chain(["eval loss"]);
    let mut bound = Table::new(title, columns.map(String::from).collect()).corner("Learner");
    let eval: Vec<&Frame> = s.eval.iter().collect();
    for (name, l) in &learners {
        let results: Vec<TaskResult> =
            Task::ALL.iter().map(|&t| success_rate(l, t, &cfg)).collect();
        let ends_sum =
            results.iter().map(ends).fold([0; 3], |a, e| std::array::from_fn(|k| a[k] + e[k]));
        let counts = results.iter().map(|r| r.successes).chain(ends_sum);
        let mut cells: Vec<String> = counts.map(|n| n.to_string()).collect();
        cells.push(format!("{:.2}", mean_loss(*l, l.params(), &eval)));
        bound.row(name.as_str(), cells);
    }
    print!("\n{}", bound.render());

    let columns =
        std::iter::once("frames".to_string()).chain(learners.iter().map(|(n, _)| n.clone()));
    let mut open_loop = Table::new(
        "Open-loop L1 — mean |predicted − label| per waypoint coordinate (m), pooled frames",
        columns.collect(),
    )
    .corner("Command");
    for command in (0..Command::COUNT).map(Command::from_index) {
        let frames: Vec<&Frame> =
            pooled.dataset().samples().iter().filter(|f| f.command == command).collect();
        let mut cells = vec![frames.len().to_string()];
        cells.extend(learners.iter().map(|(_, l)| format!("{:.2}", l1(l, &frames))));
        open_loop.row(format!("{command:?}"), cells);
    }
    print!("\n{}\n", open_loop.render());

    for task in [Task::Straight, Task::OneTurn] {
        let outcome = driving::eval::debug_one_trial(&lbchat, task, &cfg, 0);
        println!("{} trial 0: {outcome}", task.name());
    }
}

/// `r`'s failed trials by how they ended, in [`ENDS`] order.
fn ends(r: &TaskResult) -> [usize; 3] {
    [r.collisions, r.off_route, r.timeouts]
}

/// The privileged expert's successes and trial ends on every task, at the
/// scale's evaluation traffic and at the paper's.
fn ceiling_table(cfg: &EvalConfig) -> Table {
    let mut t = Table::new(
        format!("Ceiling — the privileged expert drives {TRIALS} trials per task"),
        std::iter::once("success").chain(ENDS).map(String::from).collect(),
    )
    .corner("Traffic, task");
    for traffic_scale in [cfg.traffic_scale, 1.0] {
        let cfg = EvalConfig { traffic_scale, ..cfg.clone() };
        for task in Task::ALL {
            let r = privileged_success_rate(task, &cfg);
            let cells = std::iter::once(r.successes).chain(ends(&r)).map(|n| n.to_string());
            t.row(format!("{traffic_scale:.2} {}", task.name()), cells.collect());
        }
    }
    t
}

/// Mean absolute error of `learner`'s prediction over every waypoint
/// coordinate of `frames`; NaN for no frames.
fn l1(learner: &DrivingLearner, frames: &[&Frame]) -> f64 {
    let mut sum = 0.0f64;
    let mut n = 0usize;
    let mut features = Vec::new();
    for f in frames {
        f.features_into(&mut features);
        let pred = learner.predict(&features, f.command);
        for (p, y) in pred.iter().zip(f.waypoints()) {
            sum += f64::from((p - y).abs());
            n += 1;
        }
    }
    sum / n as f64
}
