//! Telemetry debugging for the closed-loop evaluator: trains LbChat at the
//! given scale, then drives trial 0 of two tasks — the same trial the
//! success tables count first — printing per-frame telemetry to stderr and
//! each trial's outcome to stdout.

use driving::eval::Task;
use experiments::{exit_on_error, run_method, Args, Condition, Method, Scenario};

fn main() {
    let s = Scenario::build(Args::parse().scale);
    let out = exit_on_error(run_method(Method::LbChat, &s, Condition::NoLoss));
    eprintln!("final loss: {:?}", out.metrics.final_loss());
    // Open-loop check: target vs prediction on actual Left/Right frames.
    let mut shown = 0;
    for d in &s.datasets {
        for f in d.samples() {
            if matches!(f.command, simworld::expert::Command::Left | simworld::expert::Command::Right)
                && shown < 8
                && f.waypoints.chunks(2).any(|c| c[1].abs() > 0.5)
            {
                let pred = out.representative.predict(&f.features, f.command);
                eprintln!(
                    "cmd={:?} turn_d={:.2} target={:?} pred={:?}",
                    f.command,
                    f.features[f.features.len() - 2],
                    f.waypoints.iter().map(|v| (v * 10.0).round() / 10.0).collect::<Vec<_>>(),
                    pred.iter().map(|v| (v * 10.0).round() / 10.0).collect::<Vec<_>>(),
                );
                shown += 1;
            }
        }
    }
    let cfg = experiments::harness::eval_config(&s);
    for task in [Task::Straight, Task::OneTurn] {
        let outcome = driving::eval::debug_one_trial(&out.representative, task, &cfg, 0);
        println!("{} trial 0: {outcome}", task.name());
    }
}
