//! Online driving evaluation: train a fleet with LbChat, deploy the
//! resulting model on a test autopilot, and drive the five CARLA-style
//! benchmark tasks (Straight, One Turn, Navigation empty/normal/dense),
//! reporting success rates like the paper's Tables II/III.
//!
//! Run with: `cargo run --release --example online_driving`

use driving::{success_rate, Task};
use experiments::harness::eval_config;
use experiments::{exit_on_error, run_method, Condition, Method, Scale, Scenario};

fn main() {
    let scale = Scale::quick();
    eprintln!("building scenario...");
    let scenario = Scenario::build(scale);

    eprintln!("training with LbChat (wireless loss on)...");
    let out = exit_on_error(run_method(Method::LbChat, &scenario, Condition::WithLoss));
    println!(
        "training done: final mean loss {:.4}, receiving rate {:.0}%",
        out.metrics.final_loss().unwrap(),
        out.metrics.model_receiving_rate() * 100.0
    );

    println!("\nclosed-loop driving evaluation:");
    let cfg = eval_config(&scenario);
    for task in Task::ALL {
        let r = success_rate(&out.representative, task, &cfg);
        println!(
            "  {:<15} {:>3.0}%   ({} ok / {} collisions / {} off-route / {} timeouts over {} trials)",
            task.name(),
            r.percent(),
            r.successes,
            r.collisions,
            r.off_route,
            r.timeouts,
            r.trials
        );
    }
    println!("\n(quick scale — run the table2/table3 binaries for the full comparison)");
}
