//! Convoy training: a small fleet trains collaboratively with LbChat while
//! driving around the generated town, and the example reports live
//! statistics — loss over simulated time, chat sessions, coreset and model
//! deliveries, and how much each vehicle's dataset grew by absorbing peer
//! coresets.
//!
//! Run with: `cargo run --release --example convoy_training`

use experiments::methods::{lbchat_algorithm, lbchat_config, runtime_config};
use experiments::{exit_on_error, Condition, Scale, Scenario};
use lbchat::prelude::{CollabAlgorithm, ObsSink, Runtime};

fn main() {
    let mut scale = Scale::quick();
    scale.n_vehicles = 6;
    scale.train_seconds = 900.0;
    scale.eval_every = 90.0;
    eprintln!("building world + collecting data for {} vehicles...", scale.n_vehicles);
    let scenario = Scenario::build(scale);

    eprintln!("running LbChat for {:.0} simulated seconds...", scenario.scale.train_seconds);
    // The algorithm runs in the open (not through `run_method`) so its
    // vehicles can be inspected afterwards.
    let rt = Runtime::new(runtime_config(&scenario, Condition::WithLoss, ObsSink::disabled()));
    let mut algo = lbchat_algorithm(&scenario, lbchat_config(&scenario));
    let m = exit_on_error(rt.run(&mut algo, &scenario.trace, &scenario.eval));

    println!("\nloss vs simulated time:");
    for (t, l) in &m.loss_curve {
        let bar_len = (l * 120.0).min(60.0) as usize;
        println!("  {t:>6.0}s  {l:.4}  {}", "#".repeat(bar_len));
    }

    println!("\nrun statistics:");
    println!("  chat sessions        : {}", m.sessions);
    println!("  coreset deliveries   : {}/{}", m.coreset_receives, m.coreset_sends);
    println!("  model deliveries     : {}/{}", m.model_receives, m.model_sends);
    println!("  model receiving rate : {:.0}%", m.model_receiving_rate() * 100.0);
    println!("  payload delivered    : {:.1} MB", m.bytes_delivered as f64 / 1e6);
    println!("  airtime used         : {:.1} simulated s", m.comm_seconds);
    println!("  training iterations  : {}", m.train_iterations);

    println!("\nper vehicle (model L2 norms should be similar, not identical):");
    for (i, start) in scenario.datasets.iter().enumerate() {
        println!(
            "  vehicle {i}: ||x|| = {:.3}, dataset {} -> {} frames",
            algo.model(i).l2_norm(),
            start.len(),
            algo.node(i).vehicle.dataset().len()
        );
    }
}
