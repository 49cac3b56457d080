//! Golden trajectory fixture for the structure-of-arrays world.
//!
//! Records every agent's position (and each expert's kinematic state) at
//! sampled ticks as raw f32 bit patterns in hex — exact, platform-stable,
//! diff-friendly. Any rewrite of the world's hot path that perturbs one
//! RNG draw or one float operation anywhere in spawn/route/tick shows up
//! as a fixture diff. To regenerate after an *intentional* behavior
//! change, run
//! `LBCHAT_GOLDEN_WRITE=1 cargo test -p experiments --test world_golden`
//! and commit the diff.
//!
//! The intent phase of a tick runs inline below
//! [`PAR_INTENT_MIN_AWAKE`] awake vehicles and over the worker pool from
//! there on; it is pure, so neither the path nor the worker count may show.
//! The fixture worlds sit below the threshold and are rendered at one and
//! at four workers; a world above it is stepped at both and compared.
//!
//! One `#[test]`: [`lbchat::exec::set_jobs`] is process-wide.

use simworld::world::{World, WorldConfig, PAR_INTENT_MIN_AWAKE};
use std::fmt::Write as _;
use std::path::PathBuf;

fn render_trace() -> String {
    let mut out = String::new();
    // One paper-scale-shaped world and one with a fleet exercising the
    // wake queue; both reduced enough to keep the fixture small.
    for (label, n_fleet) in [("seed", 0usize), ("fleet", 25usize)] {
        let mut w = World::new(WorldConfig {
            n_fleet,
            ..WorldConfig::small(17)
        });
        let _ = writeln!(out, "# {label}: agents={}", w.n_agents());
        for tick in 0..=120u64 {
            if tick % 30 == 0 {
                let _ = write!(out, "{label} t={tick} cars");
                for p in w.car_positions() {
                    let _ = write!(out, " {:08x}:{:08x}", p.x.to_bits(), p.y.to_bits());
                }
                out.push('\n');
                let _ = write!(out, "{label} t={tick} peds");
                for p in w.pedestrian_positions() {
                    let _ = write!(out, " {:08x}:{:08x}", p.x.to_bits(), p.y.to_bits());
                }
                out.push('\n');
                for i in 0..w.n_experts() {
                    let v = w.expert_view(i);
                    let _ = writeln!(
                        out,
                        "{label} t={tick} expert{i} edge={} idx={} s={:08x} v={:08x}",
                        v.edge(),
                        v.edge_idx,
                        v.s.to_bits(),
                        v.speed.to_bits(),
                    );
                }
            }
            w.step();
        }
    }
    out
}

/// Every vehicle's and pedestrian's position bits after `ticks` steps of a
/// world busy enough to take the pooled intent phase.
fn crowded_world_bits(ticks: usize) -> Vec<(u32, u32)> {
    let mut w = World::new(WorldConfig {
        n_background: PAR_INTENT_MIN_AWAKE + 40,
        ..WorldConfig::small(23)
    });
    for _ in 0..ticks {
        w.step();
    }
    let mut pos = w.car_positions();
    assert!(pos.len() >= PAR_INTENT_MIN_AWAKE, "{} cars take the inline path", pos.len());
    pos.extend(w.pedestrian_positions());
    pos.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
}

#[test]
fn world_trajectories_match_golden_fixture() {
    lbchat::exec::set_jobs(4);
    let pooled = render_trace();
    let crowded_pooled = crowded_world_bits(40);
    lbchat::exec::set_jobs(1);
    let rendered = render_trace();
    let crowded_serial = crowded_world_bits(40);
    lbchat::exec::set_jobs(0); // restore hardware detection
    assert_eq!(pooled, rendered, "the worker count reached a trajectory");
    assert_eq!(crowded_pooled, crowded_serial, "the pooled intent phase is not order-free");
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/world_trace.txt");
    if std::env::var_os("LBCHAT_GOLDEN_WRITE").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `LBCHAT_GOLDEN_WRITE=1 cargo test -p experiments --test world_golden` to record it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "world trajectories drifted from the committed fixture; if the change is intentional, regenerate it"
    );
}
