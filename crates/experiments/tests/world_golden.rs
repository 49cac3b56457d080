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

use simworld::world::{World, WorldConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

fn render_trace() -> String {
    let mut out = String::new();
    // One paper-scale-shaped world, reduced enough to keep the fixture small.
    let mut w = World::new(WorldConfig::small(17));
    let _ = writeln!(out, "# seed: agents={}", w.n_agents());
    for tick in 0..=120u64 {
        if tick % 30 == 0 {
            let _ = write!(out, "seed t={tick} cars");
            for p in w.car_positions() {
                let _ = write!(out, " {:08x}:{:08x}", p.x.to_bits(), p.y.to_bits());
            }
            out.push('\n');
            let _ = write!(out, "seed t={tick} peds");
            for p in w.pedestrian_positions() {
                let _ = write!(out, " {:08x}:{:08x}", p.x.to_bits(), p.y.to_bits());
            }
            out.push('\n');
            for i in 0..w.n_experts() {
                let v = w.expert_view(i);
                let _ = writeln!(
                    out,
                    "seed t={tick} expert{i} edge={} idx={} s={:08x} v={:08x}",
                    v.edge(),
                    v.edge_idx,
                    v.s.to_bits(),
                    v.speed.to_bits(),
                );
            }
        }
        w.step();
    }
    out
}

#[test]
fn world_trajectories_match_golden_fixture() {
    let rendered = render_trace();
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
