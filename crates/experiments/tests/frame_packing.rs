//! Recorded frames store their BEV losslessly.
//!
//! [`Frame::pack`] keeps each pooled BEV block as its occupancy count, one
//! byte, and decodes it as `k as f32 * (1 / pool²)`, the product the BEV's
//! pooling computes. This file replays the world a quick-scale
//! [`Scenario`] collected its datasets from and holds every recorded frame
//! to a fresh [`observe_into`] of the same expert at the same frame, bit
//! for bit; checks what a frame stores; and checks that a value off the
//! occupancy grid cannot be packed.

use driving::frame::{observe_into, NAV_FEATURES};
use driving::Frame;
use experiments::{Scale, Scenario};
use simworld::bev::Bev;
use simworld::world::{World, WorldConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn every_recorded_frame_decodes_to_a_fresh_observation() {
    let s = Scenario::build(Scale::quick());
    // The world `Scenario::build` collects from.
    let mut world = World::new(WorldConfig {
        seed: s.scale.seed,
        n_experts: s.scale.n_vehicles,
        n_background: s.scale.n_background,
        n_pedestrians: s.scale.n_pedestrians,
        ..WorldConfig::default()
    });
    let frames = (s.scale.data_seconds * simworld::world::FPS).ceil() as usize;
    let cfg = world.config().clone();
    let blocks = cfg.bev.feature_len() - 1;
    let (mut bev, mut fresh, mut decoded) = (Bev::blank(cfg.bev.cells), Vec::new(), Vec::new());
    let mut nonzero = 0usize;
    for f in 0..frames {
        for (i, dataset) in s.datasets.iter().enumerate() {
            let frame = &dataset.samples()[f];
            let v = world.expert_view(i);
            let (command, _) =
                observe_into(&world, v, v.pose(world.map()), Some(i), &mut bev, &mut fresh);
            frame.features_into(&mut decoded);
            assert_eq!(bits(&decoded), bits(&fresh), "vehicle {i}, frame {f}");
            assert_eq!(frame.command, command);
            assert_eq!(bits(frame.waypoints()), bits(&world.expert_waypoints(v)));

            // One byte per block; the speed, the navigation scalars and the
            // waypoints as floats.
            assert_eq!(frame.blocks().len(), blocks);
            assert_eq!(frame.scalars().len(), 1 + NAV_FEATURES + 2 * simworld::world::N_WAYPOINTS);
            nonzero += frame.blocks().iter().filter(|&&k| k > 0).count();
        }
        world.step();
    }
    assert!(s.datasets.iter().all(|d| d.len() == frames));
    assert!(nonzero > 0, "the replay must have seen occupied blocks");
}

#[test]
fn packing_a_value_off_the_occupancy_grid_panics() {
    let s = Scenario::build(Scale::quick());
    let frame = &s.datasets[0].samples()[0];
    let pool = WorldConfig::default().bev.pool;
    let mut features = Vec::new();
    frame.features_into(&mut features);
    let pack = |features: &[f32]| {
        catch_unwind(AssertUnwindSafe(|| {
            Frame::pack(features, pool, frame.command, frame.waypoints())
        }))
    };
    let repacked = pack(&features).expect("a recorded input packs");
    assert_eq!(&repacked, frame);

    let step = 1.0 / (pool * pool) as f32;
    for bad in [-0.0, -step, 0.5 * step, 1.0 + step, f32::NAN, f32::INFINITY] {
        let mut off = features.clone();
        off[3] = bad;
        assert!(pack(&off).is_err(), "BEV value {bad:?} must not pack");
    }
    // The speed and the navigation scalars are stored as they are.
    let n = features.len();
    features[n - 1] = -0.0;
    features[n - 3] = 0.3;
    let packed = pack(&features).expect("the scalars are not on a grid");
    let mut decoded = Vec::new();
    packed.features_into(&mut decoded);
    assert_eq!(bits(&decoded), bits(&features));
}
