//! # simworld — a deterministic driving world
//!
//! The CARLA substitute. The LbChat paper uses CARLA for three things only:
//! generating realistic vehicle mobility (encounters), producing BEV +
//! waypoint training data via expert autopilots, and judging trained models
//! in closed-loop driving (success rate). This crate supplies all three on a
//! procedurally generated 1 km × 1 km map with town and rural areas:
//!
//! * [`map`] — the road network: a Manhattan-style town grid plus a rural
//!   loop, directed lane edges with polylines and per-kind speed limits.
//! * [`route`] — per-query Dijkstra routing, turn/command classification.
//! * [`agents`] — kinematic vehicles with car-following, plus roaming
//!   pedestrians (the paper's 50 background cars and 250 pedestrians).
//! * [`expert`] — the privileged expert autopilot: pure-pursuit steering
//!   along its route, speed control, and obstacle braking; emits the
//!   ground-truth waypoints used as imitation targets.
//! * [`bev`] — ego-frame bird's-eye-view rasterization (sparse binary
//!   tensor) and the feature vector fed to the policy network.
//! * [`world`] — owns everything in structure-of-arrays columns, steps at
//!   2 fps with a two-phase (pure intent / serial apply) tick, detects
//!   collisions, and records [`simnet::MobilityTrace`]s. It is sized to the
//!   paper's world: experts, background cars and pedestrians, nothing more.
//!
//! The original per-agent-struct world is retained verbatim as the
//! bit-identity oracle for [`world::World`], as a module of the integration
//! tests (`tests/reference/mod.rs`), not of the library.
//!
//! Determinism: the map, traffic, and every agent decision derive from the
//! seed given at construction, and stepping runs on the calling thread (the
//! intent phase is RNG-free and order-free; all RNG draws happen in the
//! id-ordered apply pass), so no `--jobs` setting reaches a trajectory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod agents;
pub mod bev;
pub mod expert;
pub mod map;
pub mod route;
pub mod world;

pub use agents::{AgentId, VehicleRef};
pub use bev::{Bev, BevConfig};
pub use expert::Command;
pub use map::{EdgeId, NodeId, RoadKind, RoadNetwork};
pub use route::{shortest_route, Route};
pub use world::{World, WorldConfig};
