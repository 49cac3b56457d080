//! # driving — the BEV driving decision-making task
//!
//! The paper's evaluation task: a policy maps a bird's-eye-view perception
//! plus a high-level navigation command to the next few waypoints, trained
//! by imitating privileged expert autopilots. This crate binds the
//! [`simworld`] data source and the [`vnn`] policy network to the
//! [`lbchat`] learning machinery, and provides the closed-loop evaluator
//! behind every driving-success-rate table:
//!
//! * [`frame`] — the training sample: pooled BEV (stored as occupancy
//!   counts) + command + waypoints.
//! * [`learner`] — [`DrivingLearner`], the [`lbchat::Learner`]
//!   implementation wrapping the command-branched policy and its optimizer.
//! * [`collect`] — per-vehicle dataset collection from expert autopilots
//!   (each vehicle keeps what *its own route* showed it, which is exactly
//!   why peer coresets carry information).
//! * [`eval`] — closed-loop driving evaluation on the five CARLA-style
//!   tasks (Straight, One Turn, Navigation empty/normal/dense) with
//!   collision and timeout judging.

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

pub mod collect;
pub mod eval;
pub mod frame;
pub mod learner;

pub use collect::{collect_datasets, CollectConfig};
pub use eval::{success_rate, success_rate_obs, EvalConfig, Task, TaskResult};
pub use frame::Frame;
pub use learner::DrivingLearner;
