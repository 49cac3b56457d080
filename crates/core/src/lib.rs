//! # lbchat — Learning by Chatting
//!
//! A from-scratch implementation of **LbChat** (Zheng, Liu, Ye, Yang —
//! *Coreset-sharing based Collaborative Model Training among Peer Vehicles*,
//! ICDCS 2024): fully decentralized, asynchronous model training for
//! vehicles that exchange not only models but *coresets* — condensed
//! abstracts of their local training data — with opportunistically
//! encountered peers.
//!
//! The pipeline of one pairwise "chat" (paper §III, Fig. 1):
//!
//! 1. **Sequence determination** ([`runtime`] frame matching →
//!    [`CollabAlgorithm::pair_priority`] → `simnet::contact`) — each frame's
//!    candidate pairs are ranked by `c = z · p · min(B_i, B_j)` (Eq. 5) from
//!    shared routes and bandwidth, and matched greedily.
//! 2. **Coreset exchange** ([`coreset`]) — each vehicle maintains a compact
//!    ε-coreset of its local dataset built by layered sampling (Alg. 1).
//! 3. **Valuation** ([`valuation`]) — each vehicle evaluates its model on
//!    the peer's coreset; a large loss gap means the peer's model was
//!    trained on very different data and is therefore valuable.
//! 4. **Compression optimization** ([`phi`], [`optimize`]) — the pair picks
//!    compression ratios `ψ_i, ψ_j` maximizing the joint gain under the
//!    contact-duration and bandwidth constraints (Eq. 7).
//! 5. **Exchange & aggregation** ([`compress`], [`aggregate`]) — top-k
//!    sparsified models are exchanged and merged with loss-derived weights
//!    (Eq. 8).
//! 6. **Dataset expansion** ([`dataset`], [`node`]) — received coresets are
//!    absorbed into the local dataset; the local coreset is refreshed by
//!    re-construction or merge-and-reduce (§III-D).
//!
//! The [`runtime`] module provides the shared asynchronous simulation loop
//! (mobility-trace playback, encounter detection, radio accounting) behind a
//! [`runtime::CollabAlgorithm`] trait that the LbChat [`node`] and every
//! baseline in the `baselines` crate implement, so all methods face exactly
//! the same world, radio, and clock — and the same [`node::Vehicle`], so
//! the methods differ only in what they exchange.
//!
//! The crate is generic over the learning task via the [`Learner`] trait;
//! the `driving` crate provides the paper's BEV waypoint-regression task.

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

pub mod aggregate;
pub mod compress;
pub mod config;
pub mod coreset;
pub mod dataset;
pub mod exec;
pub mod learner;
pub mod metrics;
pub mod node;
pub mod obs;
pub mod optimize;
pub mod penalty;
pub mod phi;
pub mod prelude;
pub mod runtime;
pub mod valuation;

pub use aggregate::AggregationRule;
pub use config::{ConfigError, LbChatConfig};
pub use coreset::Coreset;
pub use dataset::WeightedDataset;
pub use learner::{Learner, TrainStats};
pub use node::{LbChatNode, Vehicle};
pub use obs::ObsSink;
pub use runtime::{CollabAlgorithm, Runtime, RuntimeConfig, RuntimeError};
