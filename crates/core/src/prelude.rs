//! The one-line import for code driving the collaborative runtime:
//!
//! ```
//! use lbchat::prelude::*;
//! ```
//!
//! Re-exports the names every algorithm implementation and experiment
//! driver touches — the [`CollabAlgorithm`] trait with its [`Runtime`] and
//! contexts, the [`Learner`] task abstraction, and the [`Metrics`] sink —
//! plus the config types needed to construct a run. Narrower imports stay
//! available through the individual modules.

pub use crate::compress::{Codec, WireModel};
pub use crate::config::{ConfigError, LbChatConfig};
pub use crate::learner::{Learner, TrainStats};
pub use crate::metrics::Metrics;
pub use crate::obs::ObsSink;
pub use crate::runtime::{
    CollabAlgorithm, FrameCtx, Runtime, RuntimeConfig, RuntimeError, SessionCtx, SessionStep,
};
pub use simnet::channel::{TransferOutcome, TransferSpec};
