//! # simnet — simulated V2V wireless networking
//!
//! The LbChat paper evaluates over an 802.11bd-class vehicle-to-vehicle radio
//! simulated with: 1500-byte packets, 31 Mbps bandwidth, 500 m maximum range,
//! up to three retransmissions per packet, and a distance→loss lookup table
//! (Anwar et al., VTC 2019). This crate implements that radio plus the
//! route-based estimators the paper's Eq. (5) priority score needs:
//!
//! * [`geom`] — 2-D geometry primitives shared across the workspace.
//! * [`loss`] — the distance→packet-error-rate lookup table.
//! * [`channel`] — packetized transfer simulation with retransmissions and
//!   deadline (contact end) handling, over any [`channel::LinkDistance`].
//! * [`trace`] — mobility traces: agent positions sampled at a fixed frame
//!   rate, encounter detection within radio range, and the
//!   [`trace::PairTrack`] cursor that follows (and bounds) the distance
//!   between two agents for the packet loop.
//! * [`contact`] — contact-duration prediction and delivery-probability
//!   estimation from shared future routes (the 184-byte assist messages).
//! * [`grid`] — encounter discovery: one all-pairs sweep per frame over a
//!   position snapshot of the roster, in ascending `(i, j)` order.
//!
//! All randomness is caller-seeded; the crate never touches a global RNG.

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

pub mod channel;
pub mod contact;
pub mod geom;
pub mod grid;
pub mod loss;
pub mod trace;

pub use channel::{Channel, RadioConfig, TransferOutcome};
pub use contact::{ContactEstimate, ContactPredictor};
pub use geom::Vec2;
pub use grid::{EncounterGrid, GridStats};
pub use loss::LossModel;
pub use trace::{AgentId, Encounter, MobilityTrace, RouteCache};
