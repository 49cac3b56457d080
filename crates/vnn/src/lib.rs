//! # vnn — a minimal neural-network substrate for vehicular learning
//!
//! This crate is the from-scratch replacement for the PyTorch stack the LbChat
//! paper trains its imitation-learning model with. It provides exactly what the
//! decentralized-training layer above it needs:
//!
//! * [`ParamVec`] — model parameters as one flat `f32` vector, so that top-k
//!   sparsification, weighted averaging, and wire serialization are trivial and
//!   cheap (the operations LbChat performs on peer models).
//! * [`Mlp`] — a dense multi-layer perceptron with manual backpropagation.
//! * [`BranchedPolicy`] — the command-branched driving policy mirroring the
//!   *Learning by Cheating* privileged agent's structure: a shared trunk plus
//!   one waypoint head per high-level command, with the loss masked to the
//!   active branch.
//! * [`FrozenPolicy`] — a policy's parameters laid out for one sample at a
//!   time: what a closed-loop rollout asks every control tick.
//! * [`Sgd`] — stochastic gradient descent with momentum and weight decay.
//! * [`loss`] — the L1 waypoint loss and its gradient.
//!
//! Everything is deterministic given a seed; no global RNG state is used.
//!
//! ## Example
//!
//! ```
//! use vnn::{BranchedPolicy, PolicySpec, Sgd};
//! use rand::SeedableRng;
//!
//! let spec = PolicySpec { input_dim: 8, trunk: vec![16], n_branches: 4, waypoints: 3, skip_inputs: 0 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut policy = BranchedPolicy::new(&spec, &mut rng);
//! let mut opt = Sgd::new(1e-2, 0.9, 0.0);
//! let x = vec![0.1; 8];
//! let target = vec![0.5; 6]; // 3 waypoints * (x, y)
//! for _ in 0..200 {
//!     let (l, grad) = policy.loss_and_grad(&x, 1, &target);
//!     assert!(l.is_finite());
//!     opt.step(policy.params_mut().as_mut_slice(), &grad);
//! }
//! let out = policy.forward(&x, 1);
//! assert!((out[0] - 0.5).abs() < 0.2);
//! ```

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

pub mod batch;
pub mod frozen;
pub mod loss;
pub mod mlp;
pub mod param;
pub mod policy;
pub mod scratch;
pub mod sgd;
pub mod wire;

pub use batch::Minibatcher;
pub use frozen::FrozenPolicy;
pub use mlp::{Mlp, MlpSpec};
pub use param::ParamVec;
pub use policy::{BatchOutcome, BatchSource, BranchedPolicy, PolicySample, PolicySpec};
pub use scratch::{MlpScratch, TrainScratch, TrainStats, SHARD};
pub use sgd::Sgd;
pub use wire::WireError;
