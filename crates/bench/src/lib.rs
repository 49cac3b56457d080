//! The LbChat benchmark subsystem: deterministic micro/meso benchmarks
//! over every hot path the paper's pipeline executes, with machine-readable
//! results and regression diffing.
//!
//! * [`suite`] — the benchmark cells (coreset construct/reduce, peer
//!   valuation, compression + the Eq. (7) solver, BEV rasterization, the
//!   world tick, MLP forward/backward/SGD, simnet channel + contact
//!   traces, and the session runtime), each timing the one implementation
//!   the pipeline runs.
//! * [`timer`] — the wall-clock sampling loop the cells are timed with.
//! * [`results`] — the `BENCH_<name>.json` result format (schema
//!   `lbchat-bench/v1`), written and parsed with the workspace's own JSON
//!   module, no third-party dependencies.
//! * [`report`] — diffs two result files and flags regressions beyond a
//!   noise threshold; the `bench_report` binary fronts it.
//!
//! Binaries: `cargo run --release -p lbchat-bench` runs the suite and
//! writes `results/bench/BENCH_<name>.json`; `bench_report OLD NEW`
//! compares two such files. See `docs/BENCHMARKS.md` for the workflow and
//! the threshold policy; whole-pipeline questions belong to the
//! `lbchat_e2e` package at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod results;
pub mod suite;
pub mod timer;
