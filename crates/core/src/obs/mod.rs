//! Structured observability: events, counters, gauges, spans, and the
//! run-manifest JSONL format.
//!
//! Every experiment invocation can record what actually happened — per
//! round, per radio transfer, per pairwise chat, per closed-loop trial —
//! as a stream of typed events behind an [`ObsSink`] handle. The
//! experiments harness assembles one such stream per invocation into a
//! **run manifest** under `results/runs/`, and the `summarize_runs`
//! binary renders manifests side by side. `docs/OBSERVABILITY.md`
//! specifies every event type and field.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** A disabled sink ([`ObsSink::disabled`])
//!    is an `Option::None` check per call site; hot paths additionally
//!    guard with [`ObsSink::enabled`] so no field lists are built.
//!    Benches and library users who never opt in pay nothing.
//! 2. **No global state.** The sink is a handle passed through
//!    configuration ([`crate::RuntimeConfig`]'s `obs` field, harness
//!    parameters), never a process-wide singleton — parallel tests and
//!    nested harness invocations cannot contaminate each other's
//!    streams.
//! 3. **Determinism modulo timing.** Everything an event records except
//!    the fields named in [`TIMING_FIELDS`] is a pure function of the
//!    configuration and seed, for any `--jobs` value.
//!    [`ObsSink::canonical_events`] strips timing and sorts, giving a
//!    representation two runs can be compared by.
//! 4. **No dependencies.** The [`json`] submodule carries its own
//!    writer/parser, with exact `u64` handling so seeds survive a round
//!    trip.
//! 5. **One name registry.** Every event kind, counter and gauge is a
//!    variant of [`EventKind`], [`Counter`] or [`Gauge`]; the sink takes
//!    those types, so a recorded name is always a registered one. Adding a
//!    name is one variant plus one `docs/OBSERVABILITY.md` row.
//!
//! # Example
//!
//! ```
//! use lbchat::obs::{self, Counter, EventKind, ObsSink};
//!
//! let sink = ObsSink::recording();
//! {
//!     let _timer = sink.span("build-scenario");
//!     sink.add(Counter::Rounds, 1);
//!     sink.emit(EventKind::Round, &[("t", 0.0.into()), ("loss", 0.5.into())]);
//! } // span recorded on drop
//!
//! let lines = sink.to_jsonl();
//! let parsed = obs::parse_jsonl(&lines).unwrap();
//! assert_eq!(parsed.len(), 2);
//! assert!(parsed[0].is(EventKind::Round));
//! assert_eq!(sink.counters()[Counter::Rounds.name()], 1);
//! ```
//!
//! A name outside the registry does not compile:
//!
//! ```compile_fail
//! lbchat::obs::ObsSink::recording().add("x", 1);
//! ```

pub mod json;
mod names;
mod sink;

pub use json::{parse, Json, JsonError};
pub use names::{Counter, EventKind, Gauge};
pub use sink::{current_span, parse_jsonl, Event, GaugeStat, ObsSink, SpanGuard, TIMING_FIELDS};
