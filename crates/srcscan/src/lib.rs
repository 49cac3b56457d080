//! `srcscan`: the source scanner behind the documentation-consistency
//! tests.
//!
//! Two documents are normative for what the code emits and puts on the
//! wire — `docs/OBSERVABILITY.md` (every event kind, counter and gauge)
//! and `docs/COMPRESSION.md` (the codec registry). The tests that hold
//! them to the code (`experiments/tests/doc_links.rs`,
//! `core/tests/wire_golden.rs`) read the *source*, so they need to tell
//! code from string literals, comments and `#[cfg(test)]` regions. This
//! crate is that reader: a dependency-free, hand-rolled approximation (no
//! `syn`, consistent with the vendored-offline policy).
//!
//! * [`lexer`] blanks literals and comments byte-for-byte, tracks test
//!   regions, and extracts the obs names a file emits.
//! * [`parser`] finds `fn`/`impl`/`mod`/`enum`/`use` items in the blanked
//!   code.
//! * [`walk`] lists the workspace's `.rs` files in a fixed order.
//! * [`wire`] cross-checks the `lbchat::compress` registry source against
//!   the codec table of `docs/COMPRESSION.md`.
//!
//! It is a test-time tool only: no library crate depends on it.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parser;
pub mod walk;
pub mod wire;
