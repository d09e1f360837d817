//! Correctness tooling for the reliable multicast workspace.
//!
//! Two instruments, both aimed at the class of bug the probabilistic test
//! suites (loopback fuzzing, chaos campaigns, simulator sweeps) can miss:
//!
//! - [`lint`] — a zero-dependency source-level lint (`rmlint` binary)
//!   enforcing the one repo-specific rule neither the compiler, clippy
//!   nor a test can: no unannotated allocation in a span-instrumented hot
//!   function.
//! - [`explore`] — an exhaustive small-scope model checker (`rmcheck
//!   explore`) that drives the *real* [`rmcast::Sender`] /
//!   [`rmcast::Receiver`] engines through **every** interleaving of
//!   deliver / drop / duplicate / timer-fire for small configurations,
//!   asserting the invariants of [`rmcast::invariants`] plus
//!   exactly-once in-order delivery, and that every reachable state can
//!   still complete.
//!
//! See `docs/CORRECTNESS.md` for how the two fit the verification story.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod explore;
pub mod lex;
pub mod lint;
