//! A persistent compile-once/run-many execution server.
//!
//! `nmlc serve` compiles a program once — through the full governed,
//! SCC-scheduled escape analysis and the optimization pass manager —
//! and then executes many eval requests against it over a
//! newline-delimited JSON protocol on a local Unix socket. Worker
//! threads share the immutable compiled program but each owns a
//! private heap, so a failing request can only ever damage its own
//! worker, and the damage is bounded by design:
//!
//! - guest failures (type errors, fuel exhaustion, depth overflow,
//!   injected faults) are typed responses, not server events;
//! - a worker panic is caught, answered as `worker_panicked`, recorded
//!   as a replayable crash bundle ([`bundle`]), and the worker's
//!   machine rebuilt from the shared program (crash-only);
//! - overload is shed at admission with a typed `overloaded` response
//!   instead of queue growth or silent drops;
//! - in checked mode, a soundness violation quarantines the site and
//!   recompiles *within the failing request*, leaving other workers
//!   undisturbed — and the quarantine survives hot reloads of
//!   unchanged code;
//! - the program itself can be **hot-reloaded** (`{"op":"reload"}` or
//!   `--watch`): the new source is re-analyzed incrementally off the
//!   worker threads and swapped in as a versioned epoch; broken edits
//!   never evict the live program, and in-flight requests finish on
//!   the epoch they were admitted under.
//!
//! The protocol lives in [`proto`], the JSON layer in [`json`], the
//! server in [`server`], crash capture and deterministic re-execution
//! in [`bundle`] and [`replay`](mod@replay), file-change detection in [`watch`],
//! and a small self-healing blocking client in [`client`].

#![warn(missing_docs)]

pub mod bundle;
pub mod client;
mod epoch;
pub mod json;
pub mod proto;
pub mod replay;
pub mod server;
pub mod watch;

pub use bundle::{BundleConfig, BundleRing, CrashBundle};
pub use client::{BreakerState, CircuitBreaker, Client, RetryPolicy};
pub use replay::{minimize, render_report, replay, Minimized, ReplayReport};
pub use server::{
    compile_program, serve, ServeConfig, ServeError, ServerReport, DEFAULT_STEPS_PER_MS,
};
pub use watch::{fnv64, FileWatch};
