//! `ppatc-serve`: a fault-tolerant, dependency-free TCP query service
//! over the deterministic PPAtC evaluation core.
//!
//! The paper's tCDP framework becomes a design-exploration *service*
//! here: many concurrent clients submit design-point queries (process
//! comparison at a clock, eDRAM capacity, carbon intensity, workload,
//! Monte-Carlo sweeps) and get byte-identical answers at any concurrency,
//! because every query is a pure function of its parameters and the
//! engine underneath merges parallel work in index order.
//!
//! The robustness architecture (see `DESIGN.md` §11):
//!
//! - [`protocol`] — length-prefixed `PPQ1` framing; every malformed input
//!   is a typed [`protocol::WireError`], never a panic.
//! - [`query`] — the request grammar, range validation, canonical cache
//!   keys, and evaluation under a [`ppatc::RunBudget`] deadline.
//! - [`admission`] — the bounded queue: admit, shed (`overloaded` with a
//!   retry-after hint), or refuse (`draining`). Never unbounded.
//! - [`cache`] — a sharded, bounded response cache generalizing the eDRAM
//!   characterization memo cache, with an optional crash-safe append-only
//!   journal so a restarted server comes back warm.
//! - [`health`] — the counter block behind the `health` query and the
//!   final drain report.
//! - [`server`] — accept loop, per-connection and per-request
//!   `catch_unwind` isolation rings, the worker pool, and graceful drain.
//! - [`signal`] — SIGTERM/SIGINT → drain-token bridging.
//! - [`client`] — a minimal blocking client for the tests and perfbench.
//! - [`cli`] — flag parsers shared with `ppatc-bench`'s binaries so the
//!   front ends cannot drift.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod cli;
pub mod client;
pub mod health;
pub mod protocol;
pub mod query;
pub mod server;
pub mod signal;

pub use client::ServeClient;
pub use health::{HealthSnapshot, ServerHealth};
pub use protocol::{ParsedResponse, WireError};
pub use query::{EvalParams, Query, QueryError, Request};
pub use server::{try_spawn, ServerConfig, ServerHandle};
