//! Live observability side-channel for the trial engine.
//!
//! Everything in `beeps-metrics` is *deterministic by construction* —
//! wall-clock is excluded from equality and serialization — which makes
//! a long sweep a black box while it runs: no progress, no ETA, no
//! per-phase timing, no worker-utilization view. This crate is the
//! other half of the bargain: a **side channel** that may read the
//! clock and write to stderr/files, under the hard invariant that it
//! never influences simulation output.
//!
//! The design enforces that invariant structurally:
//!
//! * Hooks are **observation-only**. The [`Observer`] trait receives
//!   copies of scheduling facts (chunk claims, phase spans); nothing
//!   it returns is read by the engine.
//! * Timing flows one way. Observers read the clock *themselves* (via
//!   the one sanctioned [`clock`] module — see the beeps-lint
//!   `wall-clock` rule); the deterministic engine never touches it.
//! * The inactive path is free. Instrumentation points in hot code go
//!   through [`ambient`], whose fast path is a single read of the
//!   calling thread's own installation slot when no observer is
//!   installed there — no clock read, no allocation, and no state an
//!   observed thread elsewhere in the process can switch on.
//!
//! Three production observers ship here:
//!
//! * [`ProgressTracker`] — lock-free atomic counters (trials completed,
//!   per-worker chunk claims) sampled by a
//!   [`ProgressReporter`] thread that renders throughput + ETA to
//!   stderr (`--progress` / `BEEPS_PROGRESS=1` in the binaries).
//! * [`PhaseProfiler`] — aggregates wall-clock phase spans per worker
//!   and exports Chrome trace-event JSON (`--profile <path>`, loadable
//!   in speedscope/perfetto) plus a summary table.
//! * [`RunLog`] — a structured JSONL writer (run id, config digest,
//!   seed, per-chunk timings, event-ring drop counters) written
//!   alongside the `target/experiments/<id>.json` logs.
//!
//! Determinism is pinned by `crates/bench/tests/metrics_determinism.rs`:
//! observed and unobserved runs produce bitwise-identical results and
//! metrics registries at 1/2/8 threads for all six schemes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ambient;
pub mod clock;
mod emit;
pub mod observer;
pub mod profile;
pub mod progress;
pub mod runlog;

pub use ambient::{install, is_active, mark, phase, InstallGuard, PhaseSpan, MAIN_WORKER};
pub use emit::escape_json;
pub use observer::{MultiObserver, NoopObserver, Observer, RunInfo};
pub use profile::PhaseProfiler;
pub use progress::{ProgressReporter, ProgressSnapshot, ProgressTracker};
pub use runlog::{config_digest, RunLog, RunMeta, RunSummary};
