//! Deterministic metrics and event tracing for the simulation stack.
//!
//! The paper's claims are quantitative — round overhead, rewinds,
//! energy — so every layer of this repository (simulators, trial
//! runner, CLI, experiment binaries) reports into one instrumentation
//! API instead of ad-hoc per-binary counters. The crate is
//! zero-dependency and split into two strictly separated sections:
//!
//! * **Deterministic section** — [`MetricsRegistry`] counters,
//!   log₂-bucketed [`Histogram`]s, and the bounded [`EventLog`]. These
//!   depend only on what the simulation computed, never on scheduling:
//!   merging per-trial registries in trial-index order (what
//!   `beeps_bench::TrialRunner::run_with_metrics` does) yields **bitwise
//!   identical** aggregates at any thread count.
//! * **Wall-clock section** — [`WallTiming`]s fed by
//!   [`MetricsRegistry::record_wall`] with a caller-measured elapsed
//!   time. The crate never reads the clock itself: callers time with
//!   `beeps_observe::clock::Stopwatch`. These values are inherently
//!   non-deterministic, so registry equality ignores them and no
//!   rendering shows them (experiment JSON logs, metrics tables, the
//!   Prometheus exposition).
//!
//! # Examples
//!
//! ```
//! use beeps_metrics::MetricsRegistry;
//!
//! let mut m = MetricsRegistry::new();
//! m.inc("sim.rewind.rewinds", 2);
//! m.observe("sim.rewind.rounds", 1800);
//! m.event("sim.rewind.rewind_storm", 1800, 2);
//!
//! let mut other = MetricsRegistry::new();
//! other.inc("sim.rewind.rewinds", 1);
//! m.merge_from(&other);
//! assert_eq!(m.counter("sim.rewind.rewinds"), 3);
//! // Counter sums commute, so merge order cannot change them; event
//! // order is fixed by the caller merging in trial-index order.
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod events;
pub mod histogram;
pub mod registry;
pub mod render;

pub use events::{Event, EventLog};
pub use histogram::Histogram;
pub use registry::{CounterHandle, MetricsRegistry, WallTiming};
