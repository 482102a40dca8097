//! The [`Observer`] hook trait and its trivial implementations.
//!
//! Every method has an empty default body, so an observer implements
//! only what it cares about, and the trait doubles as its own no-op.
//! Implementations must be cheap and `Send + Sync`: hooks fire from
//! worker threads concurrently, and nothing an observer does can be
//! allowed to block the engine for long (the shipped observers use
//! relaxed atomics or a short mutex).
//!
//! Hooks are **observation-only**: no method returns a value the
//! engine reads, which is the structural half of the "side-effect-free
//! on simulation output" invariant (the other half — bitwise-identical
//! observed vs. unobserved output — is pinned by
//! `crates/bench/tests/metrics_determinism.rs`).

use std::sync::Arc;

/// Metadata for one `TrialRunner` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunInfo {
    /// Trials this invocation will run.
    pub trials: usize,
    /// Worker threads the runner settled on (after clamping to the
    /// trial count).
    pub workers: usize,
}

/// Receives engine lifecycle events. All methods default to no-ops.
///
/// `worker` arguments are the runner's worker index (`0..workers`), or
/// [`crate::MAIN_WORKER`] for work done on the invoking thread outside
/// the pool (e.g. the trial-index-order metrics merge).
pub trait Observer: Send + Sync {
    /// One `TrialRunner` invocation is starting.
    fn on_run_start(&self, info: RunInfo) {
        let _ = info;
    }

    /// The invocation announced by [`Observer::on_run_start`] finished.
    fn on_run_end(&self, info: RunInfo) {
        let _ = info;
    }

    /// Worker `worker` claimed the contiguous trial-index chunk
    /// `start..start + len` from the shared counter.
    fn on_chunk_claimed(&self, worker: usize, start: usize, len: usize) {
        let _ = (worker, start, len);
    }

    /// Worker `worker` finished every trial of the chunk it last
    /// claimed. Chunks never interleave within a worker, so claimed /
    /// completed pairs bracket exactly.
    fn on_chunk_completed(&self, worker: usize, start: usize, len: usize) {
        let _ = (worker, start, len);
    }

    /// A named wall-clock span closed on worker `worker`
    /// (`start_micros..end_micros` on the [`crate::clock`] timebase).
    fn on_phase(&self, worker: usize, name: &'static str, start_micros: u64, end_micros: u64) {
        let _ = (worker, name, start_micros, end_micros);
    }

    /// A named instantaneous event on worker `worker`.
    fn on_mark(&self, worker: usize, name: &'static str, at_micros: u64) {
        let _ = (worker, name, at_micros);
    }
}

/// The explicit no-op observer (every hook keeps its default body).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Fans every hook out to a list of observers, in order.
#[derive(Default)]
pub struct MultiObserver {
    observers: Vec<Arc<dyn Observer>>,
}

impl MultiObserver {
    /// An empty fan-out (behaves like [`NoopObserver`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observer to the fan-out list.
    #[must_use]
    pub fn with(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Number of registered observers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// Whether no observers are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl Observer for MultiObserver {
    fn on_run_start(&self, info: RunInfo) {
        for o in &self.observers {
            o.on_run_start(info);
        }
    }

    fn on_run_end(&self, info: RunInfo) {
        for o in &self.observers {
            o.on_run_end(info);
        }
    }

    fn on_chunk_claimed(&self, worker: usize, start: usize, len: usize) {
        for o in &self.observers {
            o.on_chunk_claimed(worker, start, len);
        }
    }

    fn on_chunk_completed(&self, worker: usize, start: usize, len: usize) {
        for o in &self.observers {
            o.on_chunk_completed(worker, start, len);
        }
    }

    fn on_phase(&self, worker: usize, name: &'static str, start_micros: u64, end_micros: u64) {
        for o in &self.observers {
            o.on_phase(worker, name, start_micros, end_micros);
        }
    }

    fn on_mark(&self, worker: usize, name: &'static str, at_micros: u64) {
        for o in &self.observers {
            o.on_mark(worker, name, at_micros);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counting {
        calls: AtomicU64,
    }

    impl Observer for Counting {
        fn on_chunk_claimed(&self, _worker: usize, _start: usize, _len: usize) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn noop_observer_accepts_everything() {
        let o = NoopObserver;
        o.on_run_start(RunInfo {
            trials: 3,
            workers: 1,
        });
        o.on_chunk_claimed(0, 0, 3);
        o.on_phase(0, "x", 0, 1);
        o.on_run_end(RunInfo {
            trials: 3,
            workers: 1,
        });
    }

    #[test]
    fn multi_observer_fans_out() {
        let a = Arc::new(Counting::default());
        let b = Arc::new(Counting::default());
        let multi = MultiObserver::new()
            .with(Arc::clone(&a) as Arc<dyn Observer>)
            .with(Arc::clone(&b) as Arc<dyn Observer>);
        assert_eq!(multi.len(), 2);
        multi.on_chunk_claimed(0, 0, 8);
        multi.on_chunk_claimed(1, 8, 8);
        assert_eq!(a.calls.load(Ordering::Relaxed), 2);
        assert_eq!(b.calls.load(Ordering::Relaxed), 2);
    }
}
