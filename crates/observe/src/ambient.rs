//! Ambient (thread-local) observer installation for deep code paths.
//!
//! The runner can pass an [`Observer`] handle explicitly, but the
//! interesting spans live far below it — the executor's round loop,
//! the scheme engines' chunk/owners/verify phases — behind APIs whose
//! signatures must not grow an observability parameter. Instead, each
//! worker *installs* its observer into thread-local storage for the
//! duration of its work, and instrumentation points call [`phase`] /
//! [`mark`] ambiently.
//!
//! The contract that keeps this free for unobserved runs: [`phase`]
//! and [`mark`] first read this thread's own installation slot. When
//! it is empty (no observer installed on this thread — the common case
//! for tests, unobserved benchmarks, and unobserved threads next to an
//! observed runner), they return after **one thread-local read**: no
//! clock read, no allocation, and no shared state another thread's
//! install could flip. This is the "zero overhead when no observer is
//! attached" guarantee asserted by `crates/bench/tests/observer_progress.rs`.

use std::cell::RefCell;
use std::sync::Arc;

use crate::clock;
use crate::observer::Observer;

/// Worker index reported for instrumented work on the invoking thread
/// (outside the worker pool), e.g. the trial-index-order metrics merge.
pub const MAIN_WORKER: usize = usize::MAX;

thread_local! {
    static CURRENT: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

#[derive(Clone)]
struct Installed {
    observer: Arc<dyn Observer>,
    worker: usize,
}

/// Installs `observer` as this thread's ambient observer, reporting
/// hooks as worker `worker`, until the returned guard drops (which
/// restores whatever was installed before).
#[must_use = "the observer is uninstalled when the guard drops"]
pub fn install(observer: Arc<dyn Observer>, worker: usize) -> InstallGuard {
    let previous = CURRENT.with(|c| c.replace(Some(Installed { observer, worker })));
    InstallGuard { previous }
}

/// Uninstalls the ambient observer (restoring the previous one) on drop.
pub struct InstallGuard {
    previous: Option<Installed>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// Whether the calling thread has an observer installed. The inverse
/// is the fast-path guarantee: when false, [`phase`] and [`mark`] cost
/// one thread-local read. Installs on other threads do not count.
#[must_use]
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn with_current<R>(f: impl FnOnce(&Installed) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(f))
}

/// An open wall-clock span; reports to the ambient observer when
/// dropped. Inert (and cost-free beyond one thread-local read) when no
/// observer is installed on this thread.
#[must_use = "a span reports its duration when dropped"]
pub struct PhaseSpan {
    open: Option<(Arc<dyn Observer>, usize, &'static str, u64)>,
}

/// Opens a named span on this thread's ambient observer. The span
/// closes (and fires [`Observer::on_phase`]) when the returned value
/// drops.
pub fn phase(name: &'static str) -> PhaseSpan {
    PhaseSpan {
        open: with_current(|cur| {
            (
                Arc::clone(&cur.observer),
                cur.worker,
                name,
                clock::monotonic_micros(),
            )
        }),
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some((observer, worker, name, start)) = self.open.take() {
            observer.on_phase(worker, name, start, clock::monotonic_micros());
        }
    }
}

/// Fires a named instantaneous [`Observer::on_mark`] on this thread's
/// ambient observer, if one is installed.
pub fn mark(name: &'static str) {
    let target = with_current(|cur| (Arc::clone(&cur.observer), cur.worker));
    if let Some((observer, worker)) = target {
        observer.on_mark(worker, name, clock::monotonic_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Recording {
        phases: Mutex<Vec<(usize, &'static str)>>,
        marks: Mutex<Vec<(usize, &'static str)>>,
    }

    impl Observer for Recording {
        fn on_phase(&self, worker: usize, name: &'static str, start: u64, end: u64) {
            assert!(end >= start);
            self.phases.lock().unwrap().push((worker, name));
        }

        fn on_mark(&self, worker: usize, name: &'static str, _at: u64) {
            self.marks.lock().unwrap().push((worker, name));
        }
    }

    #[test]
    fn inert_without_installation() {
        // Nothing to assert beyond "does not panic / does not leak":
        // the span must be inert when no observer is installed.
        let span = phase("nothing");
        drop(span);
        mark("nothing");
    }

    #[test]
    fn spans_and_marks_reach_the_installed_observer() {
        let obs = Arc::new(Recording::default());
        {
            let _guard = install(Arc::clone(&obs) as Arc<dyn Observer>, 3);
            assert!(is_active());
            let span = phase("work");
            mark("tick");
            drop(span);
        }
        assert_eq!(*obs.phases.lock().unwrap(), vec![(3, "work")]);
        assert_eq!(*obs.marks.lock().unwrap(), vec![(3, "tick")]);
        // After the guard drops, this thread is quiet again.
        mark("ignored");
        assert_eq!(obs.marks.lock().unwrap().len(), 1);
    }

    #[test]
    fn nested_installs_restore_the_previous_observer() {
        let outer = Arc::new(Recording::default());
        let inner = Arc::new(Recording::default());
        let _outer_guard = install(Arc::clone(&outer) as Arc<dyn Observer>, 0);
        {
            let _inner_guard = install(Arc::clone(&inner) as Arc<dyn Observer>, 1);
            mark("inner");
        }
        mark("outer");
        assert_eq!(*inner.marks.lock().unwrap(), vec![(1, "inner")]);
        assert_eq!(*outer.marks.lock().unwrap(), vec![(0, "outer")]);
    }

    #[test]
    fn installation_is_per_thread() {
        let obs = Arc::new(Recording::default());
        let _guard = install(Arc::clone(&obs) as Arc<dyn Observer>, 0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The other thread has no observer of its own: it stays
                // on the inert path and its marks go nowhere.
                assert!(!is_active());
                mark("other-thread");
            });
        });
        assert!(obs.marks.lock().unwrap().is_empty());
    }
}
