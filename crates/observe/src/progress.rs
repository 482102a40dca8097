//! Live progress: lock-free counters plus a stderr reporter thread.
//!
//! [`ProgressTracker`] is the [`Observer`] the runner's hooks feed:
//! every hook is a handful of relaxed atomic increments, so worker
//! threads never contend on a lock. A [`ProgressReporter`] thread
//! samples the tracker a few times a second and renders a single
//! carriage-return-overwritten status line — throughput, percentage,
//! and ETA — to stderr (never stdout, which belongs to the experiment
//! tables).
//!
//! A tracker accumulates across **all** runner invocations of a
//! process: experiment binaries typically sweep a parameter and invoke
//! the runner once per point, and the useful progress view is the
//! whole sweep, not one point.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::clock;
use crate::observer::{Observer, RunInfo};

/// Fixed number of per-worker claim slots. Workers beyond the slot
/// count fold onto `worker % WORKER_SLOTS`; [`crate::MAIN_WORKER`]
/// folds onto the last slot.
pub const WORKER_SLOTS: usize = 64;

/// Lock-free progress counters fed by the runner's [`Observer`] hooks.
#[derive(Debug)]
pub struct ProgressTracker {
    trials_total: AtomicU64,
    trials_done: AtomicU64,
    chunks_claimed: AtomicU64,
    runs_started: AtomicU64,
    runs_completed: AtomicU64,
    worker_claims: [AtomicU64; WORKER_SLOTS],
}

impl Default for ProgressTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressTracker {
    /// A tracker with every counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            trials_total: AtomicU64::new(0),
            trials_done: AtomicU64::new(0),
            chunks_claimed: AtomicU64::new(0),
            runs_started: AtomicU64::new(0),
            runs_completed: AtomicU64::new(0),
            worker_claims: [const { AtomicU64::new(0) }; WORKER_SLOTS],
        }
    }

    fn slot(worker: usize) -> usize {
        worker % WORKER_SLOTS
    }

    /// A consistent-enough copy of every counter (individually atomic;
    /// the set is sampled, not snapshotted transactionally — fine for a
    /// progress display and for the monotonicity tests).
    #[must_use]
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            trials_total: self.trials_total.load(Ordering::Relaxed),
            trials_done: self.trials_done.load(Ordering::Relaxed),
            chunks_claimed: self.chunks_claimed.load(Ordering::Relaxed),
            runs_started: self.runs_started.load(Ordering::Relaxed),
            runs_completed: self.runs_completed.load(Ordering::Relaxed),
            worker_claims: self
                .worker_claims
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Observer for ProgressTracker {
    fn on_run_start(&self, info: RunInfo) {
        self.trials_total
            .fetch_add(info.trials as u64, Ordering::Relaxed);
        self.runs_started.fetch_add(1, Ordering::Relaxed);
    }

    fn on_run_end(&self, _info: RunInfo) {
        self.runs_completed.fetch_add(1, Ordering::Relaxed);
    }

    fn on_chunk_claimed(&self, worker: usize, _start: usize, _len: usize) {
        self.chunks_claimed.fetch_add(1, Ordering::Relaxed);
        self.worker_claims[Self::slot(worker)].fetch_add(1, Ordering::Relaxed);
    }

    fn on_chunk_completed(&self, _worker: usize, _start: usize, len: usize) {
        self.trials_done.fetch_add(len as u64, Ordering::Relaxed);
    }
}

/// One sampled view of a [`ProgressTracker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Trials announced by every `on_run_start` so far.
    pub trials_total: u64,
    /// Trials finished (summed over completed chunks).
    pub trials_done: u64,
    /// Chunks claimed from the shared counter.
    pub chunks_claimed: u64,
    /// Runner invocations started.
    pub runs_started: u64,
    /// Runner invocations completed.
    pub runs_completed: u64,
    /// Per-worker chunk-claim counts (`worker % WORKER_SLOTS`).
    pub worker_claims: Vec<u64>,
}

impl ProgressSnapshot {
    /// Workers that have claimed at least one chunk.
    #[must_use]
    pub fn active_workers(&self) -> usize {
        self.worker_claims.iter().filter(|&&c| c > 0).count()
    }
}

/// Renders one status line for the reporter (no trailing newline).
fn render_line(snap: &ProgressSnapshot, elapsed_micros: u64) -> String {
    let secs = (elapsed_micros as f64 / 1e6).max(1e-9);
    let rate = snap.trials_done as f64 / secs;
    let pct = if snap.trials_total > 0 {
        100.0 * snap.trials_done as f64 / snap.trials_total as f64
    } else {
        0.0
    };
    let eta = if rate > 0.0 && snap.trials_total > snap.trials_done {
        (snap.trials_total - snap.trials_done) as f64 / rate
    } else {
        0.0
    };
    let line = format!(
        "[beeps] {}/{} trials ({pct:.1}%) \u{b7} {rate:.0}/s \u{b7} ETA {eta:.1}s \u{b7} \
         {} chunks on {} worker(s)",
        snap.trials_done,
        snap.trials_total,
        snap.chunks_claimed,
        snap.active_workers().max(1),
    );
    // Pad so a shorter line fully overwrites the previous one.
    format!("{line:<78}")
}

/// Samples a [`ProgressTracker`] on a background thread and renders a
/// live status line to stderr. Create with [`ProgressReporter::spawn`],
/// stop with [`ProgressReporter::finish`] (also runs on drop).
#[derive(Debug)]
pub struct ProgressReporter {
    stop_tx: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<()>>,
}

/// Reporter sampling interval.
const TICK: Duration = Duration::from_millis(200);

impl ProgressReporter {
    /// Spawns the reporter thread over `tracker`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    #[must_use]
    pub fn spawn(tracker: Arc<ProgressTracker>) -> Self {
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("beeps-progress".into())
            .spawn(move || {
                let started = clock::monotonic_micros();
                loop {
                    let stopped = matches!(
                        stop_rx.recv_timeout(TICK),
                        Ok(()) | Err(RecvTimeoutError::Disconnected)
                    );
                    let snap = tracker.snapshot();
                    let line = render_line(&snap, clock::monotonic_micros() - started);
                    if stopped {
                        // Final render gets a real newline so the next
                        // stderr write starts clean.
                        eprintln!("\r{line}");
                        return;
                    }
                    eprint!("\r{line}");
                }
            })
            .expect("spawn beeps-progress reporter thread");
        Self {
            stop_tx: Some(stop_tx),
            handle: Some(handle),
        }
    }

    /// Stops the reporter, printing one final status line.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(tx) = self.stop_tx.take() {
            let _ = tx.send(());
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambient::MAIN_WORKER;

    fn run_info(trials: usize, workers: usize) -> RunInfo {
        RunInfo { trials, workers }
    }

    #[test]
    fn hooks_accumulate_counters() {
        let t = ProgressTracker::new();
        t.on_run_start(run_info(100, 4));
        t.on_chunk_claimed(0, 0, 8);
        t.on_chunk_completed(0, 0, 8);
        t.on_chunk_claimed(1, 8, 8);
        t.on_chunk_completed(1, 8, 8);
        t.on_run_end(run_info(100, 4));
        let s = t.snapshot();
        assert_eq!(s.trials_total, 100);
        assert_eq!(s.trials_done, 16);
        assert_eq!(s.chunks_claimed, 2);
        assert_eq!(s.runs_started, 1);
        assert_eq!(s.runs_completed, 1);
        assert_eq!(s.active_workers(), 2);
    }

    #[test]
    fn accumulates_across_runs() {
        let t = ProgressTracker::new();
        for _ in 0..3 {
            t.on_run_start(run_info(10, 1));
            t.on_chunk_claimed(0, 0, 10);
            t.on_chunk_completed(0, 0, 10);
            t.on_run_end(run_info(10, 1));
        }
        let s = t.snapshot();
        assert_eq!(s.trials_total, 30);
        assert_eq!(s.trials_done, 30);
        assert_eq!(s.runs_completed, 3);
    }

    #[test]
    fn main_worker_folds_into_a_slot() {
        let t = ProgressTracker::new();
        t.on_chunk_claimed(MAIN_WORKER, 0, 1);
        assert_eq!(t.snapshot().chunks_claimed, 1);
        assert_eq!(t.snapshot().active_workers(), 1);
    }

    #[test]
    fn render_line_is_padded_and_informative() {
        let t = ProgressTracker::new();
        t.on_run_start(run_info(200, 2));
        t.on_chunk_claimed(0, 0, 50);
        t.on_chunk_completed(0, 0, 50);
        let line = render_line(&t.snapshot(), 2_000_000);
        assert!(line.starts_with("[beeps] 50/200 trials (25.0%)"), "{line}");
        assert!(line.contains("25/s"), "{line}");
        assert!(line.len() >= 78);
    }

    #[test]
    fn reporter_starts_and_stops() {
        let tracker = Arc::new(ProgressTracker::new());
        tracker.on_run_start(run_info(4, 1));
        tracker.on_chunk_claimed(0, 0, 4);
        tracker.on_chunk_completed(0, 0, 4);
        let reporter = ProgressReporter::spawn(Arc::clone(&tracker));
        reporter.finish();
    }
}
