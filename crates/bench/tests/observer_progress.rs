//! Progress-tracker contract under a skewed workload: the atomics the
//! stderr reporter samples must stay monotone while workers race, land
//! on the exact trial count, and cost nothing when no observer is
//! attached.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use beeps_bench::TrialRunner;
use beeps_observe::{ProgressTracker, RunInfo};

const TRIALS: usize = 600;

/// A trial whose cost varies by ~100×: every tenth trial burns one
/// hundred units of work, the rest burn one. The skew forces the
/// dynamic chunk queue to rebalance, which is exactly when a sloppy
/// counter would run backwards or overshoot.
fn skewed_trial(index: usize, seed: u64) -> u64 {
    let units = if index.is_multiple_of(10) { 100 } else { 1 };
    let mut acc = seed;
    for _ in 0..units * 200 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    acc
}

#[test]
fn progress_counters_are_monotone_and_exact_under_cost_skew() {
    let tracker = Arc::new(ProgressTracker::new());
    let runner = TrialRunner::new(4).with_observer(tracker.clone());

    // Sample concurrently with the run; every observation must be
    // monotone in every cumulative counter.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let tracker = Arc::clone(&tracker);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut last_done = 0u64;
            let mut last_chunks = 0u64;
            let mut samples = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = tracker.snapshot();
                assert!(
                    snap.trials_done >= last_done,
                    "trials_done ran backwards: {} -> {}",
                    last_done,
                    snap.trials_done
                );
                assert!(
                    snap.chunks_claimed >= last_chunks,
                    "chunks_claimed ran backwards"
                );
                assert!(
                    snap.trials_done <= TRIALS as u64,
                    "trials_done overshot the total: {}",
                    snap.trials_done
                );
                last_done = snap.trials_done;
                last_chunks = snap.chunks_claimed;
                samples += 1;
                thread::sleep(Duration::from_micros(200));
            }
            samples
        })
    };

    let out = runner.run(0xC0_57, TRIALS, |t| skewed_trial(t.index, t.seed));
    stop.store(true, Ordering::Relaxed);
    let samples = sampler.join().expect("sampler thread");
    assert!(samples > 0, "sampler never observed the run");

    assert_eq!(out.len(), TRIALS);
    let snap = tracker.snapshot();
    assert_eq!(snap.trials_done, TRIALS as u64, "exact final trial count");
    assert_eq!(snap.trials_total, TRIALS as u64);
    assert_eq!(snap.runs_started, 1);
    assert_eq!(snap.runs_completed, 1);
    assert!(
        snap.chunks_claimed >= 4,
        "a 4-worker skewed run claims several chunks: {}",
        snap.chunks_claimed
    );
    assert_eq!(
        snap.worker_claims.iter().sum::<u64>(),
        snap.chunks_claimed,
        "per-worker claims must add up to the chunk total"
    );
    assert!(snap.active_workers() >= 1);
}

#[test]
fn serial_observed_run_counts_exactly_once() {
    let tracker = Arc::new(ProgressTracker::new());
    let runner = TrialRunner::new(1).with_observer(tracker.clone());
    let out = runner.run(7, 37, |t| skewed_trial(t.index, t.seed));
    assert_eq!(out.len(), 37);
    let snap = tracker.snapshot();
    assert_eq!(snap.trials_done, 37);
    assert_eq!(snap.runs_completed, 1);
}

#[test]
fn unobserved_run_takes_the_inert_path() {
    let runner = TrialRunner::new(2);
    assert!(runner.observer().is_none());

    // No ambient observer is installed on any worker of this runner, so
    // the per-trial observability check reads the worker's own empty
    // slot and answers false — the no-op path — even while sibling
    // tests install observers on their own threads.
    let saw_active = Arc::new(AtomicBool::new(false));
    let saw = Arc::clone(&saw_active);
    let out = runner.run(11, 64, move |t| {
        if beeps_observe::is_active() {
            saw.store(true, Ordering::Relaxed);
        }
        skewed_trial(t.index, t.seed)
    });
    assert_eq!(out.len(), 64);
    assert!(
        !saw_active.load(Ordering::Relaxed),
        "no observer attached, yet the ambient hook reported active"
    );

    // And the results are bitwise what an observed run produces.
    let tracker = Arc::new(ProgressTracker::new());
    let observed = TrialRunner::new(2)
        .with_observer(tracker)
        .run(11, 64, |t| skewed_trial(t.index, t.seed));
    assert_eq!(out, observed, "observation must not perturb results");
}

#[test]
fn tracker_observer_hooks_are_worker_slot_safe() {
    use beeps_observe::Observer;

    let tracker = ProgressTracker::new();
    tracker.on_run_start(RunInfo {
        trials: 10,
        workers: 3,
    });
    // Workers far beyond the slot array must fold in, not panic.
    tracker.on_chunk_claimed(beeps_observe::MAIN_WORKER, 0, 5);
    tracker.on_chunk_completed(beeps_observe::MAIN_WORKER, 0, 5);
    tracker.on_chunk_claimed(1, 5, 5);
    tracker.on_chunk_completed(1, 5, 5);
    let snap = tracker.snapshot();
    assert_eq!(snap.trials_done, 10);
    assert_eq!(snap.chunks_claimed, 2);
    assert_eq!(snap.worker_claims.iter().sum::<u64>(), 2);
}
