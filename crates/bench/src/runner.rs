//! Seed-deterministic parallel trial execution.
//!
//! Every experiment in this repository is a Monte Carlo estimate over
//! independent trials. [`TrialRunner`] shards those trials across a
//! scoped worker pool while keeping results **bitwise identical for
//! any thread count**: each trial's randomness is derived purely from
//! `(base_seed, trial_index)` by [`trial_seed`], workers dynamically
//! claim contiguous chunks of trial indices from a shared atomic
//! counter (so a worker stuck on an expensive trial doesn't idle the
//! rest of the pool, as the old static index-striding did under skewed
//! per-trial costs), and results are merged back into trial-index
//! order. Which worker ran a trial, and when, is not observable in the
//! output.
//!
//! Trials that want to reuse buffers across invocations use
//! [`TrialRunner::run_with_scratch`]: each worker owns one scratch
//! value for its whole lifetime, so per-trial allocations can be
//! replaced by a `clear()` — without the scratch ever becoming a
//! side-channel between trials on *different* workers (determinism
//! still requires the trial to fully re-initialize what it reads).
//!
//! Thread count comes from, in order: an explicit
//! [`TrialRunner::new`], the `--threads N` CLI flag
//! ([`TrialRunner::from_args`]), the `BEEPS_THREADS` environment
//! variable, and finally [`std::thread::available_parallelism`].
//!
//! An [`Observer`] attached via [`TrialRunner::with_observer`] receives
//! run / chunk lifecycle hooks and is ambiently installed on every
//! worker (so deep instrumentation points — the scheme engines'
//! phases, the owners phase — report to it too). Hooks
//! are observation-only and carry no data back into the engine; with no
//! observer attached every hook site is skipped and the run takes the
//! exact same code path as before the hooks existed.

use std::sync::Arc;

use beeps_metrics::MetricsRegistry;
use beeps_observe::{ambient, Observer, RunInfo, MAIN_WORKER};
use rand::{rngs::StdRng, SeedableRng};

/// Derives the RNG seed for one trial from the experiment's base seed.
///
/// SplitMix64-style finalizer over a golden-ratio index stride: cheap,
/// stateless, and well-mixed, so per-trial streams are independent and
/// a trial's seed never depends on which worker thread claims it.
#[must_use]
pub fn trial_seed(base_seed: u64, trial_index: u64) -> u64 {
    let mut z = base_seed.wrapping_add(
        trial_index
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-trial context handed to the trial closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// This trial's index in `0..trials`.
    pub index: usize,
    /// This trial's derived seed; see [`trial_seed`].
    pub seed: u64,
}

impl Trial {
    /// The context for trial `index` of an experiment at `base_seed`.
    #[must_use]
    pub fn new(base_seed: u64, index: usize) -> Self {
        Self {
            index,
            seed: trial_seed(base_seed, index as u64),
        }
    }

    /// A generator seeded for this trial.
    #[must_use]
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// A generator for an independent named sub-stream of this trial
    /// (e.g. separate input-sampling and channel-noise streams).
    #[must_use]
    pub fn sub_rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(trial_seed(self.seed, stream))
    }
}

/// Shards independent trials across a scoped thread pool.
///
/// # Examples
///
/// ```
/// use beeps_bench::TrialRunner;
///
/// let serial = TrialRunner::new(1).run(0xBEE, 8, |t| t.seed);
/// let parallel = TrialRunner::new(4).run(0xBEE, 8, |t| t.seed);
/// assert_eq!(serial, parallel);
/// ```
#[derive(Clone)]
pub struct TrialRunner {
    threads: usize,
    observer: Option<Arc<dyn Observer>>,
}

impl std::fmt::Debug for TrialRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrialRunner")
            .field("threads", &self.threads)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl TrialRunner {
    /// A runner with an explicit worker count (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            observer: None,
        }
    }

    /// Attaches an [`Observer`] that receives run / chunk hooks and is
    /// ambiently installed on every worker thread for the duration of
    /// each run. Observation-only: attaching one never changes results
    /// or metrics (pinned by `tests/metrics_determinism.rs`).
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The attached observer, if any.
    #[must_use]
    pub fn observer(&self) -> Option<&Arc<dyn Observer>> {
        self.observer.as_ref()
    }

    /// A runner sized from `BEEPS_THREADS`, falling back to
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn from_env() -> Self {
        if let Some(n) = std::env::var("BEEPS_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            return Self::new(n);
        }
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// A runner sized from a `--threads N` argument in `args`, falling
    /// back to [`TrialRunner::from_env`]. Both `--threads N` and
    /// `--threads=N` are accepted; the experiment binaries pass
    /// `std::env::args().skip(1)` straight through.
    ///
    /// # Panics
    ///
    /// Panics if `--threads` is present but its value is missing or not
    /// an unsigned integer. Silently falling back to the environment
    /// here would run the experiment with an unintended thread count —
    /// harmless for results (they are thread-count invariant) but not
    /// for the wall-clock the user asked to control.
    pub fn from_args<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let parse = |v: &str| {
            v.parse::<usize>().unwrap_or_else(|_| {
                panic!("invalid --threads value {v:?}: expected an unsigned integer")
            })
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            if arg == "--threads" {
                let value = args.next().expect("--threads requires a value");
                return Self::new(parse(value.as_ref()));
            } else if let Some(v) = arg.strip_prefix("--threads=") {
                return Self::new(parse(v));
            }
        }
        Self::from_env()
    }

    /// A runner sized from this process's CLI arguments (then the
    /// environment) — the one-liner the experiment binaries use.
    #[must_use]
    pub fn from_cli() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// The worker count this runner will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `trials` independent trials of `trial_fn` and returns their
    /// results in trial-index order.
    ///
    /// The closure sees only its [`Trial`] (index + derived seed), so
    /// the returned vector is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial closure.
    pub fn run<R, F>(&self, base_seed: u64, trials: usize, trial_fn: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Trial) -> R + Sync,
    {
        self.run_with_scratch(base_seed, trials, || (), |trial, _scratch| trial_fn(trial))
    }

    /// The number of contiguous trial indices a worker claims per visit
    /// to the shared counter: small enough that a pocket of expensive
    /// trials spreads over the pool, large enough that the atomic
    /// counter stays off the profile for cheap trials.
    fn chunk_size(trials: usize, workers: usize) -> usize {
        (trials / (workers * 8)).clamp(1, 256)
    }

    /// Like [`TrialRunner::run`], but every worker also owns one
    /// long-lived scratch value (from `make_scratch`) that is handed to
    /// each of its trials in turn — the hook for reusing transcript
    /// buffers, party state, channels, or metrics registries across
    /// trials instead of reallocating them per trial.
    ///
    /// Determinism contract: the scratch is an *allocation* cache, not a
    /// data channel. A trial must reset whatever scratch state it reads
    /// (e.g. `clear()` before filling a buffer); under that contract the
    /// result vector is bitwise identical for every thread count, since
    /// trial-to-worker assignment is not observable.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial closure.
    pub fn run_with_scratch<R, S, M, F>(
        &self,
        base_seed: u64,
        trials: usize,
        make_scratch: M,
        trial_fn: F,
    ) -> Vec<R>
    where
        R: Send,
        M: Fn() -> S + Sync,
        F: Fn(Trial, &mut S) -> R + Sync,
    {
        let workers = self.threads.min(trials.max(1));
        let observer = self.observer.as_ref();
        if workers <= 1 {
            let mut scratch = make_scratch();
            let Some(obs) = observer else {
                return (0..trials)
                    .map(|i| trial_fn(Trial::new(base_seed, i), &mut scratch))
                    .collect();
            };
            // Observed serial run: same trial order, but iterated in
            // chunk-sized groups so the chunk hooks fire with real
            // granularity. Identical iteration order ⇒ identical
            // results (pinned by tests/metrics_determinism.rs).
            obs.on_run_start(RunInfo { trials, workers: 1 });
            let guard = ambient::install(Arc::clone(obs), MAIN_WORKER);
            let chunk = Self::chunk_size(trials, 1);
            let mut out = Vec::with_capacity(trials);
            let mut start = 0;
            while start < trials {
                let end = (start + chunk).min(trials);
                obs.on_chunk_claimed(MAIN_WORKER, start, end - start);
                for i in start..end {
                    out.push(trial_fn(Trial::new(base_seed, i), &mut scratch));
                }
                obs.on_chunk_completed(MAIN_WORKER, start, end - start);
                start = end;
            }
            drop(guard);
            obs.on_run_end(RunInfo { trials, workers: 1 });
            return out;
        }

        if let Some(obs) = observer {
            obs.on_run_start(RunInfo { trials, workers });
        }
        // Deterministic dynamic scheduling: workers claim contiguous
        // chunks of trial indices from a shared counter. Which worker
        // runs which chunk varies run to run; the (index, result) pairs
        // and the index-ordered merge below do not. Claim counters use
        // acquire/release per the workspace atomics policy (beeps-lint
        // `atomic-ordering`): Relaxed is reserved for inert telemetry.
        let chunk = Self::chunk_size(trials, workers);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let shards: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let trial_fn = &trial_fn;
            let make_scratch = &make_scratch;
            let next = &next;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let _ambient = observer.map(|obs| ambient::install(Arc::clone(obs), w));
                        let mut scratch = make_scratch();
                        let mut out = Vec::new();
                        loop {
                            let start = next.fetch_add(chunk, std::sync::atomic::Ordering::AcqRel);
                            if start >= trials {
                                break;
                            }
                            let end = (start + chunk).min(trials);
                            if let Some(obs) = observer {
                                obs.on_chunk_claimed(w, start, end - start);
                            }
                            for i in start..end {
                                out.push((i, trial_fn(Trial::new(base_seed, i), &mut scratch)));
                            }
                            if let Some(obs) = observer {
                                obs.on_chunk_completed(w, start, end - start);
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trial worker panicked"))
                .collect()
        });

        let merge_guard = observer.map(|obs| ambient::install(Arc::clone(obs), MAIN_WORKER));
        let merge_span = ambient::phase("runner.merge");
        let mut slots: Vec<Option<R>> = (0..trials).map(|_| None).collect();
        for (index, result) in shards.into_iter().flatten() {
            debug_assert!(slots[index].is_none(), "trial {index} ran twice");
            slots[index] = Some(result);
        }
        let merged: Vec<R> = slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("trial {i} produced no result")))
            .collect();
        drop(merge_span);
        drop(merge_guard);
        if let Some(obs) = observer {
            obs.on_run_end(RunInfo { trials, workers });
        }
        merged
    }

    /// Like [`TrialRunner::run`], but each trial also gets an **empty**
    /// [`MetricsRegistry`] to record into; the per-trial registries are
    /// merged back **in trial-index order**, so the aggregate — counters,
    /// histograms, and the bounded event log alike — is bitwise identical
    /// for every thread count. (Wall-clock spans are merged too but live
    /// in the registry's non-deterministic section.)
    ///
    /// Serially (one worker) the registry handed to each trial is a
    /// single scratch registry [`reset`](MetricsRegistry::reset) between
    /// trials and merged as each trial completes, eliminating the
    /// per-trial registry allocation; in parallel every trial records
    /// into a fresh registry as before. The two paths produce equal
    /// merged registries — pinned by the thread-count invariance tests
    /// here and in `tests/metrics_determinism.rs`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial closure.
    pub fn run_with_metrics<R, F>(
        &self,
        base_seed: u64,
        trials: usize,
        trial_fn: F,
    ) -> (Vec<R>, MetricsRegistry)
    where
        R: Send,
        F: Fn(Trial, &mut MetricsRegistry) -> R + Sync,
    {
        if self.threads.min(trials.max(1)) <= 1 {
            let mut scratch = MetricsRegistry::new();
            let mut merged = MetricsRegistry::new();
            let mut results = Vec::with_capacity(trials);
            let Some(obs) = self.observer.as_ref() else {
                for i in 0..trials {
                    scratch.reset();
                    results.push(trial_fn(Trial::new(base_seed, i), &mut scratch));
                    merged.merge_from(&scratch);
                }
                return (results, merged);
            };
            // Observed serial run: same per-trial reset/record/merge
            // sequence, iterated in chunk-sized groups for the hooks.
            obs.on_run_start(RunInfo { trials, workers: 1 });
            let guard = ambient::install(Arc::clone(obs), MAIN_WORKER);
            let chunk = Self::chunk_size(trials, 1);
            let mut start = 0;
            while start < trials {
                let end = (start + chunk).min(trials);
                obs.on_chunk_claimed(MAIN_WORKER, start, end - start);
                for i in start..end {
                    scratch.reset();
                    results.push(trial_fn(Trial::new(base_seed, i), &mut scratch));
                    merged.merge_from(&scratch);
                }
                obs.on_chunk_completed(MAIN_WORKER, start, end - start);
                start = end;
            }
            drop(guard);
            obs.on_run_end(RunInfo { trials, workers: 1 });
            return (results, merged);
        }
        // Run/chunk hooks (and per-worker ambient installation) fire
        // inside `run`; only the extra registry merge is added here.
        let pairs = self.run(base_seed, trials, |trial| {
            let mut metrics = MetricsRegistry::new();
            let result = trial_fn(trial, &mut metrics);
            (result, metrics)
        });
        let merge_guard = self
            .observer
            .as_ref()
            .map(|obs| ambient::install(Arc::clone(obs), MAIN_WORKER));
        let merge_span = ambient::phase("runner.merge");
        let mut merged = MetricsRegistry::new();
        let mut results = Vec::with_capacity(pairs.len());
        for (result, metrics) in pairs {
            merged.merge_from(&metrics);
            results.push(result);
        }
        drop(merge_span);
        drop(merge_guard);
        (results, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_stable_and_distinct() {
        let a = trial_seed(42, 0);
        assert_eq!(a, trial_seed(42, 0));
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| trial_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "seed collision within one experiment");
        assert_ne!(trial_seed(42, 5), trial_seed(43, 5));
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let work = |t: Trial| {
            use rand::Rng;
            let mut rng = t.rng();
            (t.index, rng.gen_range(0u64..1_000_000), rng.gen_bool(0.5))
        };
        let baseline = TrialRunner::new(1).run(7, 33, work);
        for threads in [2, 3, 8, 64] {
            assert_eq!(TrialRunner::new(threads).run(7, 33, work), baseline);
        }
    }

    #[test]
    fn skewed_trial_costs_preserve_determinism() {
        // Adversarial 100x cost skew: every 8th trial does 100x the
        // work, so dynamic chunk claiming assigns trials to workers in
        // a genuinely schedule-dependent way — and must not show it.
        let work = |t: Trial| {
            use rand::Rng;
            let mut rng = t.rng();
            let iters = if t.index.is_multiple_of(8) {
                10_000
            } else {
                100
            };
            let mut acc = 0u64;
            for _ in 0..iters {
                acc = acc.wrapping_add(rng.gen_range(0u64..1_000));
            }
            (t.index, acc)
        };
        let baseline = TrialRunner::new(1).run(0x5EED, 41, work);
        for threads in [2, 8, 64] {
            assert_eq!(
                TrialRunner::new(threads).run(0x5EED, 41, work),
                baseline,
                "{threads} threads diverged under skewed costs"
            );
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_state_at_any_thread_count() {
        // Each trial fills a reused buffer after clearing it; sizes are
        // skewed so chunk boundaries land differently per thread count.
        let work = |t: Trial, buf: &mut Vec<u64>| {
            use rand::Rng;
            let mut rng = t.rng();
            buf.clear();
            let len = if t.index.is_multiple_of(8) { 800 } else { 8 };
            for _ in 0..len {
                buf.push(rng.gen_range(0u64..1_000));
            }
            buf.iter().sum::<u64>()
        };
        let baseline = TrialRunner::new(1).run(3, 37, |t| {
            let mut fresh = Vec::new();
            work(t, &mut fresh)
        });
        for threads in [1, 2, 8, 64] {
            let got = TrialRunner::new(threads).run_with_scratch(3, 37, Vec::new, work);
            assert_eq!(got, baseline, "{threads} threads diverged with scratch");
        }
    }

    #[test]
    fn chunk_size_adapts_but_stays_bounded() {
        assert_eq!(TrialRunner::chunk_size(10, 8), 1);
        assert_eq!(TrialRunner::chunk_size(1_000, 4), 31);
        assert_eq!(TrialRunner::chunk_size(1_000_000, 2), 256);
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let out = TrialRunner::new(16).run(1, 3, |t| t.index);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn zero_trials_yields_empty() {
        assert!(TrialRunner::new(4).run(1, 0, |t| t.index).is_empty());
    }

    #[test]
    fn args_parsing_prefers_explicit_threads() {
        assert_eq!(TrialRunner::from_args(["--threads", "3"]).threads(), 3);
        assert_eq!(TrialRunner::from_args(["--threads=5"]).threads(), 5);
        assert!(TrialRunner::from_args(["--other"]).threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "invalid --threads value")]
    fn unparsable_threads_value_panics() {
        TrialRunner::from_args(["--threads", "lots"]);
    }

    #[test]
    #[should_panic(expected = "invalid --threads value")]
    fn unparsable_threads_eq_value_panics() {
        TrialRunner::from_args(["--threads=many", "--threads=2"]);
    }

    #[test]
    #[should_panic(expected = "--threads requires a value")]
    fn missing_threads_value_panics() {
        TrialRunner::from_args(["--threads"]);
    }

    #[test]
    fn metrics_merge_is_independent_of_thread_count() {
        let work = |t: Trial, m: &mut MetricsRegistry| {
            use rand::Rng;
            let mut rng = t.rng();
            let rounds: u64 = rng.gen_range(1..1000);
            m.inc("rounds", rounds);
            m.observe("rounds", rounds);
            m.event("trial", t.index as u64, rounds);
            m.record_wall("work", std::time::Duration::from_micros(rounds));
            rounds
        };
        let (baseline_results, baseline) = TrialRunner::new(1).run_with_metrics(11, 29, work);
        for threads in [2, 8] {
            let (results, metrics) = TrialRunner::new(threads).run_with_metrics(11, 29, work);
            assert_eq!(results, baseline_results);
            assert_eq!(metrics, baseline, "{threads} threads diverged");
            // Event order (not just totals) must match too.
            let a: Vec<u64> = metrics.events().iter().map(|e| e.round).collect();
            let b: Vec<u64> = baseline.events().iter().map(|e| e.round).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sub_rng_streams_differ() {
        use rand::Rng;
        let t = Trial::new(9, 0);
        let a: u64 = t.sub_rng(0).gen_range(0..u64::MAX);
        let b: u64 = t.sub_rng(1).gen_range(0..u64::MAX);
        assert_ne!(a, b);
    }
}
