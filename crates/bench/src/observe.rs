//! Observation glue for the experiment binaries and the `beeps` CLI:
//! turns `--progress` / `--profile <path>` / `BEEPS_PROGRESS` into an
//! attached observer stack.
//!
//! One [`Observation`] bundles the three production observers from
//! `beeps-observe`:
//!
//! * a `ProgressTracker` + stderr reporter thread (`--progress`, or the
//!   `BEEPS_PROGRESS` environment variable set to anything but `0`);
//! * a `PhaseProfiler` exporting Chrome trace-event JSON to the
//!   `--profile <path>` argument (loadable in `chrome://tracing`,
//!   speedscope, or Perfetto) plus a summary table on stdout;
//! * a `RunLog` JSONL file written alongside the experiment log
//!   (`<output_dir>/<id>.runlog.jsonl`) whenever any observation is
//!   active.
//!
//! With none of the flags present, [`Observation::attach`] returns the
//! runner untouched and the run takes the exact pre-observability code
//! path.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use beeps_metrics::MetricsRegistry;
use beeps_observe::{
    config_digest, MultiObserver, Observer, PhaseProfiler, ProgressReporter, ProgressTracker,
    RunLog, RunMeta, RunSummary,
};

use crate::json::ExperimentLog;
use crate::runner::TrialRunner;

/// The observation-related CLI flags, parsed but not yet acted on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Options {
    progress: bool,
    profile: Option<PathBuf>,
}

impl Options {
    /// Extracts `--progress` and `--profile <path>` / `--profile=path`
    /// from `args`, ignoring everything else (the binaries pass their
    /// full argument list through). `BEEPS_PROGRESS` set to anything
    /// but `0` or the empty string also enables progress.
    fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut opts = Self::default();
        if let Ok(v) = std::env::var("BEEPS_PROGRESS") {
            opts.progress = !v.is_empty() && v != "0";
        }
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            if arg == "--progress" {
                opts.progress = true;
            } else if arg == "--profile" {
                let value = args.next().expect("--profile requires a path");
                opts.profile = Some(PathBuf::from(value.as_ref()));
            } else if let Some(v) = arg.strip_prefix("--profile=") {
                opts.profile = Some(PathBuf::from(v));
            }
        }
        opts
    }
}

/// The observer stack for one experiment run; see the module docs.
#[derive(Debug)]
pub struct Observation {
    tracker: Option<Arc<ProgressTracker>>,
    reporter: Option<ProgressReporter>,
    profiler: Option<Arc<PhaseProfiler>>,
    profile_path: Option<PathBuf>,
    runlog: Option<Arc<RunLog>>,
    runlog_path: Option<PathBuf>,
}

impl Observation {
    /// An observation stack from this process's CLI arguments and the
    /// `BEEPS_PROGRESS` environment — the one-liner the experiment
    /// binaries use. `id` names the run log (the experiment log's file
    /// stem); `base_seed` goes into the run log's config digest.
    #[must_use]
    pub fn from_cli(id: &str, base_seed: u64) -> Self {
        Self::from_args(id, base_seed, std::env::args().skip(1))
    }

    /// [`Observation::from_cli`] over an explicit argument list.
    ///
    /// # Panics
    ///
    /// Panics if `--profile` is present without a path value.
    pub fn from_args<I, S>(id: &str, base_seed: u64, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self::from_options(id, base_seed, &Options::parse(args))
    }

    /// An inert stack: attaches nothing, finishes silently.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            tracker: None,
            reporter: None,
            profiler: None,
            profile_path: None,
            runlog: None,
            runlog_path: None,
        }
    }

    fn from_options(id: &str, base_seed: u64, opts: &Options) -> Self {
        let mut obs = Self::disabled();
        if opts.progress {
            let tracker = Arc::new(ProgressTracker::new());
            obs.reporter = Some(ProgressReporter::spawn(Arc::clone(&tracker)));
            obs.tracker = Some(tracker);
        }
        if let Some(path) = &opts.profile {
            obs.profiler = Some(Arc::new(PhaseProfiler::new()));
            obs.profile_path = Some(path.clone());
        }
        if opts.progress || opts.profile.is_some() {
            let path = ExperimentLog::output_dir().join(format!("{id}.runlog.jsonl"));
            let meta = RunMeta {
                run_id: id.to_owned(),
                config_digest: config_digest(&[id, &base_seed.to_string()]),
                base_seed,
            };
            match RunLog::create(&path, &meta) {
                Ok(log) => {
                    obs.runlog = Some(Arc::new(log));
                    obs.runlog_path = Some(path);
                }
                Err(e) => eprintln!("warning: could not open run log {}: {e}", path.display()),
            }
        }
        obs
    }

    /// Whether any observer is active.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.tracker.is_some() || self.profiler.is_some() || self.runlog.is_some()
    }

    /// The path the Chrome trace will be written to, if profiling.
    #[must_use]
    pub fn profile_path(&self) -> Option<&Path> {
        self.profile_path.as_deref()
    }

    /// The path of the JSONL run log, if one is open.
    #[must_use]
    pub fn runlog_path(&self) -> Option<&Path> {
        self.runlog_path.as_deref()
    }

    /// The combined observer stack, or `None` when nothing is active.
    #[must_use]
    pub fn observer(&self) -> Option<Arc<dyn Observer>> {
        let mut multi = MultiObserver::new();
        if let Some(t) = &self.tracker {
            multi = multi.with(Arc::clone(t) as Arc<dyn Observer>);
        }
        if let Some(p) = &self.profiler {
            multi = multi.with(Arc::clone(p) as Arc<dyn Observer>);
        }
        if let Some(l) = &self.runlog {
            multi = multi.with(Arc::clone(l) as Arc<dyn Observer>);
        }
        if multi.is_empty() {
            None
        } else {
            Some(Arc::new(multi))
        }
    }

    /// Attaches the active observers to `runner` (untouched when none
    /// are active).
    #[must_use]
    pub fn attach(&self, runner: TrialRunner) -> TrialRunner {
        match self.observer() {
            Some(obs) => runner.with_observer(obs),
            None => runner,
        }
    }

    /// Ambiently installs the observer stack on the calling thread (as
    /// the main worker) until the guard drops — for instrumented code
    /// invoked outside a [`TrialRunner`], e.g. direct `simulate` calls.
    /// `None` when nothing is active.
    #[must_use]
    pub fn install_ambient(&self) -> Option<beeps_observe::InstallGuard> {
        self.observer()
            .map(|obs| beeps_observe::install(obs, beeps_observe::MAIN_WORKER))
    }

    /// Stops the progress reporter, saves the Chrome trace and prints
    /// the phase summary table, and seals the run log (folding in
    /// `metrics`' event-ring totals when given). Failures warn on
    /// stderr; the experiment's own results are never at risk.
    pub fn finish(mut self, metrics: Option<&MetricsRegistry>) {
        if let Some(reporter) = self.reporter.take() {
            reporter.finish();
        }
        if let (Some(profiler), Some(path)) = (&self.profiler, &self.profile_path) {
            print!("{}", profiler.summary_table());
            match profiler.save_chrome_trace(path) {
                Ok(()) => println!("trace: {}", path.display()),
                Err(e) => eprintln!("warning: could not write trace {}: {e}", path.display()),
            }
        }
        if let Some(runlog) = &self.runlog {
            let summary = RunSummary {
                trials_done: runlog.trials_done(),
                events_recorded: metrics.map_or(0, |m| m.events().recorded()),
                events_dropped: metrics.map_or(0, |m| m.events().dropped()),
                peak_rss_bytes: beeps_observe::clock::peak_rss_bytes(),
            };
            match runlog.finish(&summary) {
                Ok(()) => {
                    if let Some(path) = &self.runlog_path {
                        println!("run log: {}", path.display());
                    }
                }
                Err(e) => eprintln!("warning: could not write run log: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_recognizes_observation_flags() {
        let opts = Options::parse(["--trials", "5", "--progress", "--profile", "t.json"]);
        assert!(opts.progress);
        assert_eq!(opts.profile.as_deref(), Some(Path::new("t.json")));

        let opts = Options::parse(["--profile=x/y.json"]);
        assert!(!opts.progress || std::env::var("BEEPS_PROGRESS").is_ok());
        assert_eq!(opts.profile.as_deref(), Some(Path::new("x/y.json")));

        let opts = Options::parse(["--threads", "2"]);
        assert_eq!(opts.profile, None);
    }

    #[test]
    #[should_panic(expected = "--profile requires a path")]
    fn missing_profile_path_panics() {
        let _ = Options::parse(["--profile"]);
    }

    #[test]
    fn disabled_observation_attaches_nothing() {
        let obs = Observation::disabled();
        assert!(!obs.is_active());
        let runner = obs.attach(TrialRunner::new(2));
        assert!(runner.observer().is_none());
        obs.finish(None);
    }

    #[test]
    fn profile_only_observation_attaches_and_counts() {
        let dir = std::env::temp_dir().join("beeps_observe_glue_test");
        let trace = dir.join("trace.json");
        let obs = Observation::from_options(
            "glue_test",
            7,
            &Options {
                progress: false,
                profile: Some(trace.clone()),
            },
        );
        assert!(obs.is_active());
        assert_eq!(obs.profile_path(), Some(trace.as_path()));
        let runner = obs.attach(TrialRunner::new(2));
        assert!(runner.observer().is_some());
        let out = runner.run(1, 10, |t| t.index);
        assert_eq!(out.len(), 10);
        // The runlog (if its directory was writable) saw every trial.
        if let Some(log) = &obs.runlog {
            assert_eq!(log.trials_done(), 10);
        }
        obs.finish(None);
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.starts_with("{\"traceEvents\":["), "{trace_text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
