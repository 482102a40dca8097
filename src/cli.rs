//! Command-line driver: parse a scenario description, run it, report.
//!
//! The `beeps` binary (`src/bin/beeps.rs`) is a thin wrapper over this
//! module so the parsing and dispatch logic is unit-testable.
//!
//! ```text
//! beeps run --protocol input-set --n 8 --noise correlated --eps 0.1 \
//!           --scheme rewind --seed 42 --trials 5 --threads 4
//! ```
//!
//! Every scheme is dispatched through the [`Simulator`] trait object —
//! one code path for all six schemes — and trials execute on
//! `beeps-bench`'s seed-deterministic [`TrialRunner`], so `--threads`
//! changes wall-clock time but never the report.

use beeps_bench::{Observation, Trial, TrialRunner};
use beeps_channel::{run_noiseless, NoiseModel, Protocol, UniquelyOwned};
use beeps_core::{
    HierarchicalSimulator, NakedSimulator, OneToZeroSimulator, OwnedRoundsSimulator,
    RepetitionSimulator, RewindSimulator, SimError, Simulator, SimulatorConfig,
};
use beeps_metrics::MetricsRegistry;
use beeps_protocols::{Broadcast, InputSet, LeaderElection, Membership, PointerChase, RollCall};
use rand::{rngs::StdRng, Rng};
use std::fmt;

/// Workloads runnable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The paper's `InputSet_n` task.
    InputSet,
    /// Bitwise-maximum leader election.
    Leader,
    /// Interval-search membership resolution.
    Membership,
    /// One-round-per-party attendance count.
    RollCall,
    /// Single-speaker broadcast (party 0 speaks).
    Broadcast,
    /// Sequential pointer chasing.
    PointerChase,
}

/// Coding schemes runnable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// No coding: the noiseless protocol run naked over the noisy channel.
    Naked,
    /// Footnote 1: per-round repetition with threshold majority.
    Repetition,
    /// Theorem 1.2: chunk/owners/verify with rewind.
    Rewind,
    /// Appendix D.2 verbatim: hierarchical binary-search progress checks.
    Hierarchical,
    /// §2: the constant-overhead scheme (requires `1→0`-only noise).
    OneToZero,
    /// \[EKS18\]-style owned-rounds scheme (uniquely-owned protocols:
    /// roll-call, broadcast, pointer-chase).
    Owned,
}

/// Which top-level subcommand was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// `beeps run` — per-trial report, optionally followed by metrics.
    Run,
    /// `beeps metrics` — run the scenario and print only the metrics view.
    Metrics,
}

/// How the metrics view is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Human-readable per-phase and counter/histogram tables.
    Table,
    /// Prometheus-style text exposition.
    Prom,
}

/// A fully parsed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which subcommand dispatched this scenario.
    pub command: CommandKind,
    /// Which workload to run.
    pub protocol: ProtocolKind,
    /// Number of parties.
    pub n: usize,
    /// Channel model.
    pub noise: NoiseModel,
    /// Which coding scheme protects the run.
    pub scheme: SchemeKind,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent trials to run.
    pub trials: u64,
    /// Worker threads for the trial runner; `None` falls back to
    /// `BEEPS_THREADS` and then the machine's available parallelism.
    pub threads: Option<usize>,
    /// Print the metrics view after the report (`--metrics`); always on
    /// for the `metrics` subcommand.
    pub metrics: bool,
    /// Rendering for the metrics view (`--metrics-format table|prom`).
    pub metrics_format: MetricsFormat,
    /// Render a live progress line to stderr (`--progress`, or the
    /// `BEEPS_PROGRESS` environment variable).
    pub progress: bool,
    /// Write a Chrome trace-event profile to this path (`--profile`).
    pub profile: Option<String>,
}

impl Scenario {
    fn runner(&self) -> TrialRunner {
        self.threads
            .map_or_else(TrialRunner::from_env, TrialRunner::new)
    }

    /// The observer stack this scenario's flags (plus `BEEPS_PROGRESS`)
    /// ask for; inert when none do. Observation never changes the
    /// report or the metrics view.
    fn observation(&self) -> Observation {
        let mut flags: Vec<String> = Vec::new();
        if self.progress {
            flags.push("--progress".into());
        }
        if let Some(path) = &self.profile {
            flags.push(format!("--profile={path}"));
        }
        Observation::from_args("beeps_cli", self.seed, &flags)
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text for the binary.
pub const USAGE: &str = "\
usage: beeps run [options]        per-trial report (add --metrics for the
                                  deterministic metrics view)
       beeps metrics [options]    run the scenario, print only the metrics

options:
  --protocol input-set|leader|membership|roll-call|broadcast|pointer-chase
                                                     (default input-set)
  --n <parties>                                      (default 8)
  --noise noiseless|correlated|up|down|independent   (default correlated)
  --eps <0..1>                                       (default 0.333)
  --scheme naked|repetition|rewind|hierarchical|one-to-zero|owned
                                                     (default rewind)
  --seed <u64>                                       (default 1)
  --trials <count>                                   (default 5)
  --threads <count>        (default: BEEPS_THREADS, else all cores;
                            results are identical for any value)
  --metrics                print counters/histograms after the report
  --metrics-format table|prom                        (default table)
  --progress               live trials/s + ETA line on stderr (also
                           enabled by BEEPS_PROGRESS=1)
  --profile <path>         write a Chrome trace-event JSON profile of
                           the run (load in chrome://tracing, speedscope,
                           or Perfetto) plus a phase summary table

The metrics view contains only deterministic aggregates: it is
byte-identical for any --threads value. Wall-clock timings are never
part of it. --progress and --profile observe on the side: they never
change the report or the metrics view.
";

/// Parses `args` (without the program name) into a [`Scenario`].
///
/// # Errors
///
/// Returns [`ParseError`] with a human-readable message on unknown
/// commands, flags, or malformed values.
pub fn parse(args: &[String]) -> Result<Scenario, ParseError> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("run") => CommandKind::Run,
        Some("metrics") => CommandKind::Metrics,
        Some(other) => return Err(ParseError(format!("unknown command `{other}`"))),
        None => return Err(ParseError("missing command".into())),
    };

    let mut protocol = ProtocolKind::InputSet;
    let mut n = 8usize;
    let mut noise_kind = "correlated".to_owned();
    let mut eps = 1.0 / 3.0;
    let mut scheme = SchemeKind::Rewind;
    let mut seed = 1u64;
    let mut trials = 5u64;
    let mut threads = None;
    let mut metrics = command == CommandKind::Metrics;
    let mut metrics_format = MetricsFormat::Table;
    let mut progress = false;
    let mut profile = None;

    while let Some(flag) = it.next() {
        if flag == "--metrics" {
            metrics = true;
            continue;
        }
        if flag == "--progress" {
            progress = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| ParseError(format!("flag {flag} needs a value")))?;
        match flag.as_str() {
            "--protocol" => {
                protocol = match value.as_str() {
                    "input-set" => ProtocolKind::InputSet,
                    "leader" => ProtocolKind::Leader,
                    "membership" => ProtocolKind::Membership,
                    "roll-call" => ProtocolKind::RollCall,
                    "broadcast" => ProtocolKind::Broadcast,
                    "pointer-chase" => ProtocolKind::PointerChase,
                    other => return Err(ParseError(format!("unknown protocol `{other}`"))),
                };
            }
            "--n" => {
                n = value
                    .parse()
                    .map_err(|_| ParseError(format!("bad party count `{value}`")))?;
                if n == 0 {
                    return Err(ParseError("party count must be positive".into()));
                }
            }
            "--noise" => noise_kind = value.clone(),
            "--eps" => {
                eps = value
                    .parse()
                    .map_err(|_| ParseError(format!("bad eps `{value}`")))?;
            }
            "--scheme" => {
                scheme = match value.as_str() {
                    "naked" => SchemeKind::Naked,
                    "repetition" => SchemeKind::Repetition,
                    "rewind" => SchemeKind::Rewind,
                    "hierarchical" => SchemeKind::Hierarchical,
                    "one-to-zero" => SchemeKind::OneToZero,
                    "owned" => SchemeKind::Owned,
                    other => return Err(ParseError(format!("unknown scheme `{other}`"))),
                };
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| ParseError(format!("bad seed `{value}`")))?;
            }
            "--trials" => {
                trials = value
                    .parse()
                    .map_err(|_| ParseError(format!("bad trial count `{value}`")))?;
                if trials == 0 {
                    return Err(ParseError("need at least one trial".into()));
                }
            }
            "--threads" => {
                let count: usize = value
                    .parse()
                    .map_err(|_| ParseError(format!("bad thread count `{value}`")))?;
                if count == 0 {
                    return Err(ParseError("thread count must be positive".into()));
                }
                threads = Some(count);
            }
            "--metrics-format" => {
                metrics_format = match value.as_str() {
                    "table" => MetricsFormat::Table,
                    "prom" => MetricsFormat::Prom,
                    other => return Err(ParseError(format!("unknown metrics format `{other}`"))),
                };
            }
            "--profile" => profile = Some(value.clone()),
            other => return Err(ParseError(format!("unknown flag `{other}`"))),
        }
    }

    let noise = match noise_kind.as_str() {
        "noiseless" => NoiseModel::Noiseless,
        "correlated" => NoiseModel::Correlated { epsilon: eps },
        "up" => NoiseModel::OneSidedZeroToOne { epsilon: eps },
        "down" => NoiseModel::OneSidedOneToZero { epsilon: eps },
        "independent" => NoiseModel::Independent { epsilon: eps },
        other => return Err(ParseError(format!("unknown noise model `{other}`"))),
    };
    noise
        .validate()
        .map_err(|e| ParseError(format!("invalid noise: {e}")))?;

    Ok(Scenario {
        command,
        protocol,
        n,
        noise,
        scheme,
        seed,
        trials,
        threads,
        metrics,
        metrics_format,
        progress,
        profile,
    })
}

/// Result of running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Trials whose simulated transcript matched the noiseless one.
    pub exact: u64,
    /// Trials attempted.
    pub trials: u64,
    /// Mean channel-round overhead across completed trials.
    pub mean_overhead: f64,
    /// Human-readable lines for the terminal.
    pub lines: Vec<String>,
}

/// Runs a scenario and collects a [`Report`].
///
/// # Errors
///
/// Returns [`ParseError`] when the scheme/noise combination is invalid
/// (e.g. `one-to-zero` over two-sided noise).
pub fn run(scenario: &Scenario) -> Result<Report, ParseError> {
    run_with_metrics(scenario).map(|(report, _)| report)
}

/// Runs a scenario, collecting the [`Report`] together with the merged
/// [`MetricsRegistry`] of every trial.
///
/// Trial registries are merged in trial-index order, so the returned
/// registry (counters, histograms, events) is identical for any
/// `--threads` value.
///
/// # Errors
///
/// Returns [`ParseError`] when the scheme/noise combination is invalid
/// (e.g. `one-to-zero` over two-sided noise).
pub fn run_with_metrics(scenario: &Scenario) -> Result<(Report, MetricsRegistry), ParseError> {
    match scenario.protocol {
        ProtocolKind::InputSet => {
            let p = InputSet::new(scenario.n);
            let n = scenario.n;
            let gen = move |rng: &mut StdRng| -> Vec<usize> {
                (0..n).map(|_| rng.gen_range(0..2 * n)).collect()
            };
            drive(scenario, &p, gen)
        }
        ProtocolKind::Leader => {
            let p = LeaderElection::new(scenario.n, 10);
            let n = scenario.n;
            let gen = move |rng: &mut StdRng| -> Vec<usize> {
                (0..n).map(|_| rng.gen_range(0..1024)).collect()
            };
            drive(scenario, &p, gen)
        }
        ProtocolKind::Membership => {
            let id_space = (2 * scenario.n).next_power_of_two().max(2);
            let p = Membership::new(scenario.n, id_space);
            let n = scenario.n;
            let gen = move |rng: &mut StdRng| -> Vec<Option<usize>> {
                (0..n)
                    .map(|i| rng.gen_bool(0.5).then_some((i * 3) % id_space))
                    .collect()
            };
            drive(scenario, &p, gen)
        }
        ProtocolKind::RollCall => {
            let p = RollCall::new(scenario.n);
            let n = scenario.n;
            let gen = move |rng: &mut StdRng| -> Vec<bool> {
                (0..n).map(|_| rng.gen_bool(0.5)).collect()
            };
            drive_owned(scenario, &p, gen)
        }
        ProtocolKind::Broadcast => {
            let p = Broadcast::new(scenario.n, 0, 12);
            let n = scenario.n;
            let gen = move |rng: &mut StdRng| -> Vec<usize> {
                let mut inputs = vec![0usize; n];
                inputs[0] = rng.gen_range(0..4096);
                inputs
            };
            drive_owned(scenario, &p, gen)
        }
        ProtocolKind::PointerChase => {
            let width = 8;
            let p = PointerChase::new(scenario.n, width, 2 * scenario.n);
            let n = scenario.n;
            let gen = move |rng: &mut StdRng| -> Vec<Vec<usize>> {
                (0..n)
                    .map(|_| (0..width).map(|_| rng.gen_range(0..width)).collect())
                    .collect()
            };
            drive_owned(scenario, &p, gen)
        }
    }
}

/// Like [`drive`] but for uniquely-owned protocols, enabling `--scheme
/// owned` on top of the generic schemes.
fn drive_owned<P, G>(
    scenario: &Scenario,
    protocol: &P,
    gen: G,
) -> Result<(Report, MetricsRegistry), ParseError>
where
    P: UniquelyOwned + Sync,
    G: Fn(&mut StdRng) -> Vec<P::Input> + Sync,
{
    if scenario.scheme == SchemeKind::Owned {
        let config = SimulatorConfig::builder(scenario.n)
            .model(scenario.noise)
            .build();
        let sim = OwnedRoundsSimulator::new(protocol, config);
        return drive_with(scenario, protocol, &sim, &gen);
    }
    drive(scenario, protocol, gen)
}

/// Builds the scheme's [`Simulator`] and runs the shared trial loop —
/// every generic scheme flows through one `&dyn Simulator` path.
fn drive<P, G>(
    scenario: &Scenario,
    protocol: &P,
    gen: G,
) -> Result<(Report, MetricsRegistry), ParseError>
where
    P: Protocol + Sync,
    G: Fn(&mut StdRng) -> Vec<P::Input> + Sync,
{
    let config = SimulatorConfig::builder(scenario.n)
        .model(scenario.noise)
        .build();
    let sim: Box<dyn Simulator<P::Input, P::Output> + Sync + '_> = match scenario.scheme {
        SchemeKind::Naked => Box::new(NakedSimulator::new(protocol)),
        SchemeKind::Repetition => Box::new(RepetitionSimulator::new(protocol, config)),
        SchemeKind::Rewind => Box::new(RewindSimulator::new(protocol, config)),
        SchemeKind::Hierarchical => Box::new(HierarchicalSimulator::new(protocol, config)),
        SchemeKind::OneToZero => Box::new(OneToZeroSimulator::new(protocol, 2, 32.0)),
        SchemeKind::Owned => {
            return Err(ParseError(
                "--scheme owned needs a uniquely-owned protocol \
                 (roll-call, broadcast, pointer-chase)"
                    .into(),
            ))
        }
    };
    drive_with(scenario, protocol, sim.as_ref(), &gen)
}

/// What one CLI trial produced.
enum TrialOutcome {
    /// The scheme ran to completion.
    Done {
        /// Simulated transcript matched the noiseless one.
        exact: bool,
        /// Channel rounds over protocol rounds.
        overhead: f64,
    },
    /// The scheme's round budget ran out.
    Exhausted,
    /// The scheme rejected the noise model.
    Unsupported(&'static str),
}

/// Shared trial loop: runs the scenario's trials on the deterministic
/// parallel runner, dispatching through the [`Simulator`] trait object.
fn drive_with<P, G>(
    scenario: &Scenario,
    protocol: &P,
    sim: &(dyn Simulator<P::Input, P::Output> + Sync),
    gen: &G,
) -> Result<(Report, MetricsRegistry), ParseError>
where
    P: Protocol + Sync,
    G: Fn(&mut StdRng) -> Vec<P::Input> + Sync,
{
    let observation = scenario.observation();
    let runner = observation.attach(scenario.runner());
    let (outcomes, merged) = runner.run_with_metrics(
        scenario.seed,
        scenario.trials as usize,
        |trial: Trial, metrics: &mut MetricsRegistry| -> TrialOutcome {
            let mut input_rng = trial.sub_rng(0);
            let inputs = gen(&mut input_rng);
            let truth = run_noiseless(protocol, &inputs);
            match sim.simulate_with_metrics(&inputs, scenario.noise, trial.seed, metrics) {
                Ok(o) => TrialOutcome::Done {
                    exact: o.transcript() == truth.transcript(),
                    overhead: o.stats().overhead(),
                },
                Err(SimError::UnsupportedNoise { reason }) => TrialOutcome::Unsupported(reason),
                Err(_) => TrialOutcome::Exhausted,
            }
        },
    );
    observation.finish(Some(&merged));

    let mut exact = 0u64;
    let mut overhead_sum = 0.0f64;
    let mut completed = 0u64;
    let mut lines = Vec::new();
    for (t, outcome) in outcomes.iter().enumerate() {
        match outcome {
            TrialOutcome::Done {
                exact: ok,
                overhead,
            } => {
                completed += 1;
                overhead_sum += overhead;
                exact += u64::from(*ok);
                lines.push(format!(
                    "trial {t}: {} (overhead {overhead:.1}x)",
                    if *ok { "exact" } else { "WRONG" }
                ));
            }
            TrialOutcome::Exhausted => lines.push(format!("trial {t}: budget exhausted")),
            TrialOutcome::Unsupported(reason) => {
                return Err(ParseError(format!("scheme/noise mismatch: {reason}")))
            }
        }
    }

    Ok((
        Report {
            exact,
            trials: scenario.trials,
            mean_overhead: if completed > 0 {
                overhead_sum / completed as f64
            } else {
                f64::NAN
            },
            lines,
        },
        merged,
    ))
}

/// Renders the metrics view in the scenario's requested format.
///
/// Only deterministic sections are rendered — the output is
/// byte-identical for any thread count.
#[must_use]
pub fn render_metrics(scenario: &Scenario, metrics: &MetricsRegistry) -> String {
    match scenario.metrics_format {
        MetricsFormat::Table => {
            let phases = metrics.render_phase_table();
            if phases.is_empty() {
                metrics.render_table()
            } else {
                format!("{phases}\n{}", metrics.render_table())
            }
        }
        MetricsFormat::Prom => metrics.render_prometheus(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_defaults() {
        let s = parse(&args("run")).unwrap();
        assert_eq!(s.command, CommandKind::Run);
        assert_eq!(s.protocol, ProtocolKind::InputSet);
        assert_eq!(s.n, 8);
        assert_eq!(s.scheme, SchemeKind::Rewind);
        assert_eq!(s.threads, None);
        assert!(!s.metrics);
        assert_eq!(s.metrics_format, MetricsFormat::Table);
    }

    #[test]
    fn parses_metrics_flags() {
        let s = parse(&args("run --metrics --metrics-format prom --n 4")).unwrap();
        assert!(s.metrics);
        assert_eq!(s.metrics_format, MetricsFormat::Prom);
        assert_eq!(s.n, 4);

        let s = parse(&args("metrics --n 4")).unwrap();
        assert_eq!(s.command, CommandKind::Metrics);
        assert!(s.metrics, "the metrics subcommand implies --metrics");

        assert!(parse(&args("run --metrics-format csv")).is_err());
    }

    #[test]
    fn parses_observation_flags() {
        let s = parse(&args("run --n 4")).unwrap();
        assert!(!s.progress);
        assert_eq!(s.profile, None);

        let s = parse(&args("run --progress --profile out/trace.json --n 4")).unwrap();
        assert!(s.progress);
        assert_eq!(s.profile.as_deref(), Some("out/trace.json"));
        assert_eq!(s.n, 4);

        assert!(
            parse(&args("run --profile")).is_err(),
            "--profile needs a path"
        );
    }

    #[test]
    fn parses_full_flag_set() {
        let s = parse(&args(
            "run --protocol leader --n 6 --noise up --eps 0.25 --scheme hierarchical --seed 9 --trials 3 --threads 2",
        ))
        .unwrap();
        assert_eq!(s.protocol, ProtocolKind::Leader);
        assert_eq!(s.n, 6);
        assert_eq!(s.noise, NoiseModel::OneSidedZeroToOne { epsilon: 0.25 });
        assert_eq!(s.scheme, SchemeKind::Hierarchical);
        assert_eq!(s.seed, 9);
        assert_eq!(s.trials, 3);
        assert_eq!(s.threads, Some(2));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("run --protocol nope")).is_err());
        assert!(parse(&args("run --n 0")).is_err());
        assert!(parse(&args("run --eps 1.5")).is_err());
        assert!(parse(&args("run --scheme")).is_err());
        assert!(parse(&args("run --bogus 1")).is_err());
        assert!(parse(&args("run --threads 0")).is_err());
    }

    #[test]
    fn runs_a_small_scenario_end_to_end() {
        let s = parse(&args(
            "run --protocol input-set --n 4 --noise correlated --eps 0.1 --scheme rewind --trials 3",
        ))
        .unwrap();
        let report = run(&s).unwrap();
        assert_eq!(report.trials, 3);
        assert!(report.exact >= 2, "report: {report:?}");
        assert!(report.mean_overhead > 1.0);
    }

    #[test]
    fn report_is_identical_for_any_thread_count() {
        let base = "run --protocol input-set --n 6 --noise correlated --eps 0.1 \
                    --scheme rewind --seed 7 --trials 6";
        let serial = run(&parse(&args(&format!("{base} --threads 1"))).unwrap()).unwrap();
        for threads in [2, 4, 8] {
            let parallel =
                run(&parse(&args(&format!("{base} --threads {threads}"))).unwrap()).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn metrics_view_is_byte_identical_for_any_thread_count() {
        let base = "run --metrics --protocol input-set --n 6 --noise correlated --eps 0.1 \
                    --scheme rewind --seed 7 --trials 6";
        let scenario = parse(&args(&format!("{base} --threads 1"))).unwrap();
        let (serial_report, serial_metrics) = run_with_metrics(&scenario).unwrap();
        let serial_view = render_metrics(&scenario, &serial_metrics);
        assert!(serial_view.contains("sim.rewind"), "view: {serial_view}");
        for threads in [2, 8] {
            let scenario = parse(&args(&format!("{base} --threads {threads}"))).unwrap();
            let (report, metrics) = run_with_metrics(&scenario).unwrap();
            assert_eq!(serial_report, report, "threads={threads}");
            assert_eq!(serial_metrics, metrics, "threads={threads}");
            assert_eq!(
                serial_view,
                render_metrics(&scenario, &metrics),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn prom_rendering_exposes_counters() {
        let scenario = parse(&args(
            "metrics --metrics-format prom --n 4 --noise correlated --eps 0.1 --trials 2",
        ))
        .unwrap();
        let (_, metrics) = run_with_metrics(&scenario).unwrap();
        let exposition = render_metrics(&scenario, &metrics);
        assert!(
            exposition.contains("beeps_sim_rewind_runs_total"),
            "exposition: {exposition}"
        );
        assert!(!exposition.contains("wall"), "wall must stay out");
    }

    #[test]
    fn naked_scheme_reports_failures_under_noise() {
        let s = parse(&args(
            "run --protocol input-set --n 16 --noise correlated --eps 0.333 --scheme naked --trials 4",
        ))
        .unwrap();
        let report = run(&s).unwrap();
        assert!(report.exact <= 1, "naked runs should fail: {report:?}");
    }

    #[test]
    fn scheme_noise_mismatch_is_an_error() {
        let s = parse(&args(
            "run --scheme one-to-zero --noise correlated --trials 1 --n 4",
        ))
        .unwrap();
        assert!(run(&s).is_err());
    }

    #[test]
    fn all_protocols_run_under_the_rewind_scheme() {
        for proto in ["input-set", "leader", "membership", "roll-call"] {
            let s = parse(&args(&format!(
                "run --protocol {proto} --n 4 --noise correlated --eps 0.05 --trials 2"
            )))
            .unwrap();
            let report = run(&s).unwrap();
            assert!(report.exact >= 1, "{proto}: {report:?}");
        }
    }
}

#[cfg(test)]
mod owned_scheme_tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn owned_scheme_runs_on_owned_protocols() {
        for proto in ["roll-call", "broadcast", "pointer-chase"] {
            let s = parse(&args(&format!(
                "run --protocol {proto} --n 4 --noise correlated --eps 0.1 --scheme owned --trials 2"
            )))
            .unwrap();
            let report = run(&s).unwrap();
            assert!(report.exact >= 1, "{proto}: {report:?}");
        }
    }

    #[test]
    fn owned_scheme_rejected_for_unowned_protocols() {
        let s = parse(&args(
            "run --protocol input-set --scheme owned --trials 1 --n 4",
        ))
        .unwrap();
        assert!(run(&s).is_err());
    }

    #[test]
    fn new_protocols_run_under_generic_schemes() {
        for proto in ["broadcast", "pointer-chase"] {
            let s = parse(&args(&format!(
                "run --protocol {proto} --n 3 --noise correlated --eps 0.05 --scheme rewind --trials 2"
            )))
            .unwrap();
            let report = run(&s).unwrap();
            assert!(report.exact >= 1, "{proto}: {report:?}");
        }
    }
}
