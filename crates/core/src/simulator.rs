//! The [`Simulator`] abstraction: one interface over every coding
//! scheme in this crate.
//!
//! Each scheme (repetition, rewind, hierarchical, `1→0` checkpointing,
//! owned rounds) exposes the same inherent method
//! `simulate(&self, inputs, model, seed)`; this trait lifts that shape
//! into a common, object-safe interface so that experiment harnesses
//! and the CLI can hold a `&dyn Simulator<I, O>` (or a boxed one) and
//! treat every scheme uniformly.
//!
//! The trait is generic over the protocol's `Input`/`Output` types
//! rather than over the protocol itself, which keeps it object-safe:
//! all schemes wrapping protocols with the same input/output types are
//! interchangeable at runtime.
//!
//! # Examples
//!
//! ```
//! use beeps_channel::NoiseModel;
//! use beeps_core::{RepetitionSimulator, RewindSimulator, Simulator, SimulatorConfig};
//! use beeps_protocols::InputSet;
//!
//! let protocol = InputSet::new(5);
//! let config = SimulatorConfig::builder(5).build();
//! let rep = RepetitionSimulator::new(&protocol, config.clone());
//! let rewind = RewindSimulator::new(&protocol, config);
//! let schemes: Vec<&dyn Simulator<_, _>> = vec![&rep, &rewind];
//!
//! let inputs = vec![1usize, 4, 4, 7, 9];
//! for scheme in schemes {
//!     let outcome = scheme
//!         .simulate(&inputs, NoiseModel::Correlated { epsilon: 0.05 }, 1)
//!         .expect("within budget");
//!     assert!(outcome.stats().agreement, "{} disagreed", scheme.name());
//! }
//! ```

use beeps_channel::{
    run_protocol, run_protocol_over, Channel, NoiseModel, NoisyExecution, Protocol, UniquelyOwned,
};
use beeps_metrics::MetricsRegistry;

use crate::outcome::{check_model, PhaseRounds, SimError, SimOutcome, SimStats};
use crate::{
    HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator, RepetitionSimulator,
    RewindSimulator,
};

/// A noise-resilient simulation scheme for beeping protocols, viewed
/// through its input/output types only (object-safe).
pub trait Simulator<I, O> {
    /// Simulates the wrapped protocol on `inputs` over a noisy channel
    /// with the given `model` and `seed`.
    ///
    /// # Errors
    ///
    /// * [`SimError::BudgetExhausted`] — the scheme's round budget ran
    ///   out before the protocol was fully committed.
    /// * [`SimError::UnsupportedNoise`] — the scheme cannot run under
    ///   `model` (wrong regime or invalid parameter).
    fn simulate(
        &self,
        inputs: &[I],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<O>, SimError>;

    /// A short stable identifier for tables and logs (e.g. `"rewind"`).
    fn name(&self) -> &'static str;

    /// Simulates the wrapped protocol over a **caller-supplied**
    /// channel instead of a freshly seeded stochastic one, so harnesses
    /// can inject scripted failures, traces, or adversaries through any
    /// `&dyn Simulator` without downcasting to the concrete scheme.
    ///
    /// `model` still names the noise regime the channel implements: the
    /// schemes use it to pick decode thresholds and owner metrics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::simulate`]. The default body
    /// rejects every model with [`SimError::UnsupportedNoise`]; all
    /// schemes in this crate override it with their real
    /// channel-generic path.
    fn simulate_over(
        &self,
        inputs: &[I],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<O>, SimError> {
        let _ = (inputs, model, channel);
        Err(SimError::UnsupportedNoise {
            reason: "scheme does not support caller-supplied channels",
        })
    }

    /// Like [`Simulator::simulate`], but records the attempt into
    /// `metrics` under the `sim.<name>.*` namespace (see
    /// [`record_simulation`] for the exact counters).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::simulate`]; failures are counted
    /// (`sim.<name>.failures.*`) and then propagated.
    fn simulate_with_metrics(
        &self,
        inputs: &[I],
        model: NoiseModel,
        seed: u64,
        metrics: &mut MetricsRegistry,
    ) -> Result<SimOutcome<O>, SimError> {
        let result = self.simulate(inputs, model, seed);
        record_simulation(self.name(), &result, metrics);
        result
    }
}

/// Folds one simulation attempt into `metrics` under `sim.<scheme>.`:
///
/// * counters `runs`, the per-phase breakdown `rounds.chunk` /
///   `rounds.owners` / `rounds.verify` / `rounds.total`,
///   `protocol_rounds`, `chunks_committed`, `rewinds`, `energy`,
///   `corrupted_rounds`, `disagreements`, and on failure
///   `failures.budget_exhausted` / `failures.unsupported_noise` — every
///   one of them created on every call, at 0 when nothing happened;
/// * histograms `rounds`, `rewinds`, `energy` (per-run distributions);
/// * a `sim.<scheme>.rewind_storm` event whenever a run rewound, carrying
///   the rewind count and anchored to the run's channel-round total.
///
/// Everything recorded is a pure function of the simulation result, so
/// aggregation across seed-deterministic trials is reproducible.
pub fn record_simulation<O>(
    scheme: &str,
    result: &Result<SimOutcome<O>, SimError>,
    metrics: &mut MetricsRegistry,
) {
    let key = |suffix: &str| format!("sim.{scheme}.{suffix}");
    let (stats, budget_exhausted, unsupported_noise) = match result {
        Ok(outcome) => (Some(outcome.stats()), 0, 0),
        Err(SimError::BudgetExhausted { .. }) => (None, 1, 0),
        Err(SimError::UnsupportedNoise { .. }) => (None, 0, 1),
    };
    let counted = |field: fn(&SimStats) -> usize| stats.map_or(0, |s| field(s) as u64);
    for (suffix, by) in [
        ("runs", 1),
        ("rounds.chunk", counted(|s| s.phase_rounds.chunk)),
        ("rounds.owners", counted(|s| s.phase_rounds.owners)),
        ("rounds.verify", counted(|s| s.phase_rounds.verify)),
        ("rounds.total", counted(|s| s.channel_rounds)),
        ("protocol_rounds", counted(|s| s.protocol_rounds)),
        ("chunks_committed", counted(|s| s.chunks_committed)),
        ("rewinds", counted(|s| s.rewinds)),
        ("energy", counted(|s| s.energy)),
        ("corrupted_rounds", counted(|s| s.corrupted_rounds)),
        ("disagreements", counted(|s| usize::from(!s.agreement))),
        ("failures.budget_exhausted", budget_exhausted),
        ("failures.unsupported_noise", unsupported_noise),
    ] {
        metrics.inc(&key(suffix), by);
    }
    if let Some(stats) = stats {
        metrics.observe(&key("rounds"), stats.channel_rounds as u64);
        metrics.observe(&key("rewinds"), stats.rewinds as u64);
        metrics.observe(&key("energy"), stats.energy as u64);
        if stats.rewinds > 0 {
            metrics.event(
                key("rewind_storm"),
                stats.channel_rounds as u64,
                stats.rewinds as u64,
            );
        }
    }
}

impl<P: Protocol> Simulator<P::Input, P::Output> for RepetitionSimulator<'_, P> {
    fn simulate(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        RepetitionSimulator::simulate(self, inputs, model, seed)
    }

    fn name(&self) -> &'static str {
        "repetition"
    }

    fn simulate_over(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        RepetitionSimulator::simulate_over(self, inputs, model, channel)
    }
}

impl<P: Protocol> Simulator<P::Input, P::Output> for RewindSimulator<'_, P> {
    fn simulate(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        RewindSimulator::simulate(self, inputs, model, seed)
    }

    fn name(&self) -> &'static str {
        "rewind"
    }

    fn simulate_over(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        RewindSimulator::simulate_over(self, inputs, model, channel)
    }
}

impl<P: Protocol> Simulator<P::Input, P::Output> for HierarchicalSimulator<'_, P> {
    fn simulate(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        HierarchicalSimulator::simulate(self, inputs, model, seed)
    }

    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn simulate_over(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        HierarchicalSimulator::simulate_over(self, inputs, model, channel)
    }
}

impl<P: Protocol> Simulator<P::Input, P::Output> for OneToZeroSimulator<'_, P> {
    fn simulate(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        OneToZeroSimulator::simulate(self, inputs, model, seed)
    }

    fn name(&self) -> &'static str {
        "one_to_zero"
    }

    fn simulate_over(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        OneToZeroSimulator::simulate_over(self, inputs, model, channel)
    }
}

impl<P: UniquelyOwned> Simulator<P::Input, P::Output> for OwnedRoundsSimulator<'_, P> {
    fn simulate(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        OwnedRoundsSimulator::simulate(self, inputs, model, seed)
    }

    fn name(&self) -> &'static str {
        "owned_rounds"
    }

    fn simulate_over(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        OwnedRoundsSimulator::simulate_over(self, inputs, model, channel)
    }
}

/// The identity "scheme": runs the protocol directly over the noisy
/// channel with **no** coding, as the uncoded baseline several
/// experiments compare against.
///
/// The returned outcome's transcript is party 0's *noisy* view (there
/// is no reconstruction), `agreement` reports whether every party ended
/// with the same view, and all rounds are attributed to the chunk
/// phase. `simulate` never returns an error for a valid noise model —
/// the naked run always finishes in `protocol.length()` rounds; it just
/// may finish wrong.
#[derive(Debug, Clone, Copy)]
pub struct NakedSimulator<'a, P> {
    protocol: &'a P,
}

impl<'a, P: Protocol> NakedSimulator<'a, P> {
    /// Wraps `protocol` for uncoded noisy execution.
    pub fn new(protocol: &'a P) -> Self {
        Self { protocol }
    }

    /// Shapes a noisy execution into the uncoded-baseline outcome:
    /// party 0's view is the "transcript" and every round is a chunk
    /// round.
    fn outcome(&self, execution: NoisyExecution<P::Output>) -> SimOutcome<P::Output> {
        let n = self.protocol.num_parties();
        let t = self.protocol.length();
        let agreement = (1..n).all(|i| execution.views().view(i) == execution.views().view(0));
        let stats = SimStats {
            channel_rounds: t,
            phase_rounds: PhaseRounds {
                chunk: t,
                owners: 0,
                verify: 0,
            },
            protocol_rounds: t,
            chunks_committed: 0,
            rewinds: 0,
            agreement,
            energy: execution.energy(),
            corrupted_rounds: execution.corrupted_rounds(),
        };
        let transcript = execution.views().view(0).to_vec();
        let outputs = execution.into_outputs();
        SimOutcome::new(transcript, outputs, stats)
    }
}

impl<P: Protocol> Simulator<P::Input, P::Output> for NakedSimulator<'_, P> {
    fn simulate(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        check_model(model)?;
        Ok(self.outcome(run_protocol(self.protocol, inputs, model, seed)))
    }

    fn name(&self) -> &'static str {
        "naked"
    }

    fn simulate_over(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        mut channel: &mut dyn Channel,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        check_model(model)?;
        Ok(self.outcome(run_protocol_over(self.protocol, inputs, &mut channel)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulatorConfig;
    use beeps_channel::run_noiseless;
    use beeps_protocols::InputSet;

    #[test]
    fn dyn_dispatch_covers_all_schemes() {
        let protocol = InputSet::new(4);
        let config = SimulatorConfig::builder(4).build();
        let rep = RepetitionSimulator::new(&protocol, config.clone());
        let rewind = RewindSimulator::new(&protocol, config.clone());
        let hier = HierarchicalSimulator::new(&protocol, config.clone());
        let otz = OneToZeroSimulator::new(&protocol, 2, config.budget_factor);
        let naked = NakedSimulator::new(&protocol);
        let schemes: Vec<&dyn Simulator<usize, _>> = vec![&rep, &rewind, &hier, &otz, &naked];
        let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "repetition",
                "rewind",
                "hierarchical",
                "one_to_zero",
                "naked"
            ]
        );

        let inputs = vec![0usize, 2, 5, 7];
        let truth = run_noiseless(&protocol, &inputs);
        for scheme in schemes {
            let outcome = scheme
                .simulate(&inputs, beeps_channel::NoiseModel::Noiseless, 3)
                .unwrap_or_else(|e| panic!("{} failed noiselessly: {e}", scheme.name()));
            assert_eq!(
                outcome.outputs(),
                truth.outputs(),
                "{} noiseless outputs",
                scheme.name()
            );
        }
    }

    /// The phase spans `run` opens on this thread, in the order they
    /// close.
    fn spans_of(run: &dyn Fn()) -> Vec<&'static str> {
        #[derive(Default)]
        struct Recording(std::sync::Mutex<Vec<&'static str>>);

        impl beeps_observe::Observer for Recording {
            fn on_phase(&self, _worker: usize, name: &'static str, _start: u64, _end: u64) {
                self.0.lock().expect("recording lock").push(name);
            }
        }

        let recording = std::sync::Arc::new(Recording::default());
        {
            let _guard = beeps_observe::install(std::sync::Arc::clone(&recording) as _, 0);
            run();
        }
        let spans = recording.0.lock().expect("recording lock");
        spans.clone()
    }

    #[test]
    fn per_party_engines_open_one_span_per_call() {
        let spans_of = |simulate_over: &dyn Fn(&mut dyn Channel)| {
            spans_of(&|| {
                simulate_over(&mut beeps_channel::StochasticChannel::new(
                    4,
                    NoiseModel::Noiseless,
                    3,
                ));
            })
        };
        let protocol = InputSet::new(4);
        let inputs = [0usize, 2, 5, 7];
        let config = SimulatorConfig::builder(4).build();
        let rep = RepetitionSimulator::new(&protocol, config.clone());
        let rewind = RewindSimulator::new(&protocol, config.clone());
        let hier = HierarchicalSimulator::new(&protocol, config.clone());
        let otz = OneToZeroSimulator::new(&protocol, 2, config.budget_factor);
        let schemes: [&dyn Simulator<usize, _>; 4] = [&rep, &rewind, &hier, &otz];
        for scheme in schemes {
            let spans = spans_of(&|channel| {
                scheme
                    .simulate_over(&inputs, NoiseModel::Noiseless, channel)
                    .expect("noiseless run");
            });
            assert_eq!(spans, [format!("sim.{}.per_party", scheme.name())]);
        }
        let roll_call = beeps_protocols::RollCall::new(4);
        let owned = OwnedRoundsSimulator::new(&roll_call, config);
        let spans = spans_of(&|channel| {
            owned
                .simulate_over(&[true, false, true, true], NoiseModel::Noiseless, channel)
                .expect("noiseless run");
        });
        assert_eq!(spans, [format!("sim.{}.per_party", owned.name())]);
    }

    #[test]
    fn collapsed_engines_close_with_one_output_span() {
        let assert_one_output_span = |name: &str, run: &dyn Fn()| {
            let spans = spans_of(run);
            let output = format!("sim.{name}.output");
            assert_eq!(spans.last(), Some(&output.as_str()), "{name}: {spans:?}");
            assert_eq!(spans.iter().filter(|&&s| s == output).count(), 1, "{name}");
        };
        let protocol = InputSet::new(4);
        let inputs = [0usize, 2, 5, 7];
        let config = SimulatorConfig::builder(4).build();
        let rep = RepetitionSimulator::new(&protocol, config.clone());
        let rewind = RewindSimulator::new(&protocol, config.clone());
        let hier = HierarchicalSimulator::new(&protocol, config.clone());
        let otz = OneToZeroSimulator::new(&protocol, 2, config.budget_factor);
        let schemes: [&dyn Simulator<usize, _>; 4] = [&rep, &rewind, &hier, &otz];
        for scheme in schemes {
            assert_one_output_span(scheme.name(), &|| {
                drop(scheme.simulate(&inputs, NoiseModel::Noiseless, 3));
            });
        }
        let roll_call = beeps_protocols::RollCall::new(4);
        let owned = OwnedRoundsSimulator::new(&roll_call, config);
        assert_one_output_span(owned.name(), &|| {
            drop(owned.simulate(&[true, false, true, true], NoiseModel::Noiseless, 3));
        });
    }

    #[test]
    fn simulate_with_metrics_records_phase_breakdown() {
        let protocol = InputSet::new(4);
        let config = SimulatorConfig::builder(4).build();
        let rewind = RewindSimulator::new(&protocol, config);
        let inputs = vec![0usize, 2, 5, 7];
        let mut metrics = MetricsRegistry::new();
        let outcome = rewind
            .simulate_with_metrics(
                &inputs,
                beeps_channel::NoiseModel::Correlated { epsilon: 0.05 },
                9,
                &mut metrics,
            )
            .expect("within budget");
        let stats = outcome.stats();
        assert_eq!(metrics.counter("sim.rewind.runs"), 1);
        assert_eq!(
            metrics.counter("sim.rewind.rounds.total"),
            stats.channel_rounds as u64
        );
        assert_eq!(
            metrics.counter("sim.rewind.rounds.chunk")
                + metrics.counter("sim.rewind.rounds.owners")
                + metrics.counter("sim.rewind.rounds.verify"),
            (stats.phase_rounds.chunk + stats.phase_rounds.owners + stats.phase_rounds.verify)
                as u64
        );
        assert_eq!(metrics.counter("sim.rewind.energy"), stats.energy as u64);
        assert_eq!(
            metrics.histogram("sim.rewind.rounds").unwrap().count(),
            1,
            "one run observed"
        );
        // Recording reads no clock: the wall section stays empty.
        assert_eq!(metrics.wall().count(), 0);
    }

    #[test]
    fn noiseless_simulation_records_zero_noise_counters() {
        let protocol = InputSet::new(4);
        let config = SimulatorConfig::builder(4).build();
        let rewind = RewindSimulator::new(&protocol, config);
        let inputs = vec![1usize, 3, 4, 6];
        let mut metrics = MetricsRegistry::new();
        rewind
            .simulate_with_metrics(
                &inputs,
                beeps_channel::NoiseModel::Noiseless,
                5,
                &mut metrics,
            )
            .expect("noiseless never exhausts the budget");
        assert_eq!(metrics.counter("sim.rewind.corrupted_rounds"), 0);
        assert_eq!(metrics.counter("sim.rewind.rewinds"), 0);
        assert_eq!(metrics.counter("sim.rewind.disagreements"), 0);
    }

    #[test]
    fn failures_are_counted_by_kind() {
        let protocol = InputSet::new(3);
        let config = SimulatorConfig::builder(3).build();
        let otz = OneToZeroSimulator::new(&protocol, 2, config.budget_factor);
        let mut metrics = MetricsRegistry::new();
        // OneToZero rejects noise that can fabricate beeps.
        let err = otz.simulate_with_metrics(
            &[0usize, 1, 2],
            beeps_channel::NoiseModel::Correlated { epsilon: 0.2 },
            1,
            &mut metrics,
        );
        assert!(err.is_err());
        assert_eq!(metrics.counter("sim.one_to_zero.runs"), 1);
        assert_eq!(
            metrics.counter("sim.one_to_zero.failures.unsupported_noise"),
            1
        );
    }

    #[test]
    fn naked_simulator_reports_uncoded_shape() {
        let protocol = InputSet::new(5);
        let naked = NakedSimulator::new(&protocol);
        let inputs = vec![0usize, 3, 3, 8, 9];
        let outcome = Simulator::simulate(&naked, &inputs, beeps_channel::NoiseModel::Noiseless, 1)
            .expect("noiseless");
        let stats = outcome.stats();
        assert_eq!(stats.channel_rounds, protocol.length());
        assert!((stats.overhead() - 1.0).abs() < 1e-12);
        assert!(stats.agreement);
        assert_eq!(stats.energy, 5, "every party beeps exactly once");
    }
}
