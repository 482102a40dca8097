//! The [`Simulator`] abstraction: one interface over every coding
//! scheme in this crate, and the crate's one front door.
//!
//! Each scheme (repetition, rewind, hierarchical, `1→0` checkpointing,
//! owned rounds) supplies only what differs between schemes: its name,
//! its collapsed body in [`crate::soa`], its per-party machines with
//! their round budget, and any regime check of its own. One blanket
//! impl turns that into a [`Simulator`]. It checks the noise model and
//! the input count before any channel is built, then routes every
//! shared-delivery model ([`NoiseModel::is_shared`]) to the collapsed
//! body and [`NoiseModel::Independent`] to the per-party machines, which
//! all run through one per-party tail (span, drive, outcome). That is
//! DESIGN.md §13's routing contract, in one place.
//!
//! The trait is object-safe, so experiment harnesses and the CLI can
//! hold a `&dyn Simulator<I, O>` (or a boxed one) and treat every scheme
//! uniformly. It is generic over the protocol's `Input`/`Output` types
//! rather than over the protocol itself: all schemes wrapping protocols
//! with the same input/output types are interchangeable at runtime.
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
    run_protocol, run_protocol_over, Channel, NoiseModel, NoisyExecution, Protocol,
    StochasticChannel,
};
use beeps_metrics::MetricsRegistry;

use crate::outcome::{check_model, PhaseRounds, SimError, SimOutcome, SimStats};
use crate::soa::SoaScratch;

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
    ///
    /// # Panics
    ///
    /// The schemes of this crate panic if `inputs` does not hold one
    /// input per party.
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
    /// `&dyn Simulator` without downcasting to the concrete scheme. The
    /// schemes of this crate run their per-party machines here under
    /// every model.
    ///
    /// `model` still names the noise regime the channel implements: the
    /// schemes use it to pick decode thresholds and owner metrics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::simulate`].
    ///
    /// # Panics
    ///
    /// As [`Simulator::simulate`], and if the channel is sized for a
    /// different number of parties.
    fn simulate_over(
        &self,
        inputs: &[I],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<O>, SimError>;

    /// [`Simulator::simulate`] with a caller-owned scratch arena. The
    /// schemes of this crate run their collapsed bodies in it (see
    /// [`crate::soa`]), so a worker thread can run many trials without
    /// per-trial allocation; results are bitwise identical to
    /// [`Simulator::simulate`], which is this method with a throwaway
    /// scratch. The default body ignores `scratch`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::simulate`].
    fn simulate_with_scratch(
        &self,
        inputs: &[I],
        model: NoiseModel,
        seed: u64,
        scratch: &mut SoaScratch,
    ) -> Result<SimOutcome<O>, SimError> {
        let _ = scratch;
        self.simulate(inputs, model, seed)
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

/// What one coding scheme adds to the front door: its name, its
/// collapsed body and its per-party machines. The five schemes of this
/// crate implement it, and the blanket [`Simulator`] impl below does the
/// rest once. The trait is crate-private, which seals it.
pub(crate) trait Scheme {
    /// The wrapped protocol.
    type Protocol: Protocol;

    /// The scheme's [`Simulator::name`].
    fn name(&self) -> &'static str;

    /// The wrapped protocol.
    fn protocol(&self) -> &Self::Protocol;

    /// The scheme's own regime check, after the model check. Every
    /// valid model passes unless a scheme says otherwise.
    fn check_regime(_model: NoiseModel) -> Result<(), SimError> {
        Ok(())
    }

    /// The scheme's collapsed body over one trial's channel, for a
    /// checked shared-delivery model.
    fn collapsed(
        &self,
        inputs: &[In<Self>],
        model: NoiseModel,
        channel: &mut StochasticChannel,
        scratch: &mut SoaScratch,
    ) -> Result<SimOutcome<Out<Self>>, SimError>;

    /// The scheme's per-party machines over `channel`, for a checked
    /// model: built from their seats and handed, with their round
    /// budget, to [`run_parties`](crate::driver::run_parties).
    fn per_party(
        &self,
        inputs: &[In<Self>],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<Out<Self>>, SimError>;
}

/// A scheme's protocol inputs and outputs.
type In<S> = <<S as Scheme>::Protocol as Protocol>::Input;
type Out<S> = <<S as Scheme>::Protocol as Protocol>::Output;

impl<I, O, S> Simulator<I, O> for S
where
    S: Scheme<Protocol: Protocol<Input = I, Output = O>>,
{
    fn simulate(
        &self,
        inputs: &[I],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<O>, SimError> {
        self.simulate_with_scratch(inputs, model, seed, &mut SoaScratch::default())
    }

    fn name(&self) -> &'static str {
        Scheme::name(self)
    }

    /// The routing contract: a shared-delivery model runs the collapsed
    /// body, `Independent` the per-party machines.
    fn simulate_with_scratch(
        &self,
        inputs: &[I],
        model: NoiseModel,
        seed: u64,
        scratch: &mut SoaScratch,
    ) -> Result<SimOutcome<O>, SimError> {
        admit(self, inputs, model)?;
        let mut channel = StochasticChannel::new(self.protocol().num_parties(), model, seed);
        if model.is_shared() {
            return self.collapsed(inputs, model, &mut channel, scratch);
        }
        self.per_party(inputs, model, &mut channel)
    }

    fn simulate_over(
        &self,
        inputs: &[I],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<O>, SimError> {
        admit(self, inputs, model)?;
        self.per_party(inputs, model, channel)
    }
}

/// The front door's checks, before any channel is built: the noise
/// model, the input count and the scheme's own regime.
fn admit<S: Scheme>(scheme: &S, inputs: &[In<S>], model: NoiseModel) -> Result<(), SimError> {
    check_model(model)?;
    let n = scheme.protocol().num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    S::check_regime(model)
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
    use crate::{
        HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator, RepetitionSimulator,
        RewindSimulator, SimulatorConfig,
    };
    use beeps_channel::run_noiseless;
    use beeps_protocols::{InputSet, RollCall};

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

    /// What `run` returns, and the phase spans it opens on this thread
    /// in the order they close.
    fn spans_of<R>(run: impl FnOnce() -> R) -> (R, Vec<&'static str>) {
        #[derive(Default)]
        struct Recording(std::sync::Mutex<Vec<&'static str>>);

        impl beeps_observe::Observer for Recording {
            fn on_phase(&self, _worker: usize, name: &'static str, _start: u64, _end: u64) {
                self.0.lock().expect("recording lock").push(name);
            }
        }

        let recording = std::sync::Arc::new(Recording::default());
        let result = {
            let _guard = beeps_observe::install(std::sync::Arc::clone(&recording) as _, 0);
            run()
        };
        let spans = recording.0.lock().expect("recording lock");
        (result, spans.clone())
    }

    /// The noise models of DESIGN.md §13's engine matrix.
    const MODELS: [NoiseModel; 5] = [
        NoiseModel::Noiseless,
        NoiseModel::Correlated { epsilon: 0.1 },
        NoiseModel::OneSidedZeroToOne { epsilon: 0.1 },
        NoiseModel::OneSidedOneToZero { epsilon: 0.1 },
        NoiseModel::Independent { epsilon: 0.1 },
    ];

    const ROLL_CALL_INPUTS: [bool; 4] = [true, false, true, true];

    /// Calls `check` with each of the five schemes, all over
    /// `RollCall(4)`, which every scheme can run, and whether the scheme
    /// accepts each model: one-to-zero takes only noise that never
    /// creates beeps.
    fn for_each_scheme(check: impl Fn(&dyn Simulator<bool, usize>, &dyn Fn(NoiseModel) -> bool)) {
        let protocol = RollCall::new(4);
        let config = SimulatorConfig::builder(4).build();
        let rep = RepetitionSimulator::new(&protocol, config.clone());
        let rewind = RewindSimulator::new(&protocol, config.clone());
        let hier = HierarchicalSimulator::new(&protocol, config.clone());
        let owned = OwnedRoundsSimulator::new(&protocol, config.clone());
        let otz = OneToZeroSimulator::new(&protocol, 2, config.budget_factor);
        let every = |_: NoiseModel| true;
        let never_fabricates = |model: NoiseModel| {
            matches!(
                model,
                NoiseModel::Noiseless | NoiseModel::OneSidedOneToZero { .. }
            )
        };
        check(&rep, &every);
        check(&rewind, &every);
        check(&hier, &every);
        check(&owned, &every);
        check(&otz, &never_fabricates);
    }

    /// Asserts that a call under a model its scheme rejects returned
    /// `UnsupportedNoise` and opened no span.
    fn assert_rejected<O>(result: Result<SimOutcome<O>, SimError>, spans: &[&str], call: &str) {
        let rejected = matches!(result, Err(SimError::UnsupportedNoise { .. }));
        assert!(rejected, "{call}: not rejected");
        assert!(spans.is_empty(), "{call}: {spans:?}");
    }

    #[test]
    fn per_party_engines_open_one_span_per_call() {
        for_each_scheme(|scheme, accepts| {
            let name = scheme.name();
            let per_party = [format!("sim.{name}.per_party")];
            for model in MODELS {
                let call = format!("{name} over {model}");
                let (result, spans) = spans_of(|| {
                    let mut channel = StochasticChannel::new(4, model, 3);
                    scheme.simulate_over(&ROLL_CALL_INPUTS, model, &mut channel)
                });
                if accepts(model) {
                    result.unwrap_or_else(|e| panic!("{call}: {e}"));
                    assert_eq!(spans, per_party, "{call}");
                } else {
                    assert_rejected(result, &spans, &call);
                }
            }
            // `simulate` routes independent noise to the same machines.
            let independent = NoiseModel::Independent { epsilon: 0.1 };
            let call = format!("{name} under {independent}");
            let (result, spans) = spans_of(|| scheme.simulate(&ROLL_CALL_INPUTS, independent, 3));
            if accepts(independent) {
                result.unwrap_or_else(|e| panic!("{call}: {e}"));
                assert_eq!(spans, per_party, "{call}");
            } else {
                assert_rejected(result, &spans, &call);
            }
        });
    }

    #[test]
    fn collapsed_engines_close_with_one_output_span() {
        for_each_scheme(|scheme, accepts| {
            let name = scheme.name();
            let output = format!("sim.{name}.output");
            for model in MODELS.into_iter().filter(NoiseModel::is_shared) {
                let call = format!("{name} under {model}");
                let (result, spans) = spans_of(|| scheme.simulate(&ROLL_CALL_INPUTS, model, 3));
                if accepts(model) {
                    result.unwrap_or_else(|e| panic!("{call}: {e}"));
                    assert_eq!(spans.last(), Some(&output.as_str()), "{call}: {spans:?}");
                    assert_eq!(spans.iter().filter(|&&s| s == output).count(), 1, "{call}");
                } else {
                    assert_rejected(result, &spans, &call);
                }
            }
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
