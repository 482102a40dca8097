//! The repetition simulation scheme (footnote 1 of the paper).
//!
//! Every round of the noiseless protocol is repeated `R` times over the
//! noisy channel and decoded by a threshold majority. With
//! `R = Θ(log n)` the per-round failure is polynomially small, so by a
//! union bound any protocol of length polynomial in `n` is simulated
//! correctly with high probability — the easy `O(log n)` upper bound the
//! paper contrasts with its general Theorem 1.2.

use crate::driver::{block_run, drive, held, ones, SimParty, WORD};
use crate::outcome::{SimError, SimOutcome, SimStats};
use crate::params::{ResolvedParams, SimulatorConfig};
use beeps_channel::{NoiseModel, Protocol, StochasticChannel};

/// Simulates a noiseless protocol by per-round repetition.
///
/// # Examples
///
/// ```
/// use beeps_channel::{run_noiseless, NoiseModel};
/// use beeps_core::{RepetitionSimulator, SimulatorConfig};
/// use beeps_protocols::InputSet;
///
/// let protocol = InputSet::new(4);
/// let inputs = [1, 6, 6, 3];
/// let sim = RepetitionSimulator::new(&protocol, SimulatorConfig::builder(4).build());
/// let outcome = sim
///     .simulate(&inputs, NoiseModel::Correlated { epsilon: 1.0 / 3.0 }, 99)
///     .expect("repetition simulation is fixed-length");
/// assert_eq!(
///     outcome.transcript(),
///     run_noiseless(&protocol, &inputs).transcript()
/// );
/// ```
#[derive(Debug)]
pub struct RepetitionSimulator<'a, P> {
    protocol: &'a P,
    config: SimulatorConfig,
}

impl<'a, P: Protocol> RepetitionSimulator<'a, P> {
    /// Wraps `protocol`; only [`SimulatorConfig::repetitions`] is used.
    pub fn new(protocol: &'a P, config: SimulatorConfig) -> Self {
        Self { protocol, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Runs the simulation with `repetitions` copies of each round.
    ///
    /// The simulated protocol has fixed length `T · R`, so this never
    /// exhausts a budget; the `Result` only reports invalid noise
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedNoise`] if `model` has an invalid ε.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != protocol.num_parties()`.
    pub fn simulate(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        self.simulate_with_scratch(inputs, model, seed, &mut crate::soa::SoaScratch::default())
    }

    /// [`RepetitionSimulator::simulate`] with a caller-owned scratch
    /// arena. Shared-delivery models run on the collapsed
    /// struct-of-arrays engine (see [`crate::soa`]) — bitwise identical
    /// to the scalar path; independent noise keeps the per-party state
    /// machines (its deliveries diverge across parties).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedNoise`] if `model` has an invalid ε.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != protocol.num_parties()`.
    pub fn simulate_with_scratch(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        seed: u64,
        scratch: &mut crate::soa::SoaScratch,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        let n = self.protocol.num_parties();
        if model.validate().is_err() {
            return Err(SimError::UnsupportedNoise {
                reason: "noise parameter outside [0, 1)",
            });
        }
        let mut channel = StochasticChannel::new(n, model, seed);
        if matches!(model, NoiseModel::Independent { .. }) {
            return self.simulate_over(inputs, model, &mut channel);
        }
        crate::soa::repetition_collapsed_over(
            self.protocol,
            &self.config,
            inputs,
            model,
            &mut channel,
            scratch,
        )
    }

    /// Runs the simulation over a caller-supplied channel — the hook for
    /// failure injection and channel-equivalence tests (same shape as
    /// [`crate::RewindSimulator::simulate_over`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedNoise`] if `model` has an invalid ε.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != protocol.num_parties()` or the channel is
    /// sized for a different number of parties.
    pub fn simulate_over(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        channel: &mut dyn beeps_channel::Channel,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        let n = self.protocol.num_parties();
        assert_eq!(inputs.len(), n, "need one input per party");
        if model.validate().is_err() {
            return Err(SimError::UnsupportedNoise {
                reason: "noise parameter outside [0, 1)",
            });
        }
        let resolved = self.config.resolve(model);
        let r = self.config.repetitions;
        let mut parties: Vec<IndexedParty<'_, P>> = (0..n)
            .map(|i| IndexedParty {
                index: i,
                inner: RepParty {
                    protocol: self.protocol,
                    input: inputs[i].clone(),
                    sim_transcript: Vec::with_capacity(self.protocol.length()),
                    repetitions: r,
                    params: resolved,
                    rep: 0,
                    ones: 0,
                    current: false,
                },
            })
            .collect();
        let budget = self.protocol.length() * r;
        let corrupted_before = channel.corrupted_rounds();
        let result = {
            let _span = beeps_observe::phase("sim.repetition.per_party");
            drive(&mut parties, channel, budget)
        };
        debug_assert!(result.all_done, "fixed-length schedule must finish");

        let transcript = parties[0].inner.sim_transcript.clone();
        let agreement = parties.iter().all(|p| p.inner.sim_transcript == transcript);
        let outputs = parties
            .iter()
            .map(|p| {
                self.protocol
                    .output(p.index, &p.inner.input, &p.inner.sim_transcript)
            })
            .collect();
        Ok(SimOutcome::new(
            transcript,
            outputs,
            SimStats {
                channel_rounds: result.rounds,
                phase_rounds: crate::outcome::PhaseRounds {
                    chunk: result.rounds,
                    ..Default::default()
                },
                protocol_rounds: self.protocol.length(),
                chunks_committed: 0,
                rewinds: 0,
                agreement,
                energy: result.energy,
                corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
            },
        ))
    }
}

/// Per-party state: replays the protocol against the majority-decoded
/// transcript, beeping each decision `R` times.
struct RepParty<'a, P: Protocol> {
    protocol: &'a P,
    input: P::Input,
    sim_transcript: Vec<bool>,
    repetitions: usize,
    params: ResolvedParams,
    rep: usize,
    ones: usize,
    current: bool,
}

impl<P: Protocol> SimParty for IndexedParty<'_, P> {
    fn plan(&mut self) -> (u64, usize) {
        let inner = &mut self.inner;
        if inner.sim_transcript.len() >= inner.protocol.length() {
            return (0, WORD);
        }
        if inner.rep == 0 {
            inner.current = inner
                .protocol
                .beep(self.index, &inner.input, &inner.sim_transcript);
        }
        (held(inner.current), block_run(inner.rep, inner.repetitions))
    }

    fn hear_word(&mut self, heard: u64, _sent: u64, len: usize) {
        let inner = &mut self.inner;
        if inner.sim_transcript.len() >= inner.protocol.length() {
            return;
        }
        inner.ones += ones(heard, len);
        inner.rep += len;
        if inner.rep == inner.repetitions {
            inner
                .sim_transcript
                .push(inner.ones >= inner.params.rep_ones);
            inner.rep = 0;
            inner.ones = 0;
        }
    }

    fn is_done(&self) -> bool {
        self.inner.sim_transcript.len() >= self.inner.protocol.length()
    }
}

/// Pairs a party state machine with its index.
struct IndexedParty<'a, P: Protocol> {
    index: usize,
    inner: RepParty<'a, P>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeps_channel::run_noiseless;
    use beeps_protocols::{InputSet, LeaderElection, Membership};

    fn cfg(n: usize, eps: f64) -> SimulatorConfig {
        SimulatorConfig::builder(n)
            .model(NoiseModel::Correlated { epsilon: eps })
            .build()
    }

    #[test]
    fn noiseless_channel_reproduces_exactly_with_one_repetition() {
        let p = InputSet::new(5);
        let inputs = [2, 9, 0, 0, 4];
        let mut config = cfg(5, 0.2);
        config.repetitions = 1;
        let sim = RepetitionSimulator::new(&p, config);
        let out = sim.simulate(&inputs, NoiseModel::Noiseless, 0).unwrap();
        let truth = run_noiseless(&p, &inputs);
        assert_eq!(out.transcript(), truth.transcript());
        assert_eq!(out.outputs(), truth.outputs());
        assert_eq!(out.stats().channel_rounds, p.length());
    }

    #[test]
    fn survives_correlated_noise() {
        let p = InputSet::new(8);
        let inputs = [0, 3, 3, 7, 12, 15, 1, 9];
        let sim = RepetitionSimulator::new(&p, cfg(8, 1.0 / 3.0));
        let truth = run_noiseless(&p, &inputs);
        let mut good = 0;
        for seed in 0..20 {
            let out = sim
                .simulate(&inputs, NoiseModel::Correlated { epsilon: 1.0 / 3.0 }, seed)
                .unwrap();
            if out.transcript() == truth.transcript() {
                good += 1;
            }
        }
        assert!(good >= 18, "only {good}/20 clean simulations");
    }

    #[test]
    fn adaptive_protocols_survive() {
        let p = LeaderElection::new(6, 8);
        let inputs = [3, 200, 117, 9, 41, 77];
        let sim = RepetitionSimulator::new(&p, cfg(6, 0.25));
        let out = sim
            .simulate(&inputs, NoiseModel::Correlated { epsilon: 0.25 }, 5)
            .unwrap();
        assert_eq!(out.outputs(), &[200; 6]);
    }

    #[test]
    fn one_sided_down_threshold_is_one() {
        // Under 1->0 noise a single surviving copy proves the 1.
        let p = Membership::new(3, 8);
        let inputs = [Some(2), Some(7), None];
        let config = SimulatorConfig::builder(3)
            .model(NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 })
            .build();
        let sim = RepetitionSimulator::new(&p, config);
        let truth = run_noiseless(&p, &inputs);
        let mut good = 0;
        for seed in 0..20 {
            let out = sim
                .simulate(
                    &inputs,
                    NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 },
                    seed,
                )
                .unwrap();
            if out.transcript() == truth.transcript() {
                good += 1;
            }
        }
        assert!(good >= 18, "only {good}/20 clean simulations");
    }

    #[test]
    fn overhead_equals_repetitions() {
        let p = InputSet::new(4);
        let sim = RepetitionSimulator::new(&p, cfg(4, 0.1));
        let r = sim.config().repetitions;
        let out = sim
            .simulate(&[0, 1, 2, 3], NoiseModel::Correlated { epsilon: 0.1 }, 1)
            .unwrap();
        assert!((out.stats().overhead() - r as f64).abs() < 1e-9);
    }

    #[test]
    fn invalid_noise_is_reported() {
        let p = InputSet::new(2);
        let sim = RepetitionSimulator::new(&p, cfg(2, 0.1));
        let err = sim
            .simulate(&[0, 1], NoiseModel::Correlated { epsilon: 1.5 }, 0)
            .unwrap_err();
        assert!(matches!(err, SimError::UnsupportedNoise { .. }));
    }
}
