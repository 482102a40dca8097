//! The repetition simulation scheme (footnote 1 of the paper).
//!
//! Every round of the noiseless protocol is repeated `R` times over the
//! noisy channel and decoded by a threshold majority. With
//! `R = Θ(log n)` the per-round failure is polynomially small, so by a
//! union bound any protocol of length polynomial in `n` is simulated
//! correctly with high probability — the easy `O(log n)` upper bound the
//! paper contrasts with its general Theorem 1.2.

use crate::driver::{drive, outcome, Block, Seat, SimParty, WORD};
use crate::outcome::{check_model, SimError, SimOutcome};
use crate::params::SimulatorConfig;
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
    /// The simulated protocol has fixed length `T · R`, which is also its
    /// budget, so any `R ≥ 1` finishes. At `R = 0` a block never ends
    /// and the budget `T · 0` fits no round: a protocol of `T > 0`
    /// rounds exhausts it before committing any.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedNoise`] if `model` has an invalid ε,
    /// and [`SimError::BudgetExhausted`] (0 rounds used, 0 committed) if
    /// `repetitions` is 0 and the protocol has rounds.
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
    /// As [`RepetitionSimulator::simulate`].
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
        check_model(model)?;
        let mut channel = StochasticChannel::new(self.protocol.num_parties(), model, seed);
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
    /// As [`RepetitionSimulator::simulate`].
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
        check_model(model)?;
        let rep_ones = self.config.resolve(model).rep_ones;
        let mut parties: Vec<RepParty<'_, P>> = (0..n)
            .map(|i| RepParty {
                seat: Seat::new(self.protocol, i, inputs[i].clone()),
                repetitions: self.config.repetitions,
                rep_ones,
                block: Block::default(),
            })
            .collect();
        let result = {
            let _span = beeps_observe::phase("sim.repetition.per_party");
            drive(
                &mut parties,
                channel,
                budget(&self.config, self.protocol.length()),
            )
        };
        result.finished(&parties[0].seat)?;
        Ok(outcome(parties.iter().map(|p| &p.seat), result))
    }
}

/// The repetition scheme's fixed length, in both engines: `R` channel
/// rounds for each of the protocol's `t` rounds.
pub(crate) fn budget(config: &SimulatorConfig, t: usize) -> usize {
    t * config.repetitions
}

/// Per-party state: replays the protocol against the majority-decoded
/// transcript (its committed prefix), beeping each decision `R` times.
struct RepParty<'a, P: Protocol> {
    seat: Seat<'a, P>,
    repetitions: usize,
    rep_ones: usize,
    block: Block,
}

impl<P: Protocol> SimParty for RepParty<'_, P> {
    fn plan(&mut self) -> (u64, usize) {
        if self.is_done() {
            return (0, WORD);
        }
        let seat = &self.seat;
        self.block.plan(self.repetitions, || {
            seat.protocol.beep(seat.me, &seat.input, &seat.prefix.bits)
        })
    }

    fn hear_word(&mut self, heard: u64, _sent: u64, len: usize) {
        if self.is_done() {
            return;
        }
        self.seat.phase_rounds.chunk += len;
        if let Some(ones) = self.block.hear(heard, len, self.repetitions) {
            self.seat.prefix.bits.push(ones >= self.rep_ones);
        }
    }

    fn is_done(&self) -> bool {
        self.seat.prefix.bits.len() >= self.seat.protocol.length()
    }
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
