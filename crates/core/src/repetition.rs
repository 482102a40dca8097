//! The repetition simulation scheme (footnote 1 of the paper).
//!
//! Every round of the noiseless protocol is repeated `R` times over the
//! noisy channel and decoded by a threshold majority. With
//! `R = Θ(log n)` the per-round failure is polynomially small, so by a
//! union bound any protocol of length polynomial in `n` is simulated
//! correctly with high probability — the easy `O(log n)` upper bound the
//! paper contrasts with its general Theorem 1.2.

use crate::driver::{run_parties, seats, Block, Seat, SimParty, WORD};
use crate::outcome::{SimError, SimOutcome};
use crate::params::SimulatorConfig;
use crate::simulator::Scheme;
use crate::soa::{self, SoaScratch};
use beeps_channel::{Channel, NoiseModel, Protocol, StochasticChannel};

/// Simulates a noiseless protocol by per-round repetition. Its fixed
/// length `T · R` is also its budget, so any `R ≥ 1` finishes; at
/// `R = 0` a protocol with rounds returns [`SimError::BudgetExhausted`]
/// with nothing committed.
///
/// # Examples
///
/// ```
/// use beeps_channel::{run_noiseless, NoiseModel};
/// use beeps_core::{RepetitionSimulator, Simulator, SimulatorConfig};
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
}

impl<P: Protocol> Scheme for RepetitionSimulator<'_, P> {
    type Protocol = P;

    fn name(&self) -> &'static str {
        "repetition"
    }

    fn protocol(&self) -> &P {
        self.protocol
    }

    fn collapsed(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        channel: &mut StochasticChannel,
        scratch: &mut SoaScratch,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        soa::repetition_collapsed_over(self.protocol, &self.config, inputs, model, channel, scratch)
    }

    fn per_party(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        let rep_ones = self.config.resolve(model).rep_ones;
        let parties = seats(self.protocol, inputs).map(|seat| RepParty {
            seat,
            repetitions: self.config.repetitions,
            rep_ones,
            block: Block::default(),
        });
        let budget = budget(&self.config, self.protocol.length());
        run_parties(
            "sim.repetition.per_party",
            parties.collect(),
            |p| &p.seat,
            channel,
            budget,
        )
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
    use crate::Simulator;
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
