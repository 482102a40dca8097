//! The \[EKS18\]-style simulator for uniquely-owned protocols — what
//! subsection 2.1 of the paper says becomes possible when "each party
//! owns a disjoint set of bits in the transcript".
//!
//! For a [`UniquelyOwned`] protocol the owners phase is redundant: the
//! schedule already names the only party that may beep in each round, so
//! *both* directions of corruption are self-evident to that party —
//! `π_m = 0` while it beeped, or `π_m = 1` while it stayed silent (nobody
//! else could have beeped). The simulation therefore reduces to chunked
//! repetition plus the verification vote plus rewind, skipping the
//! `Θ((L + n)·log n)` rounds Algorithm 1 spends computing owners.
//!
//! This is precisely why the paper's lower bound needs the `InputSet`
//! task, where any party may beep anywhere: ownership must be *computed*,
//! and computing it (or anything equivalent) is where the `Ω(log n)`
//! factor becomes unavoidable. Experiment `tab7_owned_rounds` puts the
//! two simulators side by side on an owned workload to price the
//! difference.

use crate::driver::{held, ones, run_parties, seats, Block, Seat, SimParty, WORD};
use crate::outcome::{SimError, SimOutcome};
use crate::params::{ResolvedParams, SimulatorConfig};
use crate::simulator::Scheme;
use crate::soa::{self, SoaScratch};
use beeps_channel::{Channel, NoiseModel, StochasticChannel, UniquelyOwned};

/// Chunk-plus-verify simulator for [`UniquelyOwned`] protocols (no owners
/// phase).
///
/// # Examples
///
/// ```
/// use beeps_channel::{run_noiseless, NoiseModel};
/// use beeps_core::{OwnedRoundsSimulator, Simulator, SimulatorConfig};
/// use beeps_protocols::RollCall;
///
/// let protocol = RollCall::new(6);
/// let inputs = [true, false, true, true, false, true];
/// let model = NoiseModel::Correlated { epsilon: 0.1 };
/// let sim = OwnedRoundsSimulator::new(
///     &protocol,
///     SimulatorConfig::builder(6).model(model).build(),
/// );
/// let outcome = sim.simulate(&inputs, model, 3).expect("within budget");
/// assert_eq!(
///     outcome.transcript(),
///     run_noiseless(&protocol, &inputs).transcript()
/// );
/// ```
#[derive(Debug)]
pub struct OwnedRoundsSimulator<'a, P> {
    protocol: &'a P,
    config: SimulatorConfig,
}

impl<'a, P: UniquelyOwned> OwnedRoundsSimulator<'a, P> {
    /// Wraps `protocol`; `code_len` in the config is unused (there are no
    /// codewords to exchange).
    pub fn new(protocol: &'a P, config: SimulatorConfig) -> Self {
        Self { protocol, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }
}

impl<P: UniquelyOwned> Scheme for OwnedRoundsSimulator<'_, P> {
    type Protocol = P;

    fn name(&self) -> &'static str {
        "owned_rounds"
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
        soa::owned_rounds_collapsed_over(
            self.protocol,
            &self.config,
            inputs,
            model,
            channel,
            scratch,
        )
    }

    fn per_party(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        let params = self.config.resolve(model);
        let parties = seats(self.protocol, inputs).map(|seat| OwnedParty {
            config: &self.config,
            params,
            phase: start_chunk(&seat, self.config.chunk_len),
            seat,
        });
        let budget = budget(&self.config, self.protocol.length());
        run_parties(
            "sim.owned_rounds.per_party",
            parties.collect(),
            |p| &p.seat,
            channel,
            budget,
        )
    }
}

/// Channel rounds of one full-length iteration: the chunk and one vote.
fn iteration_rounds(config: &SimulatorConfig) -> usize {
    config.chunk_len * config.repetitions + config.verify_repetitions
}

/// The owned-rounds round budget, in both engines: `budget_factor ×` the
/// rewind-free cost of a `t`-round protocol.
pub(crate) fn budget(config: &SimulatorConfig, t: usize) -> usize {
    let ideal = config.chunks_needed(t) * iteration_rounds(config);
    (config.budget_factor * ideal as f64).ceil() as usize
}

enum OwnedPhase {
    /// A chunk of `len` rounds, one repetition block each.
    Chunk {
        len: usize,
        block: Block,
    },
    Verify(VerifyState),
    Done,
}

struct VerifyState {
    my_flag: bool,
    idx: usize,
    ones: usize,
}

struct OwnedParty<'a, P: UniquelyOwned> {
    config: &'a SimulatorConfig,
    params: ResolvedParams,
    seat: Seat<'a, P>,
    phase: OwnedPhase,
}

fn start_chunk<P: UniquelyOwned>(seat: &Seat<'_, P>, chunk_len: usize) -> OwnedPhase {
    match seat.prefix.next_chunk(seat.protocol.length(), chunk_len) {
        Some(len) => OwnedPhase::Chunk {
            len,
            block: Block::default(),
        },
        None => OwnedPhase::Done,
    }
}

/// Owner-only verification over the committed prefix plus the pending
/// chunk: the party flags iff some round it owns disagrees with what it
/// would beep — in either direction.
fn flag<P: UniquelyOwned>(seat: &Seat<'_, P>) -> bool {
    let prefix = &seat.prefix.working;
    (0..prefix.len()).any(|m| {
        seat.protocol.round_owner(m) == seat.me
            && seat.protocol.beep(seat.me, &seat.input, &prefix[..m]) != prefix[m]
    })
}

impl<P: UniquelyOwned> SimParty for OwnedParty<'_, P> {
    fn plan(&mut self) -> (u64, usize) {
        let seat = &self.seat;
        match &mut self.phase {
            OwnedPhase::Chunk { block, .. } => block.plan(self.config.repetitions, || seat.beep()),
            // The vote resolves once `idx < verify_repetitions` fails,
            // which a zero-length vote does after one round.
            OwnedPhase::Verify(v) => (
                held(v.my_flag),
                self.config.verify_repetitions.saturating_sub(v.idx).max(1),
            ),
            OwnedPhase::Done => (0, WORD),
        }
    }

    fn hear_word(&mut self, heard: u64, _sent: u64, len: usize) {
        // Step the in-flight phase in place, attributing the run to it;
        // the phase moves only when it ends.
        let seat = &mut self.seat;
        match &mut self.phase {
            OwnedPhase::Chunk {
                len: chunk_len,
                block,
            } => {
                seat.phase_rounds.chunk += len;
                if let Some(ones) = block.hear(heard, len, self.config.repetitions) {
                    seat.prefix.working.push(ones >= self.params.rep_ones);
                }
                if seat.prefix.working.len() - seat.prefix.bits.len() == *chunk_len {
                    self.phase = OwnedPhase::Verify(VerifyState {
                        my_flag: flag(seat),
                        idx: 0,
                        ones: 0,
                    });
                }
            }
            OwnedPhase::Verify(v) => {
                seat.phase_rounds.verify += len;
                v.ones += ones(heard, len);
                v.idx += len;
                if v.idx < self.config.verify_repetitions {
                    return;
                }
                if v.ones >= self.params.verify_ones {
                    seat.rewinds += 1;
                    seat.prefix
                        .truncate_to(seat.prefix.chunk_lens.len().saturating_sub(1));
                } else {
                    seat.prefix.commit(&[]);
                }
                self.phase = start_chunk(seat, self.config.chunk_len);
            }
            OwnedPhase::Done => {}
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.phase, OwnedPhase::Done)
            && self.seat.prefix.bits.len() >= self.seat.protocol.length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use beeps_channel::run_noiseless;
    use beeps_protocols::{Broadcast, PointerChase, RollCall};

    fn check<P: UniquelyOwned>(
        protocol: &P,
        inputs: &[P::Input],
        model: NoiseModel,
        trials: u64,
        min_good: u64,
    ) {
        let truth = run_noiseless(protocol, inputs);
        let config = SimulatorConfig::builder(protocol.num_parties())
            .model(model)
            .build();
        let sim = OwnedRoundsSimulator::new(protocol, config);
        let mut good = 0;
        for seed in 0..trials {
            if let Ok(out) = sim.simulate(inputs, model, seed) {
                if out.transcript() == truth.transcript() {
                    good += 1;
                }
            }
        }
        assert!(good >= min_good, "only {good}/{trials} exact over {model}");
    }

    #[test]
    fn roll_call_over_two_sided_noise() {
        let p = RollCall::new(8);
        let inputs = [true, false, true, true, false, false, true, false];
        check(&p, &inputs, NoiseModel::Correlated { epsilon: 0.2 }, 10, 9);
    }

    #[test]
    fn roll_call_over_one_sided_up_noise_paper_rate() {
        // The crucial direction: 0->1 flips on rounds whose owner was
        // silent are caught by that owner alone — no owners phase needed.
        let p = RollCall::new(8);
        let inputs = [false; 8];
        check(
            &p,
            &inputs,
            NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 },
            10,
            9,
        );
    }

    #[test]
    fn broadcast_over_noise() {
        let p = Broadcast::new(4, 1, 12);
        let inputs = [0, 0xABC, 0, 0];
        check(&p, &inputs, NoiseModel::Correlated { epsilon: 0.15 }, 8, 7);
    }

    #[test]
    fn adaptive_but_owned_pointer_chase() {
        // Ownership is schedule-fixed even though the *bits* are adaptive;
        // the simulator must still be exact.
        let p = PointerChase::new(3, 8, 5);
        let tables = vec![
            vec![4, 2, 7, 1, 0, 3, 6, 5],
            vec![1, 5, 0, 2, 6, 7, 3, 4],
            vec![3, 0, 1, 6, 2, 4, 5, 7],
        ];
        check(&p, &tables, NoiseModel::Correlated { epsilon: 0.1 }, 8, 7);
    }

    #[test]
    fn cheaper_than_the_general_scheme() {
        // The whole point: on an owned workload, skipping the owners phase
        // must save a large round factor at equal parameters.
        let p = RollCall::new(16);
        let inputs = [true; 16];
        let model = NoiseModel::Correlated { epsilon: 0.1 };
        let config = SimulatorConfig::builder(16).model(model).build();
        let owned = OwnedRoundsSimulator::new(&p, config.clone())
            .simulate(&inputs, model, 3)
            .unwrap();
        let general = crate::RewindSimulator::new(&p, config)
            .simulate(&inputs, model, 3)
            .unwrap();
        assert!(
            owned.stats().channel_rounds * 2 < general.stats().channel_rounds,
            "owned {} vs general {}",
            owned.stats().channel_rounds,
            general.stats().channel_rounds
        );
        assert_eq!(owned.transcript(), general.transcript());
    }

    #[test]
    fn forced_corruption_rewinds_and_recovers() {
        // High-noise stress: the scheme must rewind and still end exact.
        let p = RollCall::new(6);
        let inputs = [true, true, false, true, false, true];
        let model = NoiseModel::Correlated { epsilon: 0.3 };
        let mut config = SimulatorConfig::builder(6).model(model).build();
        config.budget_factor = 32.0;
        let truth = run_noiseless(&p, &inputs);
        let sim = OwnedRoundsSimulator::new(&p, config);
        let mut exact = 0;
        for seed in 0..10 {
            if let Ok(out) = sim.simulate(&inputs, model, seed) {
                exact += u32::from(out.transcript() == truth.transcript());
            }
        }
        assert!(exact >= 9, "{exact}/10 exact at eps=0.3");
    }
}
