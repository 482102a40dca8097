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

use crate::driver::{block_run, drive, held, ones, SimParty, WORD};
use crate::outcome::{PhaseRounds, SimError, SimOutcome, SimStats};
use crate::params::{ResolvedParams, SimulatorConfig};
use beeps_channel::{NoiseModel, StochasticChannel, UniquelyOwned};

/// Chunk-plus-verify simulator for [`UniquelyOwned`] protocols (no owners
/// phase).
///
/// # Examples
///
/// ```
/// use beeps_channel::{run_noiseless, NoiseModel};
/// use beeps_core::{OwnedRoundsSimulator, SimulatorConfig};
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

    /// Channel rounds of one full-length iteration (chunk + verification).
    pub fn rounds_per_iteration(&self) -> usize {
        self.config.chunk_len * self.config.repetitions + self.config.verify_repetitions
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::RewindSimulator::simulate`].
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

    /// [`OwnedRoundsSimulator::simulate`] with a caller-owned scratch
    /// arena: shared-delivery models run on the collapsed
    /// struct-of-arrays engine (see [`crate::soa`]), bitwise identical
    /// to the scalar path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OwnedRoundsSimulator::simulate`].
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
        if model.is_shared() {
            return crate::soa::owned_rounds_collapsed_over(
                self.protocol,
                &self.config,
                inputs,
                model,
                &mut channel,
                scratch,
            );
        }
        self.simulate_over(inputs, model, &mut channel)
    }

    /// Runs over a caller-supplied channel (failure injection, reduction
    /// channels).
    ///
    /// # Errors
    ///
    /// Same conditions as [`OwnedRoundsSimulator::simulate`].
    ///
    /// # Panics
    ///
    /// Panics on party-count mismatches.
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
        let t = self.protocol.length();
        let resolved = self.config.resolve(model);
        let mut parties: Vec<OwnedParty<'_, P>> = (0..n)
            .map(|i| OwnedParty {
                protocol: self.protocol,
                input: inputs[i].clone(),
                me: i,
                chunk_len: self.config.chunk_len,
                repetitions: self.config.repetitions,
                verify_repetitions: self.config.verify_repetitions,
                params: resolved,
                committed: Vec::new(),
                chunk_lens: Vec::new(),
                working: Vec::new(),
                chunks_committed: 0,
                rewinds: 0,
                phase_rounds: PhaseRounds::default(),
                phase: OwnedPhase::Done,
            })
            .collect();
        for party in parties.iter_mut() {
            party.phase = party.start_chunk();
        }
        let chunks_needed = t.div_ceil(self.config.chunk_len).max(1);
        let budget = (self.config.budget_factor
            * (chunks_needed * self.rounds_per_iteration()) as f64)
            .ceil() as usize;
        let corrupted_before = channel.corrupted_rounds();
        let result = {
            let _span = beeps_observe::phase("sim.owned_rounds.per_party");
            drive(&mut parties, channel, budget)
        };

        if !result.all_done {
            return Err(SimError::BudgetExhausted {
                rounds_used: result.rounds,
                committed: parties[0].committed.len().min(t),
            });
        }
        let transcript: Vec<bool> = parties[0].committed[..t].to_vec();
        let agreement = parties.iter().all(|p| p.committed[..t] == transcript[..]);
        let outputs = parties
            .iter()
            .map(|p| self.protocol.output(p.me, &p.input, &p.committed[..t]))
            .collect();
        Ok(SimOutcome::new(
            transcript,
            outputs,
            SimStats {
                channel_rounds: result.rounds,
                phase_rounds: parties[0].phase_rounds,
                protocol_rounds: t,
                chunks_committed: parties[0].chunks_committed,
                rewinds: parties[0].rewinds,
                agreement,
                energy: result.energy,
                corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
            },
        ))
    }
}

struct ChunkState {
    len: usize,
    bits: Vec<bool>,
    rep: usize,
    ones: usize,
    current: bool,
}

struct VerifyState {
    chunk_bits: Vec<bool>,
    my_flag: bool,
    idx: usize,
    ones: usize,
}

enum OwnedPhase {
    Chunk(ChunkState),
    Verify(VerifyState),
    Done,
}

struct OwnedParty<'a, P: UniquelyOwned> {
    protocol: &'a P,
    input: P::Input,
    me: usize,
    chunk_len: usize,
    repetitions: usize,
    verify_repetitions: usize,
    params: ResolvedParams,
    committed: Vec<bool>,
    chunk_lens: Vec<usize>,
    /// `committed` plus the decoded bits of the in-flight chunk, kept in
    /// sync incrementally so the chunk loop never re-clones the prefix.
    working: Vec<bool>,
    chunks_committed: usize,
    rewinds: usize,
    phase_rounds: PhaseRounds,
    phase: OwnedPhase,
}

impl<P: UniquelyOwned> OwnedParty<'_, P> {
    fn start_chunk(&self) -> OwnedPhase {
        let remaining = self.protocol.length().saturating_sub(self.committed.len());
        if remaining == 0 {
            return OwnedPhase::Done;
        }
        let len = remaining.min(self.chunk_len);
        OwnedPhase::Chunk(ChunkState {
            len,
            bits: Vec::with_capacity(len),
            rep: 0,
            ones: 0,
            current: false,
        })
    }

    /// Owner-only verification over the committed prefix plus the pending
    /// chunk: I flag iff some round I own disagrees with what I would
    /// beep — in either direction.
    fn compute_flag(&self, chunk_bits: &[bool]) -> bool {
        debug_assert_eq!(self.working.len(), self.committed.len() + chunk_bits.len());
        let prefix = &self.working;
        for m in 0..prefix.len() {
            if self.protocol.round_owner(m) != self.me {
                continue;
            }
            if self.protocol.beep(self.me, &self.input, &prefix[..m]) != prefix[m] {
                return true;
            }
        }
        false
    }
}

impl<P: UniquelyOwned> SimParty for OwnedParty<'_, P> {
    fn plan(&mut self) -> (u64, usize) {
        match &mut self.phase {
            OwnedPhase::Chunk(c) => {
                if c.rep == 0 {
                    c.current = self.protocol.beep(self.me, &self.input, &self.working);
                }
                (held(c.current), block_run(c.rep, self.repetitions))
            }
            // The vote resolves once `idx < verify_repetitions` fails,
            // which a zero-length vote does after one round.
            OwnedPhase::Verify(v) => (
                held(v.my_flag),
                self.verify_repetitions.saturating_sub(v.idx).max(1),
            ),
            OwnedPhase::Done => (0, WORD),
        }
    }

    fn hear_word(&mut self, heard: u64, _sent: u64, len: usize) {
        match &self.phase {
            OwnedPhase::Chunk(_) => self.phase_rounds.chunk += len,
            OwnedPhase::Verify(_) => self.phase_rounds.verify += len,
            OwnedPhase::Done => {}
        }
        match std::mem::replace(&mut self.phase, OwnedPhase::Done) {
            OwnedPhase::Chunk(mut c) => {
                c.ones += ones(heard, len);
                c.rep += len;
                if c.rep == self.repetitions {
                    let bit = c.ones >= self.params.rep_ones;
                    c.bits.push(bit);
                    self.working.push(bit);
                    c.rep = 0;
                    c.ones = 0;
                }
                if c.bits.len() == c.len {
                    let my_flag = self.compute_flag(&c.bits);
                    self.phase = OwnedPhase::Verify(VerifyState {
                        chunk_bits: c.bits,
                        my_flag,
                        idx: 0,
                        ones: 0,
                    });
                } else {
                    self.phase = OwnedPhase::Chunk(c);
                }
            }
            OwnedPhase::Verify(mut v) => {
                v.ones += ones(heard, len);
                v.idx += len;
                if v.idx < self.verify_repetitions {
                    self.phase = OwnedPhase::Verify(v);
                    return;
                }
                let failed = v.ones >= self.params.verify_ones;
                if failed {
                    self.rewinds += 1;
                    if let Some(len) = self.chunk_lens.pop() {
                        let keep = self.committed.len() - len;
                        self.committed.truncate(keep);
                        self.chunks_committed = self.chunks_committed.saturating_sub(1);
                    }
                } else {
                    self.committed.extend_from_slice(&v.chunk_bits);
                    self.chunk_lens.push(v.chunk_bits.len());
                    self.chunks_committed += 1;
                }
                self.working.truncate(self.committed.len());
                self.phase = self.start_chunk();
            }
            OwnedPhase::Done => {}
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.phase, OwnedPhase::Done) && self.committed.len() >= self.protocol.length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
