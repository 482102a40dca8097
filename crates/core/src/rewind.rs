//! The full simulation scheme of Theorem 1.2 (Appendix D): chunked
//! simulation with owners, verification, and rewind-if-error.
//!
//! Each iteration has three phases:
//!
//! 1. **Chunk simulation** — the next `L` rounds of the noiseless protocol
//!    are simulated by `R`-fold repetition with threshold decoding
//!    (Algorithm 1's simulation phase);
//! 2. **Finding owners** — Algorithm 1's second phase assigns every 1 of
//!    the chunk transcript to a party that beeped it
//!    (the owners state machine in the `owners` module);
//! 3. **Verification** — every party recomputes what it *would* have
//!    beeped against the committed prefix plus the current chunk. A party
//!    raises the error flag iff (a) some 0-round contradicts its own beep,
//!    (b) it owns a 1-round it did not beep, or (c) some 1-round ended the
//!    owners phase unowned (the paper: "an error flag for rounds with no
//!    owner can be raised by any player"). The flag OR crosses the channel
//!    as `V` repetitions with a threshold decode. On success the chunk is
//!    committed; on failure the chunk is discarded **and** the most recent
//!    committed chunk is popped, so errors that slipped past an earlier
//!    verification are eventually unwound (the rewind-if-error
//!    discipline of \[EKS18\] that subsection D.2 builds on).
//!
//! Verification always covers the *entire* committed prefix, not just the
//! current chunk: re-checking is free (it costs the same `V` rounds) and is
//! what makes undetected two-sided errors recoverable.
//!
//! Over the one-sided `0→1` channel a raised flag can never be missed
//! (noise cannot erase beeps... it can only add them), so committed
//! prefixes are always correct there; over the two-sided channel the missed
//! -flag probability is driven below `target_error` by `V`.

use crate::driver::{block_run, drive, held, ones, SimParty, WORD};
use crate::outcome::{PhaseRounds, SimError, SimOutcome, SimStats};
use crate::owners::{metric_for, OwnersState, SharedCode};
use crate::params::{ResolvedParams, SimulatorConfig};
use beeps_channel::{NoiseModel, Protocol, StochasticChannel};
use std::sync::Arc;

/// The Theorem 1.2 simulator: `O(T log n)` rounds for any noiseless
/// protocol of length `T`, over correlated, one-sided, or independent
/// noise.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct RewindSimulator<'a, P> {
    protocol: &'a P,
    config: SimulatorConfig,
}

impl<'a, P: Protocol> RewindSimulator<'a, P> {
    /// Wraps `protocol` with the given parameters.
    pub fn new(protocol: &'a P, config: SimulatorConfig) -> Self {
        Self { protocol, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Channel rounds of one iteration (chunk + owners + verification) for
    /// a full-length chunk.
    pub fn rounds_per_iteration(&self) -> usize {
        let l = self.config.chunk_len;
        let n = self.protocol.num_parties();
        l * self.config.repetitions
            + OwnersState::channel_rounds(l, n, self.config.code_len)
            + self.config.verify_repetitions
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// * [`SimError::BudgetExhausted`] — rewinds consumed the round budget
    ///   (`budget_factor ×` the rewind-free cost) before the protocol
    ///   completed;
    /// * [`SimError::UnsupportedNoise`] — invalid noise parameter.
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

    /// [`RewindSimulator::simulate`] with a caller-owned scratch arena:
    /// shared-delivery models run on the collapsed struct-of-arrays
    /// engine (see [`crate::soa`]), whose buffers live in `scratch` so a
    /// worker thread can run many trials allocation-free. Results are
    /// bitwise identical to [`RewindSimulator::simulate`] (which is this
    /// method with a throwaway scratch).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RewindSimulator::simulate`].
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
            return crate::soa::rewind_collapsed_over(
                self.protocol,
                &self.config,
                inputs,
                model,
                &*self.config.build_code(),
                channel,
                scratch,
            );
        }
        self.simulate_over(inputs, model, &mut channel)
    }

    /// Runs one trial per seed, lane-sliced: up to 64 trials share each
    /// channel word, with per-lane noise drawn from each trial's own
    /// seed stream so every result — transcript, statistics, and
    /// `BudgetExhausted` errors alike — is bitwise identical to
    /// [`RewindSimulator::simulate`] with that seed.
    ///
    /// Independent noise (and invalid ε) falls back to the scalar
    /// per-trial loop — per-party deliveries diverge there, so the
    /// collapsed shared decode state the lane engine relies on does not
    /// hold.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != protocol.num_parties()`.
    pub fn simulate_batch(
        &self,
        inputs: &[P::Input],
        model: NoiseModel,
        seeds: &[u64],
    ) -> Vec<Result<SimOutcome<P::Output>, SimError>> {
        if model.validate().is_err() || !model.is_shared() {
            return seeds
                .iter()
                .map(|&seed| self.simulate(inputs, model, seed))
                .collect();
        }
        let code = self.config.build_code();
        crate::lanes::collapsed_lanes(model, seeds, |bits, scratch| {
            crate::soa::rewind_collapsed_over(
                self.protocol,
                &self.config,
                inputs,
                model,
                &*code,
                bits,
                scratch,
            )
        })
    }

    /// Runs the simulation over a caller-supplied channel — the hook for
    /// failure injection (scripted flip schedules) and the A.1.2 reduction
    /// channel. `model` tells the parties which thresholds and decoding
    /// metric to use; the channel is free to behave differently (that is
    /// the point of injecting one).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RewindSimulator::simulate`].
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
        let t = self.protocol.length();
        let resolved = self.config.resolve(model);
        let code = self.config.build_code();

        let mut parties: Vec<RewindParty<'_, P>> = (0..n)
            .map(|i| {
                RewindParty::new(
                    self.protocol,
                    inputs[i].clone(),
                    i,
                    n,
                    &self.config,
                    resolved,
                    Arc::clone(&code),
                    model,
                )
            })
            .collect();
        let chunks_needed = t.div_ceil(self.config.chunk_len).max(1);
        let ideal = chunks_needed * self.rounds_per_iteration();
        let budget = (self.config.budget_factor * ideal as f64).ceil() as usize;
        let corrupted_before = channel.corrupted_rounds();
        let result = drive(&mut parties, channel, budget);

        if !result.all_done {
            return Err(SimError::BudgetExhausted {
                rounds_used: result.rounds,
                committed: parties[0].committed_bits.len().min(t),
            });
        }

        let transcript: Vec<bool> = parties[0].committed_bits[..t].to_vec();
        let agreement = parties
            .iter()
            .all(|p| p.committed_bits[..t] == transcript[..]);
        let outputs = parties
            .iter()
            .map(|p| self.protocol.output(p.me, &p.input, &p.committed_bits[..t]))
            .collect();
        let stats = SimStats {
            channel_rounds: result.rounds,
            phase_rounds: parties[0].phase_rounds,
            protocol_rounds: t,
            chunks_committed: parties[0].chunks_committed,
            rewinds: parties[0].rewinds,
            agreement,
            energy: result.energy,
            corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
        };
        Ok(SimOutcome::new(transcript, outputs, stats))
    }
}

/// Phase of the per-iteration state machine.
enum Phase {
    Chunk(ChunkPhase),
    Owners(OwnersState),
    Verify(VerifyPhase),
    Done,
}

struct ChunkPhase {
    /// Rounds in this (possibly tail) chunk.
    len: usize,
    /// Decoded bits so far.
    bits: Vec<bool>,
    /// What I beeped per chunk round.
    my_bits: Vec<bool>,
    rep: usize,
    ones: usize,
    current: bool,
}

struct VerifyPhase {
    chunk_bits: Vec<bool>,
    chunk_owners: Vec<Option<usize>>,
    my_flag: bool,
    idx: usize,
    ones: usize,
}

/// One party of the rewind protocol.
struct RewindParty<'a, P: Protocol> {
    protocol: &'a P,
    input: P::Input,
    me: usize,
    n: usize,
    chunk_len: usize,
    repetitions: usize,
    verify_repetitions: usize,
    params: ResolvedParams,
    code: SharedCode,
    model: NoiseModel,

    /// Committed simulated transcript (concatenated chunks).
    committed_bits: Vec<bool>,
    /// Owner of each committed round (None for 0-rounds).
    committed_owners: Vec<Option<usize>>,
    /// Length of each committed chunk, for rewinding.
    chunk_lens: Vec<usize>,
    /// `committed_bits` plus the decoded bits of the in-flight chunk,
    /// maintained incrementally so the hot chunk loop never rebuilds the
    /// prefix (the naive version cloned the whole committed transcript
    /// once per simulated round).
    working: Vec<bool>,

    chunks_committed: usize,
    rewinds: usize,
    phase_rounds: PhaseRounds,
    phase: Phase,
}

impl<'a, P: Protocol> RewindParty<'a, P> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        protocol: &'a P,
        input: P::Input,
        me: usize,
        n: usize,
        config: &SimulatorConfig,
        params: ResolvedParams,
        code: SharedCode,
        model: NoiseModel,
    ) -> Self {
        let mut party = Self {
            protocol,
            input,
            me,
            n,
            chunk_len: config.chunk_len,
            repetitions: config.repetitions,
            verify_repetitions: config.verify_repetitions,
            params,
            code,
            model,
            committed_bits: Vec::new(),
            committed_owners: Vec::new(),
            chunk_lens: Vec::new(),
            working: Vec::new(),
            chunks_committed: 0,
            rewinds: 0,
            phase_rounds: PhaseRounds::default(),
            phase: Phase::Done,
        };
        party.phase = party.start_chunk();
        party
    }

    /// Starts simulating the next chunk (or finishes if the protocol is
    /// fully committed).
    fn start_chunk(&self) -> Phase {
        let remaining = self
            .protocol
            .length()
            .saturating_sub(self.committed_bits.len());
        if remaining == 0 {
            return Phase::Done;
        }
        let len = remaining.min(self.chunk_len);
        Phase::Chunk(ChunkPhase {
            len,
            bits: Vec::with_capacity(len),
            my_bits: Vec::with_capacity(len),
            rep: 0,
            ones: 0,
            current: false,
        })
    }

    /// What this party would beep in simulated round `m` of the transcript
    /// prefix `prefix[..m]`.
    fn would_beep(&self, prefix: &[bool], m: usize) -> bool {
        self.protocol.beep(self.me, &self.input, &prefix[..m])
    }

    /// The verification flag over the committed prefix plus the pending
    /// chunk (see the module docs for the three conditions).
    fn compute_flag(&self, chunk_bits: &[bool], chunk_owners: &[Option<usize>]) -> bool {
        // `working` already holds committed prefix + decoded chunk, so the
        // only concatenation left is the owners lookup, done by index.
        debug_assert_eq!(
            self.working.len(),
            self.committed_bits.len() + chunk_bits.len()
        );
        debug_assert_eq!(&self.working[self.committed_bits.len()..], chunk_bits);
        let prefix = &self.working;
        let committed = self.committed_owners.len();
        for m in 0..prefix.len() {
            let b = self.would_beep(prefix, m);
            if !prefix[m] {
                if b {
                    return true; // my 1 is missing from the transcript
                }
            } else {
                let owner = if m < committed {
                    self.committed_owners[m]
                } else {
                    chunk_owners[m - committed]
                };
                match owner {
                    Some(owner) => {
                        if owner == self.me && !b {
                            return true; // I own a 1 I would not beep
                        }
                    }
                    None => return true, // unowned 1: flagged by everyone
                }
            }
        }
        false
    }

    fn finish_verification(&mut self, failed: bool, v: VerifyPhase) {
        if failed {
            self.rewinds += 1;
            // Discard the pending chunk and pop one committed chunk.
            if let Some(len) = self.chunk_lens.pop() {
                let new_len = self.committed_bits.len() - len;
                self.committed_bits.truncate(new_len);
                self.committed_owners.truncate(new_len);
                self.chunks_committed = self.chunks_committed.saturating_sub(1);
            }
        } else {
            self.committed_bits.extend_from_slice(&v.chunk_bits);
            self.committed_owners.extend_from_slice(&v.chunk_owners);
            self.chunk_lens.push(v.chunk_bits.len());
            self.chunks_committed += 1;
        }
        // Re-sync the working buffer with the committed prefix (a no-op on
        // commit, a rewind otherwise).
        self.working.truncate(self.committed_bits.len());
        self.phase = self.start_chunk();
    }
}

impl<P: Protocol> SimParty for RewindParty<'_, P> {
    fn plan(&mut self) -> (u64, usize) {
        match &mut self.phase {
            Phase::Chunk(c) => {
                if c.rep == 0 {
                    // Decide this simulated round's bit against the
                    // committed prefix plus the chunk decoded so far —
                    // which is exactly the working buffer.
                    c.current = self.protocol.beep(self.me, &self.input, &self.working);
                }
                (held(c.current), block_run(c.rep, self.repetitions))
            }
            Phase::Owners(o) => o.plan(),
            Phase::Verify(v) => (held(v.my_flag), block_run(v.idx, self.verify_repetitions)),
            Phase::Done => (0, WORD),
        }
    }

    fn hear_word(&mut self, heard: u64, len: usize) {
        // Attribute the run to the phase it belonged to.
        match &self.phase {
            Phase::Chunk(_) => self.phase_rounds.chunk += len,
            Phase::Owners(_) => self.phase_rounds.owners += len,
            Phase::Verify(_) => self.phase_rounds.verify += len,
            Phase::Done => {}
        }
        // Take the phase out so transitions can borrow `self` freely.
        match std::mem::replace(&mut self.phase, Phase::Done) {
            Phase::Chunk(mut c) => {
                c.ones += ones(heard, len);
                c.rep += len;
                if c.rep == self.repetitions {
                    let bit = c.ones >= self.params.rep_ones;
                    c.bits.push(bit);
                    self.working.push(bit);
                    c.my_bits.push(c.current);
                    c.rep = 0;
                    c.ones = 0;
                }
                if c.bits.len() == c.len {
                    // Chunk simulated; find owners for its 1s.
                    self.phase = Phase::Owners(OwnersState::new(
                        self.me,
                        self.n,
                        c.bits,
                        c.my_bits,
                        Arc::clone(&self.code),
                        metric_for(self.model),
                    ));
                } else {
                    self.phase = Phase::Chunk(c);
                }
            }
            Phase::Owners(mut o) => {
                o.hear_word(heard, len);
                if o.finished() {
                    let chunk_bits = o.pi_bits().to_vec();
                    let chunk_owners = o.owners().to_vec();
                    let my_flag = self.compute_flag(&chunk_bits, &chunk_owners);
                    self.phase = Phase::Verify(VerifyPhase {
                        chunk_bits,
                        chunk_owners,
                        my_flag,
                        idx: 0,
                        ones: 0,
                    });
                } else {
                    self.phase = Phase::Owners(o);
                }
            }
            Phase::Verify(mut v) => {
                v.ones += ones(heard, len);
                v.idx += len;
                if v.idx == self.verify_repetitions {
                    let failed = v.ones >= self.params.verify_ones;
                    self.finish_verification(failed, v);
                } else {
                    self.phase = Phase::Verify(v);
                }
            }
            Phase::Done => {}
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done) && self.committed_bits.len() >= self.protocol.length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeps_channel::run_noiseless;
    use beeps_protocols::{InputSet, LeaderElection, Membership, MultiOr};

    fn simulate_matches<P: Protocol>(
        protocol: &P,
        inputs: &[P::Input],
        model: NoiseModel,
        seeds: std::ops::Range<u64>,
        min_good: usize,
    ) {
        let truth = run_noiseless(protocol, inputs);
        let config = SimulatorConfig::builder(protocol.num_parties())
            .model(model)
            .build();
        let sim = RewindSimulator::new(protocol, config);
        let mut good = 0;
        let total = (seeds.end - seeds.start) as usize;
        for seed in seeds {
            match sim.simulate(inputs, model, seed) {
                Ok(out) if out.transcript() == truth.transcript() => good += 1,
                _ => {}
            }
        }
        assert!(good >= min_good, "only {good}/{total} exact simulations");
    }

    #[test]
    fn noiseless_simulation_is_exact() {
        let p = InputSet::new(4);
        let inputs = [1, 5, 5, 2];
        simulate_matches(&p, &inputs, NoiseModel::Noiseless, 0..3, 3);
    }

    #[test]
    fn correlated_noise_mild() {
        let p = InputSet::new(6);
        let inputs = [0, 3, 11, 11, 7, 2];
        simulate_matches(
            &p,
            &inputs,
            NoiseModel::Correlated { epsilon: 0.1 },
            0..10,
            9,
        );
    }

    #[test]
    fn correlated_noise_paper_rate() {
        // The paper's eps = 1/3: parameters get big, so keep n small.
        let p = InputSet::new(4);
        let inputs = [1, 6, 6, 3];
        simulate_matches(
            &p,
            &inputs,
            NoiseModel::Correlated { epsilon: 1.0 / 3.0 },
            0..5,
            4,
        );
    }

    #[test]
    fn one_sided_up_noise() {
        let p = InputSet::new(6);
        let inputs = [4, 4, 0, 9, 2, 11];
        simulate_matches(
            &p,
            &inputs,
            NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 },
            0..8,
            7,
        );
    }

    #[test]
    fn independent_noise() {
        let p = InputSet::new(5);
        let inputs = [2, 8, 8, 1, 0];
        simulate_matches(
            &p,
            &inputs,
            NoiseModel::Independent { epsilon: 0.1 },
            0..8,
            7,
        );
    }

    #[test]
    fn adaptive_protocols_simulate_correctly() {
        let p = LeaderElection::new(5, 8);
        let inputs = [13, 210, 99, 4, 180];
        simulate_matches(
            &p,
            &inputs,
            NoiseModel::Correlated { epsilon: 0.15 },
            0..6,
            5,
        );
    }

    #[test]
    fn heavily_adaptive_membership_simulates_correctly() {
        let p = Membership::new(4, 16);
        let inputs = [Some(2), None, Some(11), Some(15)];
        simulate_matches(
            &p,
            &inputs,
            NoiseModel::Correlated { epsilon: 0.1 },
            0..5,
            4,
        );
    }

    #[test]
    fn protocol_longer_than_chunking_boundary() {
        // Protocol length not divisible by chunk_len exercises tail chunks.
        let p = MultiOr::new(3, 10);
        let inputs = vec![
            vec![
                true, false, true, false, true, false, false, true, false, true,
            ],
            vec![false; 10],
            vec![
                false, true, false, false, false, false, true, false, false, false,
            ],
        ];
        let mut config = SimulatorConfig::builder(3)
            .model(NoiseModel::Correlated { epsilon: 0.1 })
            .build();
        config.chunk_len = 4; // forces a tail chunk of 2
        let sim = RewindSimulator::new(&p, config);
        let truth = run_noiseless(&p, &inputs);
        let out = sim
            .simulate(&inputs, NoiseModel::Correlated { epsilon: 0.1 }, 3)
            .unwrap();
        assert_eq!(out.transcript(), truth.transcript());
        assert!(out.stats().chunks_committed >= 3);
    }

    #[test]
    fn overhead_is_logarithmic_shape() {
        // Not a proof, but the measured overhead at fixed eps should grow
        // far slower than linearly in n.
        let eps = 0.1;
        let model = NoiseModel::Correlated { epsilon: eps };
        let mut overheads = Vec::new();
        for n in [4usize, 16] {
            let p = InputSet::new(n);
            let inputs: Vec<usize> = (0..n).map(|i| (5 * i + 1) % (2 * n)).collect();
            let sim = RewindSimulator::new(&p, SimulatorConfig::builder(n).model(model).build());
            let out = sim.simulate(&inputs, model, 11).unwrap();
            overheads.push(out.stats().overhead());
        }
        // 4x more parties must cost far less than 4x the overhead.
        assert!(
            overheads[1] < overheads[0] * 3.0,
            "overheads {overheads:?} grew too fast"
        );
    }

    #[test]
    fn stats_report_commits_and_agreement() {
        let p = InputSet::new(4);
        let model = NoiseModel::Correlated { epsilon: 0.1 };
        let sim = RewindSimulator::new(&p, SimulatorConfig::builder(4).model(model).build());
        let out = sim.simulate(&[0, 1, 2, 3], model, 5).unwrap();
        assert!(out.stats().chunks_committed >= 1);
        assert!(out.stats().agreement);
        assert!(out.stats().channel_rounds > 0);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let p = InputSet::new(4);
        let model = NoiseModel::Correlated { epsilon: 0.3 };
        let mut config = SimulatorConfig::builder(4).model(model).build();
        config.budget_factor = 0.1; // guaranteed too small
        let sim = RewindSimulator::new(&p, config);
        let err = sim.simulate(&[0, 1, 2, 3], model, 5).unwrap_err();
        assert!(matches!(err, SimError::BudgetExhausted { .. }));
    }
}
