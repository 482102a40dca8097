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

use crate::driver::{run_parties, seats, Block, Seat, SimParty, WORD};
use crate::outcome::{SimError, SimOutcome};
use crate::owners::{channel_rounds, OwnersState, SharedCode};
use crate::params::{ResolvedParams, SimulatorConfig};
use crate::simulator::Scheme;
use crate::soa::{self, SoaScratch};
use beeps_channel::{Channel, NoiseModel, Protocol, StochasticChannel};
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
}

impl<P: Protocol> Scheme for RewindSimulator<'_, P> {
    type Protocol = P;

    fn name(&self) -> &'static str {
        "rewind"
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
        let code = self.config.build_code();
        soa::rewind_collapsed_over(
            self.protocol,
            &self.config,
            inputs,
            model,
            &code,
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
        let n = self.protocol.num_parties();
        let run = PartyRun::new(&self.config, model, n);
        let parties = seats(self.protocol, inputs).map(|seat| RewindParty::new(&run, seat));
        let budget = budget(&self.config, n, self.protocol.length());
        run_parties(
            "sim.rewind.per_party",
            parties.collect(),
            |p| &p.seat,
            channel,
            budget,
        )
    }
}

/// Channel rounds of one full-length rewind iteration: the chunk, its
/// owners phase and one vote.
fn iteration_rounds(config: &SimulatorConfig, n: usize) -> usize {
    let l = config.chunk_len;
    l * config.repetitions + channel_rounds(l, n, config.code_len) + config.verify_repetitions
}

/// The rewind scheme's round budget, in both engines: `budget_factor ×`
/// the rewind-free cost of a `t`-round protocol at `n` parties.
pub(crate) fn budget(config: &SimulatorConfig, n: usize, t: usize) -> usize {
    let ideal = config.chunks_needed(t) * iteration_rounds(config, n);
    (config.budget_factor * ideal as f64).ceil() as usize
}

/// What every party of a rewind or hierarchical per-party run reads and
/// never changes.
pub(crate) struct PartyRun<'a> {
    pub(crate) config: &'a SimulatorConfig,
    pub(crate) params: ResolvedParams,
    code: SharedCode,
    n: usize,
}

impl<'a> PartyRun<'a> {
    pub(crate) fn new(config: &'a SimulatorConfig, model: NoiseModel, n: usize) -> Self {
        Self {
            config,
            params: config.resolve(model),
            code: config.build_code(),
            n,
        }
    }
}

/// The chunk phase of an Algorithm 1 iteration at one party: `len`
/// simulated rounds, each a repetition block whose decoded bit extends
/// the working prefix.
pub(crate) struct ChunkPhase {
    len: usize,
    /// What this party beeped in each chunk round so far.
    my_bits: Vec<bool>,
    block: Block,
}

impl ChunkPhase {
    /// The chunk after `seat`'s committed prefix, or `None` once the
    /// protocol is fully committed.
    pub(crate) fn next<P: Protocol>(seat: &Seat<'_, P>, chunk_len: usize) -> Option<Self> {
        let len = seat.prefix.next_chunk(seat.protocol.length(), chunk_len)?;
        Some(Self {
            len,
            my_bits: Vec::with_capacity(len),
            block: Block::default(),
        })
    }

    pub(crate) fn plan<P: Protocol>(
        &mut self,
        seat: &Seat<'_, P>,
        repetitions: usize,
    ) -> (u64, usize) {
        self.block.plan(repetitions, || seat.beep())
    }

    /// Takes in `len` heard rounds; once the chunk's last round is
    /// decoded, returns the owners phase that finds owners for its 1s.
    pub(crate) fn hear<P: Protocol>(
        &mut self,
        seat: &mut Seat<'_, P>,
        scheme: &PartyRun<'_>,
        heard: u64,
        len: usize,
    ) -> Option<Box<OwnersState>> {
        seat.phase_rounds.chunk += len;
        if let Some(ones) = self.block.hear(heard, len, scheme.config.repetitions) {
            seat.prefix.working.push(ones >= scheme.params.rep_ones);
            self.my_bits.push(self.block.beep);
        }
        (self.my_bits.len() == self.len).then(|| {
            Box::new(OwnersState::new(
                seat.me,
                scheme.n,
                seat.prefix.working[seat.prefix.bits.len()..].to_vec(),
                std::mem::take(&mut self.my_bits),
                Arc::clone(&scheme.code),
                scheme.params.metric,
            ))
        })
    }
}

impl<P: Protocol> Seat<'_, P> {
    /// Whether this party flags the first `len` rounds of its working
    /// prefix, whose owners are its committed owners followed by
    /// `pending` (see the module docs for the three conditions).
    pub(crate) fn flags(&self, len: usize, pending: &[Option<usize>]) -> bool {
        let prefix = &self.prefix.working[..len];
        let owners = self.prefix.owners.iter().chain(pending);
        prefix
            .iter()
            .zip(owners)
            .enumerate()
            .any(|(m, (&bit, &owner))| {
                let beeps = || self.protocol.beep(self.me, &self.input, &prefix[..m]);
                if bit {
                    // An unowned 1 is flagged by everyone; an owned one by an
                    // owner that would not beep it.
                    owner.is_none_or(|o| o == self.me && !beeps())
                } else {
                    beeps() // my 1 is missing from the transcript
                }
            })
    }
}

/// Phase of the per-iteration state machine.
enum Phase {
    Chunk(ChunkPhase),
    Owners(Box<OwnersState>),
    Verify(Vote),
    Done,
}

/// A verification vote: the pending chunk's owners and the vote's block.
struct Vote {
    owners: Vec<Option<usize>>,
    block: Block,
}

/// One party of the rewind protocol.
struct RewindParty<'a, P: Protocol> {
    scheme: &'a PartyRun<'a>,
    seat: Seat<'a, P>,
    phase: Phase,
}

impl<'a, P: Protocol> RewindParty<'a, P> {
    fn new(scheme: &'a PartyRun<'a>, seat: Seat<'a, P>) -> Self {
        let phase = Self::start_chunk(scheme, &seat);
        Self {
            scheme,
            seat,
            phase,
        }
    }

    /// Starts simulating the next chunk (or finishes if the protocol is
    /// fully committed).
    fn start_chunk(scheme: &PartyRun<'_>, seat: &Seat<'_, P>) -> Phase {
        ChunkPhase::next(seat, scheme.config.chunk_len).map_or(Phase::Done, Phase::Chunk)
    }
}

impl<P: Protocol> SimParty for RewindParty<'_, P> {
    fn plan(&mut self) -> (u64, usize) {
        let seat = &self.seat;
        let config = self.scheme.config;
        match &mut self.phase {
            Phase::Chunk(c) => c.plan(seat, config.repetitions),
            Phase::Owners(o) => o.plan(),
            // The flag covers the committed prefix plus the pending chunk.
            Phase::Verify(v) => v.block.plan(config.verify_repetitions, || {
                seat.flags(seat.prefix.working.len(), &v.owners)
            }),
            Phase::Done => (0, WORD),
        }
    }

    fn hear_word(&mut self, heard: u64, sent: u64, len: usize) {
        // Step the in-flight phase in place, attributing the run to it;
        // the phase moves only when it ends.
        let seat = &mut self.seat;
        match &mut self.phase {
            Phase::Chunk(c) => {
                if let Some(owners) = c.hear(seat, self.scheme, heard, len) {
                    self.phase = Phase::Owners(owners);
                }
            }
            Phase::Owners(o) => {
                seat.phase_rounds.owners += len;
                o.hear_word(heard, sent, len);
                if o.finished() {
                    self.phase = Phase::Verify(Vote {
                        owners: o.owners().to_vec(),
                        block: Block::default(),
                    });
                }
            }
            Phase::Verify(v) => {
                seat.phase_rounds.verify += len;
                let verify = self.scheme.config.verify_repetitions;
                let Some(ones) = v.block.hear(heard, len, verify) else {
                    return;
                };
                if ones >= self.scheme.params.verify_ones {
                    // Discard the pending chunk and pop one committed chunk.
                    seat.rewinds += 1;
                    seat.prefix
                        .truncate_to(seat.prefix.chunk_lens.len().saturating_sub(1));
                } else {
                    seat.prefix.commit(&v.owners);
                }
                self.phase = Self::start_chunk(self.scheme, seat);
            }
            Phase::Done => {}
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
            && self.seat.prefix.bits.len() >= self.seat.protocol.length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
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
