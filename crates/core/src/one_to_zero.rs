//! Constant-overhead simulation over the `1→0`-only noise model — the
//! asymmetry remark of §2 of the paper, made concrete.
//!
//! When noise can only *erase* beeps, two structural facts hold:
//!
//! 1. **Every error is witnessed instantly.** A corrupted round had true
//!    OR 1, so some party beeped 1 and heard 0 — that party *knows*
//!    (subsection 2.1: "there will be at least one party that is able to
//!    detect the error by itself").
//! 2. **A raised flag can never be lost silently into a false "all
//!    clear"... and a heard flag is never false.** A flag round's true OR
//!    is 1 only if somebody really flagged, and hearing a 1 is conclusive
//!    because noise cannot *create* beeps.
//!
//! The scheme simulates protocol rounds **directly** (one channel round
//! each — no repetition) and interleaves a hierarchy of checkpoints: after
//! every `2^j`-th data slot, a level-`j` check of `base·j` flag rounds in
//! which every party that has witnessed a still-uncorrected error beeps.
//! Hearing a 1 rewinds the committed transcript by `2^j` rounds. The
//! geometric schedule costs `Σ_j base·j / 2^j = O(base)` extra rounds per
//! data round — **independent of n** — while the escalating redundancy
//! drives the probability that an error survives to the end below any
//! polynomial. When the transcript is complete, a final full-strength
//! check (which can never false-alarm) confirms it.
//!
//! Contrast with Theorem 1.1: over `0→1` noise this is impossible — no
//! party can vouch for a heard 1 — and every scheme pays `Ω(log n)`.
//! Experiment E3 plots the two regimes side by side.

use crate::driver::{drive, held, ones, SimParty, WORD};
use crate::outcome::{PhaseRounds, SimError, SimOutcome, SimStats};
use beeps_channel::{NoiseModel, Protocol, StochasticChannel};

/// Constant-overhead simulator for the one-sided `1→0` noise regime.
///
/// # Examples
///
/// ```
/// use beeps_channel::{run_noiseless, NoiseModel};
/// use beeps_core::OneToZeroSimulator;
/// use beeps_protocols::InputSet;
///
/// let protocol = InputSet::new(8);
/// let inputs = [0, 3, 5, 5, 9, 12, 1, 7];
/// let sim = OneToZeroSimulator::new(&protocol, 2, 16.0);
/// let outcome = sim
///     .simulate(&inputs, NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 }, 3)
///     .expect("within budget");
/// assert_eq!(
///     outcome.transcript(),
///     run_noiseless(&protocol, &inputs).transcript()
/// );
/// ```
#[derive(Debug)]
pub struct OneToZeroSimulator<'a, P> {
    protocol: &'a P,
    /// Flag rounds per level: level `j` checks use `base · j` rounds.
    base: usize,
    budget_factor: f64,
}

impl<'a, P: Protocol> OneToZeroSimulator<'a, P> {
    /// Wraps `protocol`. `base` scales every checkpoint's length (2 is a
    /// good default at `ε = 1/3`); `budget_factor` bounds the total rounds
    /// at `budget_factor × T`.
    ///
    /// # Panics
    ///
    /// Panics if `base == 0` or `budget_factor < 2.0`.
    pub fn new(protocol: &'a P, base: usize, budget_factor: f64) -> Self {
        assert!(base > 0, "checkpoint base must be positive");
        assert!(budget_factor >= 2.0, "budget must allow at least 2x rounds");
        Self {
            protocol,
            base,
            budget_factor,
        }
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnsupportedNoise`] — the scheme's guarantees need
    ///   noise that never creates beeps, so only
    ///   [`NoiseModel::OneSidedOneToZero`] and [`NoiseModel::Noiseless`]
    ///   are accepted;
    /// * [`SimError::BudgetExhausted`] — erasure storms outran the budget.
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

    /// [`OneToZeroSimulator::simulate`] with a caller-owned scratch
    /// arena, running on the collapsed struct-of-arrays engine (see
    /// [`crate::soa`]) — bitwise identical to the scalar path. (Both
    /// accepted models deliver shared bits, so there is no scalar
    /// fallback here.)
    ///
    /// # Errors
    ///
    /// Same conditions as [`OneToZeroSimulator::simulate`].
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
        assert_eq!(inputs.len(), n, "need one input per party");
        match model {
            NoiseModel::OneSidedOneToZero { .. } | NoiseModel::Noiseless => {
                crate::soa::one_to_zero_collapsed_over(
                    self.protocol,
                    self.base,
                    self.budget_factor,
                    inputs,
                    StochasticChannel::new(n, model, seed),
                    scratch,
                )
            }
            _ => Err(SimError::UnsupportedNoise {
                reason: "the constant-overhead scheme requires 1->0-only noise",
            }),
        }
    }

    /// Runs one trial per seed, lane-sliced: up to 64 trials share each
    /// channel word, every result bitwise identical to
    /// [`OneToZeroSimulator::simulate`] with that seed (same
    /// transcripts, statistics, and `BudgetExhausted` errors).
    ///
    /// Models the scheme rejects (and invalid ε) fall back to the
    /// per-seed loop so the errors match the scalar path exactly.
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
        let supported = matches!(
            model,
            NoiseModel::OneSidedOneToZero { .. } | NoiseModel::Noiseless
        );
        if model.validate().is_err() || !supported {
            return seeds
                .iter()
                .map(|&seed| self.simulate(inputs, model, seed))
                .collect();
        }
        crate::lanes::collapsed_lanes(model, seeds, |bits, scratch| {
            crate::soa::one_to_zero_collapsed_over(
                self.protocol,
                self.base,
                self.budget_factor,
                inputs,
                bits,
                scratch,
            )
        })
    }

    /// Runs over a caller-supplied channel (failure injection). The
    /// channel must never fabricate beeps — the scheme's detection
    /// guarantees assume it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OneToZeroSimulator::simulate`].
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
        match model {
            NoiseModel::OneSidedOneToZero { .. } | NoiseModel::Noiseless => {}
            _ => {
                return Err(SimError::UnsupportedNoise {
                    reason: "the constant-overhead scheme requires 1->0-only noise",
                })
            }
        }
        if model.validate().is_err() {
            return Err(SimError::UnsupportedNoise {
                reason: "noise parameter outside [0, 1)",
            });
        }

        let t = self.protocol.length();
        // Deepest checkpoint level: rewinds of 2^max_level cover the whole
        // transcript.
        let max_level = (usize::BITS - t.next_power_of_two().leading_zeros()) as usize + 1;
        let mut parties: Vec<ZParty<'_, P>> = (0..n)
            .map(|i| ZParty {
                protocol: self.protocol,
                input: inputs[i].clone(),
                me: i,
                base: self.base,
                max_level,
                final_rounds: self.base * (max_level + 2),
                sigma: Vec::with_capacity(t),
                error_marks: Vec::new(),
                slot: 0,
                rewinds: 0,
                phase_rounds: PhaseRounds::default(),
                mode: Mode::Data {
                    my_bit: false,
                    decided: false,
                },
            })
            .collect();
        let budget = (self.budget_factor * t.max(1) as f64).ceil() as usize
            + self.base * (max_level + 2) * 4;
        let corrupted_before = channel.corrupted_rounds();
        let result = drive(&mut parties, channel, budget);

        if !result.all_done {
            return Err(SimError::BudgetExhausted {
                rounds_used: result.rounds,
                committed: parties[0].sigma.len().min(t),
            });
        }

        let transcript: Vec<bool> = parties[0].sigma[..t].to_vec();
        let agreement = parties.iter().all(|p| p.sigma[..t] == transcript[..]);
        let outputs = parties
            .iter()
            .map(|p| self.protocol.output(p.me, &p.input, &p.sigma[..t]))
            .collect();
        let stats = SimStats {
            channel_rounds: result.rounds,
            phase_rounds: parties[0].phase_rounds,
            protocol_rounds: t,
            chunks_committed: 0,
            rewinds: parties[0].rewinds,
            agreement,
            energy: result.energy,
            corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
        };
        Ok(SimOutcome::new(transcript, outputs, stats))
    }
}

/// What the lock-step schedule is doing right now.
enum Mode {
    /// One data round simulating protocol round `|σ|`.
    Data {
        my_bit: bool,
        decided: bool,
    },
    /// A battery of checks after a slot: levels low to high, then possibly
    /// the final confirmation.
    Check(CheckState),
    Done,
}

struct CheckState {
    /// Remaining levels to run (front first) plus, encoded as level 0, the
    /// final confirmation of length `final_rounds`.
    levels: Vec<usize>,
    level: usize,
    rounds_in_level: usize,
    idx: usize,
    heard_any: bool,
    is_final: bool,
}

struct ZParty<'a, P: Protocol> {
    protocol: &'a P,
    input: P::Input,
    me: usize,
    base: usize,
    max_level: usize,
    final_rounds: usize,
    /// Committed transcript (everyone appends every data round).
    sigma: Vec<bool>,
    /// Positions where I beeped 1 but heard 0, not yet rewound away.
    error_marks: Vec<usize>,
    /// Completed data slots (wall clock), drives the check schedule.
    slot: usize,
    rewinds: usize,
    phase_rounds: PhaseRounds,
    mode: Mode,
}

impl<P: Protocol> ZParty<'_, P> {
    /// Levels scheduled after data slot `s` (1-based): all `j ≥ 1` with
    /// `2^j | s`, i.e. level 1 every other slot, level 2 every fourth, ...
    fn scheduled_levels(&self, s: usize) -> Vec<usize> {
        (1..=self.max_level)
            .take_while(|&j| s.is_multiple_of(1usize << j))
            .collect()
    }

    fn start_check(&mut self, levels: Vec<usize>, is_final: bool) {
        if levels.is_empty() {
            self.after_checks();
            return;
        }
        let level = levels[0];
        let rounds_in_level = if is_final {
            self.final_rounds
        } else {
            self.base * level
        };
        self.mode = Mode::Check(CheckState {
            levels: levels[1..].to_vec(),
            level,
            rounds_in_level,
            idx: 0,
            heard_any: false,
            is_final,
        });
    }

    /// After a slot's checks: either done, run the final confirmation, or
    /// go back to data.
    fn after_checks(&mut self) {
        if self.sigma.len() >= self.protocol.length() {
            self.start_check(vec![self.max_level], true);
        } else {
            self.mode = Mode::Data {
                my_bit: false,
                decided: false,
            };
        }
    }

    fn rewind(&mut self, amount: usize) {
        self.rewinds += 1;
        let new_len = self.sigma.len().saturating_sub(amount);
        self.sigma.truncate(new_len);
        self.error_marks.retain(|&p| p < new_len);
    }
}

impl<P: Protocol> SimParty for ZParty<'_, P> {
    fn plan(&mut self) -> (u64, usize) {
        match &mut self.mode {
            Mode::Data { my_bit, decided } => {
                if !*decided {
                    *my_bit = self.protocol.beep(self.me, &self.input, &self.sigma);
                    *decided = true;
                }
                (u64::from(*my_bit), 1)
            }
            // The level ends once `idx < rounds_in_level` fails.
            Mode::Check(c) => (
                held(!self.error_marks.is_empty()),
                c.rounds_in_level.saturating_sub(c.idx).max(1),
            ),
            Mode::Done => (0, WORD),
        }
    }

    fn hear_word(&mut self, heard: u64, len: usize) {
        match &self.mode {
            Mode::Data { .. } => self.phase_rounds.chunk += len,
            Mode::Check(_) => self.phase_rounds.verify += len,
            Mode::Done => {}
        }
        match std::mem::replace(&mut self.mode, Mode::Done) {
            Mode::Data { my_bit, .. } => {
                let heard = heard & 1 == 1;
                self.sigma.push(heard);
                if my_bit && !heard {
                    // I witnessed an erasure: remember it until a rewind
                    // clears it.
                    self.error_marks.push(self.sigma.len() - 1);
                }
                self.slot += 1;
                let levels = self.scheduled_levels(self.slot);
                if self.sigma.len() >= self.protocol.length() {
                    // Transcript complete: run any scheduled levels, then
                    // the final confirmation (triggered by after_checks).
                    self.start_check(levels, false);
                } else {
                    self.start_check(levels, false);
                }
            }
            Mode::Check(mut c) => {
                c.heard_any |= ones(heard, len) > 0;
                c.idx += len;
                if c.idx < c.rounds_in_level {
                    self.mode = Mode::Check(c);
                    return;
                }
                // Level finished.
                if c.heard_any {
                    // A heard flag is never false under 1->0 noise.
                    self.rewind(1usize << c.level);
                    if c.is_final {
                        // Confirmation failed: back to simulating.
                        self.after_checks();
                        return;
                    }
                }
                if c.is_final && !c.heard_any {
                    self.mode = Mode::Done;
                    return;
                }
                let is_final = c.is_final;
                self.start_check(c.levels, is_final);
            }
            Mode::Done => {
                self.mode = Mode::Done;
            }
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.mode, Mode::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeps_channel::run_noiseless;
    use beeps_protocols::{InputSet, LeaderElection, MultiOr};

    const DOWN: NoiseModel = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };

    #[test]
    fn noiseless_run_is_exact_and_lean() {
        let p = InputSet::new(6);
        let inputs = [0, 2, 4, 6, 8, 10];
        let sim = OneToZeroSimulator::new(&p, 2, 8.0);
        let out = sim.simulate(&inputs, NoiseModel::Noiseless, 0).unwrap();
        let truth = run_noiseless(&p, &inputs);
        assert_eq!(out.transcript(), truth.transcript());
        // Overhead must be a small constant (data + checks + final).
        assert!(
            out.stats().overhead() < 6.0,
            "overhead {}",
            out.stats().overhead()
        );
    }

    #[test]
    fn survives_erasures_exactly() {
        let p = InputSet::new(8);
        let inputs = [0, 3, 5, 5, 9, 12, 1, 7];
        let truth = run_noiseless(&p, &inputs);
        let sim = OneToZeroSimulator::new(&p, 2, 24.0);
        let mut good = 0;
        for seed in 0..20 {
            if let Ok(out) = sim.simulate(&inputs, DOWN, seed) {
                if out.transcript() == truth.transcript() {
                    good += 1;
                }
            }
        }
        assert!(good >= 19, "only {good}/20 exact simulations");
    }

    #[test]
    fn adaptive_protocol_survives_erasures() {
        let p = LeaderElection::new(4, 10);
        let inputs = [512, 300, 1000, 7];
        let truth = run_noiseless(&p, &inputs);
        let sim = OneToZeroSimulator::new(&p, 2, 24.0);
        let mut good = 0;
        for seed in 0..15 {
            if let Ok(out) = sim.simulate(&inputs, DOWN, seed) {
                if out.outputs() == truth.outputs() {
                    good += 1;
                }
            }
        }
        assert!(good >= 14, "only {good}/15 correct elections");
    }

    #[test]
    fn overhead_is_independent_of_n() {
        // The defining property: growing n does not grow the overhead.
        let mut overheads = Vec::new();
        for n in [4usize, 32] {
            let p = InputSet::new(n);
            let inputs: Vec<usize> = (0..n).map(|i| (7 * i) % (2 * n)).collect();
            let sim = OneToZeroSimulator::new(&p, 2, 24.0);
            let out = sim.simulate(&inputs, DOWN, 1).unwrap();
            overheads.push(out.stats().overhead());
        }
        let ratio = overheads[1] / overheads[0];
        assert!(
            ratio < 1.8,
            "overhead grew with n: {overheads:?} (ratio {ratio})"
        );
    }

    #[test]
    fn rejects_two_sided_noise() {
        let p = InputSet::new(2);
        let sim = OneToZeroSimulator::new(&p, 2, 8.0);
        let err = sim
            .simulate(&[0, 1], NoiseModel::Correlated { epsilon: 0.1 }, 0)
            .unwrap_err();
        assert!(matches!(err, SimError::UnsupportedNoise { .. }));
    }

    #[test]
    fn long_protocols_still_converge() {
        let p = MultiOr::new(3, 200);
        let inputs: Vec<Vec<bool>> = (0..3)
            .map(|i| (0..200).map(|m| (m + i) % 5 == 0).collect())
            .collect();
        let truth = run_noiseless(&p, &inputs);
        let sim = OneToZeroSimulator::new(&p, 2, 24.0);
        let out = sim.simulate(&inputs, DOWN, 9).unwrap();
        assert_eq!(out.transcript(), truth.transcript());
    }
}
