//! Internal round loop for simulator parties with termination detection.
//!
//! The loop steps a channel word at a time. Each step asks every party
//! for its [`SimParty::plan`]: its beeps over the *run* of rounds before
//! its state next changes — the rest of a repetition block, an owners
//! codeword limb or a verification vote. The step then sends
//! `len = min(every run, 64, budget left)` rounds through one
//! [`Channel::transmit_word`] and hands each party its heard word.
//!
//! **The run rule.** A run ends exactly where the per-round machine
//! would next change state, and `hear_word` keeps that machine's own
//! transition test — `rep == repetitions` or `idx == verify_repetitions`
//! (never `>=`) in the repetition blocks and rewind-family votes,
//! `idx < total` in the owned-rounds vote and the one-to-zero checks —
//! so stepping by words changes no transcript, stat or error. Under an
//! `==` test a zero-length block can never end: its counter has already
//! passed 0 when it is first tested, so the machine stays in the phase
//! until the budget runs out, and its run is unbounded ([`WORD`]
//! rounds). Under a `<` test a zero-length block ends after one round.
//! No run is 0, which would make the loop spin.

use beeps_channel::Channel;

/// The most rounds one step delivers, and the run of a party whose
/// state cannot change (done, or in a block that never ends).
pub(crate) const WORD: usize = 64;

/// A simulator party: a [`beeps_channel::Party`]-shaped state machine,
/// stepped a run of rounds at a time, that additionally knows when it
/// has finished.
pub(crate) trait SimParty {
    /// The party's next run of already-decided beeps: bit `k` of the
    /// word is its beep `k` rounds from now, for `1 ≤ run` rounds (the
    /// driver reads at most [`WORD`] of them). Bits past the run are
    /// ignored.
    fn plan(&mut self) -> (u64, usize);

    /// Takes in `len` heard rounds (bit `k` = round `k`, zero at and
    /// above `len`), where `len` is at most the run of the last
    /// [`SimParty::plan`].
    fn hear_word(&mut self, heard: u64, len: usize);

    fn is_done(&self) -> bool;
}

/// The run of a block of `total` rounds of which `done` have gone by,
/// for a machine that ends the block when `done == total`: the rounds
/// left, or [`WORD`] when the test can no longer fire.
pub(crate) fn block_run(done: usize, total: usize) -> usize {
    if done < total {
        total - done
    } else {
        WORD
    }
}

/// A beep held for a whole run: all ones or all zeros.
pub(crate) fn held(beep: bool) -> u64 {
    if beep {
        u64::MAX
    } else {
        0
    }
}

/// The low `len` bits of a word, `1 ≤ len ≤ WORD`: the rounds a step
/// delivers.
fn live(len: usize) -> u64 {
    u64::MAX >> (WORD - len)
}

/// Heard ones among the `len` rounds of a heard word.
pub(crate) fn ones(heard: u64, len: usize) -> usize {
    (heard & live(len)).count_ones() as usize
}

/// Result of driving parties to completion (or budget exhaustion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DriveResult {
    pub rounds: usize,
    pub energy: usize,
    pub all_done: bool,
}

/// Runs the parties over the channel until every party reports done or the
/// round budget runs out. Done parties keep being polled (they idle with
/// silent beeps) so the lockstep round structure is preserved when parties
/// finish at different times under independent noise.
pub(crate) fn drive<P: SimParty>(
    parties: &mut [P],
    channel: &mut dyn Channel,
    budget: usize,
) -> DriveResult {
    assert!(!parties.is_empty(), "need at least one party");
    assert_eq!(
        parties.len(),
        channel.num_parties(),
        "channel sized for wrong number of parties"
    );
    let mut beeps = vec![0u64; parties.len()];
    let mut heard = vec![0u64; parties.len()];
    let mut rounds = 0usize;
    let mut energy = 0usize;
    while rounds < budget && parties.iter().any(|p| !p.is_done()) {
        let mut len = WORD.min(budget - rounds);
        for (party, word) in parties.iter_mut().zip(beeps.iter_mut()) {
            let (planned, run) = party.plan();
            debug_assert!(run > 0, "a zero-length run would never advance");
            *word = planned;
            len = len.min(run);
        }
        let mut sent = 0u64;
        for &word in &beeps {
            let word = word & live(len);
            energy += word.count_ones() as usize;
            sent |= word;
        }
        channel.transmit_word(sent, len, &mut heard);
        for (party, &word) in parties.iter_mut().zip(&heard) {
            party.hear_word(word, len);
        }
        rounds += len;
    }
    DriveResult {
        rounds,
        energy,
        all_done: parties.iter().all(|p| p.is_done()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeps_channel::{NoiseModel, StochasticChannel};

    struct CountDown {
        left: usize,
    }

    impl SimParty for CountDown {
        fn plan(&mut self) -> (u64, usize) {
            (held(self.left > 0), block_run(0, self.left))
        }

        fn hear_word(&mut self, _heard: u64, len: usize) {
            self.left = self.left.saturating_sub(len);
        }

        fn is_done(&self) -> bool {
            self.left == 0
        }
    }

    #[test]
    fn stops_when_all_done() {
        let mut parties = vec![CountDown { left: 3 }, CountDown { left: 5 }];
        let mut ch = StochasticChannel::new(2, NoiseModel::Noiseless, 0);
        let result = drive(&mut parties, &mut ch, 100);
        assert_eq!(result.rounds, 5);
        assert!(result.all_done);
        // Energy: party 0 beeps 3 rounds, party 1 beeps 5.
        assert_eq!(result.energy, 8);
    }

    #[test]
    fn respects_budget() {
        let mut parties = vec![CountDown { left: 50 }];
        let mut ch = StochasticChannel::new(1, NoiseModel::Noiseless, 0);
        let result = drive(&mut parties, &mut ch, 10);
        assert_eq!(result.rounds, 10);
        assert!(!result.all_done);
    }

    #[test]
    fn long_runs_step_a_word_at_a_time() {
        // 150 rounds: two full words and a 22-round tail, all beeped.
        let mut parties = vec![CountDown { left: 150 }, CountDown { left: 0 }];
        let mut ch = StochasticChannel::new(2, NoiseModel::Noiseless, 0);
        let result = drive(&mut parties, &mut ch, 1_000);
        assert_eq!(result.rounds, 150);
        assert_eq!(ch.rounds(), 150);
        assert_eq!(result.energy, 150);
        assert!(result.all_done);
    }
}
