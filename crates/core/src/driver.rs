//! Internal round loop for simulator parties with termination detection.
//!
//! The loop steps a channel word at a time. Each step asks every party
//! for its [`SimParty::plan`]: its beeps over the *run* of rounds before
//! its state next changes — the rest of a repetition block, an owners
//! codeword limb or a verification vote. The step then sends
//! `len = min(every run, 64, budget left)` rounds through one
//! [`Channel::transmit_word`] and hands each party its heard word,
//! together with the true OR word the channel was given. That word is a
//! certificate hint for the owners decode (see
//! [`beeps_ecc::CodeTable::decode_near`]); no party's state depends on
//! it.
//!
//! **The run rule.** A run ends exactly where the per-round machine
//! would next change state, and `hear_word` keeps that machine's own
//! transition test — `rep == repetitions` (never `>=`) in the repetition
//! blocks and rewind-family votes, all of them a [`Block`], and
//! `idx < total` in the owned-rounds vote and the one-to-zero checks —
//! so stepping by words changes no transcript, stat or error. Under an
//! `==` test a zero-length block can never end: its counter has already
//! passed 0 when it is first tested, so the machine stays in the phase
//! until the budget runs out, and its run is unbounded ([`WORD`]
//! rounds). Under a `<` test a zero-length block ends after one round.
//! No run is 0, which would make the loop spin.
//!
//! The parts every per-party machine shares live here too: its [`Seat`]
//! (index, input, committed [`Prefix`] and stats), and [`run_parties`],
//! which drives a scheme's machines and reads the outcome off their
//! seats.

use crate::outcome::{PhaseRounds, SimError, SimOutcome, SimStats};
use beeps_channel::{Channel, Protocol};

/// The most rounds one step delivers, and the run of a party whose
/// state cannot change (done, or in a block that never ends).
pub(crate) const WORD: usize = 64;

/// A simulator party: a state machine that decides its beeps, hears the
/// channel's output, and knows when it has finished, stepped a run of
/// rounds at a time.
pub(crate) trait SimParty {
    /// The party's next run of already-decided beeps: bit `k` of the
    /// word is its beep `k` rounds from now, for `1 ≤ run` rounds (the
    /// driver reads at most [`WORD`] of them). Bits past the run are
    /// ignored.
    fn plan(&mut self) -> (u64, usize);

    /// Takes in `len` heard rounds (bit `k` = round `k`, zero at and
    /// above `len`), where `len` is at most the run of the last
    /// [`SimParty::plan`]. `sent` is the true OR of every party's beeps
    /// over the same rounds, laid out alike: a hint that lets an owners
    /// decode skip its scan. The party's state must stay a function of
    /// `heard` alone, so that a per-party machine still models a party
    /// that hears only the channel.
    fn hear_word(&mut self, heard: u64, sent: u64, len: usize);

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
pub(crate) fn live(len: usize) -> u64 {
    u64::MAX >> (WORD - len)
}

/// Heard ones among the `len` rounds of a heard word.
pub(crate) fn ones(heard: u64, len: usize) -> usize {
    (heard & live(len)).count_ones() as usize
}

/// A repetition block: one beep held for every round of the block and
/// decoded by the ones heard over it. The chunk rounds of every
/// per-party machine and the votes of the rewind and hierarchical
/// machines are blocks.
#[derive(Debug, Default)]
pub(crate) struct Block {
    rep: usize,
    ones: usize,
    /// The held beep, decided at the block's first round.
    pub(crate) beep: bool,
}

impl Block {
    /// The rest of a block of `repetitions` rounds, whose beep `decide`
    /// picks at the block's first round.
    pub(crate) fn plan(
        &mut self,
        repetitions: usize,
        decide: impl FnOnce() -> bool,
    ) -> (u64, usize) {
        if self.rep == 0 {
            self.beep = decide();
        }
        (held(self.beep), block_run(self.rep, repetitions))
    }

    /// Takes in `len` heard rounds of a block of `repetitions` rounds.
    /// When the block ends, returns the ones heard over it and starts the
    /// next block.
    pub(crate) fn hear(&mut self, heard: u64, len: usize, repetitions: usize) -> Option<usize> {
        self.ones += ones(heard, len);
        self.rep += len;
        if self.rep == repetitions {
            self.rep = 0;
            return Some(std::mem::take(&mut self.ones));
        }
        None
    }
}

/// A committed prefix: the committed transcript, the owner of each
/// committed round and the length of each committed chunk, plus
/// `working`, the committed transcript followed by the decoded bits of
/// the pending chunk. Every per-party machine keeps one, and each
/// collapsed engine keeps one shared copy.
#[derive(Debug, Default)]
pub(crate) struct Prefix {
    pub(crate) bits: Vec<bool>,
    /// Owners of the committed rounds (empty for owned rounds, whose
    /// schedule names them).
    pub(crate) owners: Vec<Option<usize>>,
    pub(crate) chunk_lens: Vec<usize>,
    pub(crate) working: Vec<bool>,
}

impl Prefix {
    pub(crate) fn clear(&mut self) {
        self.bits.clear();
        self.owners.clear();
        self.chunk_lens.clear();
        self.working.clear();
    }

    /// The length of the next chunk of a `t`-round protocol cut into
    /// chunks of `chunk_len`, or `None` once all `t` rounds are committed.
    pub(crate) fn next_chunk(&self, t: usize, chunk_len: usize) -> Option<usize> {
        let remaining = t.saturating_sub(self.bits.len());
        (remaining > 0).then(|| remaining.min(chunk_len))
    }

    /// Committed rounds in the first `boundary` committed chunks.
    pub(crate) fn rounds_in(&self, boundary: usize) -> usize {
        self.chunk_lens[..boundary].iter().sum()
    }

    /// Commits the pending chunk (the tail of `working`) with the owners
    /// of its rounds.
    pub(crate) fn commit(&mut self, owners: &[Option<usize>]) {
        let pending = &self.working[self.bits.len()..];
        self.chunk_lens.push(pending.len());
        self.bits.extend_from_slice(pending);
        self.owners.extend_from_slice(owners);
    }

    /// Keeps the first `boundary` committed chunks and drops the pending
    /// chunk. Returns whether a committed chunk was cut. A rewind's pop is
    /// `truncate_to(len − 1)`.
    pub(crate) fn truncate_to(&mut self, boundary: usize) -> bool {
        let cut = boundary < self.chunk_lens.len();
        if cut {
            let keep = self.rounds_in(boundary);
            self.bits.truncate(keep);
            self.owners.truncate(keep);
            self.chunk_lens.truncate(boundary);
        }
        self.working.truncate(self.bits.len());
        cut
    }
}

/// One party of a per-party run: its index and input, its committed
/// prefix, and the stats it keeps for the [`outcome`].
pub(crate) struct Seat<'a, P: Protocol> {
    pub(crate) protocol: &'a P,
    pub(crate) me: usize,
    pub(crate) input: P::Input,
    pub(crate) prefix: Prefix,
    pub(crate) phase_rounds: PhaseRounds,
    pub(crate) rewinds: usize,
}

impl<'a, P: Protocol> Seat<'a, P> {
    pub(crate) fn new(protocol: &'a P, me: usize, input: P::Input) -> Self {
        Self {
            protocol,
            me,
            input,
            prefix: Prefix::default(),
            phase_rounds: PhaseRounds::default(),
            rewinds: 0,
        }
    }

    /// This party's beep in the next simulated round of its working
    /// prefix.
    pub(crate) fn beep(&self) -> bool {
        self.protocol
            .beep(self.me, &self.input, &self.prefix.working)
    }
}

/// Result of driving parties to completion (or budget exhaustion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DriveResult {
    pub rounds: usize,
    pub energy: usize,
    pub all_done: bool,
    /// Rounds the channel corrupted while driven.
    pub corrupted: usize,
}

/// One seat per input, in party order.
pub(crate) fn seats<'a, P: Protocol>(
    protocol: &'a P,
    inputs: &'a [P::Input],
) -> impl Iterator<Item = Seat<'a, P>> {
    let seat = move |(i, input): (usize, &P::Input)| Seat::new(protocol, i, input.clone());
    inputs.iter().enumerate().map(seat)
}

/// A per-party run, the one tail of every scheme's per-party engine:
/// drives `parties` over `channel` under the phase span `span` (the
/// scheme's `sim.<scheme>.per_party`) for at most `budget` rounds, then
/// reads the outcome off their seats. A run whose parties all finished
/// returns the first party's committed transcript and stats, every
/// party's output on its own transcript, and whether all transcripts
/// agree; a finished party has committed exactly the protocol's rounds.
/// Any other run returns its `BudgetExhausted`: the rounds driven and
/// the rounds the first party committed.
pub(crate) fn run_parties<'a, P: Protocol + 'a, S: SimParty>(
    span: &'static str,
    mut parties: Vec<S>,
    seat: fn(&S) -> &Seat<'a, P>,
    channel: &mut dyn Channel,
    budget: usize,
) -> Result<SimOutcome<P::Output>, SimError> {
    let result = {
        let _span = beeps_observe::phase(span);
        drive(&mut parties, channel, budget)
    };
    let first = seat(&parties[0]);
    if !result.all_done {
        return Err(SimError::BudgetExhausted {
            rounds_used: result.rounds,
            committed: first.prefix.bits.len().min(first.protocol.length()),
        });
    }
    let transcript = first.prefix.bits.clone();
    let seats = parties.iter().map(seat);
    let agreement = seats.clone().all(|s| s.prefix.bits == transcript);
    let outputs = seats
        .map(|s| s.protocol.output(s.me, &s.input, &s.prefix.bits))
        .collect();
    let stats = SimStats {
        channel_rounds: result.rounds,
        phase_rounds: first.phase_rounds,
        protocol_rounds: first.protocol.length(),
        chunks_committed: first.prefix.chunk_lens.len(),
        rewinds: first.rewinds,
        agreement,
        energy: result.energy,
        corrupted_rounds: result.corrupted,
    };
    Ok(SimOutcome::new(transcript, outputs, stats))
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
    let corrupted_before = channel.corrupted_rounds();
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
            party.hear_word(word, sent, len);
        }
        rounds += len;
    }
    DriveResult {
        rounds,
        energy,
        all_done: parties.iter().all(|p| p.is_done()),
        corrupted: channel.corrupted_rounds() - corrupted_before,
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

        fn hear_word(&mut self, _heard: u64, _sent: u64, len: usize) {
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
