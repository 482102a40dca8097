//! Bit-sliced 64-lane noise sampling and execution.
//!
//! One `u64` word carries one round of up to [`LANES`] *independent
//! trials*: lane `l` (bit `l`) is trial `l` of a batch. Because the
//! channel output is an OR of beep bits plus noise flips — pure bitwise
//! structure — a single word OR/XOR executes one round of 64 trials at
//! once. This module provides the channel side of that layout:
//!
//! * [`LaneChannel`] — per-lane shared-noise sampling. Each lane owns
//!   its own geometric skip-sampler seeded from that trial's splitmix
//!   seed, reproducing the *exact* RNG draw sequence of a scalar
//!   [`StochasticChannel`](crate::StochasticChannel) built from the
//!   same seed. Lane-sliced execution is therefore bitwise identical
//!   to 64 scalar executions (pinned by the equivalence tests below
//!   and by `tests/packed_equivalence.rs` in `beeps-core`).
//! * [`LaneParty`] / [`LaneExecutor`] — the word-level analogue of
//!   [`Party`](crate::Party) / [`Executor`](crate::Executor): parties
//!   beep and hear whole words, one bit per trial-lane.
//! * [`IndependentLaneChannel`] — the independent-noise counterpart.
//!   Per-party divergent deliveries break the one-bit-per-trial
//!   shared collapse, so each lane instead runs the scalar channel's
//!   flip-calendar skip sampler and scatters its per-round flip
//!   buckets into **per-party flip words** (bit `l` of party `p`'s
//!   word = lane `l` flipped `p` this round). A party's heard word is
//!   then one XOR, and constant-OR spans skip-sample directly into
//!   per-lane flip lists ([`IndependentLaneChannel::span_flips`]) so
//!   batch work scales with `εn` flips, not `rounds × n` deliveries.
//!
//! # Seed discipline
//!
//! Every lane must draw all of its randomness from the per-trial
//! splitmix seed stream handed to [`LaneChannel::shared`] or
//! [`IndependentLaneChannel::new`]; seeding an RNG anywhere else in
//! lane-sliced code silently decouples lanes from their scalar twins.
//! The `lane-seed-discipline` beeps-lint rule enforces this: the two
//! constructors below are the only sanctioned seeding sites.

use crate::channel::{IndependentSampler, SharedCountdown};
use crate::noise::NoiseModel;
use rand::{rngs::StdRng, SeedableRng};

/// Trial-lanes per transcript word.
pub const LANES: usize = 64;

/// A shared-noise channel carrying up to [`LANES`] independent trials,
/// one bit-lane each.
///
/// Construct with [`LaneChannel::shared`]; advance either one round at
/// a time across all lanes ([`LaneChannel::transmit_word`]), one round
/// on one lane ([`LaneChannel::step`]), a whole constant-OR span on
/// one lane ([`LaneChannel::flips_in_span`]), or up to 64 rounds of
/// one lane at once ([`LaneChannel::transmit_rounds`]). Each lane runs
/// the scalar channel's own shared-noise countdown, so all four
/// consume each lane's RNG in exactly the order the scalar channel
/// would.
#[derive(Debug)]
pub struct LaneChannel {
    model: NoiseModel,
    lanes: Vec<SharedCountdown>,
}

impl LaneChannel {
    /// Creates a lane channel for `seeds.len()` trials under a *shared*
    /// noise model, lane `l` seeded with `seeds[l]` exactly as
    /// `StochasticChannel::new(n, model, seeds[l])` would seed its
    /// sampler.
    ///
    /// Returns `None` for [`NoiseModel::Independent`] (per-party
    /// deliveries do not bit-slice) and for models whose ε fails
    /// validation — callers fall back to the scalar per-trial path,
    /// which reports the failure per trial.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or holds more than [`LANES`] seeds.
    #[must_use]
    pub fn shared(model: NoiseModel, seeds: &[u64]) -> Option<Self> {
        assert!(
            !seeds.is_empty() && seeds.len() <= LANES,
            "need 1..={LANES} lane seeds, got {}",
            seeds.len()
        );
        if matches!(model, NoiseModel::Independent { .. }) || model.validate().is_err() {
            return None;
        }
        let lanes = seeds
            .iter()
            .map(|&seed| {
                // The one sanctioned lane seeding site: each lane replays
                // the scalar channel's construction for its trial seed.
                // beeps-lint: allow(lane-seed-discipline) -- lanes are seeded here, and only here, from the per-trial splitmix seeds
                let rng = StdRng::seed_from_u64(seed);
                SharedCountdown::new(model, rng)
            })
            .collect();
        Some(Self { model, lanes })
    }

    /// Number of active trial-lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The noise model applied to every lane.
    #[must_use]
    pub fn model(&self) -> NoiseModel {
        self.model
    }

    /// Corrupted (flipped) rounds delivered on `lane` so far.
    #[must_use]
    pub fn corrupted(&self, lane: usize) -> u64 {
        self.lanes[lane].flips()
    }

    /// Delivers one round on one lane: returns the bit the lane's
    /// parties hear (`true_or ^ flip`).
    pub fn step(&mut self, lane: usize, true_or: bool) -> bool {
        self.lanes[lane].step(true_or)
    }

    /// Delivers `rounds` consecutive rounds with constant true OR
    /// `true_or` on one lane, returning the number of flipped rounds.
    ///
    /// Consumes the lane's RNG in exactly the per-round order: the
    /// geometric countdown decrements once per eligible round and
    /// redraws on each flip, so interleaving spans with [`step`] calls
    /// stays bitwise faithful to the scalar channel.
    ///
    /// [`step`]: LaneChannel::step
    pub fn flips_in_span(&mut self, lane: usize, rounds: u64, true_or: bool) -> u64 {
        self.lanes[lane].flips_in_span(rounds, true_or)
    }

    /// Delivers `len ≤ 64` consecutive rounds on one lane: bit `k` of
    /// `sent` is the true OR of round `k`, bit `k` of the result is
    /// what the lane's parties hear. The per-lane twin of
    /// [`StochasticChannel::transmit_rounds`](crate::StochasticChannel::transmit_rounds),
    /// with the same draws and the same zeroed bits at and above `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn transmit_rounds(&mut self, lane: usize, sent: u64, len: usize) -> u64 {
        self.lanes[lane].transmit_rounds(sent, len)
    }

    /// Delivers one round across all lanes: bit `l` of `or_word` is
    /// lane `l`'s true OR, bit `l` of the result is what lane `l`'s
    /// parties hear. Bits at or above [`LaneChannel::lanes`] must be
    /// zero and are delivered as zero.
    pub fn transmit_word(&mut self, or_word: u64) -> u64 {
        let mut heard = 0u64;
        for (lane, countdown) in self.lanes.iter_mut().enumerate() {
            let true_or = or_word >> lane & 1 == 1;
            if countdown.step(true_or) {
                heard |= 1u64 << lane;
            }
        }
        heard
    }
}

/// Per-lane independent-noise state: the same `{rng, skip sampler}`
/// pair a scalar [`StochasticChannel`](crate::StochasticChannel)'s
/// independent sampler carries, advanced in the same draw order.
#[derive(Debug)]
struct IndependentLaneNoise {
    rng: StdRng,
    skipper: IndependentSampler,
}

/// An independent-noise channel carrying up to [`LANES`] trials, one
/// bit-lane each, with **per-party** delivery words.
///
/// Lane `l` replays the flip-calendar skip sampler of
/// `StochasticChannel::new(n, model, seeds[l])` draw for draw, so every
/// lane's flip schedule — and therefore every per-party heard bit — is
/// bitwise identical to that trial's scalar execution. Advance either
/// one round across all lanes ([`IndependentLaneChannel::transmit_word`]
/// then [`IndependentLaneChannel::hear_word`] per party) or a whole
/// constant-OR span on one lane ([`IndependentLaneChannel::span_flips`]),
/// which skips straight from flip to flip and reports per-party flip
/// counts instead of materialising `rounds × n` deliveries.
#[derive(Debug)]
pub struct IndependentLaneChannel {
    n: usize,
    lanes: Vec<IndependentLaneNoise>,
    corrupted: Vec<u64>,
    /// Per-party flip words for the round most recently transmitted:
    /// bit `l` set means lane `l` flipped that party's delivery.
    flip_words: Vec<u64>,
    /// Parties with a non-zero flip word this round, so clearing costs
    /// O(flips) instead of O(n).
    touched: Vec<u32>,
    /// Per-party flip counts scratch for [`IndependentLaneChannel::span_flips`].
    span_counts: Vec<u32>,
    /// Parties flipped at least once in the current span (unsorted
    /// while accumulating).
    span_touched: Vec<u32>,
    /// `(party, flips)` output buffer of the last `span_flips` call,
    /// ascending by party.
    span_flips: Vec<(u32, u32)>,
}

impl IndependentLaneChannel {
    /// Creates an independent-noise lane channel for `n` parties and
    /// `seeds.len()` trials, lane `l` seeded with `seeds[l]` exactly as
    /// `StochasticChannel::new(n, model, seeds[l])` would seed its
    /// sampler.
    ///
    /// Returns `None` for shared-delivery models (use [`LaneChannel`])
    /// and for models whose ε fails validation — callers fall back to
    /// the scalar per-trial path, which reports the failure per trial.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `seeds` is empty or holds more than
    /// [`LANES`] seeds.
    #[must_use]
    pub fn new(n: usize, model: NoiseModel, seeds: &[u64]) -> Option<Self> {
        assert!(n > 0, "channel needs at least one party");
        assert!(
            !seeds.is_empty() && seeds.len() <= LANES,
            "need 1..={LANES} lane seeds, got {}",
            seeds.len()
        );
        if !matches!(model, NoiseModel::Independent { .. }) || model.validate().is_err() {
            return None;
        }
        let epsilon = model.epsilon();
        let lanes = seeds
            .iter()
            .map(|&lane_seed| {
                // The independent-noise sanctioned lane seeding site: each
                // lane replays the scalar channel's construction for its
                // trial seed.
                // beeps-lint: allow(lane-seed-discipline) -- lanes are seeded here, and only here, from the per-trial splitmix seeds
                let mut rng = StdRng::seed_from_u64(lane_seed);
                let skipper = IndependentSampler::new(n, epsilon, &mut rng);
                IndependentLaneNoise { rng, skipper }
            })
            .collect();
        Some(Self {
            n,
            lanes,
            corrupted: vec![0; seeds.len()],
            flip_words: vec![0; n],
            touched: Vec::new(),
            span_counts: vec![0; n],
            span_touched: Vec::new(),
            span_flips: Vec::new(),
        })
    }

    /// Number of parties attached to the channel.
    #[must_use]
    pub fn num_parties(&self) -> usize {
        self.n
    }

    /// Number of active trial-lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Corrupted rounds delivered on `lane` so far. As in the scalar
    /// channel, a round is corrupted if *any* party's copy differs from
    /// the true OR.
    #[must_use]
    pub fn corrupted(&self, lane: usize) -> u64 {
        self.corrupted[lane]
    }

    /// Delivers one round across all lanes: advances every lane's skip
    /// sampler and scatters the flipped parties into the per-party flip
    /// words read back by [`IndependentLaneChannel::hear_word`].
    ///
    /// The true OR word plays no role in *which* parties flip (the flip
    /// schedule is input-oblivious, exactly like the scalar sampler);
    /// it is XORed in at hearing time.
    pub fn transmit_word(&mut self) {
        for &p in self.touched.iter() {
            self.flip_words[p as usize] = 0;
        }
        self.touched.clear();
        for (lane, state) in self.lanes.iter_mut().enumerate() {
            let bucket = state.skipper.advance(&mut state.rng);
            if bucket.is_empty() {
                continue;
            }
            self.corrupted[lane] += 1;
            for &p in bucket.iter() {
                if self.flip_words[p as usize] == 0 {
                    self.touched.push(p);
                }
                self.flip_words[p as usize] |= 1u64 << lane;
            }
        }
    }

    /// What `party` hears in the round most recently transmitted, given
    /// the batch's true-OR word: bit `l` is lane `l`'s true OR XOR that
    /// lane's flip for this party.
    #[must_use]
    pub fn hear_word(&self, party: usize, or_word: u64) -> u64 {
        or_word ^ self.flip_words[party]
    }

    /// Delivers `rounds` consecutive rounds on one lane and returns the
    /// parties flipped at least once in the span as ascending
    /// `(party, flip count)` pairs.
    ///
    /// Consumes the lane's RNG in exactly the per-round order of
    /// `rounds` scalar `transmit` calls, so interleaving spans with
    /// word rounds stays bitwise faithful. With a constant true OR a
    /// party hearing `f` flips across `r` rounds hears `r − f` copies
    /// of the OR bit — which is all a repetition decode needs, so the
    /// span costs O(flips) instead of O(`rounds × n`).
    pub fn span_flips(&mut self, lane: usize, rounds: u64) -> &[(u32, u32)] {
        let state = &mut self.lanes[lane];
        for _ in 0..rounds {
            let bucket = state.skipper.advance(&mut state.rng);
            if bucket.is_empty() {
                continue;
            }
            self.corrupted[lane] += 1;
            for &p in bucket.iter() {
                if self.span_counts[p as usize] == 0 {
                    self.span_touched.push(p);
                }
                self.span_counts[p as usize] += 1;
            }
        }
        self.span_touched.sort_unstable();
        self.span_flips.clear();
        for &p in self.span_touched.iter() {
            self.span_flips.push((p, self.span_counts[p as usize]));
            self.span_counts[p as usize] = 0;
        }
        self.span_touched.clear();
        &self.span_flips
    }
}

/// A stateful participant in a lane-sliced execution: the word-level
/// analogue of [`Party`](crate::Party), carrying one trial per bit.
pub trait LaneParty {
    /// The beep bits this party sends in the upcoming round, one per
    /// trial-lane. Bits of inactive lanes must be zero.
    fn beep_word(&mut self) -> u64;

    /// Delivery of the channel output for the round just sent, one bit
    /// per trial-lane.
    fn hear_word(&mut self, heard: u64);
}

/// Statistics of one lane-sliced execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneStats {
    /// Rounds executed (each advancing every lane once).
    pub rounds: usize,
    /// Total 1-bits sent across all parties, rounds, *and lanes* — the
    /// summed energy of all trials in the batch.
    pub energy: u64,
}

/// Drives a set of [`LaneParty`] state machines over a [`LaneChannel`],
/// one word OR per round for the whole batch of trials.
#[derive(Debug)]
pub struct LaneExecutor;

impl LaneExecutor {
    /// Runs `rounds` rounds of the batch defined by `parties` over
    /// `channel`. Per-lane corruption counts accumulate on the channel
    /// ([`LaneChannel::corrupted`]).
    ///
    /// # Panics
    ///
    /// Panics if the party slice is empty.
    pub fn run<P: LaneParty>(
        parties: &mut [P],
        channel: &mut LaneChannel,
        rounds: usize,
    ) -> LaneStats {
        assert!(!parties.is_empty(), "need at least one party");
        let mut energy = 0u64;
        for _ in 0..rounds {
            let mut or_word = 0u64;
            for party in parties.iter_mut() {
                let word = party.beep_word();
                energy += u64::from(word.count_ones());
                or_word |= word;
            }
            let heard = channel.transmit_word(or_word);
            for party in parties.iter_mut() {
                party.hear_word(heard);
            }
        }
        LaneStats { rounds, energy }
    }

    /// Runs `rounds` rounds of the batch defined by `parties` over an
    /// independent-noise lane channel: same shape as
    /// [`LaneExecutor::run`], but each party hears its own word
    /// (`or_word` XOR its per-lane flips). Per-lane corruption counts
    /// accumulate on the channel
    /// ([`IndependentLaneChannel::corrupted`]).
    ///
    /// # Panics
    ///
    /// Panics if the party slice is empty or its length differs from
    /// the channel's party count.
    pub fn run_independent<P: LaneParty>(
        parties: &mut [P],
        channel: &mut IndependentLaneChannel,
        rounds: usize,
    ) -> LaneStats {
        assert!(!parties.is_empty(), "need at least one party");
        assert_eq!(
            parties.len(),
            channel.num_parties(),
            "channel sized for a different number of parties"
        );
        let mut energy = 0u64;
        for _ in 0..rounds {
            let mut or_word = 0u64;
            for party in parties.iter_mut() {
                let word = party.beep_word();
                energy += u64::from(word.count_ones());
                or_word |= word;
            }
            channel.transmit_word();
            for (i, party) in parties.iter_mut().enumerate() {
                party.hear_word(channel.hear_word(i, or_word));
            }
        }
        LaneStats { rounds, energy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, StochasticChannel};
    use crate::executor::{Executor, Party};

    fn shared_models() -> [NoiseModel; 4] {
        [
            NoiseModel::Noiseless,
            NoiseModel::Correlated { epsilon: 0.3 },
            NoiseModel::OneSidedZeroToOne { epsilon: 0.25 },
            NoiseModel::OneSidedOneToZero { epsilon: 0.25 },
        ]
    }

    #[test]
    fn step_matches_scalar_channel_per_lane() {
        let seeds: Vec<u64> = (0..7).map(|i| 0xACE1 + 13 * i).collect();
        for model in shared_models() {
            let mut lanes = LaneChannel::shared(model, &seeds).expect("shared model");
            let mut scalars: Vec<StochasticChannel> = seeds
                .iter()
                .map(|&s| StochasticChannel::new(3, model, s))
                .collect();
            for round in 0..500 {
                let true_or = round % 3 != 0;
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    let want = scalar.transmit(true_or).shared().expect("shared delivery");
                    let got = lanes.step(lane, true_or);
                    assert_eq!(got, want, "{model} lane {lane} round {round}");
                }
            }
            for (lane, scalar) in scalars.iter().enumerate() {
                assert_eq!(lanes.corrupted(lane), scalar.corrupted_rounds() as u64);
            }
        }
    }

    #[test]
    fn span_flips_match_per_round_steps() {
        // Interleave constant-OR spans with single steps; the batched
        // countdown must flip exactly the rounds the scalar channel
        // flips, in the same RNG draw order.
        let spans: [(u64, bool); 8] = [
            (5, true),
            (1, false),
            (64, true),
            (3, false),
            (200, false),
            (7, true),
            (0, true),
            (129, true),
        ];
        for model in shared_models() {
            let mut batched = LaneChannel::shared(model, &[42]).expect("shared model");
            let mut scalar = StochasticChannel::new(2, model, 42);
            for &(rounds, true_or) in &spans {
                let flips = batched.flips_in_span(0, rounds, true_or);
                let mut want = 0u64;
                for _ in 0..rounds {
                    let heard = scalar.transmit(true_or).shared().expect("shared delivery");
                    want += u64::from(heard != true_or);
                }
                assert_eq!(flips, want, "{model} span of {rounds} (or={true_or})");
                // One scalar step keeps the interleaving honest.
                let heard = scalar.transmit(true_or).shared().expect("shared delivery");
                assert_eq!(batched.step(0, true_or), heard, "{model} post-span step");
            }
            assert_eq!(batched.corrupted(0), scalar.corrupted_rounds() as u64);
        }
    }

    #[test]
    fn independent_noise_is_rejected() {
        assert!(LaneChannel::shared(NoiseModel::Independent { epsilon: 0.1 }, &[1, 2]).is_none());
        assert!(LaneChannel::shared(NoiseModel::Correlated { epsilon: 2.0 }, &[1]).is_none());
    }

    #[test]
    #[should_panic(expected = "lane seeds")]
    fn empty_seed_slice_panics() {
        let _ = LaneChannel::shared(NoiseModel::Noiseless, &[]);
    }

    /// Counts rounds; beeps on multiples of its stride (all lanes in
    /// lockstep, so lane 0 of the word run replays a scalar Strider).
    struct WordStrider {
        stride: usize,
        round: usize,
        lanes_mask: u64,
        heard: Vec<u64>,
    }

    impl LaneParty for WordStrider {
        fn beep_word(&mut self) -> u64 {
            if self.round.is_multiple_of(self.stride) {
                self.lanes_mask
            } else {
                0
            }
        }

        fn hear_word(&mut self, heard: u64) {
            self.round += 1;
            self.heard.push(heard);
        }
    }

    struct Strider {
        stride: usize,
        round: usize,
        heard: Vec<bool>,
    }

    impl Party for Strider {
        fn beep(&mut self) -> bool {
            self.round.is_multiple_of(self.stride)
        }

        fn hear(&mut self, heard: bool) {
            self.round += 1;
            self.heard.push(heard);
        }
    }

    #[test]
    fn lane_executor_matches_scalar_executor_per_lane() {
        let seeds = [11u64, 22, 33];
        let rounds = 300;
        for model in shared_models() {
            let mut word_parties: Vec<WordStrider> = [2usize, 3, 5]
                .iter()
                .map(|&stride| WordStrider {
                    stride,
                    round: 0,
                    lanes_mask: (1u64 << seeds.len()) - 1,
                    heard: Vec::new(),
                })
                .collect();
            let mut lane_channel = LaneChannel::shared(model, &seeds).expect("shared model");
            let stats = LaneExecutor::run(&mut word_parties, &mut lane_channel, rounds);

            for (lane, &seed) in seeds.iter().enumerate() {
                let mut parties: Vec<Strider> = [2usize, 3, 5]
                    .iter()
                    .map(|&stride| Strider {
                        stride,
                        round: 0,
                        heard: Vec::new(),
                    })
                    .collect();
                let mut channel = StochasticChannel::new(3, model, seed);
                let scalar = Executor::run(&mut parties, &mut channel, rounds);
                assert_eq!(
                    lane_channel.corrupted(lane),
                    scalar.corrupted_rounds as u64,
                    "{model} lane {lane} corruption count"
                );
                let lane_heard: Vec<bool> = word_parties[0]
                    .heard
                    .iter()
                    .map(|w| w >> lane & 1 == 1)
                    .collect();
                assert_eq!(
                    lane_heard, parties[0].heard,
                    "{model} lane {lane} transcript"
                );
            }
            // All lanes beep identically here, so energy is per-trial
            // energy times the lane count.
            assert_eq!(stats.rounds, rounds);
            assert!(stats.energy.is_multiple_of(seeds.len() as u64));
        }
    }

    #[test]
    fn independent_word_rounds_match_scalar_per_lane() {
        // n = 1 (degenerate), 5 (small), 65 (crosses a word boundary in
        // the scalar dense row) — per-party heard bits and corruption
        // counts must match the scalar channel lane for lane.
        let model = NoiseModel::Independent { epsilon: 0.2 };
        let seeds: Vec<u64> = (0..7).map(|i| 0xBEE9 + 31 * i).collect();
        for n in [1usize, 5, 65] {
            let mut lanes = IndependentLaneChannel::new(n, model, &seeds).expect("independent");
            let mut scalars: Vec<StochasticChannel> = seeds
                .iter()
                .map(|&s| StochasticChannel::new(n, model, s))
                .collect();
            for round in 0..300 {
                let true_or = round % 3 != 0;
                let or_word = if true_or {
                    (1u64 << seeds.len()) - 1
                } else {
                    0
                };
                lanes.transmit_word();
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    let delivery = scalar.transmit(true_or);
                    for p in 0..n {
                        let got = lanes.hear_word(p, or_word) >> lane & 1 == 1;
                        assert_eq!(
                            got,
                            delivery.heard_by(p),
                            "n={n} lane {lane} party {p} round {round}"
                        );
                    }
                }
            }
            for (lane, scalar) in scalars.iter().enumerate() {
                assert_eq!(
                    lanes.corrupted(lane),
                    scalar.corrupted_rounds() as u64,
                    "n={n} lane {lane} corruption count"
                );
            }
        }
    }

    #[test]
    fn independent_span_flips_match_scalar_rounds() {
        // Spans skip-sample per-party flip counts; the scalar channel
        // reports the same flips one round at a time.
        let model = NoiseModel::Independent { epsilon: 0.15 };
        let spans: [u64; 6] = [5, 1, 64, 3, 200, 129];
        for n in [1usize, 5, 65] {
            let mut lanes = IndependentLaneChannel::new(n, model, &[42, 43]).expect("independent");
            for lane in 0..2usize {
                let mut scalar = StochasticChannel::new(n, model, 42 + lane as u64);
                let mut scalar_corrupted = 0u64;
                let mut want: Vec<u32> = vec![0; n];
                for &rounds in &spans {
                    for w in want.iter_mut() {
                        *w = 0;
                    }
                    for _ in 0..rounds {
                        let delivery = scalar.transmit(true);
                        for (p, w) in want.iter_mut().enumerate() {
                            *w += u32::from(!delivery.heard_by(p));
                        }
                    }
                    let got = lanes.span_flips(lane, rounds);
                    let expected: Vec<(u32, u32)> = want
                        .iter()
                        .enumerate()
                        .filter(|&(_, &f)| f > 0)
                        .map(|(p, &f)| (p as u32, f))
                        .collect();
                    assert_eq!(got, &expected[..], "n={n} lane {lane} span of {rounds}");
                }
                scalar_corrupted += scalar.corrupted_rounds() as u64;
                assert_eq!(lanes.corrupted(lane), scalar_corrupted, "n={n} lane {lane}");
            }
        }
    }

    #[test]
    fn independent_channel_rejects_shared_models() {
        assert!(
            IndependentLaneChannel::new(3, NoiseModel::Correlated { epsilon: 0.1 }, &[1]).is_none()
        );
        assert!(IndependentLaneChannel::new(3, NoiseModel::Noiseless, &[1]).is_none());
        assert!(
            IndependentLaneChannel::new(3, NoiseModel::Independent { epsilon: 2.0 }, &[1])
                .is_none()
        );
    }

    #[test]
    #[should_panic(expected = "lane seeds")]
    fn independent_empty_seed_slice_panics() {
        let _ = IndependentLaneChannel::new(2, NoiseModel::Independent { epsilon: 0.1 }, &[]);
    }

    #[test]
    fn independent_lane_executor_matches_scalar_executor_per_lane() {
        let model = NoiseModel::Independent { epsilon: 0.2 };
        let seeds = [11u64, 22, 33];
        let rounds = 300;
        let mut word_parties: Vec<WordStrider> = [2usize, 3, 5]
            .iter()
            .map(|&stride| WordStrider {
                stride,
                round: 0,
                lanes_mask: (1u64 << seeds.len()) - 1,
                heard: Vec::new(),
            })
            .collect();
        let mut lane_channel = IndependentLaneChannel::new(3, model, &seeds).expect("independent");
        let stats = LaneExecutor::run_independent(&mut word_parties, &mut lane_channel, rounds);

        for (lane, &seed) in seeds.iter().enumerate() {
            let mut parties: Vec<Strider> = [2usize, 3, 5]
                .iter()
                .map(|&stride| Strider {
                    stride,
                    round: 0,
                    heard: Vec::new(),
                })
                .collect();
            let mut channel = StochasticChannel::new(3, model, seed);
            let scalar = Executor::run(&mut parties, &mut channel, rounds);
            assert_eq!(
                lane_channel.corrupted(lane),
                scalar.corrupted_rounds as u64,
                "lane {lane} corruption count"
            );
            for (i, party) in parties.iter().enumerate() {
                let lane_heard: Vec<bool> = word_parties[i]
                    .heard
                    .iter()
                    .map(|w| w >> lane & 1 == 1)
                    .collect();
                assert_eq!(lane_heard, party.heard, "lane {lane} party {i} view");
            }
        }
        assert_eq!(stats.rounds, rounds);
    }
}
