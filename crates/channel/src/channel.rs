//! Channel implementations: stochastic, scripted (failure injection), and
//! the shared-randomness reduction of A.1.2.
//!
//! The stochastic channel batches its noise: instead of one Bernoulli
//! draw per (party and) round, it draws the *gaps between flips* from
//! the geometric distribution — the classic skip-sampling identity
//! `P(gap = k) = ε(1−ε)^k` — so RNG work scales with the number of
//! flips, not the number of rounds. The resulting flip process is
//! distribution-identical to per-round sampling (pinned by chi-squared
//! tests against the reference samplers in [`crate::noise`]), but the
//! *stream* of RNG draws differs, so seeded golden numbers change when
//! switching between the two.
//!
//! Shared-noise models run one such countdown over the rounds where a
//! flip is possible (`SharedCountdown`, also each lane of a
//! [`crate::LaneChannel`]). Besides single rounds it delivers a
//! constant-OR span ([`StochasticChannel::flips_in_span`]) or a word of
//! up to 64 rounds ([`StochasticChannel::transmit_rounds`], the shape
//! of an owners codeword) by walking from flip to flip, and either
//! draws, flips and counts exactly as the same rounds delivered one at
//! a time (pinned by `tests/proptests.rs`).
//!
//! Independent-noise flips land in per-round *buckets* of flipped-party
//! indices, delivered as [`Delivery::Sparse`] when a round's flip count
//! stays below [`sparse_crossover`] and expanded to a dense
//! [`Delivery::PerParty`] row above it — so both delivery work and
//! memory traffic scale with `εn` instead of `n` in the common lightly
//! corrupted round. A word of up to 64 rounds
//! ([`Channel::transmit_word`]) skips the per-round deliveries: each
//! bucket's flips are XORed straight into the flipped parties' heard
//! words.

use crate::bits::BitVec;
use crate::noise::{Delivery, NoiseModel};
use crate::sparse::{sparse_crossover, SparseDelivery};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Rounds covered by one independent-noise mask block.
const BLOCK_ROUNDS: usize = 64;

/// Geometric gap draws for one flip rate ε: the number of clean eligible
/// rounds before the next flip of a Bernoulli(ε) stream, geometric on
/// `{0, 1, …}` with `P(k) = ε(1−ε)^k`, by inversion of one uniform draw.
///
/// `ln(1−ε)` is taken once, here, so a draw evaluates one `ln`.
#[derive(Debug, Clone, Copy)]
struct GeometricGap {
    /// `ln(1−ε)`, or 0 for ε ≤ 0 ("never flips"); negative for every
    /// ε > 0.
    ln_keep: f64,
}

impl GeometricGap {
    fn new(epsilon: f64) -> Self {
        let keep = 1.0 - epsilon;
        let ln_keep = if epsilon <= 0.0 {
            0.0
        } else if keep == 1.0 {
            // 0 < ε ≤ 2⁻⁵⁴: `1 − ε` rounds to 1, whose log 0 would make
            // every gap 0 and flip every round. Every larger ε keeps the
            // `(1 − ε).ln()` that seeded streams are drawn with.
            (-epsilon).ln_1p()
        } else {
            keep.ln()
        };
        Self { ln_keep }
    }

    /// Draws one gap. Returns `u64::MAX` ("never") for ε ≤ 0 without
    /// consuming randomness.
    fn draw(self, rng: &mut StdRng) -> u64 {
        if self.ln_keep == 0.0 {
            return u64::MAX;
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        // floor(ln(1−U) / ln(1−ε)): U ∈ [1−(1−ε)^k, 1−(1−ε)^{k+1}) ⇒ gap k.
        let gap = ((1.0 - u).ln() / self.ln_keep).floor();
        if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        }
    }
}

/// Advances a flip position by one round plus a fresh geometric gap,
/// saturating at "never".
fn next_flip_position(pos: u64, gap: GeometricGap, rng: &mut StdRng) -> u64 {
    let gap = gap.draw(rng);
    if gap == u64::MAX {
        u64::MAX
    } else {
        pos.saturating_add(gap + 1)
    }
}

/// Files party `p`'s next flip (an absolute round index) into the
/// calendar under the block it lands in. `u64::MAX` means "never" and
/// files nothing; a position that saturated near `u64::MAX` is likewise
/// unreachable in any real run.
fn calendar_insert(
    calendar: &mut std::collections::BTreeMap<u64, Vec<(u32, u8)>>,
    p: u32,
    abs_round: u64,
) {
    if abs_round == u64::MAX {
        return;
    }
    calendar
        .entry(abs_round / BLOCK_ROUNDS as u64)
        .or_default()
        .push((p, (abs_round % BLOCK_ROUNDS as u64) as u8));
}

/// Draws each party's first flip round — ascending party order, exactly
/// one geometric draw per party, the construction-time RNG contract —
/// and files them into a cleared calendar.
fn seed_calendar(
    calendar: &mut std::collections::BTreeMap<u64, Vec<(u32, u8)>>,
    n: usize,
    gap: GeometricGap,
    rng: &mut StdRng,
) {
    calendar.clear();
    for p in 0..n {
        calendar_insert(calendar, p as u32, gap.draw(rng));
    }
}

/// The independent-noise skip sampler: per-party geometric skips
/// expanded into 64-round blocks of per-round flipped-party buckets.
///
/// Extracted from the [`StochasticChannel`] so the lane-sliced channel
/// ([`crate::lanes::IndependentLaneChannel`]) can run one of these per
/// lane with the *exact* construction-time and refill-time RNG draw
/// order of the scalar channel — the bitwise-equivalence contract every
/// lane engine is pinned against.
#[derive(Debug)]
pub(crate) struct IndependentSampler {
    /// `buckets[r]`: ascending indices of the parties flipped in
    /// block round `r`.
    buckets: Vec<Vec<u32>>,
    /// Next unconsumed round offset in the block; `BLOCK_ROUNDS`
    /// forces a refill.
    offset: usize,
    /// Flip calendar: absolute block index → the parties whose
    /// *next* flip lands in that block, as `(party, round offset
    /// within the block)`. Each party appears at most once across
    /// the whole calendar, so a block refill touches only the
    /// parties that actually flip in it — O(εn) amortized per
    /// round instead of the O(n) per-block skip walk it replaced.
    /// The RNG stream is unchanged: gap draws happen exactly when
    /// a party's position crosses the refilled block, in ascending
    /// party order, which is precisely when (and in which order)
    /// the per-party walk drew them.
    calendar: std::collections::BTreeMap<u64, Vec<(u32, u8)>>,
    /// Absolute index of the next block to refill.
    block: u64,
    /// Every party's gap draws.
    gap: GeometricGap,
}

impl IndependentSampler {
    /// Seeds the flip calendar with one geometric draw per party — the
    /// construction-time RNG contract of `StochasticChannel::new` under
    /// independent noise.
    pub(crate) fn new(n: usize, epsilon: f64, rng: &mut StdRng) -> Self {
        let gap = GeometricGap::new(epsilon);
        let mut calendar = std::collections::BTreeMap::new();
        seed_calendar(&mut calendar, n, gap, rng);
        Self {
            buckets: vec![Vec::new(); BLOCK_ROUNDS],
            offset: BLOCK_ROUNDS,
            calendar,
            block: 0,
            gap,
        }
    }

    /// Returns the sampler to its just-constructed state (drawing from
    /// `rng` in construction order) while reusing the bucket
    /// allocations. Stale buckets are ignored because the reset offset
    /// forces a bucket-clearing refill before the first delivery.
    pub(crate) fn restart(&mut self, n: usize, rng: &mut StdRng) {
        self.offset = BLOCK_ROUNDS;
        self.block = 0;
        seed_calendar(&mut self.calendar, n, self.gap, rng);
    }

    /// Advances one round and returns the bucket of parties flipped in
    /// it (ascending). The caller may `mem::take` the bucket; a taken
    /// bucket is simply replaced by an empty one.
    pub(crate) fn advance(&mut self, rng: &mut StdRng) -> &mut Vec<u32> {
        if self.offset == BLOCK_ROUNDS {
            self.refill(rng);
        }
        let bucket = &mut self.buckets[self.offset];
        self.offset += 1;
        bucket
    }

    /// Rebuilds the flip buckets for the next block from the flip
    /// calendar.
    ///
    /// Only the parties whose next flip lands in this block are
    /// touched — O(εn) amortized per round — but they are processed in
    /// ascending party order with chained gap draws, exactly the points
    /// at which the full per-party skip walk this replaced consumed the
    /// RNG, so seeded flip sets are bitwise unchanged. Ascending party
    /// order also leaves every bucket sorted as [`SparseDelivery::new`]
    /// requires.
    fn refill(&mut self, rng: &mut StdRng) {
        for bucket in self.buckets.iter_mut() {
            bucket.clear();
        }
        if let Some(mut due) = self.calendar.remove(&self.block) {
            due.sort_unstable();
            let base = self.block * BLOCK_ROUNDS as u64;
            for (p, off) in due {
                let mut pos = u64::from(off);
                while pos < BLOCK_ROUNDS as u64 {
                    self.buckets[pos as usize].push(p);
                    pos = next_flip_position(pos, self.gap, rng);
                }
                calendar_insert(&mut self.calendar, p, base.saturating_add(pos));
            }
        }
        self.block += 1;
        self.offset = 0;
    }
}

/// Which rounds a shared-noise countdown runs over — the rounds on
/// which a flip is possible at all.
#[derive(Debug, Clone, Copy)]
enum FlipsOn {
    /// No round (noiseless).
    Never,
    /// Every round (`Correlated`).
    Every,
    /// Silent rounds (`0→1`).
    Zeros,
    /// Beeping rounds (`1→0`).
    Ones,
}

/// The shared-noise skip sampler: one geometric countdown over the
/// *eligible* rounds of a shared-delivery model, with its RNG.
///
/// This is the one flip process behind every shared-noise delivery: a
/// [`StochasticChannel`] runs one, and each lane of a
/// [`crate::LaneChannel`] runs its own. Rounds can be delivered one at
/// a time ([`SharedCountdown::step`]), as a constant-OR span
/// ([`SharedCountdown::flips_in_span`]) or as a word of up to 64
/// rounds ([`SharedCountdown::transmit_rounds`]); all three decrement
/// the countdown once per eligible round and redraw it on each flip,
/// so any interleaving draws, flips and counts exactly as the same
/// rounds delivered one by one.
#[derive(Debug)]
pub(crate) struct SharedCountdown {
    rng: StdRng,
    gap: GeometricGap,
    flips_on: FlipsOn,
    /// Eligible rounds remaining before the next flip.
    skip: u64,
    /// Flipped rounds delivered so far.
    flips: u64,
}

impl SharedCountdown {
    /// Draws the first gap from `rng` — the construction-time RNG
    /// contract of a shared-noise [`StochasticChannel`].
    ///
    /// # Panics
    ///
    /// Panics under [`NoiseModel::Independent`], whose flips are per
    /// party; callers route it to the [`IndependentSampler`].
    pub(crate) fn new(model: NoiseModel, mut rng: StdRng) -> Self {
        let flips_on = match model {
            NoiseModel::Noiseless => FlipsOn::Never,
            NoiseModel::Correlated { .. } => FlipsOn::Every,
            NoiseModel::OneSidedZeroToOne { .. } => FlipsOn::Zeros,
            NoiseModel::OneSidedOneToZero { .. } => FlipsOn::Ones,
            NoiseModel::Independent { .. } => panic!("independent noise has no shared countdown"),
        };
        let gap = GeometricGap::new(model.epsilon());
        let skip = gap.draw(&mut rng);
        Self {
            rng,
            gap,
            flips_on,
            skip,
            flips: 0,
        }
    }

    /// Restarts the countdown from `rng` as [`SharedCountdown::new`]
    /// would.
    fn restart(&mut self, mut rng: StdRng) {
        self.skip = self.gap.draw(&mut rng);
        self.rng = rng;
        self.flips = 0;
    }

    /// Flipped rounds delivered so far.
    pub(crate) fn flips(&self) -> u64 {
        self.flips
    }

    /// The eligible rounds among those whose true ORs are the bits of
    /// `sent` — the one statement of the eligibility rule.
    fn eligible(&self, sent: u64) -> u64 {
        match self.flips_on {
            FlipsOn::Never => 0,
            FlipsOn::Every => u64::MAX,
            FlipsOn::Zeros => !sent,
            FlipsOn::Ones => sent,
        }
    }

    /// Delivers one round with true OR `true_or`; returns the heard bit.
    pub(crate) fn step(&mut self, true_or: bool) -> bool {
        if self.eligible(u64::from(true_or)) & 1 == 0 {
            return true_or;
        }
        if self.skip > 0 {
            self.skip -= 1;
            return true_or;
        }
        self.skip = self.gap.draw(&mut self.rng);
        self.flips += 1;
        !true_or
    }

    /// Delivers `rounds` consecutive rounds with constant true OR
    /// `true_or`; returns how many of them flipped. RNG work is
    /// proportional to the flips, not the rounds.
    pub(crate) fn flips_in_span(&mut self, rounds: u64, true_or: bool) -> u64 {
        if rounds == 0 || self.eligible(u64::from(true_or)) & 1 == 0 {
            return 0;
        }
        let mut flips = 0u64;
        let mut rem = rounds;
        let mut pos = self.skip;
        // A flip with `pos` clean rounds ahead of it consumes pos + 1
        // rounds of the span and forces a redraw.
        while pos < rem {
            flips += 1;
            rem -= pos + 1;
            pos = self.gap.draw(&mut self.rng);
        }
        self.skip = pos - rem;
        self.flips += flips;
        flips
    }

    /// Delivers `len ≤ 64` consecutive rounds whose true ORs are the
    /// low `len` bits of `sent` (round `k` is bit `k`); returns the
    /// heard bits. Bits of `sent` at or above `len` are ignored and
    /// the returned bits there are zero. RNG work is proportional to
    /// the flips, not the rounds.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub(crate) fn transmit_rounds(&mut self, sent: u64, len: usize) -> u64 {
        assert!(len <= 64, "a word carries at most 64 rounds, got {len}");
        let live = word_mask(len);
        let sent = sent & live;
        let mut eligible = self.eligible(sent) & live;
        let mut flipped = 0u64;
        loop {
            let count = u64::from(eligible.count_ones());
            if self.skip >= count {
                self.skip -= count;
                break;
            }
            // The next flip lands on eligible round number `skip`: the
            // `skip` eligible rounds below it are clean.
            let round = if matches!(self.flips_on, FlipsOn::Every) {
                // Every live round is eligible, so `eligible` is one
                // contiguous run and its `skip`-th round is `skip` above
                // its lowest.
                (eligible & eligible.wrapping_neg()) << self.skip
            } else {
                for _ in 0..self.skip {
                    eligible &= eligible - 1;
                }
                eligible & eligible.wrapping_neg()
            };
            flipped |= round;
            // The flip and every eligible round below it are spent.
            eligible &= round.wrapping_neg() << 1;
            self.skip = self.gap.draw(&mut self.rng);
        }
        self.flips += u64::from(flipped.count_ones());
        sent ^ flipped
    }
}

/// Batched noise state of a [`StochasticChannel`].
#[derive(Debug)]
enum Sampler {
    /// Shared-output regimes, noiseless included: one countdown.
    Shared(SharedCountdown),
    /// Independent noise: the skip sampler plus the channel-side
    /// delivery scratch.
    Independent {
        rng: StdRng,
        /// Per-round flip buckets behind the skip calendar.
        skipper: IndependentSampler,
        /// Scratch row (`⌈n/64⌉` words) for expanding a bucket into a
        /// dense delivery.
        dense_row: Vec<u64>,
        /// Route every delivery through the dense path (see
        /// [`StochasticChannel::set_dense_deliveries`]).
        force_dense: bool,
        /// Rounds in which at least one party's copy flipped.
        corrupted: usize,
    },
}

impl Sampler {
    fn new(n: usize, model: NoiseModel, mut rng: StdRng) -> Self {
        match model {
            NoiseModel::Independent { epsilon } => Sampler::Independent {
                skipper: IndependentSampler::new(n, epsilon, &mut rng),
                rng,
                dense_row: vec![0; n.div_ceil(64)],
                force_dense: false,
                corrupted: 0,
            },
            _ => Sampler::Shared(SharedCountdown::new(model, rng)),
        }
    }
}

/// A beeping channel: consumes the true OR of a round and produces what the
/// parties hear.
///
/// Implementations are stateful (they own their randomness or script) so
/// that executions are reproducible from a seed.
pub trait Channel {
    /// Number of parties attached to the channel.
    fn num_parties(&self) -> usize;

    /// Delivers one round: takes the true OR of the sent bits and returns
    /// the (possibly corrupted) delivery.
    fn transmit(&mut self, true_or: bool) -> Delivery;

    /// Number of rounds delivered so far.
    fn rounds(&self) -> usize;

    /// Number of corrupted deliveries so far. For independent noise, a
    /// round counts as corrupted if *any* party's copy differs from the
    /// true OR.
    fn corrupted_rounds(&self) -> usize;

    /// Delivers `len ≤ 64` consecutive rounds: bit `k` of `sent` is the
    /// true OR of round `k`, and on return bit `k` of `heard[i]` is what
    /// party `i` heard in it. Bits of `sent` at or above `len` are
    /// ignored and those of every `heard[i]` are zero.
    ///
    /// The default makes `len` calls to [`Channel::transmit`], so every
    /// channel keeps its exact per-round behaviour, and reads each
    /// delivery as a broadcast bit plus the parties that differ from it:
    /// O(n + flips) per word for shared and sparse deliveries. Channels
    /// that override it must draw, flip and count ([`Channel::rounds`],
    /// [`Channel::corrupted_rounds`]) exactly as that default would.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or `heard.len() != self.num_parties()`.
    fn transmit_word(&mut self, sent: u64, len: usize, heard: &mut [u64]) {
        assert!(len <= 64, "a word carries at most 64 rounds, got {len}");
        assert_eq!(heard.len(), self.num_parties(), "one heard word per party");
        // `heard` collects each party's differences from `base`.
        heard.fill(0);
        let mut base = 0u64;
        for k in 0..len {
            let round = 1u64 << k;
            match self.transmit(sent & round != 0) {
                Delivery::Shared(bit) => base |= u64::from(bit) << k,
                Delivery::Sparse(sparse) => {
                    base |= u64::from(sparse.base()) << k;
                    for &p in sparse.flips() {
                        heard[p as usize] ^= round;
                    }
                }
                Delivery::PerParty(bits) => {
                    for (w, &word) in bits.words().iter().enumerate() {
                        let mut ones = word;
                        while ones != 0 {
                            heard[w * 64 + ones.trailing_zeros() as usize] ^= round;
                            ones &= ones - 1;
                        }
                    }
                }
            }
        }
        for word in heard.iter_mut() {
            *word ^= base;
        }
    }
}

/// The low `len ≤ 64` bits of a word: the live rounds of a delivery.
fn word_mask(len: usize) -> u64 {
    if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// Mutable references are channels too, so channel-generic drivers like
/// [`run_protocol_over`](crate::run_protocol_over) accept a
/// `&mut dyn Channel` handed through an object-safe trait method.
impl<C: Channel + ?Sized> Channel for &mut C {
    fn num_parties(&self) -> usize {
        (**self).num_parties()
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        (**self).transmit(true_or)
    }

    fn transmit_word(&mut self, sent: u64, len: usize, heard: &mut [u64]) {
        (**self).transmit_word(sent, len, heard);
    }

    fn rounds(&self) -> usize {
        (**self).rounds()
    }

    fn corrupted_rounds(&self) -> usize {
        (**self).corrupted_rounds()
    }
}

/// The standard stochastic channel: applies a [`NoiseModel`] with a seeded
/// RNG.
///
/// # Examples
///
/// ```
/// use beeps_channel::{Channel, NoiseModel, StochasticChannel};
///
/// let mut ch = StochasticChannel::new(4, NoiseModel::Noiseless, 7);
/// let d = ch.transmit(true);
/// assert_eq!(d.shared(), Some(true));
/// assert_eq!(ch.rounds(), 1);
/// assert_eq!(ch.corrupted_rounds(), 0);
/// ```
#[derive(Debug)]
pub struct StochasticChannel {
    n: usize,
    model: NoiseModel,
    sampler: Sampler,
    rounds: usize,
}

impl StochasticChannel {
    /// Creates a channel for `n` parties under `model`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the model's ε is outside `[0, 1)`.
    pub fn new(n: usize, model: NoiseModel, seed: u64) -> Self {
        assert!(n > 0, "channel needs at least one party");
        model.validate().expect("invalid noise parameter");
        let rng = StdRng::seed_from_u64(seed);
        Self {
            n,
            model,
            sampler: Sampler::new(n, model, rng),
            rounds: 0,
        }
    }

    /// The noise model this channel applies.
    pub fn model(&self) -> NoiseModel {
        self.model
    }

    /// Returns the channel to the state of [`StochasticChannel::new`]
    /// with the same party count and model but a fresh `seed`, reusing
    /// the sampler's allocations (the independent-noise flip buckets
    /// and dense scratch row) — so a channel kept in a worker's scratch
    /// arena can serve many trials without per-trial allocation.
    ///
    /// Behavioral equivalence to a fresh channel is pinned by
    /// `reseeding_matches_a_fresh_channel` below: the RNG restarts from
    /// `seed` and the sampler re-draws its state in the same order as
    /// construction (stale buckets are ignored because the reset
    /// offset forces a bucket-clearing refill before the first
    /// delivery).
    pub fn reseed(&mut self, seed: u64) {
        let mut fresh = StdRng::seed_from_u64(seed);
        self.rounds = 0;
        match &mut self.sampler {
            Sampler::Shared(countdown) => countdown.restart(fresh),
            Sampler::Independent {
                rng,
                skipper,
                corrupted,
                ..
            } => {
                skipper.restart(self.n, &mut fresh);
                *rng = fresh;
                *corrupted = 0;
            }
        }
    }

    /// Forces every independent-noise delivery through the dense
    /// [`Delivery::PerParty`] path instead of the sparse flip-list fast
    /// path. Both representations expand the same skip-sampled flip
    /// set, so this exists for the equivalence tests and benchmarks
    /// that pin sparse-vs-dense bitwise identity; it is a no-op for
    /// shared-noise models, whose deliveries are already a single bit.
    pub fn set_dense_deliveries(&mut self, dense: bool) {
        if let Sampler::Independent { force_dense, .. } = &mut self.sampler {
            *force_dense = dense;
        }
    }

    /// Delivers `len ≤ 64` consecutive rounds at once: bit `k` of
    /// `sent` is the true OR of round `k`, bit `k` of the result is
    /// what every party hears in it. Bits of `sent` at or above `len`
    /// are ignored and the result is zero there.
    ///
    /// Draws, flips and counts ([`Channel::rounds`],
    /// [`Channel::corrupted_rounds`]) exactly as `len` calls to
    /// [`Channel::transmit`] would, with RNG work proportional to the
    /// flips rather than the rounds.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or the model is
    /// [`NoiseModel::Independent`] (whose deliveries differ per party).
    pub fn transmit_rounds(&mut self, sent: u64, len: usize) -> u64 {
        let heard = self.shared_countdown().transmit_rounds(sent, len);
        self.rounds += len;
        heard
    }

    /// Delivers `rounds` consecutive rounds with constant true OR
    /// `true_or`; returns how many of them flipped. Equivalent to
    /// `rounds` calls to [`Channel::transmit`], with RNG work
    /// proportional to the flips rather than the rounds.
    ///
    /// # Panics
    ///
    /// Panics if the model is [`NoiseModel::Independent`] (whose
    /// deliveries differ per party).
    pub fn flips_in_span(&mut self, rounds: usize, true_or: bool) -> usize {
        let flips = self
            .shared_countdown()
            .flips_in_span(rounds as u64, true_or);
        self.rounds += rounds;
        flips as usize
    }

    /// The shared-noise countdown behind the word and span deliveries.
    ///
    /// # Panics
    ///
    /// Panics under independent noise.
    fn shared_countdown(&mut self) -> &mut SharedCountdown {
        match &mut self.sampler {
            Sampler::Shared(countdown) => countdown,
            Sampler::Independent { .. } => {
                panic!("word and span deliveries need a shared-noise model")
            }
        }
    }
}

impl Channel for StochasticChannel {
    fn num_parties(&self) -> usize {
        self.n
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        self.rounds += 1;
        let n = self.n;
        match &mut self.sampler {
            Sampler::Shared(countdown) => Delivery::Shared(countdown.step(true_or)),
            Sampler::Independent {
                rng,
                skipper,
                dense_row,
                force_dense,
                corrupted,
            } => {
                let bucket = skipper.advance(rng);
                if !bucket.is_empty() {
                    *corrupted += 1;
                }
                if *force_dense || bucket.len() >= sparse_crossover(n) {
                    for word in dense_row.iter_mut() {
                        *word = 0;
                    }
                    for &p in bucket.iter() {
                        dense_row[p as usize / 64] |= 1u64 << (p as usize % 64);
                    }
                    bucket.clear();
                    Delivery::PerParty(BitVec::from_flips(dense_row, true_or, n))
                } else {
                    // `mem::take` hands the bucket's buffer to the
                    // delivery without copying; clean rounds move an
                    // empty Vec, so the common case allocates nothing.
                    Delivery::Sparse(SparseDelivery::new(true_or, n, std::mem::take(bucket)))
                }
            }
        }
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn corrupted_rounds(&self) -> usize {
        match &self.sampler {
            Sampler::Shared(countdown) => countdown.flips() as usize,
            Sampler::Independent { corrupted, .. } => *corrupted,
        }
    }

    /// Shared models run the one countdown over the word
    /// ([`StochasticChannel::transmit_rounds`]). Independent noise walks
    /// the same flip buckets `len` single rounds would and XORs each
    /// flipped party's bit into its copy of `sent`, building no
    /// per-round [`Delivery`].
    fn transmit_word(&mut self, sent: u64, len: usize, heard: &mut [u64]) {
        assert!(len <= 64, "a word carries at most 64 rounds, got {len}");
        assert_eq!(heard.len(), self.n, "one heard word per party");
        match &mut self.sampler {
            Sampler::Shared(countdown) => heard.fill(countdown.transmit_rounds(sent, len)),
            Sampler::Independent {
                rng,
                skipper,
                corrupted,
                ..
            } => {
                heard.fill(sent & word_mask(len));
                for k in 0..len {
                    let bucket = skipper.advance(rng);
                    if !bucket.is_empty() {
                        *corrupted += 1;
                    }
                    for &p in bucket.iter() {
                        heard[p as usize] ^= 1u64 << k;
                    }
                }
            }
        }
        self.rounds += len;
    }
}

/// A channel with a predetermined corruption script, used for failure
/// injection in tests: round `m` is flipped iff `flips[m]` is true
/// (rounds beyond the script are delivered noiselessly).
///
/// The flip is applied to the OR exactly like correlated noise, so every
/// party hears the same (possibly wrong) bit.
///
/// # Examples
///
/// ```
/// use beeps_channel::{Channel, ScriptedChannel};
///
/// let mut ch = ScriptedChannel::new(2, vec![true, false]);
/// assert_eq!(ch.transmit(false).shared(), Some(true)); // flipped
/// assert_eq!(ch.transmit(false).shared(), Some(false)); // clean
/// ```
#[derive(Debug)]
pub struct ScriptedChannel {
    n: usize,
    flips: Vec<bool>,
    rounds: usize,
    corrupted: usize,
}

impl ScriptedChannel {
    /// Creates a scripted channel for `n` parties.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, flips: Vec<bool>) -> Self {
        assert!(n > 0, "channel needs at least one party");
        Self {
            n,
            flips,
            rounds: 0,
            corrupted: 0,
        }
    }
}

impl Channel for ScriptedChannel {
    fn num_parties(&self) -> usize {
        self.n
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        let flip = self.flips.get(self.rounds).copied().unwrap_or(false);
        self.rounds += 1;
        if flip {
            self.corrupted += 1;
        }
        Delivery::Shared(true_or ^ flip)
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn corrupted_rounds(&self) -> usize {
        self.corrupted
    }
}

/// The shared-randomness reduction of subsection A.1.2: a two-sided
/// `ε = 1/4` correlated channel built from a one-sided `0→1` channel with
/// `ε = 1/3` plus a shared coin.
///
/// Parties run over the one-sided channel; whenever a 1 is received, the
/// shared coin downgrades it to 0 with probability 1/4. The paper shows the
/// composite behaves exactly like correlated noise with ε = 1/4:
///
/// * true OR = 1: the one-sided channel never erases it, the coin erases it
///   with probability 1/4;
/// * true OR = 0: the one-sided channel lifts it with probability 1/3, the
///   coin keeps the lift with probability 3/4, so `1/3 · 3/4 = 1/4`.
///
/// This construction is what lets Theorem C.1 (one-sided lower bound) imply
/// Theorem 1.1 (two-sided lower bound).
///
/// # Examples
///
/// ```
/// use beeps_channel::{Channel, ReducedTwoSidedChannel};
///
/// let mut ch = ReducedTwoSidedChannel::new(4, 99);
/// let _ = ch.transmit(true);
/// assert_eq!(ch.rounds(), 1);
/// ```
#[derive(Debug)]
pub struct ReducedTwoSidedChannel {
    inner: StochasticChannel,
    shared_coin: StdRng,
    corrupted: usize,
}

impl ReducedTwoSidedChannel {
    /// One-sided noise rate used by the reduction.
    pub const ONE_SIDED_EPS: f64 = 1.0 / 3.0;
    /// Downgrade probability applied by the shared coin.
    pub const DOWNGRADE_PROB: f64 = 1.0 / 4.0;
    /// Effective two-sided noise rate of the composite channel.
    pub const EFFECTIVE_EPS: f64 = 1.0 / 4.0;

    /// Creates the composite channel for `n` parties; `seed` derives both
    /// the channel noise and the shared coin.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            inner: StochasticChannel::new(
                n,
                NoiseModel::OneSidedZeroToOne {
                    epsilon: Self::ONE_SIDED_EPS,
                },
                seed,
            ),
            // Derive a distinct stream for the shared coin.
            shared_coin: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            corrupted: 0,
        }
    }
}

impl Channel for ReducedTwoSidedChannel {
    fn num_parties(&self) -> usize {
        self.inner.num_parties()
    }

    /// # Panics
    ///
    /// Panics if the inner channel returns a private delivery — impossible
    /// by construction, since `new` wraps a one-sided (shared-delivery)
    /// `StochasticChannel`.
    fn transmit(&mut self, true_or: bool) -> Delivery {
        let heard = self
            .inner
            .transmit(true_or)
            .shared()
            .expect("one-sided channel is shared");
        // The parties' post-processing with the shared coin: flip received
        // 1s down with probability 1/4.
        let processed = if heard && self.shared_coin.gen_bool(Self::DOWNGRADE_PROB) {
            false
        } else {
            heard
        };
        if processed != true_or {
            self.corrupted += 1;
        }
        Delivery::Shared(processed)
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn corrupted_rounds(&self) -> usize {
        self.corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stochastic_counts_corruptions() {
        let mut ch = StochasticChannel::new(3, NoiseModel::Correlated { epsilon: 0.5 }, 0);
        for _ in 0..1_000 {
            ch.transmit(false);
        }
        assert_eq!(ch.rounds(), 1_000);
        let rate = ch.corrupted_rounds() as f64 / 1_000.0;
        assert!((rate - 0.5).abs() < 0.06, "rate {rate}");
    }

    #[test]
    fn reseeding_matches_a_fresh_channel() {
        let models = [
            NoiseModel::Noiseless,
            NoiseModel::Correlated { epsilon: 0.3 },
            NoiseModel::OneSidedZeroToOne { epsilon: 0.25 },
            NoiseModel::OneSidedOneToZero { epsilon: 0.25 },
            NoiseModel::Independent { epsilon: 0.2 },
        ];
        for model in models {
            // Dirty the channel first so reseeding has real state (and,
            // for independent noise, a stale mask block) to erase.
            let mut reused = StochasticChannel::new(5, model, 0xDEAD);
            for r in 0..150 {
                reused.transmit(r % 3 == 0);
            }
            for seed in [1u64, 99] {
                reused.reseed(seed);
                assert_eq!(reused.rounds(), 0);
                assert_eq!(reused.corrupted_rounds(), 0);
                let mut fresh = StochasticChannel::new(5, model, seed);
                for r in 0..150 {
                    let true_or = r % 3 == 0;
                    assert_eq!(
                        reused.transmit(true_or),
                        fresh.transmit(true_or),
                        "delivery diverged over {model} seed {seed} round {r}"
                    );
                }
                assert_eq!(reused.corrupted_rounds(), fresh.corrupted_rounds());
            }
        }
    }

    #[test]
    fn near_noiseless_channels_deliver_cleanly() {
        // 0 < ε ≤ 2⁻⁵⁴ rounds `1 − ε` to 1, whose log 0 would make every
        // gap 0: the channel would flip every eligible round.
        for epsilon in [1e-17, 2f64.powi(-54)] {
            for model in [
                NoiseModel::Correlated { epsilon },
                NoiseModel::OneSidedZeroToOne { epsilon },
                NoiseModel::OneSidedOneToZero { epsilon },
                NoiseModel::Independent { epsilon },
            ] {
                let mut ch = StochasticChannel::new(5, model, 3);
                for r in 0..10_000 {
                    ch.transmit(r % 2 == 0);
                }
                let mut heard = [0u64; 5];
                for w in 0..160u64 {
                    let sent = w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    ch.transmit_word(sent, 64, &mut heard);
                    assert_eq!(heard, [sent; 5], "{model}");
                }
                assert_eq!(ch.rounds(), 20_240);
                assert_eq!(ch.corrupted_rounds(), 0, "{model}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_rejected() {
        StochasticChannel::new(0, NoiseModel::Noiseless, 0);
    }

    #[test]
    #[should_panic(expected = "invalid noise")]
    fn invalid_epsilon_rejected() {
        StochasticChannel::new(2, NoiseModel::Correlated { epsilon: 2.0 }, 0);
    }

    #[test]
    fn scripted_follows_script_then_clean() {
        let mut ch = ScriptedChannel::new(2, vec![false, true]);
        assert_eq!(ch.transmit(true).shared(), Some(true));
        assert_eq!(ch.transmit(true).shared(), Some(false));
        assert_eq!(ch.transmit(false).shared(), Some(false));
        assert_eq!(ch.corrupted_rounds(), 1);
    }

    #[test]
    fn reduction_matches_quarter_noise_both_directions() {
        // A.1.2: the composite channel must flip with probability 1/4
        // regardless of the true OR.
        let trials = 200_000u32;
        let mut ch = ReducedTwoSidedChannel::new(2, 0xAB);
        let mut flips_of_one = 0u32;
        for _ in 0..trials {
            if ch.transmit(true).shared() == Some(false) {
                flips_of_one += 1;
            }
        }
        let mut ch = ReducedTwoSidedChannel::new(2, 0xCD);
        let mut flips_of_zero = 0u32;
        for _ in 0..trials {
            if ch.transmit(false).shared() == Some(true) {
                flips_of_zero += 1;
            }
        }
        let r1 = f64::from(flips_of_one) / f64::from(trials);
        let r0 = f64::from(flips_of_zero) / f64::from(trials);
        assert!((r1 - 0.25).abs() < 0.005, "1->0 rate {r1} should be 1/4");
        assert!((r0 - 0.25).abs() < 0.005, "0->1 rate {r0} should be 1/4");
    }

    #[test]
    fn independent_channel_reports_per_party() {
        let mut ch = StochasticChannel::new(8, NoiseModel::Independent { epsilon: 0.2 }, 1);
        match ch.transmit(true) {
            Delivery::PerParty(bits) => assert_eq!(bits.len(), 8),
            Delivery::Sparse(sparse) => assert_eq!(sparse.len(), 8),
            Delivery::Shared(_) => panic!("independent noise must deliver per party"),
        }
    }

    #[test]
    fn sparse_and_dense_independent_deliveries_agree() {
        // The sparse fast path and the dense-forced path expand the same
        // skip-sampled flip buckets, so deliveries must be bit-identical
        // round for round (the manual `Delivery` equality compares the
        // representations semantically).
        for n in [1usize, 5, 64, 65, 200] {
            let model = NoiseModel::Independent { epsilon: 0.2 };
            let mut sparse = StochasticChannel::new(n, model, 42);
            let mut dense = StochasticChannel::new(n, model, 42);
            dense.set_dense_deliveries(true);
            for r in 0..300 {
                let true_or = r % 3 == 0;
                let got = sparse.transmit(true_or);
                let want = dense.transmit(true_or);
                assert!(
                    matches!(want, Delivery::PerParty(_)),
                    "dense-forced channel must deliver PerParty"
                );
                assert_eq!(got, want, "n={n} round {r}");
            }
            assert_eq!(sparse.corrupted_rounds(), dense.corrupted_rounds());
        }
    }

    #[test]
    fn heavy_corruption_falls_back_to_dense_deliveries() {
        // At ε = 0.9 nearly every party flips each round, far above the
        // crossover, so the channel must choose the dense representation
        // on its own.
        let mut ch = StochasticChannel::new(64, NoiseModel::Independent { epsilon: 0.9 }, 7);
        let mut dense_rounds = 0;
        for _ in 0..100 {
            if matches!(ch.transmit(false), Delivery::PerParty(_)) {
                dense_rounds += 1;
            }
        }
        assert!(dense_rounds > 90, "only {dense_rounds}/100 rounds dense");
    }

    #[test]
    fn light_corruption_stays_sparse() {
        // At ε = 0.001 over 200 parties the crossover (12 flips) is
        // essentially never reached.
        let mut ch = StochasticChannel::new(200, NoiseModel::Independent { epsilon: 0.001 }, 7);
        for r in 0..500 {
            assert!(
                matches!(ch.transmit(r % 2 == 0), Delivery::Sparse(_)),
                "round {r} unexpectedly dense"
            );
        }
    }
}
