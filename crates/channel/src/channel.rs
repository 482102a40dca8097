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
//! A gap is the inverse-CDF value `⌊ln(1−U)/ln(1−ε)⌋` of one uniform
//! draw `U`, which is always a multiple of 2⁻⁵². That formula is
//! non-decreasing in `U`, so for each ε a process-wide table
//! (`GapTable`) keeps the least `U` of every gap up to 128, and a draw
//! reads its gap off those thresholds through a guide index over
//! `⌊1024·U⌋`. It evaluates the `ln` only past the last threshold, or
//! for an ε so small that most draws would land there. Every draw still
//! takes one RNG word and returns the formula's integer.
//!
//! Shared-noise models run one such countdown over the rounds where a
//! flip is possible (`SharedCountdown`). Besides single rounds it
//! delivers a constant-OR span ([`StochasticChannel::flips_in_span`]) or
//! a codeword of any length ([`StochasticChannel::transmit_codeword`],
//! an owners turn; the shared arm of [`Channel::transmit_word`] is its
//! one-word case) in one walk from flip to flip over the eligible
//! rounds' offsets, and either draws, flips and counts exactly as the
//! same rounds delivered one at a time (pinned by `tests/proptests.rs`).
//!
//! Independent-noise flips are drawn 64 rounds at a time into one
//! *flip mask* per party that flips in the block: an ascending list of
//! `(party, mask)` pairs, bit `r` of the mask set if the party's copy
//! flips in block round `r`. A word of up to 64 rounds
//! ([`Channel::transmit_word`]) XORs each listed party's shifted mask
//! into its heard word and counts corrupted rounds with a popcount of
//! the masks' OR, so it costs O(n + parties flipped in the block) and
//! nothing per flip beyond its gap draw. A single round reads its bit
//! off the same masks into a dense [`Delivery::PerParty`] row, so it
//! costs O(n/64 + parties flipped in the block), and O(n/64) in a round
//! where no party flips: the OR of the block's masks, kept at refill,
//! says which rounds those are.

use crate::bits::BitVec;
use crate::noise::{Delivery, NoiseModel};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Rounds covered by one independent-noise mask block.
const BLOCK_ROUNDS: usize = 64;

/// A uniform draw `gen_range(0.0..1.0)` is `m·2⁻⁵²` for a grid index
/// `m < 2⁵²`.
const GRID_BITS: u32 = 52;

/// The uniform at grid index `m`, exactly as a draw returns it.
fn grid_uniform(m: u64) -> f64 {
    m as f64 / (1u64 << GRID_BITS) as f64
}

/// The gap of the uniform `u` by inversion: `U ∈ [1−(1−ε)^k,
/// 1−(1−ε)^{k+1})` ⇒ gap k, saturating at `u64::MAX` ("never"). Every
/// draw returns this integer; a [`GapTable`] only finds it faster.
fn formula_gap(u: f64, ln_keep: f64) -> u64 {
    let gap = ((1.0 - u).ln() / ln_keep).floor();
    if gap >= u64::MAX as f64 {
        u64::MAX
    } else {
        gap as u64
    }
}

/// Gaps a [`GapTable`] resolves; a draw past its last threshold takes
/// the formula. `P(gap ≥ 128) = (1−ε)^128`, ≈ 1.4·10⁻⁶ at ε = 0.1.
const TABLE_GAPS: usize = 128;

/// log₂ of the guide's bucket count.
const GUIDE_BITS: u32 = 10;

/// At most this many distinct ε are looked up in one process; draws at
/// any later one evaluate the formula.
const MAX_TABLES: usize = 64;

/// The gaps below [`TABLE_GAPS`] of one `ln(1−ε)`, by grid index.
///
/// The formula is non-decreasing in `m`: neighbouring grid points
/// `1−u` differ in `ln` by at least e/2 times the sum of two faithfully
/// rounded results' errors, and the divide and floor are monotone. So
/// `gap(m) ≥ k` exactly when `m` reaches the least grid index of gap
/// `k`, and the number of such thresholds at or below `m` is its gap.
/// A guide over `⌊1024·u⌋` starts the count at each bucket's first gap
/// (Chen & Asau's indexed search, 1974), so a draw steps past about one
/// threshold.
struct GapTable {
    /// `thresholds[k]`: the least grid index whose gap is at least
    /// `k + 1`, or 2⁵² when no grid index reaches it. Non-decreasing.
    thresholds: [u64; TABLE_GAPS],
    /// `guide[b]`: the number of thresholds at or below the bucket's
    /// first grid index `b·2⁴²`.
    guide: [u8; 1 << GUIDE_BITS],
}

impl GapTable {
    /// Bisects the grid for each threshold with [`formula_gap`] itself,
    /// so the table holds the integers draws have always returned.
    fn build(ln_keep: f64) -> Self {
        let gap = |m: u64| formula_gap(grid_uniform(m), ln_keep);
        let top = (1u64 << GRID_BITS) - 1;
        let mut thresholds = [1u64 << GRID_BITS; TABLE_GAPS];
        // gap(lo) < k ≤ gap(hi) on every bisection; gap(0) = 0.
        let mut lo = 0;
        for (k, threshold) in (1..).zip(thresholds.iter_mut()) {
            if gap(top) < k {
                break;
            }
            let mut hi = top;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if gap(mid) >= k {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            *threshold = hi;
        }
        let guide = std::array::from_fn(|b| {
            let start = (b as u64) << (GRID_BITS - GUIDE_BITS);
            thresholds.partition_point(|&t| t <= start) as u8
        });
        Self { thresholds, guide }
    }

    /// The gap of grid index `m`, or `None` past the last threshold.
    #[inline]
    fn gap(&self, m: u64) -> Option<u64> {
        let mut k = usize::from(self.guide[(m >> (GRID_BITS - GUIDE_BITS)) as usize]);
        while k < TABLE_GAPS && self.thresholds[k] <= m {
            k += 1;
        }
        (k < TABLE_GAPS).then_some(k as u64)
    }
}

impl std::fmt::Debug for GapTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GapTable").finish_non_exhaustive()
    }
}

/// The table of `ln_keep`, built on its first use in the process and
/// shared by every later channel: channels are built per trial, and a
/// build costs 0.04–0.13 ms. `None` when fewer than half of the draws
/// would land in a table (ε below about 0.005), or once [`MAX_TABLES`]
/// distinct ε are in use.
///
/// The tables live in static storage, not on the heap: a table
/// allocated mid-run stays between that run's large buffers for the
/// rest of the process, which kept the allocator from reusing their
/// pages and made perfbench `million_party`'s set-up ~20% slower on a
/// 2-core x86_64 host.
fn gap_table(ln_keep: f64) -> Option<&'static GapTable> {
    /// The distinct `ln_keep` bits seen so far, in order of first use,
    /// each with whether it takes a table.
    static SEEN: Mutex<(usize, [(u64, bool); MAX_TABLES])> =
        Mutex::new((0, [(0, false); MAX_TABLES]));
    /// The table of `SEEN`'s `i`-th entry, if it takes one.
    static TABLES: [OnceLock<GapTable>; MAX_TABLES] = [const { OnceLock::new() }; MAX_TABLES];
    let mut seen = SEEN.lock().unwrap_or_else(PoisonError::into_inner);
    let (len, keys) = &mut *seen;
    let key = ln_keep.to_bits();
    let i = match keys[..*len].iter().position(|&(k, _)| k == key) {
        Some(i) => i,
        None if *len == MAX_TABLES => return None,
        None => {
            let half = formula_gap(0.5, ln_keep) < TABLE_GAPS as u64;
            keys[*len] = (key, half);
            *len += 1;
            *len - 1
        }
    };
    keys[i]
        .1
        .then(|| TABLES[i].get_or_init(|| GapTable::build(ln_keep)))
}

/// Geometric gap draws for one flip rate ε: the number of clean eligible
/// rounds before the next flip of a Bernoulli(ε) stream, geometric on
/// `{0, 1, …}` with `P(k) = ε(1−ε)^k`, by inversion of one uniform draw.
///
/// `ln(1−ε)` is taken once, here, and with it the ε's [`GapTable`], so
/// a draw is one RNG word and, nearly always, a table lookup.
#[derive(Debug, Clone, Copy)]
struct GeometricGap {
    /// `ln(1−ε)`, or 0 for ε ≤ 0 ("never flips"); negative for every
    /// ε > 0.
    ln_keep: f64,
    /// The thresholds of `ln_keep`, if it has a table.
    table: Option<&'static GapTable>,
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
        let table = if ln_keep == 0.0 {
            None
        } else {
            gap_table(ln_keep)
        };
        Self { ln_keep, table }
    }

    /// Draws one gap. Returns `u64::MAX` ("never") for ε ≤ 0 without
    /// consuming randomness.
    #[inline]
    fn draw(self, rng: &mut StdRng) -> u64 {
        if self.ln_keep == 0.0 {
            return u64::MAX;
        }
        self.gap(rng.gen_range(0.0..1.0))
    }

    /// The gap of the uniform draw `u`: [`formula_gap`], read off the
    /// table where it has one.
    #[inline]
    fn gap(self, u: f64) -> u64 {
        // `1 + u` is exact, and its mantissa is `u`'s grid index: cheaper
        // than converting `u · 2⁵²` to an integer.
        let m = (1.0 + u).to_bits() & ((1u64 << GRID_BITS) - 1);
        match self.table.and_then(|table| table.gap(m)) {
            Some(gap) => gap,
            None => formula_gap(u, self.ln_keep),
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

/// The independent-noise skip sampler of a [`StochasticChannel`]:
/// per-party geometric skips expanded into 64-round blocks, each held
/// as one flip mask per party that flips in it.
#[derive(Debug)]
struct IndependentSampler {
    /// The block's flips: `(party, mask)` in ascending party order, one
    /// entry per party that flips in the block, bit `r` of the mask set
    /// if it flips in block round `r`.
    masks: Vec<(u32, u64)>,
    /// The OR of the block's masks: the block rounds in which any party
    /// flips.
    any: u64,
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
    /// Seeds the flip calendar with each party's first flip round, one
    /// geometric draw per party in ascending party order — the
    /// construction-time RNG contract of `StochasticChannel::new` under
    /// independent noise.
    fn new(n: usize, epsilon: f64, rng: &mut StdRng) -> Self {
        let gap = GeometricGap::new(epsilon);
        let mut calendar = std::collections::BTreeMap::new();
        for p in 0..n {
            calendar_insert(&mut calendar, p as u32, gap.draw(rng));
        }
        Self {
            masks: Vec::new(),
            any: 0,
            offset: BLOCK_ROUNDS,
            calendar,
            block: 0,
            gap,
        }
    }

    /// Advances one round and writes its flips into `row`: bit `p % 64`
    /// of `row[p / 64]` is set iff party `p` flips in it. Returns
    /// whether any party flipped.
    fn round(&mut self, rng: &mut StdRng, row: &mut [u64]) -> bool {
        if self.offset == BLOCK_ROUNDS {
            self.refill(rng);
        }
        let r = self.offset;
        self.offset += 1;
        row.fill(0);
        if (self.any >> r) & 1 == 0 {
            return false;
        }
        // The masks come in ascending party order, so each row word is
        // built in a register, without a branch on the round's bit, and
        // stored once.
        let mut at = 0;
        let mut word = 0u64;
        for &(p, mask) in &self.masks {
            let w = p as usize / 64;
            if w != at {
                row[at] = word;
                (at, word) = (w, 0);
            }
            word |= ((mask >> r) & 1) << (p % 64);
        }
        row[at] = word;
        true
    }

    /// Advances `len ≤ 64` rounds and XORs their flips into `heard`:
    /// bit `k` of `heard[p]` toggles if party `p` flips in the `k`-th of
    /// them. Returns how many of the rounds flipped any party.
    fn flip_word(&mut self, rng: &mut StdRng, len: usize, heard: &mut [u64]) -> usize {
        let mut corrupted = 0;
        let mut k = 0;
        while k < len {
            if self.offset == BLOCK_ROUNDS {
                self.refill(rng);
            }
            // The word's rounds k.. that fall in this block.
            let take = (len - k).min(BLOCK_ROUNDS - self.offset);
            let window = word_mask(take);
            let mut any = 0u64;
            for &(p, mask) in &self.masks {
                let bits = (mask >> self.offset) & window;
                heard[p as usize] ^= bits << k;
                any |= bits;
            }
            corrupted += any.count_ones() as usize;
            self.offset += take;
            k += take;
        }
        corrupted
    }

    /// Rebuilds the flip masks for the next block from the flip
    /// calendar.
    ///
    /// Only the parties whose next flip lands in this block are
    /// touched — O(εn) amortized per round — but they are processed in
    /// ascending party order with chained gap draws, exactly the points
    /// at which the full per-party skip walk this replaced consumed the
    /// RNG, so seeded flip sets are bitwise unchanged. Ascending party
    /// order also leaves the mask list sorted, so a single round builds
    /// each word of its row once.
    fn refill(&mut self, rng: &mut StdRng) {
        self.masks.clear();
        self.any = 0;
        if let Some(mut due) = self.calendar.remove(&self.block) {
            due.sort_unstable();
            let base = self.block * BLOCK_ROUNDS as u64;
            for (p, off) in due {
                let mut mask = 0u64;
                let mut pos = u64::from(off);
                while pos < BLOCK_ROUNDS as u64 {
                    mask |= 1 << pos;
                    pos = next_flip_position(pos, self.gap, rng);
                }
                self.masks.push((p, mask));
                self.any |= mask;
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
/// This is the one flip process behind every shared-noise delivery of
/// a [`StochasticChannel`]. Rounds can be delivered one at a time
/// ([`SharedCountdown::step`]), as a constant-OR span
/// ([`SharedCountdown::flips_in_span`]) or as a codeword of any length
/// ([`SharedCountdown::deliver`]). The span and the codeword take the
/// one walk over eligible-round offsets ([`SharedCountdown::walk`]), and
/// every delivery decrements the countdown once per eligible round and
/// redraws it on each flip, so any interleaving draws, flips and counts
/// exactly as the same rounds delivered one by one.
#[derive(Debug)]
struct SharedCountdown {
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
    fn new(model: NoiseModel, mut rng: StdRng) -> Self {
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

    /// Flipped rounds delivered so far.
    fn flips(&self) -> u64 {
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
    fn step(&mut self, true_or: bool) -> bool {
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

    /// Passes `rounds` eligible rounds, calling `flip(k)` on each one
    /// that flips, `k` its offset among them, in ascending order;
    /// returns how many flipped. RNG work is one draw per flip, and
    /// nothing per clean round.
    #[inline]
    fn walk(&mut self, rounds: u64, mut flip: impl FnMut(u64)) -> u64 {
        let mut flips = 0u64;
        // `at` rounds are passed; the next flip has `pos` clean eligible
        // rounds ahead of it and spends pos + 1 of them.
        let mut at = 0u64;
        let mut pos = self.skip;
        while pos < rounds - at {
            at += pos;
            flip(at);
            at += 1;
            flips += 1;
            pos = self.gap.draw(&mut self.rng);
        }
        self.skip = pos - (rounds - at);
        self.flips += flips;
        flips
    }

    /// Delivers `rounds` consecutive rounds with constant true OR
    /// `true_or`; returns how many of them flipped.
    fn flips_in_span(&mut self, rounds: u64, true_or: bool) -> u64 {
        if self.eligible(u64::from(true_or)) & 1 == 0 {
            return 0;
        }
        self.walk(rounds, |_| {})
    }

    /// Delivers the `len` consecutive rounds whose true ORs are the bits
    /// of `sent`, 64 to a limb (round `k` is bit `k % 64` of limb
    /// `k / 64`), and writes the rounds that flipped into `flipped` the
    /// same way; returns how many flipped. Bits at or above `len` are
    /// ignored in `sent` and zero in `flipped`.
    ///
    /// Under correlated noise every round is eligible, so one
    /// [`SharedCountdown::walk`] over all `len` rounds marks each flip at
    /// its offset. Otherwise each limb is one walk over its eligible
    /// rounds, counted once, and each flip clears the eligible bits below
    /// its own.
    ///
    /// # Panics
    ///
    /// Panics if `flipped` and `sent` differ in length or `len` exceeds
    /// their rounds.
    #[inline]
    fn deliver(&mut self, sent: &[u64], len: usize, flipped: &mut [u64]) -> u64 {
        assert_eq!(flipped.len(), sent.len(), "one flip limb per sent limb");
        assert!(
            len <= 64 * sent.len(),
            "{len} rounds overrun {} limbs",
            sent.len()
        );
        if let FlipsOn::Every = self.flips_on {
            flipped.fill(0);
            return self.walk(len as u64, |round| {
                flipped[(round / 64) as usize] |= 1 << (round % 64);
            });
        }
        let mut flips = 0;
        for (k, (&word, out)) in sent.iter().zip(flipped.iter_mut()).enumerate() {
            let rounds = len.saturating_sub(64 * k).min(64);
            let mut eligible = self.eligible(word) & word_mask(rounds);
            let mut mask = 0;
            // The offset of the lowest eligible round left in `eligible`.
            let mut base = 0;
            flips += self.walk(u64::from(eligible.count_ones()), |offset| {
                for _ in base..offset {
                    eligible &= eligible - 1;
                }
                let round = eligible & eligible.wrapping_neg();
                eligible ^= round;
                mask |= round;
                base = offset + 1;
            });
            *out = mask;
        }
        flips
    }

    /// [`SharedCountdown::deliver`] of one word of `len ≤ 64` rounds;
    /// returns the heard bits, zero at and above `len`.
    fn word(&mut self, sent: u64, len: usize) -> u64 {
        let mut flipped = [0];
        self.deliver(&[sent], len, &mut flipped);
        (sent & word_mask(len)) ^ flipped[0]
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
        /// Per-party flip masks behind the skip calendar.
        skipper: IndependentSampler,
        /// Scratch row (`⌈n/64⌉` words) for a single round's flips.
        dense_row: Vec<u64>,
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
    /// delivery as a broadcast bit plus the parties that differ from it
    /// (a per-party row against the round's true OR): O(n + flips) per
    /// word for shared deliveries and O(len·n/64 + n + flips) for
    /// per-party ones. Channels that override it must draw, flip and
    /// count ([`Channel::rounds`], [`Channel::corrupted_rounds`])
    /// exactly as that default would.
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
            let true_or = sent & round != 0;
            match self.transmit(true_or) {
                Delivery::Shared(bit) => base |= u64::from(bit) << k,
                Delivery::PerParty(bits) => {
                    base |= u64::from(true_or) << k;
                    let fill = if true_or { u64::MAX } else { 0 };
                    for (parties, &word) in heard.chunks_mut(64).zip(bits.words()) {
                        // The row's tail past `n` is no party's.
                        let mut diff = (word ^ fill) & word_mask(parties.len());
                        while diff != 0 {
                            parties[diff.trailing_zeros() as usize] ^= round;
                            diff &= diff - 1;
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
#[inline]
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

    /// Delivers a codeword of `len` consecutive rounds in one call: bit
    /// `k % 64` of `sent[k / 64]` is the true OR of round `k`. Writes the
    /// rounds that flipped into `flipped` the same way, so every party
    /// hears `sent ^ flipped`, and returns how many flipped. Bits at or
    /// above `len` are ignored in `sent` and zero in `flipped`.
    ///
    /// Draws, flips and counts ([`Channel::rounds`],
    /// [`Channel::corrupted_rounds`]) exactly as `len` calls to
    /// [`Channel::transmit`] would. It walks from flip to flip over the
    /// rounds where a flip is possible, so its RNG work is one draw per
    /// flip and its other work a few operations per flip and per limb.
    ///
    /// # Panics
    ///
    /// Panics if `flipped` and `sent` differ in length, `len` exceeds
    /// their `64 · sent.len()` rounds, or the model is
    /// [`NoiseModel::Independent`] (whose deliveries differ per party).
    #[inline]
    pub fn transmit_codeword(&mut self, sent: &[u64], len: usize, flipped: &mut [u64]) -> usize {
        let flips = self.shared_countdown().deliver(sent, len, flipped);
        self.rounds += len;
        flips as usize
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
                corrupted,
            } => {
                if skipper.round(rng, dense_row) {
                    *corrupted += 1;
                }
                Delivery::PerParty(BitVec::from_flips(dense_row, true_or, n))
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

    /// Shared models deliver the word as a one-limb codeword
    /// ([`StochasticChannel::transmit_codeword`]). Independent noise XORs
    /// the flip masks `len` single rounds would read into each flipped
    /// party's copy of `sent`, a block at a time, building no per-round
    /// [`Delivery`].
    fn transmit_word(&mut self, sent: u64, len: usize, heard: &mut [u64]) {
        assert!(len <= 64, "a word carries at most 64 rounds, got {len}");
        assert_eq!(heard.len(), self.n, "one heard word per party");
        match &mut self.sampler {
            Sampler::Shared(countdown) => heard.fill(countdown.word(sent, len)),
            Sampler::Independent {
                rng,
                skipper,
                corrupted,
                ..
            } => {
                heard.fill(sent & word_mask(len));
                *corrupted += skipper.flip_word(rng, len, heard);
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
    fn independent_single_rounds_match_word_deliveries() {
        // At n = 10⁴ and ε = 10⁻⁵ about nine rounds in ten flip no party:
        // a single round reads that off the block's mask OR.
        const LENS: [usize; 6] = [64, 37, 1, 63, 64, 50];
        let (mut quiet, mut noisy) = (0, 0);
        for n in [1usize, 63, 64, 65, 128, 129, 10_000] {
            for epsilon in [1e-5, 0.1] {
                let model = NoiseModel::Independent { epsilon };
                let mut rounds = StochasticChannel::new(n, model, 0x5EED);
                let mut words = StochasticChannel::new(n, model, 0x5EED);
                let mut heard = vec![0u64; n];
                for (w, len) in LENS.into_iter().enumerate() {
                    let sent = (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    words.transmit_word(sent, len, &mut heard);
                    for k in 0..len {
                        let true_or = (sent >> k) & 1 == 1;
                        let before = rounds.corrupted_rounds();
                        let delivery = rounds.transmit(true_or);
                        for (i, &word) in heard.iter().enumerate() {
                            assert_eq!(
                                delivery.heard_by(i),
                                (word >> k) & 1 == 1,
                                "n {n} ε {epsilon} word {w} round {k} party {i}"
                            );
                        }
                        if n == 10_000 && epsilon == 1e-5 {
                            if rounds.corrupted_rounds() == before {
                                quiet += 1;
                            } else {
                                noisy += 1;
                            }
                        }
                    }
                    assert_eq!(rounds.rounds(), words.rounds());
                    assert_eq!(rounds.corrupted_rounds(), words.corrupted_rounds());
                }
            }
        }
        assert!(quiet > 0 && noisy > 0, "quiet {quiet}, noisy {noisy}");
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

    /// Every ε an experiment, example, perfbench workload or the CLI's
    /// default draws at, the ε ≤ 2⁻⁵⁴ branch, and the edges of the
    /// table rule.
    const TABLE_EPSILONS: [f64; 15] = [
        1e-17,
        f64::EPSILON / 4.0, // 2⁻⁵⁴
        1e-5,
        1e-3,
        0.01,
        0.05,
        0.1,
        0.15,
        0.2,
        0.25,
        0.333,
        1.0 / 3.0,
        0.45,
        0.49,
        0.9,
    ];

    /// Holds the table of every [`TABLE_EPSILONS`] ε, used by a channel
    /// or not, and the channels' own draw path to the formula at the
    /// grid indices `ms` yields for it.
    fn assert_tables_match_formula<I: Iterator<Item = u64>>(ms: impl Fn(&GapTable) -> I) {
        for epsilon in TABLE_EPSILONS {
            let gap = GeometricGap::new(epsilon);
            let table = GapTable::build(gap.ln_keep);
            for m in ms(&table) {
                let u = grid_uniform(m);
                let want = formula_gap(u, gap.ln_keep);
                let got = table.gap(m).unwrap_or(want);
                assert_eq!((got, gap.gap(u)), (want, want), "ε {epsilon} m {m}");
            }
        }
    }

    /// The grid indices within `radius` of any reachable threshold, each
    /// once.
    fn near_thresholds(table: &GapTable, radius: u64) -> impl Iterator<Item = u64> {
        let top = (1u64 << GRID_BITS) - 1;
        let mut next = 0;
        table
            .thresholds
            .into_iter()
            .filter(move |&t| t <= top)
            .flat_map(move |t| {
                let range = t.saturating_sub(radius).max(next)..=(t + radius).min(top);
                next = range.end() + 1;
                range
            })
    }

    #[test]
    fn gap_tables_match_the_formula() {
        assert_tables_match_formula(|table| {
            let mut rng = StdRng::seed_from_u64(0x6A7);
            let random: Vec<u64> = (0..100_000).map(|_| rng.next_u64() >> 12).collect();
            [0, (1u64 << GRID_BITS) - 1]
                .into_iter()
                .chain(near_thresholds(table, 64))
                .chain(random)
        });
    }

    /// Every grid index within 2¹⁶ of every threshold: the one
    /// assumption of the table, a monotone `ln` near each jump, on this
    /// host. ~6 s in release; CI runs it there.
    #[test]
    #[ignore = "exhaustive; run in release"]
    fn gap_tables_match_the_formula_near_every_threshold() {
        assert_tables_match_formula(|table| near_thresholds(table, 1 << 16));
    }

    #[test]
    fn channels_take_a_table_when_most_draws_land_in_it() {
        for epsilon in TABLE_EPSILONS {
            let gap = GeometricGap::new(epsilon);
            assert_eq!(gap.table.is_some(), epsilon >= 0.01, "ε {epsilon}");
        }
        assert!(GeometricGap::new(0.0).table.is_none());
        // ε = 0.01 leaves (0.99)^128 ≈ 28% of the draws to the formula.
        let gap = GeometricGap::new(0.01);
        let table = gap.table.expect("ε = 0.01 has a table");
        let top = (1u64 << GRID_BITS) - 1;
        assert!(table.thresholds[TABLE_GAPS - 1] < top);
        assert_eq!(table.gap(top), None);
        let u = grid_uniform(top);
        assert_eq!(gap.gap(u), formula_gap(u, gap.ln_keep));
        assert!(gap.gap(u) >= TABLE_GAPS as u64);
    }

    #[test]
    fn table_draws_take_the_formula_draws_rng_words() {
        for epsilon in TABLE_EPSILONS {
            let gap = GeometricGap::new(epsilon);
            let mut table_rng = StdRng::seed_from_u64(11);
            let mut formula_rng = table_rng.clone();
            for i in 0..20_000 {
                let want = formula_gap(formula_rng.gen_range(0.0..1.0), gap.ln_keep);
                assert_eq!(gap.draw(&mut table_rng), want, "ε {epsilon} draw {i}");
            }
            assert_eq!(table_rng.next_u64(), formula_rng.next_u64(), "ε {epsilon}");
        }
    }

    #[test]
    fn channels_built_at_once_at_a_fresh_epsilon_draw_identically() {
        // No other test draws at this ε, so both threads race to build
        // its table.
        let model = NoiseModel::Correlated { epsilon: 0.0421 };
        let start = std::sync::Barrier::new(2);
        let run = || {
            start.wait();
            let gap = GeometricGap::new(model.epsilon());
            let mut ch = StochasticChannel::new(3, model, 5);
            let mut heard = [0u64; 3];
            let words: Vec<[u64; 3]> = (0..2_000)
                .map(|_| {
                    ch.transmit_word(0, 64, &mut heard);
                    heard
                })
                .collect();
            (gap.table, words, ch.corrupted_rounds())
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(run);
            let b = s.spawn(run);
            (a.join().expect("thread a"), b.join().expect("thread b"))
        });
        let (table_a, table_b) = (a.0.expect("ε = 0.0421 has a table"), b.0.expect("and so"));
        assert!(std::ptr::eq(table_a, table_b), "one table per ε");
        assert_eq!((a.1, a.2), (b.1, b.2));
        assert!(a.2 > 0);
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
            Delivery::Shared(_) => panic!("independent noise must deliver per party"),
        }
    }
}
