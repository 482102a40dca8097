//! Collapsed struct-of-arrays engines: the one shared-noise body of
//! every scheme.
//!
//! The per-party engines (`simulate_over`) keep one heap-allocated state
//! machine per party — an array-of-structs layout whose per-round cost
//! is `O(n)` pointer-chasing `hear` calls and whose committed transcript
//! costs `O(T · n)` memory (every party stores its own copy). Under
//! every *shared*-delivery regime (all models except `Independent`) that
//! redundancy is structural: each party hears the same bit each round,
//! so decoded chunk bits, owners bookkeeping, and the committed prefix
//! are identical across parties, and one collapsed copy suffices.
//!
//! Each scheme has exactly one collapsed body here (`*_collapsed_over`),
//! run over one trial's [`StochasticChannel`] by the `simulate` /
//! `simulate_with_scratch` front doors, up to million-party `n`. The
//! finding-owners phase of Algorithm 1 likewise exists once, as
//! `owners_collapsed`: the rewind and hierarchical bodies run it per
//! chunk, and [`crate::run_owners_phase`] runs it under shared noise
//! through `owners_standalone`. It decodes each codeword once, not once
//! per party, and sends it one channel word (≤ 64 rounds,
//! [`StochasticChannel::transmit_rounds`]) at a time from a codeword
//! table built once per body call. The bodies are built for very large
//! `n`:
//!
//! * **Struct-of-arrays party state** — the only per-party facts are
//!   "would party `i` beep in simulated round `m`" and "does party `i`
//!   currently raise the verification flag". Both are stored as packed
//!   `n`-bit rows of `u64` words (the party axis is the bit axis), so
//!   per-round updates stream through `⌈n/64⌉` contiguous words instead
//!   of `n` scattered structs.
//! * **Windowed verification state** — a party's verification flag over a
//!   committed prefix is a *per-chunk* property: a committed chunk's
//!   violation row (which parties would flag it) is immutable for as long
//!   as the chunk stays committed, because the prefix below it never
//!   changes. The engine keeps a stack with one cumulative-OR row per
//!   committed chunk, retains only the most recent
//!   [`SimulatorConfig::verify_window`](crate::SimulatorConfig) rows
//!   exactly (older rows are evicted down to a digest), and recomputes
//!   from the transcript in the rare event a rewind storm pops past the
//!   window. Memory is `O(T + window · n/64 words)` instead of
//!   `O(T · n)`.
//! * **Exact channel replay** — the engine feeds the stochastic channel
//!   the exact per-round OR sequence the scalar parties would produce,
//!   so the RNG stream, and therefore every transcript, statistic, and
//!   `BudgetExhausted` error, is **bitwise identical** to the scalar
//!   path (pinned in `tests/packed_equivalence.rs`).
//!
//! All scratch buffers live in a [`SoaScratch`] arena so a worker thread
//! can run many trials through `TrialRunner::run_with_scratch` without
//! per-trial allocation.

use crate::outcome::{PhaseRounds, SimError, SimOutcome, SimStats};
use crate::owners::{metric_for, OwnersState};
use crate::params::SimulatorConfig;
use beeps_channel::{Channel, NoiseModel, Protocol, StochasticChannel};
use beeps_ecc::bits::PackedBits;
use beeps_ecc::SymbolCode;

/// Reads bit `i` of a packed party row.
#[inline]
fn row_get(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

/// Sets bit `i` of a packed party row.
#[inline]
fn row_set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// Number of set bits in a packed party row.
#[inline]
fn row_count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// ORs `src` into `dst` word by word.
#[inline]
fn row_or(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Sets all `n` party bits (and keeps the tail bits of the last word
/// zero, so popcounts stay exact).
fn row_fill(words: &mut [u64], n: usize) {
    for w in words.iter_mut() {
        *w = u64::MAX;
    }
    if !n.is_multiple_of(64) {
        let last = words.len() - 1;
        words[last] &= (1u64 << (n % 64)) - 1;
    }
}

/// FNV-style fold of a packed row, the integrity marker kept for rows
/// evicted past the verification window (checked when a rewind storm
/// forces the row to be recomputed from the transcript).
fn row_digest(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One committed chunk on the verification stack: the cumulative OR of
/// all violation rows up to and including this chunk (exact inside the
/// retention window, evicted to `None` beyond it) plus the digest of
/// this chunk's own violation row.
struct CumEntry {
    cum: Option<Vec<u64>>,
    viol_digest: u64,
}

impl CumEntry {
    /// The materialized cumulative violation row.
    ///
    /// # Panics
    ///
    /// Panics if the row was evicted from the retention window — the
    /// engines rematerialize the window (see [`rematerialize_window`])
    /// before reading past entries, so a panic here is an engine bug,
    /// not a recoverable condition.
    fn row(&self) -> &[u64] {
        self.cum.as_ref().expect("stack entry inside the window")
    }
}

/// Heard 1s in a constant-OR span of `span` rounds with `flips` flipped
/// deliveries: every flip turns a heard 1 into a 0 or vice versa.
fn ones_in_span(span: u64, flips: u64, true_or: bool) -> u64 {
    if true_or {
        span - flips
    } else {
        flips
    }
}

/// One shared-noise round with true OR `or`; returns the heard bit.
///
/// # Panics
///
/// Panics if the channel hands back a per-party delivery: the collapsed
/// engines only run under shared-noise models, whose deliveries are a
/// single bit by construction.
fn bit(channel: &mut StochasticChannel, or: bool) -> bool {
    channel.transmit(or).shared().expect("shared delivery")
}

/// `span` consecutive shared-noise rounds with constant true OR `or`;
/// returns how many deliveries were heard as 1. The span goes through
/// [`StochasticChannel::flips_in_span`], whose RNG work scales with the
/// flips, not the rounds, and draws exactly as `span` calls of [`bit`].
fn ones(channel: &mut StochasticChannel, span: usize, or: bool) -> usize {
    let flips = channel.flips_in_span(span, or);
    ones_in_span(span as u64, flips as u64, or) as usize
}

/// Reusable buffers of the collapsed engines; hand one to
/// [`RewindSimulator::simulate_with_scratch`](crate::RewindSimulator::simulate_with_scratch)
/// (typically from a `run_with_scratch` worker arena) to run many trials
/// without per-trial allocation. A `Default`-constructed scratch is
/// empty and grows to the working-set size of the first trial.
#[derive(Default)]
pub struct SoaScratch {
    /// Beep rows of the pending chunk, `len × words` flat.
    cols: Vec<u64>,
    /// Violation row of the pending chunk.
    viol: Vec<u64>,
    /// Flag row assembled for one verification vote.
    flags: Vec<u64>,
    /// Decoded bits of the pending chunk.
    bits: Vec<bool>,
    /// Owners bookkeeping of the pending chunk.
    claimed: Vec<bool>,
    chunk_owners: Vec<Option<usize>>,
    /// The owners code's codewords as packed limbs, `alphabet × limbs`
    /// flat, rebuilt once per body call (see [`load_codewords`]).
    codewords: Vec<u64>,
    /// Heard bits of the in-flight owners codeword.
    heard: PackedBits,
    /// Per-round beep bit of the schedule owner (owned-rounds engine).
    owner_beeps: Vec<bool>,
    /// Witnessed-erasure rows of the one-to-zero engine: `(position,
    /// parties that beeped the erased 1)`, ascending by position.
    marks: Vec<(usize, Vec<u64>)>,
    /// Check levels scheduled after the current data slot.
    levels: Vec<usize>,
    /// Committed transcript (single shared copy — not per party).
    committed_bits: Vec<bool>,
    committed_owners: Vec<Option<usize>>,
    chunk_lens: Vec<usize>,
    /// Committed prefix plus the decoded bits of the in-flight chunk.
    working: Vec<bool>,
    /// Per-committed-chunk cumulative violation rows (windowed).
    stack: Vec<CumEntry>,
    /// Recycled row buffers for the stack.
    pool: Vec<Vec<u64>>,
}

impl std::fmt::Debug for SoaScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoaScratch")
            .field("committed_bits", &self.committed_bits.len())
            .field("stack", &self.stack.len())
            .finish_non_exhaustive()
    }
}

impl SoaScratch {
    /// Resets per-trial state, returning stack rows to the pool.
    fn reset(&mut self) {
        self.bits.clear();
        self.committed_bits.clear();
        self.committed_owners.clear();
        self.chunk_lens.clear();
        self.working.clear();
        while let Some(entry) = self.stack.pop() {
            if let Some(buf) = entry.cum {
                self.pool.push(buf);
            }
        }
        while let Some((_, row)) = self.marks.pop() {
            self.pool.push(row);
        }
        self.levels.clear();
    }

    /// Words currently held by the verification stack plus its pool —
    /// the windowed part of the memory footprint, exposed so the scale
    /// experiment can report it.
    pub fn retained_words(&self) -> usize {
        let live: usize = self
            .stack
            .iter()
            .map(|e| e.cum.as_ref().map_or(0, Vec::len))
            .sum();
        let pooled: usize = self.pool.iter().map(Vec::len).sum();
        live + pooled
    }
}

/// Packs every codeword of `code` into `scratch.codewords`, one
/// `⌈code_len/64⌉`-limb row per symbol. Built once per body call, so an
/// owners iteration reads its codeword instead of cloning it.
fn load_codewords(code: &dyn SymbolCode, scratch: &mut SoaScratch) {
    scratch.codewords.clear();
    for symbol in 0..code.alphabet_size() {
        scratch
            .codewords
            .extend_from_slice(code.encode_packed(symbol).limbs());
    }
    debug_assert_eq!(
        scratch.codewords.len(),
        code.alphabet_size() * code.codeword_len().div_ceil(64)
    );
}

/// One finding-owners phase of Algorithm 1 (Appendix D.1) on collapsed
/// state: the one owners body of every engine that runs the phase.
///
/// The chunk is `scratch.bits` (its transcript `π`, `len` rounds) with
/// beep rows `scratch.cols` (bit `i` of row `j`: party `i` beeped in
/// round `j`), and `scratch.codewords` holds the code's table
/// ([`load_codewords`]). The phase runs `len + n` iterations in turn
/// order. The turn-holder sends the codeword of the smallest unclaimed
/// 1-round it beeped in, else `Next`, one channel word (≤ 64 rounds) at
/// a time. The heard word is decoded once, since every party hears the
/// same one, with [`SymbolCode::decode_sent`]: knowing the sent symbol
/// lets most decodes skip the full scan, with the scan's result. A claim
/// lands in `scratch.claimed` /
/// `scratch.chunk_owners`. Once every party has passed, the remaining
/// iterations deliver silence.
///
/// Opens the phase span `span` (the caller's name for the phase) and
/// decodes with the metric matched to `model`. Returns the beeping
/// energy spent, or `None` as soon as an iteration's `code_len` rounds
/// no longer fit in the `room` left of the caller's budget.
fn owners_collapsed(
    span: &'static str,
    n: usize,
    code: &dyn SymbolCode,
    model: NoiseModel,
    room: usize,
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Option<usize> {
    let _span = beeps_observe::phase(span);
    let metric = metric_for(model);
    let words = n.div_ceil(64);
    let code_len = code.codeword_len();
    let limbs = code_len.div_ceil(64);
    let next_symbol = code.alphabet_size() - 1;
    let SoaScratch {
        cols,
        bits,
        claimed,
        chunk_owners,
        codewords,
        heard,
        ..
    } = scratch;
    let len = bits.len();
    claimed.clear();
    claimed.resize(len, false);
    chunk_owners.clear();
    chunk_owners.resize(len, None);
    let mut turn = 0usize;
    let mut used = 0usize;
    let mut energy = 0usize;
    for _ in 0..len + n {
        if room - used < code_len {
            return None;
        }
        used += code_len;
        if turn == n {
            // Idle iteration: every party is past its turn, nobody
            // beeps, but the channel still delivers silent rounds.
            let _ = ones(channel, code_len, false);
            continue;
        }
        let claim = (0..len)
            .find(|&j| bits[j] && !claimed[j] && row_get(&cols[j * words..(j + 1) * words], turn));
        let symbol = claim.unwrap_or(next_symbol);
        heard.clear();
        let codeword = &codewords[symbol * limbs..(symbol + 1) * limbs];
        for (k, &limb) in codeword.iter().enumerate() {
            let rounds = (code_len - 64 * k).min(64);
            energy += limb.count_ones() as usize;
            heard.push_word(channel.transmit_rounds(limb, rounds), rounds);
        }
        let decoded = code.decode_sent(symbol, heard, metric);
        if decoded == next_symbol {
            turn += 1;
        } else if decoded < len {
            claimed[decoded] = true;
            chunk_owners[decoded] = Some(turn);
        }
        // A decoded symbol in [len, Next) names no round of this chunk
        // (tail chunks, decode errors): it claims nothing.
    }
    Some(energy)
}

/// The standalone owners phase of [`crate::run_owners_phase`] under
/// shared noise, as in the premise of Theorem D.1: party `i` beeped
/// `bits[i][j]` in round `j` of a chunk whose transcript
/// `π_j = ⋁_i bits[i][j]` everyone knows. Loads the beep rows and `π`,
/// builds the codeword table and runs [`owners_collapsed`] once under
/// the `owners.phase` span, over exactly the phase's own rounds.
/// Returns the owner table, which is every party's.
pub(crate) fn owners_standalone<'s>(
    bits: &[Vec<bool>],
    code: &dyn SymbolCode,
    model: NoiseModel,
    channel: &mut StochasticChannel,
    scratch: &'s mut SoaScratch,
) -> &'s [Option<usize>] {
    let n = bits.len();
    let len = bits.first().map_or(0, Vec::len);
    let words = n.div_ceil(64);
    scratch.cols.clear();
    scratch.cols.resize(len * words, 0);
    for (i, party) in bits.iter().enumerate() {
        for (j, &beeped) in party.iter().enumerate() {
            if beeped {
                row_set(&mut scratch.cols[j * words..(j + 1) * words], i);
            }
        }
    }
    scratch.bits.clear();
    for col in scratch.cols.chunks_exact(words) {
        scratch.bits.push(row_count(col) > 0);
    }
    load_codewords(code, scratch);
    let rounds = OwnersState::channel_rounds(len, n, code.codeword_len());
    let spent = owners_collapsed("owners.phase", n, code, model, rounds, channel, scratch);
    debug_assert!(spent.is_some(), "the phase fits its own round count");
    &scratch.chunk_owners
}

/// The collapsed rewind-scheme engine (Theorem 1.2): chunk by
/// repetition, the Algorithm 1 owners phase, then a verification vote
/// that pops one committed chunk when it fails. `code` is the owners
/// code of `config`. Caller guarantees `model` is a validated shared-delivery
/// model; `Independent` noise must take the scalar path (per-party
/// deliveries break the collapse).
pub(crate) fn rewind_collapsed_over<P: Protocol>(
    protocol: &P,
    config: &SimulatorConfig,
    inputs: &[P::Input],
    model: NoiseModel,
    code: &dyn SymbolCode,
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Result<SimOutcome<P::Output>, SimError> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    let t = protocol.length();
    let resolved = config.resolve(model);
    let code_len = code.codeword_len();
    let r = config.repetitions;
    let v = config.verify_repetitions;
    let words = n.div_ceil(64);
    let window = config.verify_window.max(1);

    // Same budget formula as `RewindSimulator::simulate_over`.
    let chunks_needed = t.div_ceil(config.chunk_len).max(1);
    let ideal = chunks_needed
        * (config.chunk_len * r
            + OwnersState::channel_rounds(config.chunk_len, n, config.code_len)
            + v);
    let budget = (config.budget_factor * ideal as f64).ceil() as usize;

    scratch.reset();
    load_codewords(code, scratch);
    let corrupted_before = channel.corrupted_rounds();
    let mut rounds = 0usize;
    let mut energy = 0usize;
    let mut phase_rounds = PhaseRounds::default();
    let mut chunks_committed = 0usize;
    let mut rewinds = 0usize;

    // A span the budget cannot cover is where the scalar driver would
    // burn its remaining rounds mid-phase and stop: nothing commits, so
    // `rounds_used` is always the whole budget and `committed` is the
    // count as of the last completed verification.
    let exhausted = |scratch: &SoaScratch| SimError::BudgetExhausted {
        rounds_used: budget,
        committed: scratch.committed_bits.len().min(t),
    };

    loop {
        let remaining = t.saturating_sub(scratch.committed_bits.len());
        if remaining == 0 {
            break;
        }
        let len = remaining.min(config.chunk_len);
        assert!(
            len < code.alphabet_size(),
            "chunk of {len} rounds needs an alphabet of at least {} symbols",
            len + 1
        );

        // --- Chunk phase: `len` simulated rounds, R channel rounds each.
        // The beep rows double as the owners phase's claim table and the
        // verification phase's would-beep evidence.
        let chunk_span = beeps_observe::phase("sim.rewind.chunk");
        scratch.bits.clear();
        scratch.cols.clear();
        scratch.cols.resize(len * words, 0);
        for j in 0..len {
            if budget - rounds < r {
                return Err(exhausted(scratch));
            }
            let col = &mut scratch.cols[j * words..(j + 1) * words];
            let mut beeps = 0usize;
            for (i, input) in inputs.iter().enumerate() {
                if protocol.beep(i, input, &scratch.working) {
                    row_set(col, i);
                    beeps += 1;
                }
            }
            let or = beeps > 0;
            let ones = ones(channel, r, or);
            let bit = ones >= resolved.rep_ones;
            scratch.bits.push(bit);
            scratch.working.push(bit);
            energy += r * beeps;
            rounds += r;
            phase_rounds.chunk += r;
        }
        drop(chunk_span);

        // --- Owners phase: `len + n` codeword iterations, decoded once
        // (every party hears the same word) instead of once per party.
        let Some(owners_energy) = owners_collapsed(
            "sim.rewind.owners",
            n,
            code,
            model,
            budget - rounds,
            channel,
            scratch,
        ) else {
            return Err(exhausted(scratch));
        };
        let owners_rounds = OwnersState::channel_rounds(len, n, code_len);
        energy += owners_energy;
        rounds += owners_rounds;
        phase_rounds.owners += owners_rounds;

        // --- Verification: V rounds of the flag OR. The flag row is the
        // cumulative violation row of the committed prefix (top of the
        // stack, O(1)) ORed with the pending chunk's fresh violations —
        // no per-party transcript re-walk.
        let verify_span = beeps_observe::phase("sim.rewind.verify");
        if budget - rounds < v {
            return Err(exhausted(scratch));
        }
        scratch.viol.clear();
        scratch.viol.resize(words, 0);
        for j in 0..len {
            let col = &scratch.cols[j * words..(j + 1) * words];
            if !scratch.bits[j] {
                // Condition (a): a 0-round some party would beep in.
                row_or(&mut scratch.viol, col);
            } else {
                match scratch.chunk_owners[j] {
                    // Condition (c): an unowned 1 is flagged by everyone.
                    None => {
                        row_fill(&mut scratch.viol, n);
                        break;
                    }
                    // Condition (b): the owner itself would not beep.
                    Some(owner) => {
                        if !row_get(col, owner) {
                            row_set(&mut scratch.viol, owner);
                        }
                    }
                }
            }
        }
        scratch.flags.clear();
        scratch.flags.extend_from_slice(&scratch.viol);
        if let Some(top) = scratch.stack.last() {
            let cum = top.row();
            row_or(&mut scratch.flags, cum);
        }
        let flag_count = row_count(&scratch.flags);
        let or = flag_count > 0;
        let ones = ones(channel, v, or);
        let failed = ones >= resolved.verify_ones;
        energy += v * flag_count;
        rounds += v;
        phase_rounds.verify += v;
        drop(verify_span);

        if failed {
            rewinds += 1;
            beeps_observe::mark("sim.rewind.rewind");
            // Discard the pending chunk and pop one committed chunk.
            if let Some(popped) = scratch.chunk_lens.pop() {
                let new_len = scratch.committed_bits.len() - popped;
                scratch.committed_bits.truncate(new_len);
                scratch.committed_owners.truncate(new_len);
                chunks_committed = chunks_committed.saturating_sub(1);
                if let Some(entry) = scratch.stack.pop() {
                    if let Some(buf) = entry.cum {
                        scratch.pool.push(buf);
                    }
                }
                if scratch.stack.last().is_some_and(|e| e.cum.is_none()) {
                    // The rewind popped past the retention window:
                    // re-derive the violation rows from the transcript.
                    let SoaScratch {
                        committed_bits,
                        committed_owners,
                        chunk_lens,
                        stack,
                        pool,
                        ..
                    } = &mut *scratch;
                    rematerialize_window(chunk_lens, stack, pool, words, window, |m, viol| {
                        let prefix = &committed_bits[..m];
                        if !committed_bits[m] {
                            for (i, input) in inputs.iter().enumerate() {
                                if protocol.beep(i, input, prefix) {
                                    row_set(viol, i);
                                }
                            }
                        } else {
                            match committed_owners[m] {
                                None => row_fill(viol, n),
                                Some(owner) => {
                                    if !protocol.beep(owner, &inputs[owner], prefix) {
                                        row_set(viol, owner);
                                    }
                                }
                            }
                        }
                    });
                }
            }
        } else {
            scratch.committed_bits.extend_from_slice(&scratch.bits);
            scratch
                .committed_owners
                .extend_from_slice(&scratch.chunk_owners);
            scratch.chunk_lens.push(scratch.bits.len());
            chunks_committed += 1;
            let mut cum = scratch.pool.pop().unwrap_or_default();
            cum.clear();
            cum.extend_from_slice(&scratch.viol);
            if let Some(top) = scratch.stack.last() {
                let prev = top.row();
                row_or(&mut cum, prev);
            }
            scratch.stack.push(CumEntry {
                cum: Some(cum),
                viol_digest: row_digest(&scratch.viol),
            });
            if scratch.stack.len() > window {
                let evict = scratch.stack.len() - window - 1;
                if let Some(buf) = scratch.stack[evict].cum.take() {
                    scratch.pool.push(buf);
                }
            }
        }
        scratch.working.truncate(scratch.committed_bits.len());
    }

    let mut transcript = Vec::with_capacity(t);
    transcript.extend_from_slice(&scratch.committed_bits[..t]);
    let mut outputs = Vec::with_capacity(n);
    for (i, input) in inputs.iter().enumerate() {
        outputs.push(protocol.output(i, input, &transcript));
    }
    let stats = SimStats {
        channel_rounds: rounds,
        phase_rounds,
        protocol_rounds: t,
        chunks_committed,
        rewinds,
        // Shared noise keeps every party's bookkeeping in lockstep.
        agreement: true,
        energy,
        corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
    };
    Ok(SimOutcome::new(transcript, outputs, stats))
}

/// The collapsed repetition engine: every simulated round is `R`
/// channel rounds decoded by one threshold majority — shared delivery
/// keeps every party's decoded transcript identical, so one copy
/// suffices and the per-party state machines of
/// [`RepetitionSimulator::simulate_over`](crate::RepetitionSimulator::simulate_over)
/// collapse entirely. Caller guarantees `model` is a validated
/// shared-delivery model; `Independent` noise must take the scalar path.
pub(crate) fn repetition_collapsed_over<P: Protocol>(
    protocol: &P,
    config: &SimulatorConfig,
    inputs: &[P::Input],
    model: NoiseModel,
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Result<SimOutcome<P::Output>, SimError> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    let t = protocol.length();
    let resolved = config.resolve(model);
    let r = config.repetitions;

    scratch.reset();
    let corrupted_before = channel.corrupted_rounds();
    let mut energy = 0usize;
    let chunk_span = beeps_observe::phase("sim.repetition.chunk");
    for _ in 0..t {
        let mut beeps = 0usize;
        for (i, input) in inputs.iter().enumerate() {
            if protocol.beep(i, input, &scratch.committed_bits) {
                beeps += 1;
            }
        }
        let or = beeps > 0;
        let ones = ones(channel, r, or);
        scratch.committed_bits.push(ones >= resolved.rep_ones);
        energy += r * beeps;
    }
    drop(chunk_span);

    let mut transcript = Vec::with_capacity(t);
    transcript.extend_from_slice(&scratch.committed_bits);
    let mut outputs = Vec::with_capacity(n);
    for (i, input) in inputs.iter().enumerate() {
        outputs.push(protocol.output(i, input, &transcript));
    }
    let stats = SimStats {
        channel_rounds: t * r,
        phase_rounds: PhaseRounds {
            chunk: t * r,
            ..Default::default()
        },
        protocol_rounds: t,
        chunks_committed: 0,
        rewinds: 0,
        agreement: true,
        energy,
        corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
    };
    Ok(SimOutcome::new(transcript, outputs, stats))
}

/// The collapsed owned-rounds engine: chunked repetition plus the
/// verification vote, no owners phase — the schedule already names each
/// round's only legal beeper, so a chunk's violation row has at most
/// one settable bit per round (the owner whose committed bit disagrees
/// with its own beep). Caller guarantees `model` is a validated
/// shared-delivery model.
pub(crate) fn owned_rounds_collapsed_over<P: beeps_channel::UniquelyOwned>(
    protocol: &P,
    config: &SimulatorConfig,
    inputs: &[P::Input],
    model: NoiseModel,
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Result<SimOutcome<P::Output>, SimError> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    let t = protocol.length();
    let resolved = config.resolve(model);
    let r = config.repetitions;
    let v = config.verify_repetitions;
    let words = n.div_ceil(64);
    let window = config.verify_window.max(1);

    // Same budget formula as `OwnedRoundsSimulator::simulate_over`.
    let chunks_needed = t.div_ceil(config.chunk_len).max(1);
    let per_iteration = config.chunk_len * r + v;
    let budget = (config.budget_factor * (chunks_needed * per_iteration) as f64).ceil() as usize;

    scratch.reset();
    let corrupted_before = channel.corrupted_rounds();
    let mut rounds = 0usize;
    let mut energy = 0usize;
    let mut phase_rounds = PhaseRounds::default();
    let mut chunks_committed = 0usize;
    let mut rewinds = 0usize;

    let exhausted = |scratch: &SoaScratch| SimError::BudgetExhausted {
        rounds_used: budget,
        committed: scratch.committed_bits.len().min(t),
    };

    loop {
        let committed_len = scratch.committed_bits.len();
        let remaining = t.saturating_sub(committed_len);
        if remaining == 0 {
            break;
        }
        let len = remaining.min(config.chunk_len);

        // --- Chunk phase: `len` simulated rounds, R channel rounds each.
        // Only the round owner's beep bit is evidence for verification,
        // so that is the only per-party fact recorded.
        let chunk_span = beeps_observe::phase("sim.owned_rounds.chunk");
        scratch.bits.clear();
        scratch.owner_beeps.clear();
        for j in 0..len {
            if budget - rounds < r {
                return Err(exhausted(scratch));
            }
            let owner = protocol.round_owner(committed_len + j);
            let mut beeps = 0usize;
            let mut owner_beep = false;
            for (i, input) in inputs.iter().enumerate() {
                if protocol.beep(i, input, &scratch.working) {
                    beeps += 1;
                    if i == owner {
                        owner_beep = true;
                    }
                }
            }
            let or = beeps > 0;
            let ones = ones(channel, r, or);
            let bit = ones >= resolved.rep_ones;
            scratch.bits.push(bit);
            scratch.owner_beeps.push(owner_beep);
            scratch.working.push(bit);
            energy += r * beeps;
            rounds += r;
            phase_rounds.chunk += r;
        }
        drop(chunk_span);

        // --- Verification: V rounds of the owner-only flag OR.
        let verify_span = beeps_observe::phase("sim.owned_rounds.verify");
        if budget - rounds < v {
            return Err(exhausted(scratch));
        }
        scratch.viol.clear();
        scratch.viol.resize(words, 0);
        for j in 0..len {
            if scratch.owner_beeps[j] != scratch.bits[j] {
                row_set(&mut scratch.viol, protocol.round_owner(committed_len + j));
            }
        }
        scratch.flags.clear();
        scratch.flags.extend_from_slice(&scratch.viol);
        if let Some(top) = scratch.stack.last() {
            let cum = top.row();
            row_or(&mut scratch.flags, cum);
        }
        let flag_count = row_count(&scratch.flags);
        let or = flag_count > 0;
        let ones = ones(channel, v, or);
        let failed = ones >= resolved.verify_ones;
        energy += v * flag_count;
        rounds += v;
        phase_rounds.verify += v;
        drop(verify_span);

        if failed {
            rewinds += 1;
            beeps_observe::mark("sim.owned_rounds.rewind");
            if let Some(popped) = scratch.chunk_lens.pop() {
                let new_len = scratch.committed_bits.len() - popped;
                scratch.committed_bits.truncate(new_len);
                chunks_committed = chunks_committed.saturating_sub(1);
                if let Some(entry) = scratch.stack.pop() {
                    if let Some(buf) = entry.cum {
                        scratch.pool.push(buf);
                    }
                }
                if scratch.stack.last().is_some_and(|e| e.cum.is_none()) {
                    let SoaScratch {
                        committed_bits,
                        chunk_lens,
                        stack,
                        pool,
                        ..
                    } = &mut *scratch;
                    rematerialize_window(chunk_lens, stack, pool, words, window, |m, viol| {
                        let owner = protocol.round_owner(m);
                        let b = protocol.beep(owner, &inputs[owner], &committed_bits[..m]);
                        if b != committed_bits[m] {
                            row_set(viol, owner);
                        }
                    });
                }
            }
        } else {
            scratch.committed_bits.extend_from_slice(&scratch.bits);
            scratch.chunk_lens.push(scratch.bits.len());
            chunks_committed += 1;
            let mut cum = scratch.pool.pop().unwrap_or_default();
            cum.clear();
            cum.extend_from_slice(&scratch.viol);
            if let Some(top) = scratch.stack.last() {
                let prev = top.row();
                row_or(&mut cum, prev);
            }
            scratch.stack.push(CumEntry {
                cum: Some(cum),
                viol_digest: row_digest(&scratch.viol),
            });
            if scratch.stack.len() > window {
                let evict = scratch.stack.len() - window - 1;
                if let Some(buf) = scratch.stack[evict].cum.take() {
                    scratch.pool.push(buf);
                }
            }
        }
        scratch.working.truncate(scratch.committed_bits.len());
    }

    let mut transcript = Vec::with_capacity(t);
    transcript.extend_from_slice(&scratch.committed_bits[..t]);
    let mut outputs = Vec::with_capacity(n);
    for (i, input) in inputs.iter().enumerate() {
        outputs.push(protocol.output(i, input, &transcript));
    }
    let stats = SimStats {
        channel_rounds: rounds,
        phase_rounds,
        protocol_rounds: t,
        chunks_committed,
        rewinds,
        agreement: true,
        energy,
        corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
    };
    Ok(SimOutcome::new(transcript, outputs, stats))
}

/// The collapsed one-to-zero engine: direct data rounds with the
/// hierarchy of geometric checkpoints. The per-party state of the
/// scalar path (each party's private error marks) collapses to one row
/// per witnessed erasure — the parties that beeped the erased 1 — and
/// the check-round flag OR is the running OR of the active rows.
/// Caller guarantees the channel runs a validated `OneSidedOneToZero`
/// or `Noiseless` model. (The model only seeds the channel, so the
/// body does not take it.)
pub(crate) fn one_to_zero_collapsed_over<P: Protocol>(
    protocol: &P,
    base: usize,
    budget_factor: f64,
    inputs: &[P::Input],
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Result<SimOutcome<P::Output>, SimError> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    let t = protocol.length();
    let words = n.div_ceil(64);
    // Same level schedule and budget as `OneToZeroSimulator::simulate_over`.
    let max_level = (usize::BITS - t.next_power_of_two().leading_zeros()) as usize + 1;
    let final_rounds = base * (max_level + 2);
    let budget = (budget_factor * t.max(1) as f64).ceil() as usize + base * (max_level + 2) * 4;

    scratch.reset();
    let corrupted_before = channel.corrupted_rounds();
    let mut rounds = 0usize;
    let mut energy = 0usize;
    let mut phase_rounds = PhaseRounds::default();
    let mut rewinds = 0usize;
    let mut slot = 0usize;
    // Running OR of the active mark rows = the check-round flag row.
    scratch.flags.clear();
    scratch.flags.resize(words, 0);

    let exhausted = |scratch: &SoaScratch| SimError::BudgetExhausted {
        rounds_used: budget,
        committed: scratch.committed_bits.len().min(t),
    };

    let done = 'sim: loop {
        // --- One data round simulating protocol round `|σ|`.
        if budget - rounds < 1 {
            return Err(exhausted(scratch));
        }
        scratch.viol.clear();
        scratch.viol.resize(words, 0);
        let mut beeps = 0usize;
        for (i, input) in inputs.iter().enumerate() {
            if protocol.beep(i, input, &scratch.committed_bits) {
                row_set(&mut scratch.viol, i);
                beeps += 1;
            }
        }
        let or = beeps > 0;
        let heard = bit(channel, or);
        scratch.committed_bits.push(heard);
        if or && !heard {
            // An erasure, witnessed by exactly the parties that beeped.
            let mut row = scratch.pool.pop().unwrap_or_default();
            row.clear();
            row.extend_from_slice(&scratch.viol);
            row_or(&mut scratch.flags, &row);
            scratch.marks.push((scratch.committed_bits.len() - 1, row));
        }
        slot += 1;
        rounds += 1;
        energy += beeps;
        phase_rounds.chunk += 1;

        // --- The checks scheduled after this slot, then possibly the
        // final confirmation (mirrors `start_check`/`after_checks`).
        scratch.levels.clear();
        for j in 1..=max_level {
            if !slot.is_multiple_of(1usize << j) {
                break;
            }
            scratch.levels.push(j);
        }
        let mut li = 0usize;
        let mut is_final = false;
        loop {
            if li >= scratch.levels.len() {
                // `after_checks`: transcript complete → final check,
                // otherwise back to a data round.
                if scratch.committed_bits.len() >= t {
                    scratch.levels.clear();
                    scratch.levels.push(max_level);
                    li = 0;
                    is_final = true;
                    continue;
                }
                break;
            }
            let level = scratch.levels[li];
            li += 1;
            let rounds_in_level = if is_final { final_rounds } else { base * level };
            if budget - rounds < rounds_in_level {
                return Err(exhausted(scratch));
            }
            let flag_count = row_count(&scratch.flags);
            let or = flag_count > 0;
            let heard_any = ones(channel, rounds_in_level, or) > 0;
            rounds += rounds_in_level;
            energy += rounds_in_level * flag_count;
            phase_rounds.verify += rounds_in_level;
            if heard_any {
                // A heard flag is never false under 1→0 noise.
                rewinds += 1;
                let new_len = scratch.committed_bits.len().saturating_sub(1usize << level);
                scratch.committed_bits.truncate(new_len);
                while scratch.marks.last().is_some_and(|(p, _)| *p >= new_len) {
                    let (_, row) = scratch.marks.pop().expect("checked non-empty");
                    scratch.pool.push(row);
                }
                scratch.flags.clear();
                scratch.flags.resize(words, 0);
                for (_, row) in scratch.marks.iter() {
                    row_or(&mut scratch.flags, row);
                }
                if is_final {
                    // Confirmation failed: back through `after_checks`.
                    li = scratch.levels.len();
                    is_final = false;
                    continue;
                }
            } else if is_final {
                break 'sim true;
            }
        }
    };
    debug_assert!(done);

    let mut transcript = Vec::with_capacity(t);
    transcript.extend_from_slice(&scratch.committed_bits[..t]);
    let mut outputs = Vec::with_capacity(n);
    for (i, input) in inputs.iter().enumerate() {
        outputs.push(protocol.output(i, input, &transcript));
    }
    let stats = SimStats {
        channel_rounds: rounds,
        phase_rounds,
        protocol_rounds: t,
        chunks_committed: 0,
        rewinds,
        agreement: true,
        energy,
        corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
    };
    Ok(SimOutcome::new(transcript, outputs, stats))
}

/// Binary-search steps for a window of `w + 1` candidate boundaries —
/// the collapsed `HierParty::steps_for`, kept operation-for-operation
/// identical so both paths walk the same search schedule.
fn steps_for(w: usize) -> usize {
    (usize::BITS - w.next_power_of_two().leading_zeros()) as usize + 1
}

/// Assembles the progress-check flag row for chunk boundary `boundary`
/// into `scratch.flags` and returns its popcount. A party flags the
/// boundary iff its `flag_for_boundary` walk over the first `boundary`
/// chunks finds a violation, which is exactly bit `i` of the cumulative
/// violation OR through chunk `boundary - 1`: `O(1)` from the stack
/// inside the retention window, recomputed from the committed transcript
/// (digest-checked chunk by chunk) when a deep check probes past it.
fn boundary_flags<P: Protocol>(
    protocol: &P,
    inputs: &[P::Input],
    words: usize,
    boundary: usize,
    scratch: &mut SoaScratch,
) -> usize {
    let n = protocol.num_parties();
    let SoaScratch {
        flags,
        viol,
        committed_bits,
        committed_owners,
        chunk_lens,
        stack,
        ..
    } = scratch;
    flags.clear();
    if boundary == 0 {
        flags.resize(words, 0);
        return 0;
    }
    if let Some(cum) = stack[boundary - 1].cum.as_ref() {
        flags.extend_from_slice(cum);
        return row_count(flags);
    }
    // Evicted entries form a prefix of the stack, so everything below
    // `boundary` needs one transcript pass (the same work one scalar
    // party's `flag_for_boundary` does).
    flags.resize(words, 0);
    let mut pos = 0usize;
    for (k, &clen) in chunk_lens.iter().take(boundary).enumerate() {
        viol.clear();
        viol.resize(words, 0);
        for _ in 0..clen {
            let prefix = &committed_bits[..pos];
            if !committed_bits[pos] {
                for (i, input) in inputs.iter().enumerate() {
                    if protocol.beep(i, input, prefix) {
                        row_set(viol, i);
                    }
                }
            } else {
                match committed_owners[pos] {
                    None => row_fill(viol, n),
                    Some(owner) => {
                        if !protocol.beep(owner, &inputs[owner], prefix) {
                            row_set(viol, owner);
                        }
                    }
                }
            }
            pos += 1;
        }
        debug_assert_eq!(
            row_digest(viol),
            stack[k].viol_digest,
            "recomputed violation row diverged from its commit-time digest"
        );
        row_or(flags, viol);
    }
    row_count(flags)
}

/// Truncates the committed prefix to exactly `boundary` chunks — the
/// collapsed `HierParty::truncate_to`, plus the stack bookkeeping: one
/// entry per popped chunk goes back to the pool, and if the pops expose
/// an evicted row the retention window is re-derived from the
/// transcript. Returns whether anything was truncated (the scalar
/// counts those as rewinds).
fn truncate_chunks<P: Protocol>(
    protocol: &P,
    inputs: &[P::Input],
    words: usize,
    window: usize,
    boundary: usize,
    scratch: &mut SoaScratch,
) -> bool {
    if boundary >= scratch.chunk_lens.len() {
        return false;
    }
    let n = protocol.num_parties();
    let mut keep = 0usize;
    for &len in scratch.chunk_lens.iter().take(boundary) {
        keep += len;
    }
    scratch.committed_bits.truncate(keep);
    scratch.committed_owners.truncate(keep);
    scratch.chunk_lens.truncate(boundary);
    scratch.working.truncate(keep);
    while scratch.stack.len() > boundary {
        if let Some(entry) = scratch.stack.pop() {
            if let Some(buf) = entry.cum {
                scratch.pool.push(buf);
            }
        }
    }
    if scratch.stack.last().is_some_and(|e| e.cum.is_none()) {
        let SoaScratch {
            committed_bits,
            committed_owners,
            chunk_lens,
            stack,
            pool,
            ..
        } = &mut *scratch;
        rematerialize_window(chunk_lens, stack, pool, words, window, |m, viol| {
            let prefix = &committed_bits[..m];
            if !committed_bits[m] {
                for (i, input) in inputs.iter().enumerate() {
                    if protocol.beep(i, input, prefix) {
                        row_set(viol, i);
                    }
                }
            } else {
                match committed_owners[m] {
                    None => row_fill(viol, n),
                    Some(owner) => {
                        if !protocol.beep(owner, &inputs[owner], prefix) {
                            row_set(viol, owner);
                        }
                    }
                }
            }
        });
    }
    true
}

/// The collapsed hierarchical engine (Appendix D.2): chunks commit
/// provisionally after the owners phase and binary-search progress
/// checks repair damage with exact back-jumps. Each check vote needs
/// every party's prefix-cleanliness flag for a probed boundary, which
/// [`boundary_flags`] reads off the cumulative violation stack instead
/// of `n` transcript walks. The scalar path arms the *first* vote of the
/// final full-coverage confirmation with `my_flag: false` for every
/// party (without consulting `flag_for_boundary`) — only fallback votes
/// after a flagged confirmation probe real flags — and the collapsed
/// engine replicates that silent first vote exactly. `code` is the
/// owners code of `config`, built once by the caller. Caller guarantees
/// `model` is a validated shared-delivery model.
pub(crate) fn hierarchical_collapsed_over<P: Protocol>(
    protocol: &P,
    config: &SimulatorConfig,
    inputs: &[P::Input],
    model: NoiseModel,
    code: &dyn SymbolCode,
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Result<SimOutcome<P::Output>, SimError> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    let t = protocol.length();
    let resolved = config.resolve(model);
    let code_len = code.codeword_len();
    let r = config.repetitions;
    let v = config.verify_repetitions;
    let words = n.div_ceil(64);
    let window = config.verify_window.max(1);

    // Same budget formula and level schedule as
    // `HierarchicalSimulator::simulate_over`.
    let chunks_needed = t.div_ceil(config.chunk_len).max(1);
    let max_level = (usize::BITS - chunks_needed.next_power_of_two().leading_zeros()) as usize + 1;
    let per_iter = config.chunk_len * r
        + OwnersState::channel_rounds(config.chunk_len, n, config.code_len)
        + v * 4;
    let budget = (config.budget_factor * (chunks_needed * per_iter) as f64).ceil() as usize
        + v * (max_level + 2) * (max_level + 2) * 4;

    scratch.reset();
    load_codewords(code, scratch);
    let corrupted_before = channel.corrupted_rounds();
    let mut rounds = 0usize;
    let mut energy = 0usize;
    let mut phase_rounds = PhaseRounds::default();
    let mut truncations = 0usize;
    let mut iteration = 0usize;

    let exhausted = |scratch: &SoaScratch| SimError::BudgetExhausted {
        rounds_used: budget,
        committed: scratch.committed_bits.len().min(t),
    };
    // The level-scaled vote threshold, float-for-float the scalar's.
    let flagged_at = |ones: usize, vote_len: usize| {
        let per = resolved.verify_ones as f64 / v as f64;
        ones as f64 >= (per * vote_len as f64).max(1.0)
    };

    'outer: loop {
        let remaining = t.saturating_sub(scratch.committed_bits.len());
        if remaining == 0 {
            // --- Final full-coverage confirmation at `max_level`. The
            // first vote is unarmed (everyone beeps `false`, zero
            // energy); hearing a flag anyway (noise can invent ones)
            // falls back into an armed binary search over the whole
            // prefix, after which chunking resumes.
            let committed = scratch.chunk_lens.len();
            let vote_len = v * (max_level + 1);
            let final_span = beeps_observe::phase("sim.hierarchical.verify");
            if budget - rounds < vote_len {
                return Err(exhausted(scratch));
            }
            let final_ones = ones(channel, vote_len, false);
            rounds += vote_len;
            phase_rounds.verify += vote_len;
            drop(final_span);
            if !flagged_at(final_ones, vote_len) {
                break 'outer;
            }
            let mut lo = 0usize;
            let mut hi = committed - 1;
            let mut steps_left = steps_for(hi - lo);
            if steps_left == 0 || hi < lo {
                if truncate_chunks(protocol, inputs, words, window, lo, scratch) {
                    truncations += 1;
                    beeps_observe::mark("sim.hierarchical.truncate");
                }
                continue 'outer;
            }
            loop {
                let boundary = (lo + hi).div_ceil(2);
                let flag_count = boundary_flags(protocol, inputs, words, boundary, scratch);
                let or = flag_count > 0;
                let vote_span = beeps_observe::phase("sim.hierarchical.verify");
                if budget - rounds < vote_len {
                    return Err(exhausted(scratch));
                }
                let ones = ones(channel, vote_len, or);
                rounds += vote_len;
                energy += vote_len * flag_count;
                phase_rounds.verify += vote_len;
                drop(vote_span);
                if flagged_at(ones, vote_len) {
                    hi = boundary - 1;
                } else {
                    lo = boundary;
                }
                steps_left = steps_left.saturating_sub(1);
                if steps_left == 0 || lo >= hi {
                    break;
                }
            }
            if truncate_chunks(protocol, inputs, words, window, lo, scratch) {
                truncations += 1;
                beeps_observe::mark("sim.hierarchical.truncate");
            }
            continue 'outer;
        }
        let len = remaining.min(config.chunk_len);
        assert!(
            len < code.alphabet_size(),
            "chunk of {len} rounds needs an alphabet of at least {} symbols",
            len + 1
        );

        // --- Chunk phase: `len` simulated rounds, R channel rounds
        // each, beep rows recorded for the owners and check phases.
        let chunk_span = beeps_observe::phase("sim.hierarchical.chunk");
        scratch.bits.clear();
        scratch.cols.clear();
        scratch.cols.resize(len * words, 0);
        for j in 0..len {
            if budget - rounds < r {
                return Err(exhausted(scratch));
            }
            let col = &mut scratch.cols[j * words..(j + 1) * words];
            let mut beeps = 0usize;
            for (i, input) in inputs.iter().enumerate() {
                if protocol.beep(i, input, &scratch.working) {
                    row_set(col, i);
                    beeps += 1;
                }
            }
            let or = beeps > 0;
            let ones = ones(channel, r, or);
            let bit = ones >= resolved.rep_ones;
            scratch.bits.push(bit);
            scratch.working.push(bit);
            energy += r * beeps;
            rounds += r;
            phase_rounds.chunk += r;
        }
        drop(chunk_span);

        // --- Owners phase: the same body as the rewind engine's.
        let Some(owners_energy) = owners_collapsed(
            "sim.hierarchical.owners",
            n,
            code,
            model,
            budget - rounds,
            channel,
            scratch,
        ) else {
            return Err(exhausted(scratch));
        };
        let owners_rounds = OwnersState::channel_rounds(len, n, code_len);
        energy += owners_energy;
        rounds += owners_rounds;
        phase_rounds.owners += owners_rounds;

        // --- Provisional commit: no verification gate — the progress
        // checks repair damage after the fact. The chunk's violation
        // row is computed from the recorded beep rows and pushed onto
        // the cumulative stack so later boundary votes are O(1).
        scratch.viol.clear();
        scratch.viol.resize(words, 0);
        for j in 0..len {
            let col = &scratch.cols[j * words..(j + 1) * words];
            if !scratch.bits[j] {
                row_or(&mut scratch.viol, col);
            } else {
                match scratch.chunk_owners[j] {
                    None => {
                        row_fill(&mut scratch.viol, n);
                        break;
                    }
                    Some(owner) => {
                        if !row_get(col, owner) {
                            row_set(&mut scratch.viol, owner);
                        }
                    }
                }
            }
        }
        scratch.committed_bits.extend_from_slice(&scratch.bits);
        scratch
            .committed_owners
            .extend_from_slice(&scratch.chunk_owners);
        scratch.chunk_lens.push(scratch.bits.len());
        let mut cum = scratch.pool.pop().unwrap_or_default();
        cum.clear();
        cum.extend_from_slice(&scratch.viol);
        if let Some(top) = scratch.stack.last() {
            let prev = top.row();
            row_or(&mut cum, prev);
        }
        scratch.stack.push(CumEntry {
            cum: Some(cum),
            viol_digest: row_digest(&scratch.viol),
        });
        if scratch.stack.len() > window {
            let evict = scratch.stack.len() - window - 1;
            if let Some(buf) = scratch.stack[evict].cum.take() {
                scratch.pool.push(buf);
            }
        }
        iteration += 1;

        // --- Progress checks: level 0 every iteration plus the
        // binary-counter schedule of higher levels.
        scratch.levels.clear();
        scratch.levels.push(0);
        for j in 1..=max_level {
            if !iteration.is_multiple_of(1usize << j) {
                break;
            }
            scratch.levels.push(j);
        }
        let mut li = 0usize;
        while li < scratch.levels.len() {
            let level = scratch.levels[li];
            li += 1;
            let committed = scratch.chunk_lens.len();
            let win = committed.min(1usize << level);
            let mut lo = committed - win;
            let mut hi = committed;
            let mut steps_left = steps_for(win);
            let vote_len = v * (level + 1);
            loop {
                let boundary = (lo + hi).div_ceil(2);
                let flag_count = boundary_flags(protocol, inputs, words, boundary, scratch);
                let or = flag_count > 0;
                let vote_span = beeps_observe::phase("sim.hierarchical.verify");
                if budget - rounds < vote_len {
                    return Err(exhausted(scratch));
                }
                let ones = ones(channel, vote_len, or);
                rounds += vote_len;
                energy += vote_len * flag_count;
                phase_rounds.verify += vote_len;
                drop(vote_span);
                if flagged_at(ones, vote_len) {
                    hi = boundary - 1;
                } else {
                    lo = boundary;
                }
                steps_left = steps_left.saturating_sub(1);
                if steps_left == 0 || lo >= hi {
                    break;
                }
            }
            if truncate_chunks(protocol, inputs, words, window, lo, scratch) {
                truncations += 1;
                beeps_observe::mark("sim.hierarchical.truncate");
            }
        }
    }

    let mut transcript = Vec::with_capacity(t);
    transcript.extend_from_slice(&scratch.committed_bits[..t]);
    let mut outputs = Vec::with_capacity(n);
    for (i, input) in inputs.iter().enumerate() {
        outputs.push(protocol.output(i, input, &transcript));
    }
    let stats = SimStats {
        channel_rounds: rounds,
        phase_rounds,
        protocol_rounds: t,
        chunks_committed: scratch.chunk_lens.len(),
        rewinds: truncations,
        agreement: true,
        energy,
        corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
    };
    Ok(SimOutcome::new(transcript, outputs, stats))
}

/// Recomputes the violation rows of the committed prefix after a rewind
/// popped past the retention window: one pass over the transcript
/// re-evaluating the protocol (the same work one scalar verification
/// does), re-materializing exact cumulative rows for the top `window`
/// chunks and leaving deeper chunks evicted. `viol_for_round` sets the
/// violation bits of one committed round into a zeroed row — each
/// scheme supplies its own flag conditions. Each recomputed row is
/// checked against the digest recorded at commit time.
fn rematerialize_window(
    chunk_lens: &[usize],
    stack: &mut [CumEntry],
    pool: &mut Vec<Vec<u64>>,
    words: usize,
    window: usize,
    mut viol_for_round: impl FnMut(usize, &mut Vec<u64>),
) {
    let keep_from = stack.len().saturating_sub(window);
    let mut running = pool.pop().unwrap_or_default();
    running.clear();
    running.resize(words, 0);
    let mut viol = pool.pop().unwrap_or_default();
    let mut pos = 0usize;
    for (k, &clen) in chunk_lens.iter().enumerate() {
        viol.clear();
        viol.resize(words, 0);
        for _ in 0..clen {
            viol_for_round(pos, &mut viol);
            pos += 1;
        }
        debug_assert_eq!(
            row_digest(&viol),
            stack[k].viol_digest,
            "recomputed violation row diverged from its commit-time digest"
        );
        row_or(&mut running, &viol);
        if k >= keep_from {
            let mut cum = pool.pop().unwrap_or_default();
            cum.clear();
            cum.extend_from_slice(&running);
            if let Some(buf) = stack[k].cum.replace(cum) {
                pool.push(buf);
            }
        }
    }
    pool.push(viol);
    pool.push(running);
}
