//! Collapsed struct-of-arrays engines: the one shared-noise body of
//! every scheme.
//!
//! The per-party engines keep one heap-allocated state machine per
//! party — an array-of-structs layout whose per-round cost is `O(n)`
//! pointer-chasing `hear` calls and whose committed transcript costs
//! `O(T · n)` memory (every party stores its own copy). Under
//! every *shared*-delivery regime (all models except `Independent`) that
//! redundancy is structural: each party hears the same bit each round,
//! so decoded chunk bits, owners bookkeeping, and the committed prefix
//! are identical across parties, and one collapsed copy suffices.
//!
//! Each scheme has exactly one collapsed body here (`*_collapsed_over`),
//! which the crate's one front door, the blanket
//! [`Simulator`](crate::Simulator) impl, runs over one trial's
//! [`StochasticChannel`] for every shared-delivery model, once it has
//! checked the model and the input count, up to million-party `n`. The
//! finding-owners phase of Algorithm 1 likewise exists once, as
//! `owners_collapsed`: the rewind and hierarchical bodies run it per
//! chunk, and [`crate::run_owners_phase`] runs it under shared noise
//! through `owners_standalone`. A turn there costs about its flips: a
//! claim cursor over the chunk's beeps, listed once per phase, names the
//! turn's symbol; its codeword, read in place from the code's table,
//! goes out in one [`StochasticChannel::transmit_codeword`]; and the
//! flip count that call returns certifies the decode
//! ([`CodeTable::certifies`]), once for every party, so only an
//! uncertified word is assembled and scanned.
//!
//! The chunked bodies (rewind, owned rounds, hierarchical) share every
//! step they have in common, each written once: the committed prefix and
//! its verification stack (`Committed`: one commit, one `truncate_to`),
//! the chunk and owners phases and the owners schemes' violation rule
//! (`ChunkedRun`), the verification vote of rewind and owned rounds, and
//! the hierarchical binary-search check.
//! Every body keeps its accounting in one `Tally`, which also builds its
//! outcome, and takes its budget from the function its per-party engine
//! uses. The bodies are built for very large `n`:
//!
//! * **Struct-of-arrays party state** — the only per-party facts are
//!   "would party `i` beep in simulated round `m`" and "does party `i`
//!   currently raise the verification flag". Both are stored as packed
//!   `n`-bit rows of `u64` words (the party axis is the bit axis), so
//!   per-round updates stream through `⌈n/64⌉` contiguous words instead
//!   of `n` scattered structs.
//! * **Verification stack** — a party's verification flag over a
//!   committed prefix is a *per-chunk* property: a committed chunk's
//!   violation row (which parties would flag it) is immutable for as long
//!   as the chunk stays committed, because the prefix below it never
//!   changes. The engine keeps a stack with one cumulative-OR row per
//!   committed chunk, so every vote reads its flags off one row. Memory
//!   is `O(T + (T/L) · n/64)` words instead of `O(T · n)`: at the paper's
//!   `L = n`, `T` bits of rows, each rounded up to whole words.
//! * **Exact channel replay** — the engine feeds the stochastic channel
//!   the exact per-round OR sequence the scalar parties would produce,
//!   so the RNG stream, and therefore every transcript, statistic, and
//!   `BudgetExhausted` error, is **bitwise identical** to the scalar
//!   path (pinned in `tests/packed_equivalence.rs`).
//!
//! All scratch buffers live in a [`SoaScratch`] arena so a worker thread
//! can run many trials through `TrialRunner::run_with_scratch` without
//! per-trial allocation.

use crate::driver::Prefix;
use crate::hierarchical::{flagged, levels, log_depth};
use crate::outcome::{PhaseRounds, SimError, SimOutcome, SimStats};
use crate::owners::{channel_rounds, metric_for, OwnersCode};
use crate::params::{ResolvedParams, SimulatorConfig};
use crate::{hierarchical, one_to_zero, owned_rounds, repetition, rewind};
use beeps_channel::{Channel, NoiseModel, Protocol, StochasticChannel, UniquelyOwned};
use beeps_ecc::CodeTable;

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

/// Zeroes a packed party row of `words` words.
fn row_clear(row: &mut Vec<u64>, words: usize) {
    row.clear();
    row.resize(words, 0);
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
/// [`Simulator::simulate_with_scratch`](crate::Simulator::simulate_with_scratch)
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
    /// The pending chunk's claimable beeps, `party << 32 | round` for
    /// every party that beeped in a 1-round, ascending (party-major);
    /// the owners phase's claim cursor walks it.
    claims: Vec<u64>,
    /// Flipped rounds of the in-flight owners codeword, one word per
    /// limb; XORed with the codeword into the heard word when its flips
    /// do not certify it.
    flipped: Vec<u64>,
    /// Per-round beep bit of the schedule owner (owned-rounds engine).
    owner_beeps: Vec<bool>,
    /// Witnessed-erasure rows of the one-to-zero engine: `(position,
    /// parties that beeped the erased 1)`, ascending by position.
    marks: Vec<(usize, Vec<u64>)>,
    /// Check levels scheduled after the current data slot.
    levels: Vec<usize>,
    /// The committed prefix and its verification stack (one shared copy
    /// — not per party).
    committed: Committed,
}

impl std::fmt::Debug for SoaScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoaScratch")
            .field("committed_bits", &self.committed.prefix.bits.len())
            .field("stack", &self.committed.stack.len())
            .finish_non_exhaustive()
    }
}

impl SoaScratch {
    /// Resets per-trial state, returning stack rows to the pool.
    fn reset(&mut self) {
        self.bits.clear();
        self.committed.clear();
        while let Some((_, row)) = self.marks.pop() {
            self.committed.pool.push(row);
        }
        self.levels.clear();
    }

    /// Words currently held by the verification stack plus its pool —
    /// the stack's part of the memory footprint, exposed so the scale
    /// experiment can report it.
    pub fn retained_words(&self) -> usize {
        let committed = &self.committed;
        committed
            .stack
            .iter()
            .chain(&committed.pool)
            .map(Vec::len)
            .sum()
    }
}

/// The committed prefix of a collapsed run and its verification stack.
/// The rewind, owned-rounds and hierarchical bodies commit and truncate
/// through it.
#[derive(Default)]
struct Committed {
    prefix: Prefix,
    /// One row per committed chunk: row `k` holds the parties whose walk
    /// over the first `k + 1` committed chunks finds a violation (the OR
    /// of those chunks' violation rows).
    stack: Vec<Vec<u64>>,
    /// Recycled row buffers.
    pool: Vec<Vec<u64>>,
}

impl Committed {
    /// Empties the prefix, returning stack rows to the pool.
    fn clear(&mut self) {
        self.prefix.clear();
        self.pool.append(&mut self.stack);
    }

    /// Commits the pending chunk with its rounds' `owners` and its
    /// violation row `viol`, pushing the chunk's cumulative row.
    fn commit(&mut self, owners: &[Option<usize>], viol: &[u64]) {
        self.prefix.commit(owners);
        let mut cum = self.pool.pop().unwrap_or_default();
        cum.clear();
        cum.extend_from_slice(viol);
        if let Some(top) = self.stack.last() {
            row_or(&mut cum, top);
        }
        self.stack.push(cum);
    }

    /// Keeps the first `boundary` committed chunks and drops the pending
    /// chunk ([`Prefix::truncate_to`]), returning the cut chunks' rows to
    /// the pool. Returns whether a committed chunk was cut.
    fn truncate_to(&mut self, boundary: usize) -> bool {
        let cut = self.prefix.truncate_to(boundary);
        if self.stack.len() > boundary {
            self.pool.extend(self.stack.drain(boundary..));
        }
        cut
    }

    /// How many parties flag chunk boundary `boundary` in a progress
    /// check: a party flags it iff its walk over the first `boundary`
    /// committed chunks finds a violation, which is its bit in stack row
    /// `boundary − 1`. No party flags boundary 0.
    fn boundary_flags(&self, boundary: usize) -> usize {
        boundary
            .checked_sub(1)
            .map_or(0, |row| row_count(&self.stack[row]))
    }
}

/// The accounting of one collapsed run: channel rounds by phase, beeping
/// energy and rewinds, spent against the scheme's round budget.
struct Tally {
    t: usize,
    budget: usize,
    rounds: usize,
    energy: usize,
    rewinds: usize,
    phase_rounds: PhaseRounds,
    corrupted_before: usize,
}

impl Tally {
    fn new(t: usize, budget: usize, channel: &StochasticChannel) -> Self {
        Self {
            t,
            budget,
            rounds: 0,
            energy: 0,
            rewinds: 0,
            phase_rounds: PhaseRounds::default(),
            corrupted_before: channel.corrupted_rounds(),
        }
    }

    /// Rounds left in the budget.
    fn room(&self) -> usize {
        self.budget - self.rounds
    }

    /// The run's `BudgetExhausted`. A span the budget cannot cover is
    /// where the per-party driver would burn its remaining rounds
    /// mid-phase and stop: nothing commits, so `rounds_used` is always the
    /// whole budget and `committed` the rounds committed so far.
    fn exhausted(&self, committed: &[bool]) -> SimError {
        SimError::BudgetExhausted {
            rounds_used: self.budget,
            committed: committed.len().min(self.t),
        }
    }

    /// `Ok` while `len` more rounds fit in the budget.
    fn fits(&self, len: usize, committed: &[bool]) -> Result<(), SimError> {
        if self.room() < len {
            return Err(self.exhausted(committed));
        }
        Ok(())
    }

    /// `Ok` while a block of `len` rounds fits in the budget: a chunk
    /// round or a vote. The per-party machines run both as a
    /// [`Block`](crate::driver::Block), except the owned-rounds vote,
    /// which never has zero rounds here. A zero-round block never ends,
    /// so those machines idle in it until the budget is spent and
    /// nothing more commits.
    fn block_fits(&self, len: usize, committed: &[bool]) -> Result<(), SimError> {
        if len == 0 {
            return Err(self.exhausted(committed));
        }
        self.fits(len, committed)
    }

    fn chunk(&mut self, len: usize, energy: usize) {
        self.rounds += len;
        self.phase_rounds.chunk += len;
        self.energy += energy;
    }

    fn owners(&mut self, len: usize, energy: usize) {
        self.rounds += len;
        self.phase_rounds.owners += len;
        self.energy += energy;
    }

    fn verify(&mut self, len: usize, energy: usize) {
        self.rounds += len;
        self.phase_rounds.verify += len;
        self.energy += energy;
    }

    /// The outcome of a finished run: the first `t` committed rounds,
    /// every party's output on them, and the run's stats. Shared noise
    /// keeps every party's bookkeeping in lockstep, so all agree, and
    /// one [`Protocol::outputs`] call builds every output. Opens the
    /// phase span `span` (the caller's `sim.<scheme>.output`) around it.
    fn finish<P: Protocol>(
        self,
        span: &'static str,
        protocol: &P,
        inputs: &[P::Input],
        prefix: &Prefix,
        channel: &StochasticChannel,
    ) -> SimOutcome<P::Output> {
        let _span = beeps_observe::phase(span);
        let mut transcript = Vec::with_capacity(self.t);
        transcript.extend_from_slice(&prefix.bits[..self.t]);
        let outputs = protocol.outputs(inputs, &transcript);
        let stats = SimStats {
            channel_rounds: self.rounds,
            phase_rounds: self.phase_rounds,
            protocol_rounds: self.t,
            chunks_committed: prefix.chunk_lens.len(),
            rewinds: self.rewinds,
            agreement: true,
            energy: self.energy,
            corrupted_rounds: channel.corrupted_rounds() - self.corrupted_before,
        };
        SimOutcome::new(transcript, outputs, stats)
    }
}

/// Lists into `claims` every beep the owners phase can claim, as the key
/// `party << 32 | round`, ascending: party-major, and by round within a
/// party. `cols` holds the chunk's beep rows, `words` words each, and
/// `bits` its transcript; only 1-rounds are claimable.
fn list_claims(cols: &[u64], words: usize, bits: &[bool], claims: &mut Vec<u64>) {
    assert!(
        u32::try_from(bits.len()).is_ok() && u32::try_from(64 * words).is_ok(),
        "a claim key packs a party and a round into 32 bits each"
    );
    claims.clear();
    for (round, col) in cols.chunks_exact(words).enumerate() {
        if !bits[round] {
            continue;
        }
        for (w, &word) in col.iter().enumerate() {
            let mut beeped = word;
            while beeped != 0 {
                let party = 64 * w + beeped.trailing_zeros() as usize;
                claims.push((party as u64) << 32 | round as u64);
                beeped &= beeped - 1;
            }
        }
    }
    claims.sort_unstable();
}

/// One finding-owners phase of Algorithm 1 (Appendix D.1) on collapsed
/// state: the one owners body of every engine that runs the phase.
///
/// The chunk is `scratch.bits` (its transcript `π`, `len` rounds) with
/// beep rows `scratch.cols` (bit `i` of row `j`: party `i` beeped in
/// round `j`). The phase runs `len + n` iterations in turn order. The
/// turn-holder sends the codeword of the smallest unclaimed 1-round it
/// beeped in, else `Next`. Once every party has passed, the remaining
/// iterations deliver silence.
///
/// Each turn costs about its flips, not the chunk or the code:
///
/// * **Claim cursor.** The chunk's claimable beeps are listed once per
///   phase, party-major, in `scratch.claims`. One cursor advances with
///   the turn and skips claimed rounds for good, since a claim never
///   turns off within a phase: its first entry of the turn's party is
///   the smallest unclaimed 1-round that party beeped in.
/// * **One channel call.** The codeword, read in place from the code's
///   table, goes out in one [`StochasticChannel::transmit_codeword`],
///   which reports the flipped rounds and their count.
/// * **Certificate from the count.** Every party hears the same word,
///   so it is decoded once. Under the metric matched to `model` every
///   flip costs one, so [`CodeTable::certifies`] can prove from the
///   count alone that the full scan returns the sent symbol. Only a turn
///   it cannot certify XORs its flips into the heard word and scans.
///
/// A claim lands in `scratch.claimed` / `scratch.chunk_owners`.
///
/// Opens the phase span `span` (the caller's name for the phase).
/// Returns the beeping energy spent, or `None` as soon as an iteration's
/// `code_len` rounds no longer fit in the `room` left of the caller's
/// budget.
fn owners_collapsed<C: OwnersCode>(
    span: &'static str,
    n: usize,
    code: &C,
    model: NoiseModel,
    room: usize,
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Option<usize> {
    let _span = beeps_observe::phase(span);
    let metric = metric_for(model);
    let words = n.div_ceil(64);
    let table = code.table();
    let code_len = table.codeword_len();
    let next_symbol = table.alphabet_size() - 1;
    let SoaScratch {
        cols,
        bits,
        claimed,
        chunk_owners,
        claims,
        flipped,
        ..
    } = scratch;
    let len = bits.len();
    claimed.clear();
    claimed.resize(len, false);
    chunk_owners.clear();
    chunk_owners.resize(len, None);
    list_claims(cols, words, bits, claims);
    flipped.clear();
    flipped.resize(code_len.div_ceil(64), 0);
    let weight = |symbol: usize| -> usize {
        table
            .codeword(symbol)
            .iter()
            .map(|limb| limb.count_ones() as usize)
            .sum()
    };
    let next_weight = weight(next_symbol);
    let mut cursor = 0usize;
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
        // Entries of passed parties and claimed rounds are never the
        // claim again.
        while let Some(&key) = claims.get(cursor) {
            if (key >> 32) as usize >= turn && !claimed[key as u32 as usize] {
                break;
            }
            cursor += 1;
        }
        let claim = claims
            .get(cursor)
            .filter(|&&key| (key >> 32) as usize == turn)
            .map(|&key| key as u32 as usize);
        let symbol = claim.unwrap_or(next_symbol);
        energy += claim.map_or(next_weight, weight);
        let codeword = table.codeword(symbol);
        let flips = channel.transmit_codeword(codeword, code_len, flipped);
        let decoded = if code.certifies(symbol, flips) {
            symbol
        } else {
            for (heard, &limb) in flipped.iter_mut().zip(codeword) {
                *heard ^= limb;
            }
            table.decode(flipped, metric)
        };
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
/// `π_j = ⋁_i bits[i][j]` everyone knows. Loads the beep rows and `π`
/// and runs [`owners_collapsed`] once under the `owners.phase` span,
/// over exactly the phase's own rounds. Returns the owner table, which
/// is every party's.
pub(crate) fn owners_standalone<'s, C: OwnersCode>(
    bits: &[Vec<bool>],
    code: &C,
    model: NoiseModel,
    channel: &mut StochasticChannel,
    scratch: &'s mut SoaScratch,
) -> &'s [Option<usize>] {
    let n = bits.len();
    let len = bits.first().map_or(0, Vec::len);
    let words = n.div_ceil(64);
    row_clear(&mut scratch.cols, len * words);
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
    let rounds = channel_rounds(len, n, code.table().codeword_len());
    let spent = owners_collapsed("owners.phase", n, code, model, rounds, channel, scratch);
    debug_assert!(spent.is_some(), "the phase fits its own round count");
    &scratch.chunk_owners
}

/// A chunked scheme's span names.
struct Names {
    chunk: &'static str,
    verify: &'static str,
}

/// What a chunked collapsed body (rewind, owned rounds, hierarchical)
/// reads and never changes, and the steps those bodies share.
struct ChunkedRun<'a, P: Protocol> {
    protocol: &'a P,
    inputs: &'a [P::Input],
    names: Names,
    model: NoiseModel,
    resolved: ResolvedParams,
    n: usize,
    t: usize,
    words: usize,
    r: usize,
    v: usize,
}

impl<'a, P: Protocol> ChunkedRun<'a, P> {
    /// A run of `config` over `model`, with `scratch` emptied for it.
    fn new(
        protocol: &'a P,
        inputs: &'a [P::Input],
        config: &SimulatorConfig,
        model: NoiseModel,
        names: Names,
        scratch: &mut SoaScratch,
    ) -> Self {
        let n = protocol.num_parties();
        scratch.reset();
        Self {
            protocol,
            inputs,
            names,
            model,
            resolved: config.resolve(model),
            n,
            t: protocol.length(),
            words: n.div_ceil(64),
            r: config.repetitions,
            v: config.verify_repetitions,
        }
    }

    /// Algorithm 1's chunk and owners phases for the next `len`
    /// simulated rounds. Each round is `R` channel rounds: its beep row
    /// lands in `scratch.cols` (the owners phase's claim table and the
    /// violation row's evidence) and its decoded bit in `scratch.bits`
    /// and the working prefix. The owners phase then runs under
    /// `owners_span`.
    fn chunk_and_owners(
        &self,
        owners_span: &'static str,
        len: usize,
        code: &CodeTable,
        tally: &mut Tally,
        channel: &mut StochasticChannel,
        scratch: &mut SoaScratch,
    ) -> Result<(), SimError> {
        assert!(
            len < code.alphabet_size(),
            "chunk of {len} rounds needs an alphabet of at least {} symbols",
            len + 1
        );
        let words = self.words;
        let chunk_span = beeps_observe::phase(self.names.chunk);
        scratch.bits.clear();
        row_clear(&mut scratch.cols, len * words);
        for j in 0..len {
            tally.block_fits(self.r, &scratch.committed.prefix.bits)?;
            let col = &mut scratch.cols[j * words..(j + 1) * words];
            let working = scratch.committed.prefix.working.as_slice();
            let mut beeps = 0usize;
            for (i, input) in self.inputs.iter().enumerate() {
                if self.protocol.beep(i, input, working) {
                    row_set(col, i);
                    beeps += 1;
                }
            }
            let bit = ones(channel, self.r, beeps > 0) >= self.resolved.rep_ones;
            scratch.bits.push(bit);
            scratch.committed.prefix.working.push(bit);
            tally.chunk(self.r, self.r * beeps);
        }
        drop(chunk_span);
        let room = tally.room();
        let energy = owners_collapsed(
            owners_span,
            self.n,
            code,
            self.model,
            room,
            channel,
            scratch,
        )
        .ok_or_else(|| tally.exhausted(&scratch.committed.prefix.bits))?;
        tally.owners(channel_rounds(len, self.n, code.codeword_len()), energy);
        Ok(())
    }

    /// The pending chunk's violation row, into the zeroed `scratch.viol`,
    /// read off its beep rows: a 0-round flags every party that beeped in
    /// it (condition (a)), an owned 1-round its owner if the owner did not
    /// beep (b), and an unowned 1-round everyone (c).
    fn chunk_violation(&self, scratch: &mut SoaScratch) {
        let words = self.words;
        for j in 0..scratch.bits.len() {
            let col = &scratch.cols[j * words..(j + 1) * words];
            if !scratch.bits[j] {
                row_or(&mut scratch.viol, col);
                continue;
            }
            match scratch.chunk_owners[j] {
                None => {
                    row_fill(&mut scratch.viol, self.n);
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

    /// One verification vote of `len` rounds over the committed prefix
    /// plus the pending chunk: `violation` writes the pending chunk's row
    /// into the zeroed `scratch.viol`, and every party set in it or in the
    /// stack top (the committed prefix's cumulative row, `O(1)`) beeps for
    /// the vote — no per-party transcript re-walk. Returns whether the
    /// vote failed.
    fn vote(
        &self,
        len: usize,
        tally: &mut Tally,
        channel: &mut StochasticChannel,
        scratch: &mut SoaScratch,
        violation: impl FnOnce(&mut SoaScratch),
    ) -> Result<bool, SimError> {
        let _span = beeps_observe::phase(self.names.verify);
        tally.block_fits(len, &scratch.committed.prefix.bits)?;
        row_clear(&mut scratch.viol, self.words);
        violation(scratch);
        scratch.flags.clear();
        scratch.flags.extend_from_slice(&scratch.viol);
        if let Some(top) = scratch.committed.stack.last() {
            row_or(&mut scratch.flags, top);
        }
        let flag_count = row_count(&scratch.flags);
        let failed = ones(channel, len, flag_count > 0) >= self.resolved.verify_ones;
        tally.verify(len, len * flag_count);
        Ok(failed)
    }

    /// A hierarchical progress check: a binary search among the chunk
    /// boundaries `lo..=hi` for the longest clean prefix, one vote of
    /// `vote_len` rounds per probed boundary (the parties whose prefix
    /// through it holds a violation beep), then a truncation to the
    /// boundary found, counted as a rewind when it cuts.
    fn search(
        &self,
        mut lo: usize,
        mut hi: usize,
        vote_len: usize,
        tally: &mut Tally,
        channel: &mut StochasticChannel,
        committed: &mut Committed,
    ) -> Result<(), SimError> {
        let mut steps_left = log_depth(hi - lo);
        loop {
            let boundary = (lo + hi).div_ceil(2);
            let flag_count = committed.boundary_flags(boundary);
            let vote_span = beeps_observe::phase(self.names.verify);
            tally.block_fits(vote_len, &committed.prefix.bits)?;
            let heard = ones(channel, vote_len, flag_count > 0);
            tally.verify(vote_len, vote_len * flag_count);
            drop(vote_span);
            if flagged(&self.resolved, self.v, heard, vote_len) {
                hi = boundary - 1;
            } else {
                lo = boundary;
            }
            steps_left = steps_left.saturating_sub(1);
            if steps_left == 0 || lo >= hi {
                break;
            }
        }
        if committed.truncate_to(lo) {
            tally.rewinds += 1;
            beeps_observe::mark("sim.hierarchical.truncate");
        }
        Ok(())
    }
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
    code: &CodeTable,
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Result<SimOutcome<P::Output>, SimError> {
    let names = Names {
        chunk: "sim.rewind.chunk",
        verify: "sim.rewind.verify",
    };
    let run = ChunkedRun::new(protocol, inputs, config, model, names, scratch);
    let mut tally = Tally::new(run.t, rewind::budget(config, run.n, run.t), channel);
    while let Some(len) = scratch.committed.prefix.next_chunk(run.t, config.chunk_len) {
        run.chunk_and_owners("sim.rewind.owners", len, code, &mut tally, channel, scratch)?;
        let failed = run.vote(run.v, &mut tally, channel, scratch, |s| {
            run.chunk_violation(s);
        })?;
        if failed {
            tally.rewinds += 1;
            beeps_observe::mark("sim.rewind.rewind");
            // Discard the pending chunk and pop one committed chunk.
            let top = scratch.committed.prefix.chunk_lens.len().saturating_sub(1);
            scratch.committed.truncate_to(top);
        } else {
            scratch
                .committed
                .commit(&scratch.chunk_owners, &scratch.viol);
        }
    }
    Ok(tally.finish(
        "sim.rewind.output",
        protocol,
        inputs,
        &scratch.committed.prefix,
        channel,
    ))
}

/// The collapsed repetition engine: every simulated round is `R`
/// channel rounds decoded by one threshold majority — shared delivery
/// keeps every party's decoded transcript identical, so one copy
/// suffices and the scheme's per-party state machines (what
/// [`Simulator::simulate_over`](crate::Simulator::simulate_over) runs)
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
    let t = protocol.length();
    let rep_ones = config.resolve(model).rep_ones;
    let r = config.repetitions;
    scratch.reset();
    let mut tally = Tally::new(t, repetition::budget(config, t), channel);
    let bits = &mut scratch.committed.prefix.bits;
    if r == 0 && t > 0 {
        // A zero-round block never ends (`driver::Block` closes one only
        // on hearing a round), so the per-party machines burn the whole
        // budget, T·0 rounds, and commit nothing.
        return Err(tally.exhausted(bits));
    }
    let chunk_span = beeps_observe::phase("sim.repetition.chunk");
    for _ in 0..t {
        let mut beeps = 0usize;
        for (i, input) in inputs.iter().enumerate() {
            if protocol.beep(i, input, bits) {
                beeps += 1;
            }
        }
        bits.push(ones(channel, r, beeps > 0) >= rep_ones);
        tally.chunk(r, r * beeps);
    }
    drop(chunk_span);
    Ok(tally.finish(
        "sim.repetition.output",
        protocol,
        inputs,
        &scratch.committed.prefix,
        channel,
    ))
}

/// The collapsed owned-rounds engine: chunked repetition plus the
/// verification vote, no owners phase — the schedule already names each
/// round's only legal beeper, so a chunk's violation row has at most
/// one settable bit per round (the owner whose committed bit disagrees
/// with its own beep). Caller guarantees `model` is a validated
/// shared-delivery model.
pub(crate) fn owned_rounds_collapsed_over<P: UniquelyOwned>(
    protocol: &P,
    config: &SimulatorConfig,
    inputs: &[P::Input],
    model: NoiseModel,
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Result<SimOutcome<P::Output>, SimError> {
    let names = Names {
        chunk: "sim.owned_rounds.chunk",
        verify: "sim.owned_rounds.verify",
    };
    let run = ChunkedRun::new(protocol, inputs, config, model, names, scratch);
    let mut tally = Tally::new(run.t, owned_rounds::budget(config, run.t), channel);
    while let Some(len) = scratch.committed.prefix.next_chunk(run.t, config.chunk_len) {
        let committed = scratch.committed.prefix.bits.len();
        // --- Chunk phase: `len` simulated rounds, R channel rounds each.
        // Only the round owner's beep bit is evidence for verification,
        // so that is the only per-party fact recorded.
        let chunk_span = beeps_observe::phase(run.names.chunk);
        scratch.bits.clear();
        scratch.owner_beeps.clear();
        for j in 0..len {
            tally.block_fits(run.r, &scratch.committed.prefix.bits)?;
            let owner = protocol.round_owner(committed + j);
            let mut beeps = 0usize;
            let mut owner_beep = false;
            for (i, input) in inputs.iter().enumerate() {
                if protocol.beep(i, input, &scratch.committed.prefix.working) {
                    beeps += 1;
                    owner_beep |= i == owner;
                }
            }
            let bit = ones(channel, run.r, beeps > 0) >= run.resolved.rep_ones;
            scratch.bits.push(bit);
            scratch.owner_beeps.push(owner_beep);
            scratch.committed.prefix.working.push(bit);
            tally.chunk(run.r, run.r * beeps);
        }
        drop(chunk_span);

        // --- Verification: V rounds of the owner-only flag OR. The
        // per-party vote ends once `idx < V` fails, which a zero-round
        // vote does after one round.
        let failed = run.vote(run.v.max(1), &mut tally, channel, scratch, |s| {
            for j in 0..len {
                if s.owner_beeps[j] != s.bits[j] {
                    row_set(&mut s.viol, protocol.round_owner(committed + j));
                }
            }
        })?;
        if failed {
            tally.rewinds += 1;
            beeps_observe::mark("sim.owned_rounds.rewind");
            let top = scratch.committed.prefix.chunk_lens.len().saturating_sub(1);
            scratch.committed.truncate_to(top);
        } else {
            scratch.committed.commit(&[], &scratch.viol);
        }
    }
    Ok(tally.finish(
        "sim.owned_rounds.output",
        protocol,
        inputs,
        &scratch.committed.prefix,
        channel,
    ))
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
    let t = protocol.length();
    let words = protocol.num_parties().div_ceil(64);
    let max_level = log_depth(t);
    let final_rounds = base * (max_level + 2);
    scratch.reset();
    let mut tally = Tally::new(t, one_to_zero::budget(base, budget_factor, t), channel);
    let mut slot = 0usize;
    let SoaScratch {
        viol,
        flags,
        marks,
        levels: scheduled,
        committed,
        ..
    } = scratch;
    let Committed { prefix, pool, .. } = committed;
    let sigma = &mut prefix.bits;
    // Running OR of the active mark rows = the check-round flag row.
    row_clear(flags, words);

    let done = 'sim: loop {
        // --- One data round simulating protocol round `|σ|`.
        tally.fits(1, sigma)?;
        row_clear(viol, words);
        let mut beeps = 0usize;
        for (i, input) in inputs.iter().enumerate() {
            if protocol.beep(i, input, sigma) {
                row_set(viol, i);
                beeps += 1;
            }
        }
        let or = beeps > 0;
        let heard = bit(channel, or);
        sigma.push(heard);
        if or && !heard {
            // An erasure, witnessed by exactly the parties that beeped.
            let mut row = pool.pop().unwrap_or_default();
            row.clear();
            row.extend_from_slice(viol);
            row_or(flags, &row);
            marks.push((sigma.len() - 1, row));
        }
        slot += 1;
        tally.chunk(1, beeps);

        // --- The checks scheduled after this slot, then possibly the
        // final confirmation (mirrors `start_check`/`after_checks`).
        scheduled.clear();
        scheduled.extend(levels(slot, max_level));
        let mut li = 0usize;
        let mut is_final = false;
        loop {
            if li >= scheduled.len() {
                // `after_checks`: transcript complete → final check,
                // otherwise back to a data round.
                if sigma.len() >= t {
                    scheduled.clear();
                    scheduled.push(max_level);
                    li = 0;
                    is_final = true;
                    continue;
                }
                break;
            }
            let level = scheduled[li];
            li += 1;
            let rounds_in_level = if is_final { final_rounds } else { base * level };
            tally.fits(rounds_in_level, sigma)?;
            let flag_count = row_count(flags);
            let heard_any = ones(channel, rounds_in_level, flag_count > 0) > 0;
            tally.verify(rounds_in_level, rounds_in_level * flag_count);
            if heard_any {
                // A heard flag is never false under 1→0 noise.
                tally.rewinds += 1;
                let new_len = sigma.len().saturating_sub(1usize << level);
                sigma.truncate(new_len);
                while marks.last().is_some_and(|(p, _)| *p >= new_len) {
                    let (_, row) = marks.pop().expect("checked non-empty");
                    pool.push(row);
                }
                row_clear(flags, words);
                for (_, row) in marks.iter() {
                    row_or(flags, row);
                }
                if is_final {
                    // Confirmation failed: back through `after_checks`.
                    li = scheduled.len();
                    is_final = false;
                    continue;
                }
            } else if is_final {
                break 'sim true;
            }
        }
    };
    debug_assert!(done);
    Ok(tally.finish("sim.one_to_zero.output", protocol, inputs, prefix, channel))
}

/// The collapsed hierarchical engine (Appendix D.2): chunks commit
/// provisionally after the owners phase and binary-search progress
/// checks repair damage with exact back-jumps. Each check vote needs
/// every party's prefix-cleanliness flag for a probed boundary, which
/// [`Committed::boundary_flags`] reads off one row of the cumulative
/// violation stack instead of `n` transcript walks. The per-party path arms the *first*
/// vote of the final full-coverage confirmation with a `false` flag for
/// every party (without walking its prefix) — only fallback votes after
/// a flagged confirmation probe real flags — and the collapsed engine
/// replicates that silent first vote exactly. `code` is the owners code
/// of `config`, built once by the caller. Caller guarantees `model` is a
/// validated shared-delivery model.
pub(crate) fn hierarchical_collapsed_over<P: Protocol>(
    protocol: &P,
    config: &SimulatorConfig,
    inputs: &[P::Input],
    model: NoiseModel,
    code: &CodeTable,
    channel: &mut StochasticChannel,
    scratch: &mut SoaScratch,
) -> Result<SimOutcome<P::Output>, SimError> {
    let names = Names {
        chunk: "sim.hierarchical.chunk",
        verify: "sim.hierarchical.verify",
    };
    let run = ChunkedRun::new(protocol, inputs, config, model, names, scratch);
    let max_level = hierarchical::max_level(config, run.t);
    let mut tally = Tally::new(run.t, hierarchical::budget(config, run.n, run.t), channel);
    let mut iteration = 0usize;
    loop {
        let Some(len) = scratch.committed.prefix.next_chunk(run.t, config.chunk_len) else {
            // --- Final full-coverage confirmation at `max_level`. The
            // first vote is unarmed (everyone beeps `false`, zero
            // energy); hearing a flag anyway (noise can invent ones)
            // falls back into an armed binary search over the whole
            // prefix, after which chunking resumes.
            let committed = scratch.committed.prefix.chunk_lens.len();
            let vote_len = run.v * (max_level + 1);
            let final_span = beeps_observe::phase(run.names.verify);
            tally.block_fits(vote_len, &scratch.committed.prefix.bits)?;
            let final_ones = ones(channel, vote_len, false);
            tally.verify(vote_len, 0);
            drop(final_span);
            if !flagged(&run.resolved, run.v, final_ones, vote_len) {
                break;
            }
            run.search(
                0,
                committed - 1,
                vote_len,
                &mut tally,
                channel,
                &mut scratch.committed,
            )?;
            continue;
        };
        run.chunk_and_owners(
            "sim.hierarchical.owners",
            len,
            code,
            &mut tally,
            channel,
            scratch,
        )?;

        // --- Provisional commit: no verification gate — the progress
        // checks repair damage after the fact. The chunk's violation
        // row is pushed onto the cumulative stack so later boundary
        // votes are O(1).
        row_clear(&mut scratch.viol, run.words);
        run.chunk_violation(scratch);
        scratch
            .committed
            .commit(&scratch.chunk_owners, &scratch.viol);
        iteration += 1;

        // --- Progress checks: level 0 every iteration plus the
        // binary-counter schedule of higher levels.
        for level in std::iter::once(0).chain(levels(iteration, max_level)) {
            let committed = scratch.committed.prefix.chunk_lens.len();
            let window = committed.min(1usize << level);
            let vote_len = run.v * (level + 1);
            run.search(
                committed - window,
                committed,
                vote_len,
                &mut tally,
                channel,
                &mut scratch.committed,
            )?;
        }
    }
    Ok(tally.finish(
        "sim.hierarchical.output",
        protocol,
        inputs,
        &scratch.committed.prefix,
        channel,
    ))
}
