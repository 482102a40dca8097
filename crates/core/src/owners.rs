//! Algorithm 1's *finding owners* phase (Appendix D.1, Theorem D.1).
//!
//! After a chunk has been simulated into a shared transcript `π`, the
//! parties must compute, for every round `j` with `π_j = 1`, an **owner**:
//! a party that actually beeped 1 in round `j`. Owners make 1s verifiable —
//! in the later verification phase the owner of a round vouches for its 1,
//! which is the idea that makes the rewind-if-error discipline work over
//! the beeping channel (subsection 2.1 of the paper).
//!
//! The phase proceeds in turn order: the party whose turn it is transmits
//! either the codeword `C(j)` of a round it can own (one it beeped 1 in,
//! not yet claimed) or `C(Next)` to pass the turn; everyone decodes each
//! codeword and updates the same bookkeeping (`T^i`, `turn^i`, `o^i_j`).
//! Over shared-noise channels all parties decode identically, so the
//! bookkeeping *always* agrees; decoding errors can only make an owner
//! invalid, which the verification phase then catches.
//!
//! That agreement is structural, so the phase exists in two forms:
//!
//! * under shared noise, one collapsed run decodes each codeword once
//!   (the owners body in [`crate::soa`], shared with the collapsed
//!   rewind and hierarchical engines) and its owner table is every
//!   party's;
//! * under independent noise each party hears its own word, so `n`
//!   per-party `OwnersState` machines each decode every codeword. Each
//!   decode is certified against the codeword's true OR word, which the
//!   driver hands every party beside its heard word
//!   ([`CodeTable::decode_near`]), and scans only when the certificate
//!   fails. These machines are also the oracle the collapsed body is
//!   tested against; a test-only full-scan code holds them to the scan.
//!
//! [`run_owners_phase`] picks the form by the noise model.
//!
//! Deviations from the paper's Algorithm 1, documented for fidelity:
//!
//! * iterations: the paper fixes `2n` (chunks of length `n`); we use
//!   `L + n` for chunks of length `L` — the same bound by the same
//!   argument (≤ `L` claims plus ≤ `n` `Next`s);
//! * a party only claims rounds with `π_j = 1` (claims of `π_j = 0` rounds
//!   would be flagged in verification anyway);
//! * once every party has passed (`turn = n`), the remaining iterations
//!   idle instead of decoding silence into garbage.

use crate::driver::{drive, live, SimParty, WORD};
use crate::soa::{owners_standalone, SoaScratch};
use beeps_channel::{Channel, NoiseModel, StochasticChannel};
use beeps_ecc::{BitMetric, CodeTable};
use std::sync::Arc;

/// The shared symbol code used by the owners phase.
pub type SharedCode = Arc<CodeTable>;

/// The owners phase's code: its table, and the two certificates that
/// let a decode skip the table's scan. The table itself is the one
/// code every scheme runs; the tests' oracles override the
/// certificates, to force the scan or to watch it.
pub(crate) trait OwnersCode {
    /// The codewords, and the full scan over them.
    fn table(&self) -> &CodeTable;

    /// [`CodeTable::certifies`].
    fn certifies(&self, sent: usize, flips: usize) -> bool {
        self.table().certifies(sent, flips)
    }

    /// [`CodeTable::decode_near`].
    fn decode_near(&self, reference: &[u64], received: &[u64], metric: BitMetric) -> usize {
        self.table().decode_near(reference, received, metric)
    }
}

impl OwnersCode for CodeTable {
    fn table(&self) -> &CodeTable {
        self
    }
}

/// Per-party state machine for one owners phase. Embedded by the rewind
/// simulator and by the standalone [`run_owners_phase`] driver.
#[derive(Debug)]
pub(crate) struct OwnersState<C = CodeTable> {
    me: usize,
    n: usize,
    /// The shared chunk transcript `π` (length `L_c`).
    pi: Vec<bool>,
    /// The bits this party beeped in the chunk (length `L_c`).
    my_bits: Vec<bool>,
    code: Arc<C>,
    metric: BitMetric,
    /// The `Next` symbol is the last one in the code's alphabet.
    next_symbol: usize,
    iterations: usize,
    iter: usize,
    bit_idx: usize,
    /// Heard bits of the in-flight codeword, one limb per 64 of its
    /// bits as the code lays a codeword out; bits not heard yet are zero.
    word: Vec<u64>,
    /// The true OR word of the in-flight codeword, kept alike: the
    /// reference the decode is certified against, never read otherwise.
    sent_or: Vec<u64>,
    /// The symbol this party sends in the in-flight codeword, if it
    /// holds the turn.
    sending: Option<usize>,
    /// `T^i`: rounds already claimed by some owner.
    claimed: Vec<bool>,
    /// `turn^i`.
    turn: usize,
    /// `o^i_j`.
    owners: Vec<Option<usize>>,
}

impl<C: OwnersCode> OwnersState<C> {
    /// `pi` and `my_bits` must have equal length `L_c ≤ code alphabet − 1`.
    pub(crate) fn new(
        me: usize,
        n: usize,
        pi: Vec<bool>,
        my_bits: Vec<bool>,
        code: Arc<C>,
        metric: BitMetric,
    ) -> Self {
        assert_eq!(pi.len(), my_bits.len(), "transcript/bits length mismatch");
        let alphabet = code.table().alphabet_size();
        assert!(
            pi.len() < alphabet,
            "chunk of {} rounds needs an alphabet of at least {} symbols",
            pi.len(),
            pi.len() + 1
        );
        let len = pi.len();
        let next_symbol = alphabet - 1;
        let limbs = code.table().codeword_len().div_ceil(64);
        let mut state = Self {
            me,
            n,
            pi,
            my_bits,
            code,
            metric,
            next_symbol,
            // L + n iterations: every claim consumes a round, every pass a
            // party.
            iterations: len + n,
            iter: 0,
            bit_idx: 0,
            word: vec![0; limbs],
            sent_or: vec![0; limbs],
            sending: None,
            claimed: vec![false; len],
            turn: 0,
            owners: vec![None; len],
        };
        state.prepare_word();
        state
    }

    /// Whether all iterations have completed.
    pub(crate) fn finished(&self) -> bool {
        self.iter >= self.iterations
    }

    /// The computed owner of each chunk round (None for 0-rounds and for
    /// unowned 1s, which verification flags).
    pub(crate) fn owners(&self) -> &[Option<usize>] {
        &self.owners
    }

    /// Chooses what to transmit this iteration (if this party holds the
    /// turn): the smallest unclaimed 1-round it beeped in, else `Next`.
    fn prepare_word(&mut self) {
        self.sending = if self.turn == self.me && self.turn < self.n {
            let claim =
                (0..self.pi.len()).find(|&j| self.pi[j] && self.my_bits[j] && !self.claimed[j]);
            Some(claim.unwrap_or(self.next_symbol))
        } else {
            None
        };
    }

    /// The rest of the in-flight codeword's current limb: this party's
    /// bits of it (zeros unless it holds the turn) and the run to the
    /// limb's or the codeword's end. A finished phase idles silently.
    pub(crate) fn plan(&self) -> (u64, usize) {
        if self.finished() {
            return (0, WORD);
        }
        let table = self.code.table();
        let offset = self.bit_idx % 64;
        let run = (table.codeword_len() - self.bit_idx).min(64 - offset);
        let beeps = self.sending.map_or(0, |symbol| {
            table.codeword(symbol)[self.bit_idx / 64] >> offset
        });
        (beeps, run)
    }

    /// Takes in `len` heard bits of the in-flight codeword (at most the
    /// run of [`OwnersState::plan`], so they stay in one limb) and the
    /// `sent` OR word over the same rounds, decoding the heard codeword
    /// once it is complete. The decode returns the full scan's symbol
    /// whatever was sent; `sent` only lets it skip the scan.
    pub(crate) fn hear_word(&mut self, heard: u64, sent: u64, len: usize) {
        if self.finished() {
            return;
        }
        let (limb, offset) = (self.bit_idx / 64, self.bit_idx % 64);
        self.word[limb] |= (heard & live(len)) << offset;
        self.sent_or[limb] |= (sent & live(len)) << offset;
        self.bit_idx += len;
        if self.bit_idx != self.code.table().codeword_len() {
            return;
        }
        // Iteration complete: decode and update the shared bookkeeping.
        if self.turn < self.n {
            let (sent, heard) = (&self.sent_or, &self.word);
            let symbol = self.code.decode_near(sent, heard, self.metric);
            if symbol == self.next_symbol {
                self.turn += 1;
            } else if symbol < self.pi.len() {
                self.claimed[symbol] = true;
                self.owners[symbol] = Some(self.turn);
            }
            // A decoded symbol in [L_c, next) names no round of this chunk
            // (possible in tail chunks or under decode errors): ignore it,
            // keeping all parties' bookkeeping in lockstep.
        }
        self.word.fill(0);
        self.sent_or.fill(0);
        self.bit_idx = 0;
        self.iter += 1;
        if !self.finished() {
            self.prepare_word();
        }
    }
}

/// Rounds one owners phase occupies on the channel.
pub(crate) fn channel_rounds(chunk_len: usize, n: usize, code_len: usize) -> usize {
    (chunk_len + n) * code_len
}

/// Result of a standalone owners phase (experiment E4 / Theorem D.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnersOutcome {
    /// `owners[i][j]`: party `i`'s belief about the owner of round `j`.
    pub owners: Vec<Vec<Option<usize>>>,
    /// Channel rounds consumed.
    pub channel_rounds: usize,
}

impl OwnersOutcome {
    /// Theorem D.1's guarantee, checked: for every round `j` with
    /// `π_j = 1`, all parties agree on an owner `o_j` and `b_j^{o_j} = 1`.
    pub fn valid_for(&self, bits: &[Vec<bool>]) -> bool {
        let n = self.owners.len();
        if n == 0 {
            return false;
        }
        let len = self.owners[0].len();
        for j in 0..len {
            let pi_j = (0..n).any(|i| bits[i][j]);
            if !pi_j {
                continue;
            }
            let first = self.owners[0][j];
            if self.owners.iter().any(|o| o[j] != first) {
                return false;
            }
            match first {
                Some(owner) => {
                    if !bits[owner][j] {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }
}

/// Runs *only* the finding-owners phase of Algorithm 1, as in the premise
/// of Theorem D.1: party `i` holds bits `b^i_j` and everyone shares the
/// (correct) transcript `π_j = ⋁_i b^i_j`.
///
/// `code_len` is the codeword length in bits; sensible values come from
/// [`beeps_info::tail::random_code_length`]. Returns every party's owner
/// table so tests can check both agreement and validity.
///
/// Shared noise runs the phase once on the collapsed owners body (every
/// party hears, and so decodes, the same words); independent noise runs
/// one `OwnersState` machine per party. Either way the call opens one
/// `owners.phase` span.
///
/// # Panics
///
/// Panics if `bits` is empty or ragged, or the noise parameter is invalid.
///
/// # Examples
///
/// ```
/// use beeps_channel::NoiseModel;
/// use beeps_core::run_owners_phase;
///
/// // Party 0 beeped in round 1; party 2 beeped in rounds 0 and 1.
/// let bits = vec![
///     vec![false, true, false],
///     vec![false, false, false],
///     vec![true, true, false],
/// ];
/// let out = run_owners_phase(&bits, NoiseModel::Noiseless, 64, 7, 1);
/// assert!(out.valid_for(&bits));
/// // Round 0 can only be owned by party 2.
/// assert_eq!(out.owners[0][0], Some(2));
/// ```
pub fn run_owners_phase(
    bits: &[Vec<bool>],
    model: NoiseModel,
    code_len: usize,
    code_seed: u64,
    channel_seed: u64,
) -> OwnersOutcome {
    let n = bits.len();
    assert!(n > 0, "need at least one party");
    let len = bits[0].len();
    assert!(
        bits.iter().all(|b| b.len() == len),
        "all parties need bits for every round"
    );
    model.validate().expect("invalid noise parameter");

    let code = CodeTable::with_length(len + 1, code_len, code_seed);
    if model.is_shared() {
        collapsed_owners(bits, model, &code, channel_seed)
    } else {
        let mut channel = StochasticChannel::new(n, model, channel_seed);
        per_party_owners(bits, model, Arc::new(code), &mut channel)
    }
}

/// The shared-noise owners phase: every party hears the same word, so
/// the collapsed body runs once, over one channel, and its owner table
/// is every party's. Opens the `owners.phase` span.
fn collapsed_owners<C: OwnersCode>(
    bits: &[Vec<bool>],
    model: NoiseModel,
    code: &C,
    channel_seed: u64,
) -> OwnersOutcome {
    let n = bits.len();
    let mut channel = StochasticChannel::new(n, model, channel_seed);
    let mut scratch = SoaScratch::default();
    let table = owners_standalone(bits, code, model, &mut channel, &mut scratch);
    OwnersOutcome {
        owners: vec![table.to_vec(); n],
        channel_rounds: channel.rounds(),
    }
}

/// The per-party owners phase: `n` [`OwnersState`] machines driven over
/// `channel`, each decoding every codeword itself, certified against
/// the codeword's true OR word. Independent noise runs here; under
/// shared noise it is the oracle of [`collapsed_owners`]. Opens the
/// `owners.phase` span.
fn per_party_owners<C: OwnersCode>(
    bits: &[Vec<bool>],
    model: NoiseModel,
    code: Arc<C>,
    channel: &mut dyn Channel,
) -> OwnersOutcome {
    let _span = beeps_observe::phase("owners.phase");
    let n = bits.len();
    let len = bits[0].len();
    let pi: Vec<bool> = (0..len).map(|j| bits.iter().any(|b| b[j])).collect();
    let metric = metric_for(model);

    let mut parties: Vec<OwnersOnlyParty<C>> = (0..n)
        .map(|i| OwnersOnlyParty {
            state: OwnersState::new(i, n, pi.clone(), bits[i].clone(), Arc::clone(&code), metric),
        })
        .collect();
    let budget = channel_rounds(len, n, code.table().codeword_len());
    let result = drive(&mut parties, channel, budget);
    debug_assert!(result.all_done);

    OwnersOutcome {
        owners: parties
            .into_iter()
            .map(|p| p.state.owners().to_vec())
            .collect(),
        channel_rounds: result.rounds,
    }
}

/// The decoding metric matched to a noise model: the one statement of
/// the rule, which [`SimulatorConfig::resolve`](crate::SimulatorConfig::resolve)
/// and the collapsed owners phase read too.
pub(crate) fn metric_for(model: NoiseModel) -> BitMetric {
    match model {
        NoiseModel::OneSidedZeroToOne { .. } => BitMetric::ZUp,
        NoiseModel::OneSidedOneToZero { .. } => BitMetric::ZDown,
        _ => BitMetric::Hamming,
    }
}

struct OwnersOnlyParty<C> {
    state: OwnersState<C>,
}

impl<C: OwnersCode> SimParty for OwnersOnlyParty<C> {
    fn plan(&mut self) -> (u64, usize) {
        self.state.plan()
    }

    fn hear_word(&mut self, heard: u64, sent: u64, len: usize) {
        self.state.hear_word(heard, sent, len);
    }

    fn is_done(&self) -> bool {
        self.state.finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeps_channel::Delivery;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A table whose certificates never hold: [`OwnersCode::certifies`]
    /// is false and [`OwnersCode::decode_near`] scans, so either owners
    /// phase runs with every decode a scan, the oracle the certified
    /// decodes are held to.
    #[derive(Debug)]
    struct FullScan(SharedCode);

    impl OwnersCode for FullScan {
        fn table(&self) -> &CodeTable {
            &self.0
        }

        fn certifies(&self, _sent: usize, _flips: usize) -> bool {
            false
        }

        fn decode_near(&self, _reference: &[u64], received: &[u64], metric: BitMetric) -> usize {
            self.0.decode(received, metric)
        }
    }

    /// Which way [`CodeTable::decode_near`] went.
    #[derive(Debug, Clone, Copy)]
    enum Branch {
        /// The reference is a codeword and its certificate holds.
        Certified,
        /// The reference is a codeword but its certificate fails: a scan.
        Scanned,
        /// The reference is no codeword: a scan.
        Stray,
    }

    /// Hamming distance between two packed words.
    fn hamming(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| u64::from((x ^ y).count_ones()))
            .sum()
    }

    /// The table with its certificates, tallying the [`Branch`] each
    /// [`OwnersCode::decode_near`] takes. The tally recomputes the
    /// certificate `c₀ + k < r` from the codewords.
    #[derive(Debug)]
    struct Branches {
        code: SharedCode,
        /// Each codeword's Hamming distance to its nearest other one.
        radii: Vec<u64>,
        taken: [AtomicUsize; 3],
    }

    impl Branches {
        fn new(code: SharedCode) -> Self {
            let q = code.alphabet_size();
            let radii = (0..q)
                .map(|s| {
                    let others = (0..q).filter(|&t| t != s);
                    others
                        .map(|t| hamming(code.codeword(s), code.codeword(t)))
                        .min()
                        .expect("q ≥ 2")
                })
                .collect();
            Self {
                code,
                radii,
                taken: Default::default(),
            }
        }

        fn branch(&self, reference: &[u64], received: &[u64], metric: BitMetric) -> Branch {
            let code = &self.code;
            match (0..code.alphabet_size()).position(|s| code.codeword(s) == reference) {
                None => Branch::Stray,
                Some(s) => {
                    let c = code.codeword(s);
                    let bound =
                        metric.cost(c, received, code.codeword_len()) + hamming(c, received);
                    if bound < self.radii[s] {
                        Branch::Certified
                    } else {
                        Branch::Scanned
                    }
                }
            }
        }

        fn taken(&self, branch: Branch) -> usize {
            self.taken[branch as usize].load(Ordering::Relaxed)
        }
    }

    impl OwnersCode for Branches {
        fn table(&self) -> &CodeTable {
            &self.code
        }

        fn decode_near(&self, reference: &[u64], received: &[u64], metric: BitMetric) -> usize {
            let branch = self.branch(reference, received, metric);
            self.taken[branch as usize].fetch_add(1, Ordering::Relaxed);
            self.code.decode_near(reference, received, metric)
        }
    }

    /// Forwards only the four required [`Channel`] methods, so
    /// [`Channel::transmit_word`] takes its per-round default.
    struct PerRound<C>(C);

    impl<C: Channel> Channel for PerRound<C> {
        fn num_parties(&self) -> usize {
            self.0.num_parties()
        }

        fn transmit(&mut self, true_or: bool) -> Delivery {
            self.0.transmit(true_or)
        }

        fn rounds(&self) -> usize {
            self.0.rounds()
        }

        fn corrupted_rounds(&self) -> usize {
            self.0.corrupted_rounds()
        }
    }

    #[test]
    fn metric_for_selects_metric() {
        let eps = 0.1;
        assert_eq!(metric_for(NoiseModel::Noiseless), BitMetric::Hamming);
        assert_eq!(
            metric_for(NoiseModel::Correlated { epsilon: eps }),
            BitMetric::Hamming
        );
        assert_eq!(
            metric_for(NoiseModel::Independent { epsilon: eps }),
            BitMetric::Hamming
        );
        assert_eq!(
            metric_for(NoiseModel::OneSidedZeroToOne { epsilon: eps }),
            BitMetric::ZUp
        );
        assert_eq!(
            metric_for(NoiseModel::OneSidedOneToZero { epsilon: eps }),
            BitMetric::ZDown
        );
    }

    #[test]
    fn noiseless_owners_are_valid_and_first_claimant_wins() {
        let bits = vec![
            vec![true, false, true, false],
            vec![true, true, false, false],
        ];
        let out = run_owners_phase(&bits, NoiseModel::Noiseless, 48, 1, 2);
        assert!(out.valid_for(&bits));
        // Round 0: both beeped; party 0 claims first (turn order).
        assert_eq!(out.owners[0][0], Some(0));
        // Round 1: only party 1.
        assert_eq!(out.owners[0][1], Some(1));
        // Round 2: only party 0.
        assert_eq!(out.owners[0][2], Some(0));
        // Round 3: silent, no owner.
        assert_eq!(out.owners[0][3], None);
    }

    #[test]
    fn all_silent_chunk_has_no_owners() {
        let bits = vec![vec![false; 5]; 3];
        let out = run_owners_phase(&bits, NoiseModel::Noiseless, 48, 1, 2);
        assert!(out.valid_for(&bits));
        assert!(out.owners.iter().flatten().all(|o| o.is_none()));
    }

    #[test]
    fn single_party_owns_everything_it_beeped() {
        let bits = vec![vec![true, true, false, true]];
        let out = run_owners_phase(&bits, NoiseModel::Noiseless, 32, 3, 4);
        assert!(out.valid_for(&bits));
        assert_eq!(out.owners[0][0], Some(0));
        assert_eq!(out.owners[0][3], Some(0));
    }

    #[test]
    fn owners_valid_under_one_sided_noise_with_sized_code() {
        let mut rng = StdRng::seed_from_u64(0xD1);
        let n = 6;
        let len = 8;
        let eps = 1.0 / 3.0;
        let code_len = beeps_info::tail::random_code_length(
            len + 1,
            beeps_info::tail::cutoff_rate_z(eps),
            0.001,
        );
        let mut valid = 0;
        let trials = 30;
        for t in 0..trials {
            let bits: Vec<Vec<bool>> = (0..n)
                .map(|_| (0..len).map(|_| rng.gen_bool(0.3)).collect())
                .collect();
            let out = run_owners_phase(
                &bits,
                NoiseModel::OneSidedZeroToOne { epsilon: eps },
                code_len,
                t,
                1000 + t,
            );
            if out.valid_for(&bits) {
                valid += 1;
            }
        }
        assert!(valid >= trials - 1, "only {valid}/{trials} valid phases");
    }

    #[test]
    fn owners_valid_under_correlated_noise_with_sized_code() {
        let mut rng = StdRng::seed_from_u64(0xD2);
        let n = 4;
        let len = 6;
        let eps = 0.1;
        let code_len = beeps_info::tail::random_code_length(
            len + 1,
            beeps_info::tail::cutoff_rate_bsc(eps),
            0.001,
        );
        let mut valid = 0;
        let trials = 30;
        for t in 0..trials {
            let bits: Vec<Vec<bool>> = (0..n)
                .map(|_| (0..len).map(|_| rng.gen_bool(0.4)).collect())
                .collect();
            let out = run_owners_phase(
                &bits,
                NoiseModel::Correlated { epsilon: eps },
                code_len,
                t,
                2000 + t,
            );
            if out.valid_for(&bits) {
                valid += 1;
            }
        }
        assert!(valid >= trials - 1, "only {valid}/{trials} valid phases");
    }

    /// Codeword lengths on and around the word loop's limb boundaries.
    const CODE_LENS: [usize; 5] = [8, 63, 64, 65, 130];

    /// Shared model `kind` (0..4) for a cell; code_len 8 runs at ε = 0.4,
    /// where decode errors are common.
    fn shared_model(kind: usize, code_len: usize) -> NoiseModel {
        let epsilon = if code_len == 8 { 0.4 } else { 0.2 };
        match kind {
            0 => NoiseModel::Noiseless,
            1 => NoiseModel::Correlated { epsilon },
            2 => NoiseModel::OneSidedZeroToOne { epsilon },
            _ => NoiseModel::OneSidedOneToZero { epsilon },
        }
    }

    /// Runs the per-party oracle with the full scan ([`FullScan`]) on
    /// random inputs for each `(n, len, code_len, model)` cell and
    /// asserts the collapsed body (certified, and with every turn
    /// scanned), the certified per-party phase and the certified phase
    /// over single-round deliveries all equal it. Half
    /// the codes carry more symbols than `len + 1` (as a tail chunk's
    /// code does), so decode errors also land on stray symbols in
    /// `[len, Next)`; some tables must come out invalid, proving decode
    /// errors occurred.
    fn assert_collapsed_matches_oracle(cells: &[(usize, usize, usize, NoiseModel)]) {
        let mut rng = StdRng::seed_from_u64(0xD3);
        let mut stray_codes = 0usize;
        let mut invalid = 0usize;
        for &(n, len, code_len, model) in cells {
            let bits: Vec<Vec<bool>> = (0..n)
                .map(|_| (0..len).map(|_| rng.gen_bool(0.3)).collect())
                .collect();
            let alphabet = if rng.gen_bool(0.5) { len + 1 } else { n + 4 };
            stray_codes += usize::from(alphabet > len + 1);
            let code = Arc::new(CodeTable::with_length(alphabet, code_len, rng.next_u64()));
            let seed = rng.next_u64();
            let want = per_party_owners(
                &bits,
                model,
                Arc::new(FullScan(Arc::clone(&code))),
                &mut StochasticChannel::new(n, model, seed),
            );
            let got = collapsed_owners(&bits, model, &*code, seed);
            let context =
                format!("{model} n={n} len={len} code_len={code_len} alphabet={alphabet}");
            assert_eq!(got, want, "{context}");
            let scanned = collapsed_owners(&bits, model, &FullScan(Arc::clone(&code)), seed);
            assert_eq!(scanned, want, "collapsed, every turn scanned, {context}");
            let certified = per_party_owners(
                &bits,
                model,
                Arc::clone(&code),
                &mut StochasticChannel::new(n, model, seed),
            );
            assert_eq!(certified, want, "certified, {context}");
            let per_round = per_party_owners(
                &bits,
                model,
                Arc::clone(&code),
                &mut PerRound(StochasticChannel::new(n, model, seed)),
            );
            assert_eq!(per_round, want, "certified single rounds, {context}");
            invalid += usize::from(!got.valid_for(&bits));
        }
        assert!(stray_codes > 0 && stray_codes < cells.len());
        assert!(invalid > 0, "no decode error in {} cells", cells.len());
    }

    #[test]
    fn collapsed_phase_matches_per_party_oracle() {
        // Small n: every shared model × chunk length 1..=n+3 × code
        // length, 16 seeds per cell. The per-party oracle costs O(n) per
        // round, so n = 64 and 65 take ten chunk lengths each (the ends
        // of 1..=n+3 and three interior points), which between them run
        // every (model, code_len) pair once; the full grid is
        // `collapsed_phase_matches_per_party_oracle_full_grid`.
        let mut cells = Vec::new();
        for n in [1usize, 2, 5] {
            for len in 1..=n + 3 {
                for code_len in CODE_LENS {
                    for kind in 0..4 {
                        let model = shared_model(kind, code_len);
                        cells.extend((0..16).map(|_| (n, len, code_len, model)));
                    }
                }
            }
        }
        let mut pair = 0usize;
        for n in [64usize, 65] {
            for len in [1, 2, 3, n / 4, n / 2, 3 * n / 4, n, n + 1, n + 2, n + 3] {
                let code_len = CODE_LENS[pair / 4];
                cells.push((n, len, code_len, shared_model(pair % 4, code_len)));
                pair += 1;
            }
        }
        assert_collapsed_matches_oracle(&cells);
    }

    #[test]
    #[ignore = "minutes-long in a debug build"]
    fn collapsed_phase_matches_per_party_oracle_full_grid() {
        let mut cells = Vec::new();
        for n in [64usize, 65] {
            for len in 1..=n + 3 {
                for code_len in CODE_LENS {
                    for kind in 0..4 {
                        cells.push((n, len, code_len, shared_model(kind, code_len)));
                    }
                }
            }
        }
        assert_collapsed_matches_oracle(&cells);
    }

    #[test]
    fn collapsed_phase_matches_oracle_through_misread_next_and_repeat_claims() {
        // A 10-bit code at correlated ε = 1/3, seeded so that both of the
        // claim cursor's harder cases happen: party 2 beeps nowhere, so
        // every round it owns is a `Next` turn decoded as a claim, after
        // which its turn repeats; and party 0 claims several of its three
        // 1-rounds, so the cursor passes its own claimed entries.
        const SEED: u64 = 8;
        let model = NoiseModel::Correlated { epsilon: 1.0 / 3.0 };
        let bits = vec![
            vec![true, false, true, true, false, false],
            vec![false, true, true, false, false, false],
            vec![false; 6],
            vec![false, false, false, false, true, false],
        ];
        let code = Arc::new(CodeTable::with_length(7, 10, SEED));
        let n = bits.len();
        let want = per_party_owners(
            &bits,
            model,
            Arc::new(FullScan(Arc::clone(&code))),
            &mut StochasticChannel::new(n, model, SEED),
        );
        assert_eq!(collapsed_owners(&bits, model, &*code, SEED), want);
        let table = &want.owners[0];
        assert!(table.contains(&Some(2)), "no misread Next: {table:?}");
        let held = (0..6).filter(|&j| bits[0][j] && table[j] == Some(0));
        assert!(held.count() >= 2, "party 0 holds one round: {table:?}");
    }

    #[test]
    fn certified_per_party_phase_matches_full_scan() {
        // Independent noise from rare flips to near-coin flips, at n ∈
        // {1, 2, 5} in every (ε, code_len) cell and at n ∈ {64, 65} in
        // one code length per ε. The certified run's decodes must take
        // every branch: certified, certificate failed (noise past the
        // radius) and reference no codeword (parties that disagree on
        // the turn send the OR of two codewords, or nothing).
        let mut rng = StdRng::seed_from_u64(0xD6);
        let mut taken = [0usize; 3];
        for (e, epsilon) in [0.05, 0.1, 0.3, 0.45].into_iter().enumerate() {
            let model = NoiseModel::Independent { epsilon };
            for n in [1usize, 2, 5, 64, 65] {
                let code_lens = if n > 5 {
                    &CODE_LENS[(e + n) % CODE_LENS.len()..][..1]
                } else {
                    &CODE_LENS[..]
                };
                for &code_len in code_lens {
                    let len = 1 + rng.gen_range(0..n + 3);
                    let bits: Vec<Vec<bool>> = (0..n)
                        .map(|_| (0..len).map(|_| rng.gen_bool(0.3)).collect())
                        .collect();
                    let alphabet = if rng.gen_bool(0.5) { len + 1 } else { n + 4 };
                    let table =
                        Arc::new(CodeTable::with_length(alphabet, code_len, rng.next_u64()));
                    let branches = Arc::new(Branches::new(Arc::clone(&table)));
                    let seed = rng.next_u64();
                    let channel = || StochasticChannel::new(n, model, seed);
                    let want =
                        per_party_owners(&bits, model, Arc::new(FullScan(table)), &mut channel());
                    let got = per_party_owners(&bits, model, Arc::clone(&branches), &mut channel());
                    assert_eq!(
                        got, want,
                        "{model} n={n} len={len} code_len={code_len} alphabet={alphabet}"
                    );
                    for branch in [Branch::Certified, Branch::Scanned, Branch::Stray] {
                        taken[branch as usize] += branches.taken(branch);
                    }
                }
            }
        }
        assert!(taken.iter().all(|&t| t > 0), "branches taken: {taken:?}");
    }

    #[test]
    fn independent_per_party_phase_steps_words_like_single_rounds() {
        // Independent noise never reaches the collapsed body, so its
        // per-party phase is held to single-round delivery here, at every
        // codeword length around the limb boundaries: all of them for
        // n ∈ {1, 5}, one per seed at n ∈ {64, 65}, 8 seeds per n. Both
        // runs step the machines alike, so the outcomes' digest is also
        // pinned to those of the machines stepped one round at a time
        // (`beep`/`hear` per round).
        let mut rng = StdRng::seed_from_u64(0xD4);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut invalid = 0usize;
        for n in [1usize, 5, 64, 65] {
            for seed in 0..8 {
                let code_lens = if n > 5 {
                    &CODE_LENS[seed % CODE_LENS.len()..][..1]
                } else {
                    &CODE_LENS[..]
                };
                for &code_len in code_lens {
                    let len = 1 + rng.gen_range(0..n + 3);
                    let bits: Vec<Vec<bool>> = (0..n)
                        .map(|_| (0..len).map(|_| rng.gen_bool(0.3)).collect())
                        .collect();
                    let model = NoiseModel::Independent {
                        epsilon: if code_len == 8 { 0.3 } else { 0.1 },
                    };
                    let code = Arc::new(CodeTable::with_length(len + 1, code_len, rng.next_u64()));
                    let channel_seed = rng.next_u64();
                    let run = |channel: &mut dyn Channel| {
                        per_party_owners(&bits, model, Arc::clone(&code), channel)
                    };
                    let words = run(&mut StochasticChannel::new(n, model, channel_seed));
                    let rounds = run(&mut PerRound(StochasticChannel::new(
                        n,
                        model,
                        channel_seed,
                    )));
                    assert_eq!(words, rounds, "{model} n={n} len={len} code_len={code_len}");
                    invalid += usize::from(!words.valid_for(&bits));
                    for byte in format!("{words:?}").bytes() {
                        digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
        }
        assert!(invalid > 0, "no decode error: weak test");
        assert_eq!(
            digest, 0xb2c5_d378_71bd_393f,
            "owner tables moved off the per-round machines'"
        );
    }

    /// An owners machine whose runs stop after at most `cap` rounds.
    struct Capped {
        party: OwnersOnlyParty<CodeTable>,
        cap: usize,
    }

    impl SimParty for Capped {
        fn plan(&mut self) -> (u64, usize) {
            let (beeps, run) = self.party.plan();
            (beeps, run.min(self.cap))
        }

        fn hear_word(&mut self, heard: u64, sent: u64, len: usize) {
            self.party.hear_word(heard, sent, len);
        }

        fn is_done(&self) -> bool {
            self.party.is_done()
        }
    }

    #[test]
    fn per_party_phase_is_unchanged_by_steps_cut_mid_limb() {
        // An uncapped step starts at a codeword limb's first bit and runs
        // to its end; capped runs take each limb in pieces, so the heard
        // and sent words are written at every offset inside a limb.
        let mut rng = StdRng::seed_from_u64(0xD7);
        let model = NoiseModel::Independent { epsilon: 0.1 };
        for n in [1usize, 5, 64] {
            for code_len in CODE_LENS {
                let len = 1 + rng.gen_range(0..n + 3);
                let bits: Vec<Vec<bool>> = (0..n)
                    .map(|_| (0..len).map(|_| rng.gen_bool(0.3)).collect())
                    .collect();
                let pi: Vec<bool> = (0..len).map(|j| bits.iter().any(|b| b[j])).collect();
                let code = Arc::new(CodeTable::with_length(len + 1, code_len, rng.next_u64()));
                let seed = rng.next_u64();
                let channel = || StochasticChannel::new(n, model, seed);
                let want = per_party_owners(&bits, model, Arc::clone(&code), &mut channel());
                for cap in [1, 3, 7, 63] {
                    let mut parties: Vec<Capped> = (0..n)
                        .map(|i| Capped {
                            party: OwnersOnlyParty {
                                state: OwnersState::new(
                                    i,
                                    n,
                                    pi.clone(),
                                    bits[i].clone(),
                                    Arc::clone(&code),
                                    metric_for(model),
                                ),
                            },
                            cap,
                        })
                        .collect();
                    let budget = channel_rounds(len, n, code_len);
                    let result = drive(&mut parties, &mut channel(), budget);
                    let owners: Vec<_> = parties
                        .iter()
                        .map(|p| p.party.state.owners().to_vec())
                        .collect();
                    assert_eq!(
                        (owners, result.rounds),
                        (want.owners.clone(), want.channel_rounds),
                        "n={n} len={len} code_len={code_len} cap={cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn near_noiseless_phase_finds_every_owner() {
        // 0 < ε ≤ 2⁻⁵⁴ rounds `1 − ε` to 1; the channel must still flip
        // (almost) never, so the phase must come out exact.
        let mut rng = StdRng::seed_from_u64(0xD5);
        let bits: Vec<Vec<bool>> = (0..8)
            .map(|_| (0..8).map(|_| rng.gen_bool(0.3)).collect())
            .collect();
        for epsilon in [1e-17, 2f64.powi(-54)] {
            for model in [
                NoiseModel::Correlated { epsilon },
                NoiseModel::OneSidedZeroToOne { epsilon },
                NoiseModel::OneSidedOneToZero { epsilon },
                NoiseModel::Independent { epsilon },
            ] {
                let out = run_owners_phase(&bits, model, 32, 7, 11);
                assert!(out.valid_for(&bits), "{model}");
            }
        }
    }

    #[test]
    fn owners_phase_opens_one_span_per_call() {
        #[derive(Default)]
        struct Recording(std::sync::Mutex<Vec<&'static str>>);

        impl beeps_observe::Observer for Recording {
            fn on_phase(&self, _worker: usize, name: &'static str, _start: u64, _end: u64) {
                self.0.lock().expect("recording lock").push(name);
            }
        }

        let bits = vec![vec![true, false, true], vec![false, true, true]];
        // Shared noise runs the collapsed body, independent noise the
        // per-party machines: one span either way.
        for model in [
            NoiseModel::Correlated { epsilon: 0.1 },
            NoiseModel::Independent { epsilon: 0.1 },
        ] {
            let recording = Arc::new(Recording::default());
            {
                let _guard = beeps_observe::install(Arc::clone(&recording) as _, 0);
                run_owners_phase(&bits, model, 32, 1, 2);
            }
            let spans = recording.0.lock().expect("recording lock");
            assert_eq!(*spans, ["owners.phase"], "{model}");
        }
    }

    #[test]
    fn round_budget_matches_formula() {
        let bits = vec![vec![true, false]; 3];
        let out = run_owners_phase(&bits, NoiseModel::Noiseless, 16, 0, 0);
        assert_eq!(out.channel_rounds, channel_rounds(2, 3, 16));
    }

    #[test]
    #[should_panic(expected = "bits for every round")]
    fn ragged_bits_rejected() {
        run_owners_phase(
            &[vec![true], vec![true, false]],
            NoiseModel::Noiseless,
            16,
            0,
            0,
        );
    }
}
