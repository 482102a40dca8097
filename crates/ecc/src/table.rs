//! The codeword table of the owners-phase code: `q` distinct codewords
//! drawn from a seed, laid out flat, the maximum-likelihood scan over
//! them, and the certificates that let a decode skip the scan.

use crate::bits::{hamming, BitMetric};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::atomic::{AtomicU32, Ordering};

/// A radius not computed yet. Codewords are distinct and at most
/// `u32::MAX − 1` bits long in any real code, so no radius is this.
const UNKNOWN: u32 = u32::MAX;

/// The owners phase's code `C : [q] → {0,1}^len`: `q ≥ 2` distinct
/// codewords drawn from a seed ([`CodeTable::with_length`],
/// [`CodeTable::constant_weight`]), so every party builds the same
/// code, with maximum-likelihood decoding that always returns a symbol.
///
/// Codeword `s` is `⌈len/64⌉` limbs, bit `i` at bit `i % 64` of limb
/// `i / 64`, in one flat `q × limbs` array read in place. Its *radius*,
/// the Hamming distance to its nearest other codeword, is computed on
/// first need and kept, so every holder of a shared code pays for it
/// once.
#[derive(Debug)]
pub struct CodeTable {
    len: usize,
    limbs: usize,
    /// Codeword `s` is `codewords[s * limbs..(s + 1) * limbs]`.
    codewords: Vec<u64>,
    /// Each codeword's symbol: the map that rejected repeated draws,
    /// kept so [`CodeTable::decode_near`] can name a reference word's
    /// symbol. Fixed once drawn.
    symbols: BTreeMap<Vec<u64>, usize>,
    /// `radii[s]`: the radius of codeword `s`, or [`UNKNOWN`].
    radii: Vec<AtomicU32>,
}

impl CodeTable {
    /// Draws codewords of `len` bits, one codeword's limbs per `next`
    /// call, until `q` distinct ones are found, rejecting repeats.
    ///
    /// # Panics
    ///
    /// Panics with `exhausted` after 10 000 rejected draws.
    pub(crate) fn draw(
        q: usize,
        len: usize,
        mut next: impl FnMut() -> Vec<u64>,
        exhausted: &str,
    ) -> Self {
        let limbs = len.div_ceil(64);
        let mut codewords = Vec::with_capacity(q * limbs);
        // Map-membership duplicate rejection: the same draws, and so the
        // same code, as an O(q²) linear scan.
        let mut symbols = BTreeMap::new();
        let mut attempts = 0usize;
        while symbols.len() < q {
            let symbol = symbols.len();
            match symbols.entry(next()) {
                Entry::Occupied(_) => {
                    attempts += 1;
                    assert!(attempts < 10_000, "{exhausted}");
                }
                Entry::Vacant(slot) => {
                    codewords.extend_from_slice(slot.key());
                    slot.insert(symbol);
                }
            }
        }
        Self {
            len,
            limbs,
            codewords,
            symbols,
            radii: (0..q).map(|_| AtomicU32::new(UNKNOWN)).collect(),
        }
    }

    /// Number of encodable symbols `q`.
    pub fn alphabet_size(&self) -> usize {
        self.radii.len()
    }

    /// Length of every codeword in bits.
    pub fn codeword_len(&self) -> usize {
        self.len
    }

    /// The codeword of `symbol`: `⌈len/64⌉` limbs, LSB-first, zero at
    /// and above bit `len`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol >= self.alphabet_size()`.
    pub fn codeword(&self, symbol: usize) -> &[u64] {
        assert!(
            symbol < self.alphabet_size(),
            "symbol {symbol} outside alphabet of {}",
            self.alphabet_size()
        );
        &self.codewords[symbol * self.limbs..(symbol + 1) * self.limbs]
    }

    /// Decodes `received`, laid out like [`CodeTable::codeword`], by the
    /// full maximum-likelihood scan: the first symbol of least `metric`
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics if `received` is not one codeword's limb count long.
    pub fn decode(&self, received: &[u64], metric: BitMetric) -> usize {
        assert_eq!(received.len(), self.limbs, "wrong word length");
        let mut best = 0usize;
        let mut best_cost = u64::MAX;
        for (symbol, codeword) in self.codewords.chunks_exact(self.limbs).enumerate() {
            let cost = metric.cost(codeword, received, self.len);
            if cost < best_cost {
                best_cost = cost;
                best = symbol;
            }
        }
        best
    }

    /// Whether a word heard as `sent`'s codeword with `flips` bits
    /// flipped, each of which the decoding metric charges one (as it does
    /// every flip of the noise model it is matched to), certainly decodes
    /// to `sent`: the collapsed owners phase's case, where the channel
    /// reports the count.
    ///
    /// The test is `2·flips < r`, `r` the radius of `sent`'s codeword,
    /// and it is a proof: every metric's cost is at least the Hamming
    /// distance, so every other codeword costs at least
    /// `r − flips > flips`, the cost of `sent`, and
    /// [`CodeTable::decode`] returns `sent`.
    ///
    /// # Panics
    ///
    /// Panics if `sent >= self.alphabet_size()`.
    pub fn certifies(&self, sent: usize, flips: usize) -> bool {
        (2 * flips as u64) < u64::from(self.radius(sent))
    }

    /// [`CodeTable::decode`]`(received, metric)`, skipping the scan when
    /// `reference`, the word `received` was likely sent as, proves its
    /// answer: the per-party owners phase's case, where the simulator
    /// knows the true OR word.
    ///
    /// If `reference` is the codeword of `s`, with `k` its Hamming
    /// distance to `received`, `c₀` its `metric` cost and `r` its
    /// radius, every other codeword costs at least `r − k`, so
    /// `c₀ + k < r` makes `s` the unique least-cost symbol. Otherwise, or
    /// when `reference` is no codeword (parties that disagree on the turn
    /// send the OR of two codewords, or nothing), it scans.
    ///
    /// # Panics
    ///
    /// Panics if `received` is not one codeword's limb count long.
    pub fn decode_near(&self, reference: &[u64], received: &[u64], metric: BitMetric) -> usize {
        assert_eq!(received.len(), self.limbs, "wrong word length");
        if let Some(&s) = self.symbols.get(reference) {
            let codeword = self.codeword(s);
            let bound =
                metric.cost(codeword, received, self.len) + u64::from(hamming(codeword, received));
            if bound < u64::from(self.radius(s)) {
                return s;
            }
        }
        self.decode(received, metric)
    }

    /// The radius of codeword `s`, computed on first request.
    ///
    /// # Panics
    ///
    /// Panics if `s` is outside the alphabet.
    fn radius(&self, s: usize) -> u32 {
        let codeword = self.codeword(s);
        // Threads racing on an unknown radius compute and store the same
        // value.
        let known = self.radii[s].load(Ordering::Acquire);
        if known != UNKNOWN {
            return known;
        }
        let radius = self
            .codewords
            .chunks_exact(self.limbs)
            .enumerate()
            .filter(|&(t, _)| t != s)
            .map(|(_, other)| hamming(codeword, other))
            .min()
            .expect("a code has at least 2 codewords");
        self.radii[s].store(radius, Ordering::Release);
        radius
    }

    /// Minimum pairwise Hamming distance of the code: the least of the
    /// codewords' radii (see [`CodeTable::certifies`]), computing the
    /// ones no decode has needed yet — O(q²) on a fresh code.
    pub fn min_distance(&self) -> u32 {
        (0..self.alphabet_size())
            .map(|s| self.radius(s))
            .min()
            .expect("a code has at least 2 codewords")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over every codeword's limbs, little-endian, in symbol order.
    fn digest(code: &CodeTable) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for symbol in 0..code.alphabet_size() {
            for limb in code.codeword(symbol) {
                for byte in limb.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn drawn_codes_are_pinned() {
        // Every seeded output rests on these draws. Random codes in one
        // limb, at 63/64/65 bits, at 130 bits and at E15a's n = 10⁴ size
        // (`chunk_len + 1` symbols at the builder's 98 bits, correlated
        // ε = 0.1); constant-weight codes at the sizes `tab6_energy`
        // builds (n ∈ {4, 8, 16, 32}, 0→1 ε = 1/3, weight
        // `max(code_len / 3, 4)`).
        const SEED: u64 = 0x0B_EE_50_0D;
        let random = [
            (33, 40, 1, 0x49a4_0581_0179_e530),
            (65, 63, 2, 0x3c59_5986_3d00_d433),
            (65, 64, 3, 0x4433_c87c_c78f_b139),
            (65, 65, 4, 0x00ef_412f_da64_a71b),
            (129, 130, 5, 0x5c8e_819b_c802_6ebf),
            (10_001, 98, SEED, 0x01bb_e69a_54fb_96ee),
        ];
        for (q, len, seed, want) in random {
            let got = digest(&CodeTable::with_length(q, len, seed));
            assert_eq!(got, want, "random q={q} len={len}: {got:#018x}");
        }
        let constant_weight = [
            (5, 27, 9, 0x2631_7652_cb4e_ebf1),
            (9, 32, 10, 0x1fc9_33f2_926f_682a),
            (17, 38, 12, 0x3d85_3cc9_7249_d01f),
            (33, 44, 14, 0x5474_36d6_97d5_7e80),
        ];
        for (q, len, weight, want) in constant_weight {
            let got = digest(&CodeTable::constant_weight(q, len, weight, SEED));
            assert_eq!(got, want, "constant-weight q={q} len={len}: {got:#018x}");
        }
    }
}
