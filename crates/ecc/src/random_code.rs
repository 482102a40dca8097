//! Seeded random codes with maximum-likelihood decoding — the default
//! code `C` for Algorithm 1's owners phase.
//!
//! See the crate-level docs for why ML-decoded random codes (rather than
//! bounded-distance algebraic codes) are the right substrate at the
//! paper's `ε = 1/3` noise rate.

use crate::bits::{BitMetric, PackedBits};
use crate::table::CodeTable;
use crate::SymbolCode;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A code of `q` pseudorandom codewords of length
/// `expansion · max(⌈log₂ q⌉, 1)` bits, drawn i.i.d. uniform from a seed
/// (with rejection of duplicate codewords).
///
/// All parties construct the same code from the same seed — in protocol
/// terms the code is part of the (shared, public) protocol description.
///
/// # Examples
///
/// ```
/// use beeps_ecc::{BitMetric, RandomCode, SymbolCode};
///
/// let code = RandomCode::new(65, 8, 1234);
/// assert_eq!(code.codeword_len(), 7 * 8);
/// let w = code.encode(64);
/// assert_eq!(code.decode(&w, BitMetric::Hamming), 64);
/// ```
#[derive(Debug, Clone)]
pub struct RandomCode {
    table: CodeTable,
}

impl RandomCode {
    /// Builds a code for `alphabet_size` symbols with the given length
    /// `expansion` factor over the binary representation.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet_size < 2`, `expansion == 0`, or (pathological)
    /// the alphabet cannot be given distinct codewords at this length.
    pub fn new(alphabet_size: usize, expansion: usize, seed: u64) -> Self {
        assert!(expansion > 0, "expansion factor must be positive");
        let bits = if alphabet_size >= 2 {
            (usize::BITS as usize - (alphabet_size - 1).leading_zeros() as usize).max(1)
        } else {
            1
        };
        Self::with_length(alphabet_size, bits * expansion, seed)
    }

    /// Builds a code for `alphabet_size` symbols with an explicit codeword
    /// length in bits (e.g. from
    /// `beeps_info::tail::random_code_length`).
    ///
    /// # Panics
    ///
    /// Same conditions as [`RandomCode::new`].
    pub fn with_length(alphabet_size: usize, len: usize, seed: u64) -> Self {
        assert!(alphabet_size >= 2, "alphabet must have at least 2 symbols");
        assert!(len > 0, "codeword length must be positive");
        assert!(
            len >= 64 || alphabet_size as u128 <= (1u128 << len),
            "alphabet does not fit at this codeword length"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let table = CodeTable::draw(
            alphabet_size,
            len,
            || {
                let bits: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                PackedBits::from_bools(&bits)
            },
            "could not draw distinct codewords; increase expansion",
        );
        Self { table }
    }

    /// Minimum pairwise Hamming distance of the code: the least of the
    /// codewords' radii (see [`SymbolCode::decode_sent`]), computing
    /// the ones no decode has needed yet — O(q²) on a fresh code.
    pub fn min_distance(&self) -> u32 {
        self.table.min_distance()
    }
}

impl SymbolCode for RandomCode {
    fn alphabet_size(&self) -> usize {
        self.table.alphabet_size()
    }

    fn codeword_len(&self) -> usize {
        self.table.codeword_len()
    }

    fn encode(&self, symbol: usize) -> Vec<bool> {
        self.table.codeword(symbol).to_bools()
    }

    fn decode(&self, received: &[bool], metric: BitMetric) -> usize {
        self.table
            .decode_packed(&PackedBits::from_bools(received), metric)
    }

    fn encode_packed(&self, symbol: usize) -> PackedBits {
        self.table.codeword(symbol).clone()
    }

    fn decode_packed(&self, received: &PackedBits, metric: BitMetric) -> usize {
        self.table.decode_packed(received, metric)
    }

    fn decode_sent(&self, sent: usize, received: &PackedBits, metric: BitMetric) -> usize {
        self.table.decode_sent(sent, received, metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn same_seed_same_code() {
        let a = RandomCode::new(20, 6, 99);
        let b = RandomCode::new(20, 6, 99);
        for s in 0..20 {
            assert_eq!(a.encode(s), b.encode(s));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = RandomCode::new(20, 6, 1);
        let b = RandomCode::new(20, 6, 2);
        assert!((0..20).any(|s| a.encode(s) != b.encode(s)));
    }

    #[test]
    fn clean_roundtrip_whole_alphabet() {
        let code = RandomCode::new(129, 8, 5);
        for s in 0..129 {
            assert_eq!(code.decode(&code.encode(s), BitMetric::Hamming), s);
        }
    }

    #[test]
    fn survives_bsc_noise_below_capacity_margin() {
        // Empirical check that ML decoding of the random code handles the
        // paper's eps = 1/3 with a generous expansion factor.
        let code = RandomCode::new(33, 24, 7);
        let mut rng = StdRng::seed_from_u64(0xF00D);
        let mut failures = 0u32;
        let trials = 400;
        for t in 0..trials {
            let sym = t as usize % 33;
            let mut w = code.encode(sym);
            for b in w.iter_mut() {
                if rng.gen_bool(1.0 / 3.0) {
                    *b = !*b;
                }
            }
            if code.decode(&w, BitMetric::Hamming) != sym {
                failures += 1;
            }
        }
        assert!(
            failures <= trials / 10,
            "ML decode failed {failures}/{trials} times at eps=1/3"
        );
    }

    #[test]
    fn survives_z_channel_at_high_rate() {
        // One-sided 0->1 noise at eps = 1/3 with the ZUp metric.
        let code = RandomCode::new(33, 12, 8);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut failures = 0u32;
        let trials = 400;
        for t in 0..trials {
            let sym = t as usize % 33;
            let mut w = code.encode(sym);
            for b in w.iter_mut() {
                if !*b && rng.gen_bool(1.0 / 3.0) {
                    *b = true;
                }
            }
            if code.decode(&w, BitMetric::ZUp) != sym {
                failures += 1;
            }
        }
        assert!(
            failures <= trials / 20,
            "Z-channel decode failed {failures}/{trials} times"
        );
    }

    #[test]
    fn packed_paths_match_bool_paths() {
        let code = RandomCode::new(33, 8, 42);
        let mut rng = StdRng::seed_from_u64(0x9A);
        for sym in 0..33 {
            assert_eq!(code.encode_packed(sym).to_bools(), code.encode(sym));
            // Noisy word: both decode entry points must agree bit for bit.
            let mut w = code.encode(sym);
            for b in w.iter_mut() {
                if rng.gen_bool(0.2) {
                    *b = !*b;
                }
            }
            let packed = PackedBits::from_bools(&w);
            for metric in [BitMetric::Hamming, BitMetric::ZUp, BitMetric::ZDown] {
                assert_eq!(code.decode(&w, metric), code.decode_packed(&packed, metric));
            }
        }
    }

    #[test]
    fn min_distance_positive() {
        let code = RandomCode::new(16, 10, 3);
        assert!(code.min_distance() > 0);
    }

    #[test]
    #[should_panic(expected = "wrong word length")]
    fn decode_length_mismatch_panics() {
        let code = RandomCode::new(4, 4, 0);
        code.decode(&[true; 3], BitMetric::Hamming);
    }
}
