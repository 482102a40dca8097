//! Seeded random codes with maximum-likelihood decoding — the default
//! code `C` for Algorithm 1's owners phase.
//!
//! See the crate-level docs for why ML-decoded random codes (rather than
//! bounded-distance algebraic codes) are the right substrate at the
//! paper's `ε = 1/3` noise rate.

use crate::table::CodeTable;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The random code's name for [`CodeTable`], kept for callers that build
/// one through `RandomCode::with_length`.
///
/// # Examples
///
/// ```
/// use beeps_ecc::{BitMetric, RandomCode};
///
/// let code = RandomCode::with_length(65, 56, 1234);
/// assert_eq!(code.codeword_len(), 56);
/// assert_eq!(code.decode(code.codeword(64), BitMetric::Hamming), 64);
/// ```
pub type RandomCode = CodeTable;

impl CodeTable {
    /// Builds a code of `alphabet_size` pseudorandom codewords of `len`
    /// bits (e.g. from `beeps_info::tail::random_code_length`), each bit
    /// a fair coin drawn from `seed`, with repeated codewords rejected.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet_size < 2`, `len == 0`, or the alphabet cannot
    /// be given distinct codewords at this length.
    pub fn with_length(alphabet_size: usize, len: usize, seed: u64) -> Self {
        assert!(alphabet_size >= 2, "alphabet must have at least 2 symbols");
        assert!(len > 0, "codeword length must be positive");
        assert!(
            len >= 64 || alphabet_size as u128 <= (1u128 << len),
            "alphabet does not fit at this codeword length"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        Self::draw(
            alphabet_size,
            len,
            || {
                let mut limbs = vec![0u64; len.div_ceil(64)];
                for i in 0..len {
                    if rng.gen_bool(0.5) {
                        limbs[i / 64] |= 1 << (i % 64);
                    }
                }
                limbs
            },
            "could not draw distinct codewords; increase the length",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitMetric;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Flips bit `i` of a packed word.
    fn flip(word: &mut [u64], i: usize) {
        word[i / 64] ^= 1 << (i % 64);
    }

    fn is_set(word: &[u64], i: usize) -> bool {
        word[i / 64] >> (i % 64) & 1 == 1
    }

    #[test]
    fn same_seed_same_code() {
        let a = CodeTable::with_length(20, 30, 99);
        let b = CodeTable::with_length(20, 30, 99);
        for s in 0..20 {
            assert_eq!(a.codeword(s), b.codeword(s));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = CodeTable::with_length(20, 30, 1);
        let b = CodeTable::with_length(20, 30, 2);
        assert!((0..20).any(|s| a.codeword(s) != b.codeword(s)));
    }

    #[test]
    fn clean_roundtrip_whole_alphabet() {
        let code = CodeTable::with_length(129, 64, 5);
        for s in 0..129 {
            assert_eq!(code.decode(code.codeword(s), BitMetric::Hamming), s);
        }
    }

    #[test]
    fn survives_bsc_noise_below_capacity_margin() {
        // Empirical check that ML decoding of the random code handles the
        // paper's eps = 1/3 with a generous length.
        let code = CodeTable::with_length(33, 144, 7);
        let mut rng = StdRng::seed_from_u64(0xF00D);
        let mut failures = 0u32;
        let trials = 400;
        for t in 0..trials {
            let sym = t as usize % 33;
            let mut w = code.codeword(sym).to_vec();
            for i in 0..code.codeword_len() {
                if rng.gen_bool(1.0 / 3.0) {
                    flip(&mut w, i);
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
        let code = CodeTable::with_length(33, 72, 8);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut failures = 0u32;
        let trials = 400;
        for t in 0..trials {
            let sym = t as usize % 33;
            let mut w = code.codeword(sym).to_vec();
            for i in 0..code.codeword_len() {
                if !is_set(&w, i) && rng.gen_bool(1.0 / 3.0) {
                    flip(&mut w, i);
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
    fn min_distance_positive() {
        let code = CodeTable::with_length(16, 40, 3);
        assert!(code.min_distance() > 0);
    }

    #[test]
    #[should_panic(expected = "wrong word length")]
    fn decode_length_mismatch_panics() {
        let code = CodeTable::with_length(4, 8, 0);
        code.decode(&[0; 2], BitMetric::Hamming);
    }
}
