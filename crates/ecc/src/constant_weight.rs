//! Constant-weight codes: every codeword carries exactly `w` ones.
//!
//! Two reasons to care in the beeping world:
//!
//! * **Energy.** A beep costs energy; a codeword's weight *is* its energy.
//!   Random codes beep on half their bits; a constant-weight code at
//!   `w ≪ len/2` cuts the owners phase's energy proportionally.
//! * **The Z-channel.** Over one-sided `0→1` noise the 1s of a codeword
//!   are never erased, so what distinguishes codewords is where their 1s
//!   *aren't* — superimposed-code territory, where low-weight codes with
//!   small pairwise support intersections excel.
//!
//! Codewords are random distinct `w`-subsets of the positions, drawn from
//! a seed like [`CodeTable::with_length`]'s; decoding is maximum
//! likelihood under the caller's [`crate::BitMetric`].

use crate::table::CodeTable;
use rand::{rngs::StdRng, Rng, SeedableRng};

impl CodeTable {
    /// Builds a code of `alphabet_size` codewords of `len` bits, each of
    /// Hamming weight exactly `weight`, from `seed`.
    ///
    /// # Examples
    ///
    /// ```
    /// use beeps_ecc::{BitMetric, CodeTable};
    ///
    /// let code = CodeTable::constant_weight(17, 48, 6, 0xC0DE);
    /// assert_eq!(code.codeword(11)[0].count_ones(), 6);
    /// assert_eq!(code.decode(code.codeword(11), BitMetric::ZUp), 11);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `alphabet_size < 2`, `weight` is 0 or ≥ `len`, or
    /// distinct supports cannot be drawn (alphabet too large for
    /// `C(len, weight)`).
    pub fn constant_weight(alphabet_size: usize, len: usize, weight: usize, seed: u64) -> Self {
        assert!(alphabet_size >= 2, "alphabet must have at least 2 symbols");
        assert!(
            weight >= 1 && weight < len,
            "weight must be in 1..len, got {weight} of {len}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        Self::draw(
            alphabet_size,
            len,
            || {
                // Partial Fisher–Yates draw of a w-subset.
                let mut positions: Vec<usize> = (0..len).collect();
                for i in 0..weight {
                    let j = rng.gen_range(i..len);
                    positions.swap(i, j);
                }
                let mut limbs = vec![0u64; len.div_ceil(64)];
                for &p in &positions[..weight] {
                    limbs[p / 64] |= 1 << (p % 64);
                }
                limbs
            },
            "could not draw distinct supports; increase len or weight",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitMetric;

    /// Number of set bits of a packed word.
    fn weight(word: &[u64]) -> u32 {
        word.iter().map(|limb| limb.count_ones()).sum()
    }

    #[test]
    fn every_codeword_has_the_declared_weight() {
        let code = CodeTable::constant_weight(33, 60, 8, 1);
        for s in 0..33 {
            assert_eq!(weight(code.codeword(s)), 8);
        }
    }

    #[test]
    fn clean_roundtrip() {
        let code = CodeTable::constant_weight(65, 80, 10, 2);
        for s in 0..65 {
            assert_eq!(code.decode(code.codeword(s), BitMetric::ZUp), s);
            assert_eq!(code.decode(code.codeword(s), BitMetric::Hamming), s);
        }
    }

    #[test]
    fn z_channel_resilience_at_paper_rate() {
        // One-sided 0->1 at eps = 1/3: ones survive, zeros lift.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let code = CodeTable::constant_weight(33, 72, 9, 3);
        let mut rng = StdRng::seed_from_u64(0x2EE);
        let mut failures = 0u32;
        let trials = 400;
        for t in 0..trials {
            let sym = t as usize % 33;
            let mut w = code.codeword(sym).to_vec();
            for i in 0..72 {
                if w[i / 64] >> (i % 64) & 1 == 0 && rng.gen_bool(1.0 / 3.0) {
                    w[i / 64] |= 1 << (i % 64);
                }
            }
            if code.decode(&w, BitMetric::ZUp) != sym {
                failures += 1;
            }
        }
        assert!(
            failures <= trials / 20,
            "Z decode failed {failures}/{trials}"
        );
    }

    #[test]
    fn lighter_than_random_codes_at_same_length() {
        let len = 72;
        let cw = CodeTable::constant_weight(33, len, 9, 4);
        let rc = CodeTable::with_length(33, len, 4);
        let energy = |code: &CodeTable| -> u32 { (0..33).map(|s| weight(code.codeword(s))).sum() };
        let (cw_energy, rc_energy) = (energy(&cw), energy(&rc));
        assert!(
            cw_energy * 2 < rc_energy,
            "constant-weight {cw_energy} vs random {rc_energy}"
        );
    }

    #[test]
    fn support_overlap_is_small_for_sparse_codes() {
        let code = CodeTable::constant_weight(17, 96, 8, 5);
        // Random 8-of-96 supports rarely share more than a few positions:
        // equal-weight words at distance d share w − d/2 of them, most at
        // the minimum distance.
        let overlap = 8 - code.min_distance() / 2;
        assert!(overlap <= 4, "{overlap}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CodeTable::constant_weight(9, 32, 5, 7);
        let b = CodeTable::constant_weight(9, 32, 5, 7);
        for s in 0..9 {
            assert_eq!(a.codeword(s), b.codeword(s));
        }
    }

    #[test]
    #[should_panic(expected = "weight must be in 1..len")]
    fn full_weight_rejected() {
        CodeTable::constant_weight(4, 8, 8, 0);
    }
}
