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
//! a seed like [`crate::RandomCode`]; decoding is maximum likelihood under
//! the caller's [`BitMetric`].

use crate::bits::{BitMetric, PackedBits};
use crate::table::CodeTable;
use crate::SymbolCode;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A code of `q` codewords of length `len`, each of Hamming weight
/// exactly `weight`.
///
/// # Examples
///
/// ```
/// use beeps_ecc::{BitMetric, ConstantWeightCode, SymbolCode};
///
/// let code = ConstantWeightCode::new(17, 48, 6, 0xC0DE);
/// let w = code.encode(11);
/// assert_eq!(w.iter().filter(|&&b| b).count(), 6);
/// assert_eq!(code.decode(&w, BitMetric::ZUp), 11);
/// ```
#[derive(Debug, Clone)]
pub struct ConstantWeightCode {
    weight: usize,
    table: CodeTable,
}

impl ConstantWeightCode {
    /// Builds the code from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet_size < 2`, `weight` is 0 or ≥ `len`, or
    /// distinct supports cannot be drawn (alphabet too large for
    /// `C(len, weight)`).
    pub fn new(alphabet_size: usize, len: usize, weight: usize, seed: u64) -> Self {
        assert!(alphabet_size >= 2, "alphabet must have at least 2 symbols");
        assert!(
            weight >= 1 && weight < len,
            "weight must be in 1..len, got {weight} of {len}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let table = CodeTable::draw(
            alphabet_size,
            len,
            || {
                // Partial Fisher–Yates draw of a w-subset.
                let mut positions: Vec<usize> = (0..len).collect();
                for i in 0..weight {
                    let j = rng.gen_range(i..len);
                    positions.swap(i, j);
                }
                let mut bits = vec![false; len];
                for &p in &positions[..weight] {
                    bits[p] = true;
                }
                PackedBits::from_bools(&bits)
            },
            "could not draw distinct supports; increase len or weight",
        );
        Self { weight, table }
    }

    /// The common Hamming weight of every codeword.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Largest pairwise support intersection: `|A ∩ B| = w − d/2` for
    /// equal-weight words, largest at the minimum distance `d` (O(q²)
    /// on a fresh code; for analysis).
    pub fn max_support_overlap(&self) -> u32 {
        self.weight as u32 - self.table.min_distance() / 2
    }
}

impl SymbolCode for ConstantWeightCode {
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

    fn certifies(&self, sent: usize, flips: usize) -> bool {
        self.table.certifies(sent, flips)
    }

    fn decode_near(
        &self,
        reference: &PackedBits,
        received: &PackedBits,
        metric: BitMetric,
    ) -> usize {
        self.table.decode_near(reference, received, metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_codeword_has_the_declared_weight() {
        let code = ConstantWeightCode::new(33, 60, 8, 1);
        for s in 0..33 {
            assert_eq!(code.encode(s).iter().filter(|&&b| b).count(), 8);
        }
    }

    #[test]
    fn clean_roundtrip() {
        let code = ConstantWeightCode::new(65, 80, 10, 2);
        for s in 0..65 {
            assert_eq!(code.decode(&code.encode(s), BitMetric::ZUp), s);
            assert_eq!(code.decode(&code.encode(s), BitMetric::Hamming), s);
        }
    }

    #[test]
    fn z_channel_resilience_at_paper_rate() {
        // One-sided 0->1 at eps = 1/3: ones survive, zeros lift.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let code = ConstantWeightCode::new(33, 72, 9, 3);
        let mut rng = StdRng::seed_from_u64(0x2EE);
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
            "Z decode failed {failures}/{trials}"
        );
    }

    #[test]
    fn lighter_than_random_codes_at_same_length() {
        use crate::RandomCode;
        let len = 72;
        let cw = ConstantWeightCode::new(33, len, 9, 4);
        let rc = RandomCode::with_length(33, len, 4);
        let cw_energy: usize = (0..33)
            .map(|s| cw.encode(s).iter().filter(|&&b| b).count())
            .sum();
        let rc_energy: usize = (0..33)
            .map(|s| rc.encode(s).iter().filter(|&&b| b).count())
            .sum();
        assert!(
            cw_energy * 2 < rc_energy,
            "constant-weight {cw_energy} vs random {rc_energy}"
        );
    }

    #[test]
    fn support_overlap_is_small_for_sparse_codes() {
        let code = ConstantWeightCode::new(17, 96, 8, 5);
        // Random 8-of-96 supports rarely share more than a few positions.
        assert!(
            code.max_support_overlap() <= 4,
            "{}",
            code.max_support_overlap()
        );
    }

    #[test]
    fn packed_paths_match_bool_paths() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let code = ConstantWeightCode::new(17, 64, 7, 6);
        let mut rng = StdRng::seed_from_u64(0x9B);
        for sym in 0..17 {
            assert_eq!(code.encode_packed(sym).to_bools(), code.encode(sym));
            let mut w = code.encode(sym);
            for b in w.iter_mut() {
                if !*b && rng.gen_bool(0.2) {
                    *b = true;
                }
            }
            let packed = PackedBits::from_bools(&w);
            for metric in [BitMetric::Hamming, BitMetric::ZUp, BitMetric::ZDown] {
                assert_eq!(code.decode(&w, metric), code.decode_packed(&packed, metric));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ConstantWeightCode::new(9, 32, 5, 7);
        let b = ConstantWeightCode::new(9, 32, 5, 7);
        for s in 0..9 {
            assert_eq!(a.encode(s), b.encode(s));
        }
    }

    #[test]
    #[should_panic(expected = "weight must be in 1..len")]
    fn full_weight_rejected() {
        ConstantWeightCode::new(4, 8, 8, 0);
    }
}
