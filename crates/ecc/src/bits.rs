//! Channel-aware distance metrics over packed words.
//!
//! A word of `len` bits is `⌈len/64⌉` `u64` limbs, bit `i` at bit
//! `i % 64` of limb `i / 64`, zero at and above `len`. Maximum-likelihood
//! decoding compares a received word against every codeword, and that
//! packing makes each comparison a handful of XOR/AND/popcount
//! operations.

/// Hamming distance between two equally long limb slices.
pub(crate) fn hamming(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Number of positions set in `a` and clear in `b`, two equally long
/// limb slices.
pub(crate) fn ones_not_in(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & !y).count_ones()).sum()
}

/// Decoding metric matched to the channel that carried the codeword.
///
/// A single party transmits its codeword bit-by-bit over the beeping
/// channel while everyone else stays silent, so each bit crosses the
/// channel's noise regime directly:
///
/// * [`BitMetric::Hamming`] — symmetric flips (correlated / independent
///   noise): maximum likelihood = minimum Hamming distance;
/// * [`BitMetric::ZUp`] — one-sided `0→1` noise: a transmitted 1 is never
///   erased, so any codeword with a 1 where the received word has a 0 is
///   impossible; among possible codewords, minimize the spurious 1s;
/// * [`BitMetric::ZDown`] — one-sided `1→0` noise, the mirror image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitMetric {
    /// Symmetric bit flips.
    Hamming,
    /// Only `0→1` flips are possible on the channel.
    ZUp,
    /// Only `1→0` flips are possible on the channel.
    ZDown,
}

impl BitMetric {
    /// Decoding cost of explaining `received` given that `codeword` was
    /// sent, both `len`-bit words laid out as a
    /// [`CodeTable::codeword`](crate::CodeTable::codeword) is; lower is
    /// more likely. An impossible bit costs `len + 1`, large but finite,
    /// so decoding stays total even when the caller's channel assumption
    /// is violated.
    ///
    /// # Panics
    ///
    /// Panics if the two words have different limb counts.
    pub fn cost(&self, codeword: &[u64], received: &[u64], len: usize) -> u64 {
        assert_eq!(codeword.len(), received.len(), "length mismatch");
        let impossible = len as u64 + 1;
        match self {
            BitMetric::Hamming => u64::from(hamming(codeword, received)),
            BitMetric::ZUp => {
                // codeword 1s missing from received are impossible;
                // received 1s not in codeword are noise.
                let erased = u64::from(ones_not_in(codeword, received));
                let spurious = u64::from(ones_not_in(received, codeword));
                erased * impossible + spurious
            }
            BitMetric::ZDown => {
                let created = u64::from(ones_not_in(received, codeword));
                let dropped = u64::from(ones_not_in(codeword, received));
                created * impossible + dropped
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bits` (0s and 1s), packed into one limb.
    fn pb(bits: &[u8]) -> [u64; 1] {
        [bits
            .iter()
            .enumerate()
            .map(|(i, &b)| u64::from(b) << i)
            .sum()]
    }

    #[test]
    fn hamming_basics() {
        let a = pb(&[1, 0, 1, 1]);
        let b = pb(&[1, 1, 0, 1]);
        assert_eq!(hamming(&a, &b), 2);
        assert_eq!(hamming(&a, &a), 0);
        // Across limbs.
        let ones = [u64::MAX, 0b11];
        assert_eq!(hamming(&ones, &[0, 0]), 66);
    }

    #[test]
    fn ones_not_in_is_asymmetric() {
        let a = pb(&[1, 1, 0, 0]);
        let b = pb(&[1, 0, 1, 0]);
        assert_eq!(ones_not_in(&a, &b), 1);
        assert_eq!(ones_not_in(&b, &a), 1);
        let c = pb(&[1, 1, 1, 1]);
        assert_eq!(ones_not_in(&a, &c), 0);
        assert_eq!(ones_not_in(&c, &a), 2);
    }

    #[test]
    fn zup_prefers_covered_codewords() {
        // Received word covers cw1 but not cw2.
        let received = pb(&[1, 1, 1, 0]);
        let cw1 = pb(&[1, 0, 1, 0]); // covered: cost = 1 spurious one
        let cw2 = pb(&[1, 1, 1, 1]); // has a 1 erased: impossible under ZUp
        let m = BitMetric::ZUp;
        let cost = |cw: &[u64; 1]| m.cost(cw, &received, 4);
        assert!(cost(&cw1) < cost(&cw2));
        // Even though cw2 is as close in Hamming distance (both distance 1).
        assert_eq!(hamming(&cw1, &received), 1);
        assert_eq!(hamming(&cw2, &received), 1);
    }

    #[test]
    fn zdown_mirrors_zup() {
        let received = pb(&[1, 0, 0, 0]);
        let cw1 = pb(&[1, 1, 1, 0]); // 1s dropped: fine under ZDown, cost 2
        let cw2 = pb(&[0, 0, 0, 0]); // received 1 out of thin air: impossible
        let m = BitMetric::ZDown;
        let cost = |cw: &[u64; 1]| m.cost(cw, &received, 4);
        assert!(cost(&cw1) < cost(&cw2));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_length_mismatch_panics() {
        BitMetric::Hamming.cost(&[1], &[1, 0], 65);
    }
}
