//! Packed bit-vectors and channel-aware distance metrics.
//!
//! Maximum-likelihood decoding compares a received word against every
//! codeword; packing bits into `u64` limbs makes each comparison a handful
//! of XOR/AND/popcount operations.

/// Hamming distance between two equally long limb slices.
pub(crate) fn hamming(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Number of positions set in `a` and clear in `b`, two equally long
/// limb slices.
pub(crate) fn ones_not_in(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & !y).count_ones()).sum()
}

/// A fixed-length bit string packed into `u64` limbs (LSB-first within each
/// limb).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBits {
    limbs: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An empty bit string.
    pub fn new() -> Self {
        Self {
            limbs: Vec::new(),
            len: 0,
        }
    }

    /// Packs a bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut limbs = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                limbs[i / 64] |= 1u64 << (i % 64);
            }
        }
        Self {
            limbs,
            len: bits.len(),
        }
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.limbs.push(0);
        }
        if bit {
            self.limbs[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends the low `len` bits of `word` (bit `k` becomes position
    /// `self.len() + k`); bits of `word` at or above `len` are ignored.
    /// The word-at-a-time form of [`PackedBits::push`], used to
    /// assemble a received codeword from whole channel words.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn push_word(&mut self, word: u64, len: usize) {
        assert!(len <= 64, "a word holds at most 64 bits, got {len}");
        if len == 0 {
            return;
        }
        let word = word & (u64::MAX >> (64 - len));
        let offset = self.len % 64;
        if offset == 0 {
            self.limbs.push(word);
        } else {
            let last = self.limbs.len() - 1;
            self.limbs[last] |= word << offset;
            if offset + len > 64 {
                self.limbs.push(word >> (64 - offset));
            }
        }
        self.len += len;
    }

    /// The packed limbs, LSB-first; bits at or above [`PackedBits::len`]
    /// are zero.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Empties the bit string, retaining the limb allocation so a reused
    /// receive buffer (e.g. the owners-phase word accumulator) never
    /// reallocates.
    pub fn clear(&mut self) {
        self.limbs.clear();
        self.len = 0;
    }

    /// Unpacks into a bool vector.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// The bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bit string is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming(&self, other: &Self) -> u32 {
        assert_eq!(self.len, other.len, "length mismatch");
        hamming(&self.limbs, &other.limbs)
    }

    /// Number of positions where `self` is 1 and `other` is 0.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn ones_not_in(&self, other: &Self) -> u32 {
        assert_eq!(self.len, other.len, "length mismatch");
        ones_not_in(&self.limbs, &other.limbs)
    }
}

impl Default for PackedBits {
    fn default() -> Self {
        Self::new()
    }
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
    /// sent, both `len` bits in [`PackedBits::limbs`] layout; lower is
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

    fn pb(bits: &[u8]) -> PackedBits {
        PackedBits::from_bools(&bits.iter().map(|&b| b != 0).collect::<Vec<_>>())
    }

    #[test]
    fn roundtrip_across_limb_boundary() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let p = PackedBits::from_bools(&bits);
        assert_eq!(p.len(), 130);
        assert_eq!(p.to_bools(), bits);
        let zeros = PackedBits::from_bools(&[false; 130]);
        assert_eq!(
            p.hamming(&zeros) as usize,
            bits.iter().filter(|&&b| b).count()
        );
    }

    #[test]
    fn push_matches_from_bools_and_clear_keeps_capacity() {
        let bits: Vec<bool> = (0..200).map(|i| i % 5 == 1 || i % 7 == 0).collect();
        let mut p = PackedBits::new();
        for &b in &bits {
            p.push(b);
        }
        assert_eq!(p, PackedBits::from_bools(&bits));
        p.clear();
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        // Refilling after clear reproduces the same packing (tail limbs
        // must not leak stale bits).
        for &b in &bits[..70] {
            p.push(b);
        }
        assert_eq!(p, PackedBits::from_bools(&bits[..70]));
    }

    #[test]
    fn push_word_matches_bitwise_push_at_every_offset() {
        // Word lengths that land on, straddle and fill limb boundaries,
        // with junk above `len` that must be dropped.
        let words = [(0xDEAD_BEEF_u64, 8), (u64::MAX, 63), (0x5555, 64), (7, 1)];
        for lead in 0..70 {
            let mut by_word = PackedBits::new();
            let mut by_bit = PackedBits::new();
            for i in 0..lead {
                by_word.push(i % 3 == 0);
                by_bit.push(i % 3 == 0);
            }
            for &(word, len) in &words {
                by_word.push_word(word, len);
                for k in 0..len {
                    by_bit.push(word >> k & 1 == 1);
                }
                by_word.push_word(u64::MAX, 0);
            }
            assert_eq!(by_word, by_bit, "lead {lead}");
            assert_eq!(by_word.limbs().len(), by_word.len().div_ceil(64));
        }
    }

    #[test]
    fn hamming_basics() {
        let a = pb(&[1, 0, 1, 1]);
        let b = pb(&[1, 1, 0, 1]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn ones_not_in_is_asymmetric() {
        let a = pb(&[1, 1, 0, 0]);
        let b = pb(&[1, 0, 1, 0]);
        assert_eq!(a.ones_not_in(&b), 1);
        assert_eq!(b.ones_not_in(&a), 1);
        let c = pb(&[1, 1, 1, 1]);
        assert_eq!(a.ones_not_in(&c), 0);
        assert_eq!(c.ones_not_in(&a), 2);
    }

    #[test]
    fn zup_prefers_covered_codewords() {
        // Received word covers cw1 but not cw2.
        let received = pb(&[1, 1, 1, 0]);
        let cw1 = pb(&[1, 0, 1, 0]); // covered: cost = 1 spurious one
        let cw2 = pb(&[1, 1, 1, 1]); // has a 1 erased: impossible under ZUp
        let m = BitMetric::ZUp;
        let cost = |cw: &PackedBits| m.cost(cw.limbs(), received.limbs(), 4);
        assert!(cost(&cw1) < cost(&cw2));
        // Even though cw2 is closer in Hamming distance... (both distance 1)
        assert_eq!(cw1.hamming(&received), 1);
        assert_eq!(cw2.hamming(&received), 1);
    }

    #[test]
    fn zdown_mirrors_zup() {
        let received = pb(&[1, 0, 0, 0]);
        let cw1 = pb(&[1, 1, 1, 0]); // 1s dropped: fine under ZDown, cost 2
        let cw2 = pb(&[0, 0, 0, 0]); // received 1 out of thin air: impossible
        let m = BitMetric::ZDown;
        let cost = |cw: &PackedBits| m.cost(cw.limbs(), received.limbs(), 4);
        assert!(cost(&cw1) < cost(&cw2));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_length_mismatch_panics() {
        pb(&[1]).hamming(&pb(&[1, 0]));
    }
}
