//! The per-party delivery row: what each party heard in one round under
//! independent noise, one bit per party, packed 64 to a word.
//!
//! A row is written once, when it is built, and only read after. Up to
//! 128 parties it lives in a two-word inline store, so a round delivered
//! per party allocates nothing: [`run_protocol`](crate::run_protocol)
//! and the provided [`Channel::transmit_word`](crate::Channel::transmit_word)
//! behind wrapper channels build one every round.

/// Number of 64-bit words stored inline before spilling to the heap.
const INLINE_WORDS: usize = 2;

/// The words of a row: inline up to [`INLINE_WORDS`], else exactly the
/// row's words on the heap. Inline words past the row are zero.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Store {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// One round's per-party delivery: party `i` heard bit `i % 64` of word
/// `i / 64`.
///
/// Bits past `len` are always zero, so word-level comparisons and
/// population counts need no masking, and equal rows have equal stores.
///
/// # Examples
///
/// ```
/// use beeps_channel::BitVec;
///
/// // Parties 0 and 2 of three heard a beep that party 1 missed.
/// let bits = BitVec::from_flips(&[0b010], true, 3);
/// assert_eq!(bits, BitVec::from_bools(&[true, false, true]));
/// assert!(bits.get(0) && !bits.get(1));
/// assert_eq!(bits.count_ones(), 2);
/// assert_eq!(bits.uniform(), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    store: Store,
    len: usize,
}

impl BitVec {
    /// A row of `len` bits whose words, zeroed, `write` fills; the bits
    /// it sets past `len` are cleared.
    #[inline]
    fn build(len: usize, write: impl FnOnce(&mut [u64])) -> Self {
        let words = len.div_ceil(64);
        let mut store = if words <= INLINE_WORDS {
            Store::Inline([0; INLINE_WORDS])
        } else {
            Store::Heap(vec![0; words])
        };
        let row = match &mut store {
            Store::Inline(w) => &mut w[..words],
            Store::Heap(w) => &mut w[..],
        };
        write(row);
        if !len.is_multiple_of(64) {
            row[words - 1] &= (1u64 << (len % 64)) - 1;
        }
        Self { store, len }
    }

    /// `len` bits where bit `i` is `base` XOR bit `i` of `flips`: the
    /// delivery of a round whose true OR is `base`, in which the parties
    /// set in `flips` heard the other bit.
    ///
    /// Missing words of `flips` are treated as zero (no flip).
    ///
    /// # Panics
    ///
    /// Panics if `flips` holds more words than `len` needs.
    #[inline]
    #[must_use]
    pub fn from_flips(flips: &[u64], base: bool, len: usize) -> Self {
        assert!(
            flips.len() <= len.div_ceil(64),
            "{} words exceed the {} needed for {len} bits",
            flips.len(),
            len.div_ceil(64)
        );
        let fill = if base { u64::MAX } else { 0 };
        Self::build(len, |row| {
            for (i, word) in row.iter_mut().enumerate() {
                *word = fill ^ flips.get(i).copied().unwrap_or(0);
            }
        })
    }

    /// Packs a bool slice.
    #[must_use]
    pub fn from_bools(bools: &[bool]) -> Self {
        Self::build(bools.len(), |row| {
            for (i, &bit) in bools.iter().enumerate() {
                row[i / 64] |= u64::from(bit) << (i % 64);
            }
        })
    }

    /// Number of bits.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row holds no bits.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words; bits past [`BitVec::len`] are zero.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        match &self.store {
            Store::Inline(w) => &w[..self.len.div_ceil(64)],
            Store::Heap(w) => w,
        }
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range for {} bits", self.len);
        let word = match &self.store {
            Store::Inline(w) => w[i / 64],
            Store::Heap(w) => w[i / 64],
        };
        (word >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `Some(bit)` if every bit equals `bit` (the empty row is uniformly
    /// `false` by convention), `None` if the bits diverge.
    #[inline]
    #[must_use]
    pub fn uniform(&self) -> Option<bool> {
        match self.count_ones() {
            0 => Some(false),
            ones if ones == self.len => Some(true),
            _ => None,
        }
    }

    /// Iterates the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_bools() {
        for len in [0usize, 1, 7, 63, 64, 65, 128, 129, 200] {
            let bools: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let packed = BitVec::from_bools(&bools);
            assert_eq!(packed.len(), len);
            assert!(packed.iter().eq(bools.iter().copied()), "len {len}");
            for (i, &b) in bools.iter().enumerate() {
                assert_eq!(packed.get(i), b);
                assert_eq!(packed.words()[i / 64] >> (i % 64) & 1 == 1, b);
            }
            assert_eq!(packed.words().len(), len.div_ceil(64));
            assert_eq!(packed.count_ones(), bools.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn broadcast_is_uniform() {
        for len in [1usize, 64, 65, 130] {
            let ones = BitVec::from_flips(&[], true, len);
            assert_eq!(ones.uniform(), Some(true), "len {len}");
            assert_eq!(ones.count_ones(), len);
            let zeros = BitVec::from_flips(&[], false, len);
            assert_eq!(zeros.uniform(), Some(false));
            assert_eq!(zeros.count_ones(), 0);
        }
    }

    #[test]
    fn uniform_detects_divergence() {
        assert_eq!(BitVec::from_flips(&[0, 0], true, 70).uniform(), Some(true));
        let v = BitVec::from_flips(&[0, 1 << 5], true, 70);
        assert_eq!(v.uniform(), None);
        assert!(!v.get(69));
        assert_eq!(BitVec::from_bools(&[]).uniform(), Some(false));
    }

    #[test]
    fn from_flips_xors_against_broadcast() {
        // base=true: everyone hears 1 except flipped parties.
        let v = BitVec::from_flips(&[0b101], true, 5);
        assert_eq!(v, BitVec::from_bools(&[false, true, false, true, true]));
        // base=false: only flipped parties hear 1.
        let v = BitVec::from_flips(&[0b101], false, 5);
        assert_eq!(v, BitVec::from_bools(&[true, false, true, false, false]));
        // Missing words mean "no flip".
        let v = BitVec::from_flips(&[], true, 70);
        assert_eq!(v.uniform(), Some(true));
        assert_eq!(v.count_ones(), 70);
        // Bits past the row are cleared, inline and on the heap.
        let v = BitVec::from_flips(&[u64::MAX], false, 10);
        assert_eq!((v.words(), v.count_ones()), (&[(1u64 << 10) - 1][..], 10));
        assert_eq!(BitVec::from_flips(&[], true, 10), v);
        let v = BitVec::from_flips(&[0, 0, u64::MAX], false, 129);
        assert_eq!((v.words(), v.count_ones()), (&[0, 0, 1][..], 1));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn from_flips_rejects_excess_words() {
        let _ = BitVec::from_flips(&[0, 0], true, 64);
    }

    #[test]
    fn equality_is_length_sensitive() {
        let a = BitVec::from_bools(&[true, false]);
        let b = BitVec::from_bools(&[true, false, false]);
        assert_ne!(a, b);
        assert_eq!(a, BitVec::from_bools(&[true, false]));
        assert_eq!(a, BitVec::from_flips(&[0b10], true, 2));
    }

    #[test]
    fn out_of_range_get_panics() {
        let v = BitVec::from_bools(&[true]);
        assert!(std::panic::catch_unwind(|| v.get(1)).is_err());
    }
}
