//! A word-packed bit vector for transcripts and per-party deliveries.
//!
//! The simulation stack moves a lot of bits: channel deliveries (one bit
//! per party per round under independent noise), transcripts, and noise
//! masks. [`BitVec`] stores them 64 to a machine word, with an inline
//! two-word buffer so vectors of up to 128 bits — every per-party
//! delivery at realistic `n` — never touch the heap.
//!
//! The type is `&[bool]`-compatible at the edges ([`BitVec::from_bools`],
//! [`BitVec::to_bools`], `PartialEq` against bool slices, `FromIterator`),
//! so call sites built around `Vec<bool>` can migrate incrementally; the
//! word-level views ([`BitVec::words`], [`BitVec::uniform`],
//! [`BitVec::count_ones`]) are what the hot paths use.

/// Number of 64-bit words stored inline before spilling to the heap.
const INLINE_WORDS: usize = 2;

#[derive(Clone, Debug)]
enum Store {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A growable bit vector packed 64 bits to a word.
///
/// Bits past `len` in the last word are always zero, so word-level
/// comparisons and population counts need no masking.
///
/// # Examples
///
/// ```
/// use beeps_channel::BitVec;
///
/// let bits = BitVec::from_bools(&[true, false, true]);
/// assert_eq!(bits.len(), 3);
/// assert!(bits.get(0) && !bits.get(1));
/// assert_eq!(bits.count_ones(), 2);
/// assert_eq!(bits, [true, false, true].as_slice());
/// ```
#[derive(Clone, Debug)]
pub struct BitVec {
    store: Store,
    len: usize,
}

#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

impl BitVec {
    /// An empty bit vector (inline storage, no allocation).
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Self {
            store: Store::Inline([0; INLINE_WORDS]),
            len: 0,
        }
    }

    /// An empty bit vector with room for `bits` bits before reallocating.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        if bits <= INLINE_WORDS * 64 {
            Self::new()
        } else {
            Self {
                store: Store::Heap(Vec::with_capacity(words_for(bits))),
                len: 0,
            }
        }
    }

    /// `len` copies of `bit`.
    #[must_use]
    pub fn broadcast(len: usize, bit: bool) -> Self {
        let mut v = Self::with_capacity(len);
        let words = words_for(len);
        let fill = if bit { u64::MAX } else { 0 };
        {
            let w = v.words_storage_mut(words);
            for x in w.iter_mut() {
                *x = fill;
            }
        }
        v.len = len;
        v.mask_tail();
        v
    }

    /// Packs a bool slice.
    #[must_use]
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = Self::with_capacity(bools.len());
        let words = words_for(bools.len());
        {
            let w = v.words_storage_mut(words);
            for (i, &b) in bools.iter().enumerate() {
                if b {
                    w[i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        v.len = bools.len();
        v
    }

    /// Builds a bit vector of `len` bits directly from packed words.
    ///
    /// Bits of `words` beyond `len` are cleared; missing words are
    /// treated as zero.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds more words than `len` needs.
    #[must_use]
    pub fn from_words(words: &[u64], len: usize) -> Self {
        assert!(
            words.len() <= words_for(len),
            "{} words exceed the {} needed for {len} bits",
            words.len(),
            words_for(len)
        );
        let mut v = Self::with_capacity(len);
        {
            let w = v.words_storage_mut(words_for(len));
            w[..words.len()].copy_from_slice(words);
        }
        v.len = len;
        v.mask_tail();
        v
    }

    /// `len` bits where bit `i` is `base` XOR bit `i` of `flips` —
    /// builds a channel delivery from a flip mask and the broadcast bit
    /// in one pass over words, without intermediate allocation for
    /// `len ≤ 128`.
    ///
    /// Missing words of `flips` are treated as zero (no flip).
    ///
    /// # Panics
    ///
    /// Panics if `flips` holds more words than `len` needs.
    #[must_use]
    pub fn from_flips(flips: &[u64], base: bool, len: usize) -> Self {
        assert!(
            flips.len() <= words_for(len),
            "{} words exceed the {} needed for {len} bits",
            flips.len(),
            words_for(len)
        );
        let fill = if base { u64::MAX } else { 0 };
        let mut v = Self::with_capacity(len);
        {
            let w = v.words_storage_mut(words_for(len));
            for (i, x) in w.iter_mut().enumerate() {
                *x = fill ^ flips.get(i).copied().unwrap_or(0);
            }
        }
        v.len = len;
        v.mask_tail();
        v
    }

    /// Number of bits.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words; bits past [`BitVec::len`] are zero.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        match &self.store {
            Store::Inline(w) => &w[..words_for(self.len).min(INLINE_WORDS)],
            Store::Heap(w) => &w[..words_for(self.len)],
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

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bit {i} out of range for {} bits", self.len);
        let w = match &mut self.store {
            Store::Inline(w) => &mut w[i / 64],
            Store::Heap(w) => &mut w[i / 64],
        };
        if bit {
            *w |= 1u64 << (i % 64);
        } else {
            *w &= !(1u64 << (i % 64));
        }
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let i = self.len;
        self.reserve_words(words_for(i + 1));
        self.len = i + 1;
        if bit {
            self.set(i, true);
        }
    }

    /// Shortens to `len` bits (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            // Clear the dropped range so the tail invariant holds.
            let keep = words_for(len);
            match &mut self.store {
                Store::Inline(w) => {
                    for x in w.iter_mut().skip(keep) {
                        *x = 0;
                    }
                }
                Store::Heap(w) => {
                    for x in w.iter_mut().skip(keep) {
                        *x = 0;
                    }
                }
            }
            self.mask_tail();
        }
    }

    /// Removes all bits, keeping the allocation.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Number of set bits.
    #[inline]
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    #[inline]
    #[must_use]
    pub fn any(&self) -> bool {
        self.words().iter().any(|&w| w != 0)
    }

    /// `Some(bit)` if every stored bit equals `bit` (the empty vector is
    /// uniformly `false` by convention), `None` if the bits diverge.
    ///
    /// This is the delivery fast path: one word-compare per 64 parties
    /// decides whether a per-party delivery needs per-party handling.
    #[inline]
    #[must_use]
    pub fn uniform(&self) -> Option<bool> {
        let ones = self.count_ones();
        if ones == 0 {
            Some(false)
        } else if ones == self.len {
            Some(true)
        } else {
            None
        }
    }

    /// Iterates the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Unpacks into a `Vec<bool>` — the adapter for `&[bool]` APIs.
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            let last = self.len / 64;
            let mask = (1u64 << rem) - 1;
            match &mut self.store {
                Store::Inline(w) => w[last] &= mask,
                Store::Heap(w) => {
                    if last < w.len() {
                        w[last] &= mask;
                    }
                }
            }
        }
    }

    /// Ensures backing storage for at least `words` words, zero-filled.
    fn reserve_words(&mut self, words: usize) {
        match &mut self.store {
            Store::Inline(w) => {
                if words > INLINE_WORDS {
                    let mut heap = Vec::with_capacity(words);
                    heap.extend_from_slice(w);
                    heap.resize(words, 0);
                    self.store = Store::Heap(heap);
                }
            }
            Store::Heap(w) => {
                if words > w.len() {
                    w.resize(words, 0);
                }
            }
        }
    }

    /// Zero-extended mutable word storage of exactly `words` words.
    fn words_storage_mut(&mut self, words: usize) -> &mut [u64] {
        self.reserve_words(words);
        match &mut self.store {
            Store::Inline(w) => &mut w[..words],
            Store::Heap(w) => &mut w[..words],
        }
    }
}

impl Default for BitVec {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitVec {}

impl PartialEq<[bool]> for BitVec {
    fn eq(&self, other: &[bool]) -> bool {
        self.len == other.len() && self.iter().zip(other.iter()).all(|(a, &b)| a == b)
    }
}

impl PartialEq<&[bool]> for BitVec {
    fn eq(&self, other: &&[bool]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<bool>> for BitVec {
    fn eq(&self, other: &Vec<bool>) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<BitVec> for [bool] {
    fn eq(&self, other: &BitVec) -> bool {
        other == self
    }
}

impl From<&[bool]> for BitVec {
    fn from(bools: &[bool]) -> Self {
        Self::from_bools(bools)
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut v = Self::new();
        for bit in iter {
            v.push(bit);
        }
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for bit in iter {
            self.push(bit);
        }
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
            assert_eq!(packed.to_bools(), bools, "len {len}");
            assert_eq!(packed, bools.as_slice());
            for (i, &b) in bools.iter().enumerate() {
                assert_eq!(packed.get(i), b);
            }
        }
    }

    #[test]
    fn push_crosses_word_and_inline_boundaries() {
        let mut v = BitVec::new();
        let mut reference = Vec::new();
        for i in 0..300 {
            let bit = i % 5 != 0;
            v.push(bit);
            reference.push(bit);
        }
        assert_eq!(v, reference.as_slice());
        assert_eq!(v.count_ones(), reference.iter().filter(|&&b| b).count());
    }

    #[test]
    fn broadcast_is_uniform() {
        for len in [1usize, 64, 65, 130] {
            let ones = BitVec::broadcast(len, true);
            assert_eq!(ones.uniform(), Some(true), "len {len}");
            assert_eq!(ones.count_ones(), len);
            let zeros = BitVec::broadcast(len, false);
            assert_eq!(zeros.uniform(), Some(false));
            assert!(!zeros.any());
        }
    }

    #[test]
    fn uniform_detects_divergence() {
        let mut v = BitVec::broadcast(70, true);
        assert_eq!(v.uniform(), Some(true));
        v.set(69, false);
        assert_eq!(v.uniform(), None);
        assert_eq!(BitVec::new().uniform(), Some(false));
    }

    #[test]
    fn from_words_masks_tail() {
        let v = BitVec::from_words(&[u64::MAX], 10);
        assert_eq!(v.len(), 10);
        assert_eq!(v.count_ones(), 10);
        assert_eq!(v.words(), &[(1u64 << 10) - 1]);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn from_words_rejects_excess_words() {
        let _ = BitVec::from_words(&[0, 0], 64);
    }

    #[test]
    fn from_flips_xors_against_broadcast() {
        // base=true: everyone hears 1 except flipped parties.
        let v = BitVec::from_flips(&[0b101], true, 5);
        assert_eq!(v, [false, true, false, true, true].as_slice());
        // base=false: only flipped parties hear 1.
        let v = BitVec::from_flips(&[0b101], false, 5);
        assert_eq!(v, [true, false, true, false, false].as_slice());
        // Missing words mean "no flip".
        let v = BitVec::from_flips(&[], true, 70);
        assert_eq!(v.uniform(), Some(true));
        assert_eq!(v.count_ones(), 70);
    }

    #[test]
    fn truncate_clears_dropped_bits() {
        let mut v = BitVec::broadcast(130, true);
        v.truncate(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.count_ones(), 100);
        // Re-grow: the dropped range must read as zero.
        for _ in 0..30 {
            v.push(false);
        }
        assert_eq!(v.count_ones(), 100);
        v.clear();
        assert!(v.is_empty() && !v.any());
    }

    #[test]
    fn set_and_get_are_word_exact() {
        let mut v = BitVec::broadcast(128, false);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(127, true);
        assert_eq!(v.words(), &[(1 << 63) | 1, (1 << 63) | 1]);
        v.set(63, false);
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn equality_is_length_sensitive() {
        let a = BitVec::from_bools(&[true, false]);
        let b = BitVec::from_bools(&[true, false, false]);
        assert_ne!(a, b);
        assert_eq!(a, BitVec::from_bools(&[true, false]));
        assert_eq!([true, false].as_slice(), &a);
    }

    #[test]
    fn from_iterator_and_extend() {
        let v: BitVec = (0..100).map(|i| i % 2 == 0).collect();
        assert_eq!(v.len(), 100);
        assert_eq!(v.count_ones(), 50);
        let mut w = BitVec::new();
        w.extend(v.iter());
        assert_eq!(v, w);
    }

    #[test]
    fn out_of_range_get_panics() {
        let v = BitVec::from_bools(&[true]);
        assert!(std::panic::catch_unwind(|| v.get(1)).is_err());
    }
}
