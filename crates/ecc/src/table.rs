//! The packed codeword table behind the seeded table codes
//! ([`crate::RandomCode`], [`crate::ConstantWeightCode`]): distinct
//! codewords drawn from a seed, the maximum-likelihood scan over them,
//! and the certificate that lets a decode skip the scan.

use crate::bits::{BitMetric, PackedBits};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::atomic::{AtomicU32, Ordering};

/// A radius not computed yet. Codewords are distinct and at most
/// `u32::MAX − 1` bits long in any real code, so no radius is this.
const UNKNOWN: u32 = u32::MAX;

/// `q ≥ 2` distinct packed codewords of one length, with each
/// codeword's *radius*: its Hamming distance to the nearest other
/// codeword, computed on the first certified decode of its symbol and
/// kept, so every holder of a shared code pays for it once.
#[derive(Debug)]
pub(crate) struct CodeTable {
    len: usize,
    codewords: Vec<PackedBits>,
    /// Each codeword's symbol: the map that rejected repeated draws,
    /// kept so [`CodeTable::decode_near`] can name a reference word's
    /// symbol. Fixed once drawn.
    symbols: BTreeMap<PackedBits, usize>,
    /// `radii[s]`: the radius of codeword `s`, or [`UNKNOWN`].
    radii: Vec<AtomicU32>,
}

impl CodeTable {
    /// Draws codewords from `next` until `q` distinct ones are found,
    /// rejecting repeats; `len` is their common length.
    ///
    /// # Panics
    ///
    /// Panics with `exhausted` after 10 000 rejected draws.
    pub(crate) fn draw(
        q: usize,
        len: usize,
        mut next: impl FnMut() -> PackedBits,
        exhausted: &str,
    ) -> Self {
        let mut codewords: Vec<PackedBits> = Vec::with_capacity(q);
        // Map-membership duplicate rejection: the same draws, and so the
        // same code, as an O(q²) linear scan.
        let mut symbols = BTreeMap::new();
        let mut attempts = 0usize;
        while codewords.len() < q {
            let cw = next();
            match symbols.entry(cw) {
                Entry::Occupied(_) => {
                    attempts += 1;
                    assert!(attempts < 10_000, "{exhausted}");
                }
                Entry::Vacant(slot) => {
                    codewords.push(slot.key().clone());
                    slot.insert(codewords.len() - 1);
                }
            }
        }
        Self {
            len,
            codewords,
            symbols,
            radii: (0..q).map(|_| AtomicU32::new(UNKNOWN)).collect(),
        }
    }

    /// Number of codewords `q`.
    pub(crate) fn alphabet_size(&self) -> usize {
        self.codewords.len()
    }

    /// Length of every codeword in bits.
    pub(crate) fn codeword_len(&self) -> usize {
        self.len
    }

    /// The codeword of `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is outside the alphabet.
    pub(crate) fn codeword(&self, symbol: usize) -> &PackedBits {
        assert!(
            symbol < self.codewords.len(),
            "symbol {symbol} outside alphabet of {}",
            self.codewords.len()
        );
        &self.codewords[symbol]
    }

    /// The full maximum-likelihood scan: the first symbol of least
    /// `metric` cost.
    ///
    /// # Panics
    ///
    /// Panics if `received.len()` is not the codeword length.
    pub(crate) fn decode_packed(&self, received: &PackedBits, metric: BitMetric) -> usize {
        assert_eq!(received.len(), self.len, "wrong word length");
        let mut best = 0usize;
        let mut best_cost = u64::MAX;
        for (sym, cw) in self.codewords.iter().enumerate() {
            let cost = metric.cost(cw, received);
            if cost < best_cost {
                best_cost = cost;
                best = sym;
            }
        }
        best
    }

    /// Whether `sent`'s codeword, heard with `flips` bits flipped that
    /// the decoding metric charges one each, decodes to `sent`: its cost
    /// is `flips`, and by the triangle inequality every other codeword
    /// costs at least `r − flips`, `r` its radius. So `2·flips < r`
    /// makes `sent` the unique least-cost symbol, which the scan
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if `sent` is outside the alphabet.
    pub(crate) fn certifies(&self, sent: usize, flips: usize) -> bool {
        (2 * flips as u64) < u64::from(self.radius(sent))
    }

    /// [`CodeTable::decode_packed`], returning `s` without the scan when
    /// `reference` is the codeword of `s` and a certificate proves the
    /// scan would.
    ///
    /// Let `k` be the Hamming distance from that codeword to `received`,
    /// `c₀` its `metric` cost and `r` its radius. Every metric's cost is
    /// at least the Hamming distance, so by the triangle inequality
    /// every other codeword costs at least `r − k`. If `c₀ + k < r`,
    /// that is more than `c₀`: `s` is the unique least-cost symbol.
    ///
    /// # Panics
    ///
    /// Panics if `received.len()` is not the codeword length.
    pub(crate) fn decode_near(
        &self,
        reference: &PackedBits,
        received: &PackedBits,
        metric: BitMetric,
    ) -> usize {
        assert_eq!(received.len(), self.len, "wrong word length");
        if let Some(&s) = self.symbols.get(reference) {
            let cw = &self.codewords[s];
            let bound = metric.cost(cw, received) + u64::from(cw.hamming(received));
            if bound < u64::from(self.radius(s)) {
                return s;
            }
        }
        self.decode_packed(received, metric)
    }

    /// The radius of codeword `s`, computed on first request.
    ///
    /// # Panics
    ///
    /// Panics if `s` is outside the alphabet.
    fn radius(&self, s: usize) -> u32 {
        let cw = self.codeword(s);
        // Threads racing on an unknown radius compute and store the same
        // value.
        let known = self.radii[s].load(Ordering::Acquire);
        if known != UNKNOWN {
            return known;
        }
        let radius = self
            .codewords
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != s)
            .map(|(_, other)| cw.hamming(other))
            .min()
            .expect("a code has at least 2 codewords");
        self.radii[s].store(radius, Ordering::Release);
        radius
    }

    /// Minimum pairwise Hamming distance: the least radius. Computes
    /// every radius not yet known, O(q²) the first time.
    pub(crate) fn min_distance(&self) -> u32 {
        (0..self.codewords.len())
            .map(|s| self.radius(s))
            .min()
            .expect("a code has at least 2 codewords")
    }
}

impl Clone for CodeTable {
    fn clone(&self) -> Self {
        Self {
            len: self.len,
            codewords: self.codewords.clone(),
            symbols: self.symbols.clone(),
            radii: self
                .radii
                .iter()
                .map(|r| AtomicU32::new(r.load(Ordering::Acquire)))
                .collect(),
        }
    }
}
