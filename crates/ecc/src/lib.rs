//! Error-correcting-code substrate for the `noisy-beeps` reproduction.
//!
//! Algorithm 1 of the paper (the *finding owners* phase) has each party in
//! turn transmit a codeword `C(j)` or `C(Next)` over the noisy beeping
//! channel, where `C : [n] ∪ {Next} → {0,1}^{Θ(log n)}` is a
//! "constant rate error correcting code" that all parties decode. This
//! crate builds that substrate from scratch:
//!
//! * [`gf`] — arithmetic in `GF(2^m)` via log/antilog tables;
//! * [`rs`] — Reed–Solomon codes over `GF(2^m)` with
//!   Berlekamp–Massey / Chien / Forney decoding;
//! * [`hadamard`] — the Walsh–Hadamard binary code (relative distance 1/2),
//!   used as the inner code of concatenations;
//! * [`repetition`] — bitwise repetition with (biased) majority decoding;
//! * [`mod@concat`] — concatenated RS ∘ Hadamard binary codes;
//! * [`random_code`] — seeded random codes with maximum-likelihood
//!   (nearest-codeword) decoding, the default for Algorithm 1;
//! * [`constant_weight`] — fixed-weight codes for energy-frugal beeping
//!   and the Z-channel;
//! * [`bits`] — packed bit-vectors and the channel-aware distance metrics.
//!
//! ## Why random codes are the default
//!
//! The paper fixes the noise rate at `ε = 1/3`. No binary code of more than
//! a few codewords has relative distance above 1/2 (Plotkin bound), so
//! *bounded-distance* decoding cannot tolerate a 1/3 expected fraction of
//! flipped bits. Maximum-likelihood decoding of random codes, however,
//! succeeds at any rate below the channel capacity `1 − h(1/3) ≈ 0.082`,
//! and the alphabets here are small (`q = O(n)` symbols), so brute-force
//! nearest-codeword decoding over packed 64-bit words is cheap. This is the
//! substitution documented in `DESIGN.md`. Over the one-sided `0→1` channel
//! the decoder switches to the Z-channel metric: codeword 1s can never have
//! been erased.
//!
//! ## Certified decoding
//!
//! When the caller knows which symbol was sent, as the owners phase's
//! collapsed engine does, [`SymbolCode::decode_sent`] returns the full
//! scan's answer without running the scan whenever a distance
//! certificate proves it. The random and constant-weight codes share the
//! one codeword table that implements it; the full scan,
//! [`SymbolCode::decode_packed`], stays the oracle.
//!
//! # Examples
//!
//! ```
//! use beeps_ecc::{BitMetric, RandomCode, SymbolCode};
//!
//! // A code for 17 symbols with 6x length expansion.
//! let code = RandomCode::new(17, 6, 0xC0DE);
//! let word = code.encode(11);
//! assert_eq!(word.len(), code.codeword_len());
//! assert_eq!(code.decode(&word, BitMetric::Hamming), 11);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bits;
pub mod concat;
pub mod constant_weight;
pub mod gf;
pub mod hadamard;
pub mod random_code;
pub mod repetition;
pub mod rs;
mod table;

pub use bits::BitMetric;
pub use concat::ConcatenatedCode;
pub use constant_weight::ConstantWeightCode;
pub use gf::GfField;
pub use hadamard::Hadamard;
pub use random_code::RandomCode;
pub use repetition::RepetitionCode;
pub use rs::{ReedSolomon, RsError};

/// A code over a finite symbol alphabet `0..alphabet_size`, mapping each
/// symbol to a binary codeword of fixed length — the interface Algorithm 1
/// consumes.
///
/// Decoders are total: they always return *some* symbol (maximum-likelihood
/// style), because the owners phase must make progress every iteration;
/// reliability is quantified by experiment E4 rather than signalled
/// per-call.
pub trait SymbolCode: std::fmt::Debug {
    /// Number of encodable symbols `q`.
    fn alphabet_size(&self) -> usize;

    /// Length of every codeword in bits.
    fn codeword_len(&self) -> usize;

    /// Encodes `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol >= self.alphabet_size()`.
    fn encode(&self, symbol: usize) -> Vec<bool>;

    /// Decodes `received` to the most likely symbol under `metric`.
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != self.codeword_len()`.
    fn decode(&self, received: &[bool], metric: BitMetric) -> usize;

    /// Encodes `symbol` straight into packed form.
    ///
    /// Codes that store packed codewords internally (the random and
    /// constant-weight codes) override this to hand out a limb copy with
    /// no per-bit unpack/repack; the default round-trips through
    /// [`SymbolCode::encode`].
    ///
    /// # Panics
    ///
    /// Panics if `symbol >= self.alphabet_size()`.
    fn encode_packed(&self, symbol: usize) -> bits::PackedBits {
        bits::PackedBits::from_bools(&self.encode(symbol))
    }

    /// Decodes an already-packed received word — the hot-path form used
    /// by the owners phase, which accumulates heard bits packed and must
    /// not unpack them per decode.
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != self.codeword_len()`.
    fn decode_packed(&self, received: &bits::PackedBits, metric: BitMetric) -> usize {
        self.decode(&received.to_bools(), metric)
    }

    /// Decodes `received` when the caller knows it was sent as the
    /// codeword of `sent` — the owners phase's case, where every party
    /// hears the same word and the simulator knows what was sent.
    ///
    /// Returns exactly [`SymbolCode::decode_packed`]`(received,
    /// metric)`: `sent` only lets a code skip its scan when it can prove
    /// the scan's answer. The default decodes in full. The random and
    /// constant-weight codes return `sent` outright when
    /// `c₀ + k < r`, where `k` is the Hamming distance from `sent`'s
    /// codeword to `received`, `c₀` its `metric` cost and `r` the
    /// distance from that codeword to its nearest other one (computed on
    /// the symbol's first such decode and kept in the code). That is
    /// exact: every metric's cost is at least the Hamming distance, so
    /// every other codeword costs at least `r − k > c₀`.
    ///
    /// # Panics
    ///
    /// Panics if `sent >= self.alphabet_size()` or
    /// `received.len() != self.codeword_len()`.
    fn decode_sent(&self, sent: usize, received: &bits::PackedBits, metric: BitMetric) -> usize {
        assert!(
            sent < self.alphabet_size(),
            "symbol {sent} outside alphabet of {}",
            self.alphabet_size()
        );
        self.decode_packed(received, metric)
    }
}
