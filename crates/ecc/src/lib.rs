//! Error-correcting-code substrate for the `noisy-beeps` reproduction.
//!
//! Algorithm 1 of the paper (the *finding owners* phase) has each party in
//! turn transmit a codeword `C(j)` or `C(Next)` over the noisy beeping
//! channel, where `C : [n] ∪ {Next} → {0,1}^{Θ(log n)}` is a
//! "constant rate error correcting code" that all parties decode. This
//! crate builds that code as one [`CodeTable`]:
//!
//! * [`CodeTable::with_length`] — seeded random codes with
//!   maximum-likelihood (nearest-codeword) decoding, the default for
//!   Algorithm 1;
//! * [`CodeTable::constant_weight`] — fixed-weight codes for
//!   energy-frugal beeping and the Z-channel;
//! * [`BitMetric`] — the channel-aware distance metrics decoding
//!   minimizes, over words packed 64 bits to a `u64` limb.
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
//! A caller that knows the sent symbol and its flip count, as the
//! collapsed owners phase does, asks [`CodeTable::certifies`] whether
//! the full scan must return that symbol; a caller that knows only the
//! sent word, as each per-party owners machine does, decodes with
//! [`CodeTable::decode_near`], which certifies against that word's
//! symbol. The full scan, [`CodeTable::decode`], stays the oracle.
//!
//! # Examples
//!
//! ```
//! use beeps_ecc::{BitMetric, CodeTable};
//!
//! // A code for 17 symbols: 6 times the 5 bits that name one.
//! let code = CodeTable::with_length(17, 30, 0xC0DE);
//! let mut word = code.codeword(11).to_vec();
//! assert_eq!(word.len(), code.codeword_len().div_ceil(64));
//! word[0] ^= 1 << 3; // one flipped round
//! assert_eq!(code.decode(&word, BitMetric::Hamming), 11);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bits;
mod constant_weight;
mod random_code;
mod table;

pub use bits::BitMetric;
pub use random_code::RandomCode;
pub use table::CodeTable;
