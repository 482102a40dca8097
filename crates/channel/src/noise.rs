//! Noise regimes of the beeping channel (Appendix A.1 of the paper).

use crate::bits::BitVec;
use rand::Rng;
use std::fmt;

/// The five noise regimes studied by the paper.
///
/// Every regime acts on the *OR* of the bits sent in a round: the channel
/// first computes `⋁_i b^i` and then corrupts that single bit.
///
/// # Examples
///
/// ```
/// use beeps_channel::NoiseModel;
///
/// let m = NoiseModel::Correlated { epsilon: 0.25 };
/// assert!(m.is_shared());
/// assert_eq!(m.epsilon(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseModel {
    /// ε = 0: every party hears the true OR.
    Noiseless,
    /// The paper's main model (A.1.1): with probability ε the OR is flipped,
    /// independently per round, and all parties receive the same bit.
    Correlated {
        /// Per-round flip probability.
        epsilon: f64,
    },
    /// One-sided noise that can only change a 0 into a 1 (A.1.2): a round in
    /// which somebody beeped is always heard as 1; a silent round is heard
    /// as 1 with probability ε. The Ω(log n) lower bound (Theorem C.1) is
    /// proved against this regime.
    OneSidedZeroToOne {
        /// Probability a silent round is heard as a beep.
        epsilon: f64,
    },
    /// One-sided noise that can only erase a beep (§2): a silent round is
    /// always heard as 0; a round with a beep is heard as 0 with
    /// probability ε. In this regime every error is witnessed by a beeping
    /// party, enabling constant-overhead coding.
    OneSidedOneToZero {
        /// Probability a beeping round is heard as silence.
        epsilon: f64,
    },
    /// Independent noise (§1.2): every party receives its own ε-noisy copy
    /// of the OR; transcripts may diverge across parties.
    Independent {
        /// Per-party, per-round flip probability.
        epsilon: f64,
    },
}

impl NoiseModel {
    /// The noise parameter ε (0 for [`NoiseModel::Noiseless`]).
    #[inline]
    pub fn epsilon(&self) -> f64 {
        match *self {
            NoiseModel::Noiseless => 0.0,
            NoiseModel::Correlated { epsilon }
            | NoiseModel::OneSidedZeroToOne { epsilon }
            | NoiseModel::OneSidedOneToZero { epsilon }
            | NoiseModel::Independent { epsilon } => epsilon,
        }
    }

    /// Whether all parties are guaranteed to hear the same bit each round.
    ///
    /// True for every regime except [`NoiseModel::Independent`]; the paper
    /// calls this property "the parties agree on the (noisy) transcript"
    /// (§1.2).
    #[inline]
    pub fn is_shared(&self) -> bool {
        !matches!(self, NoiseModel::Independent { .. })
    }

    /// Validates the noise parameter.
    ///
    /// # Errors
    ///
    /// Returns a description when ε is outside `[0, 1)` or non-finite.
    /// ε = 1 is rejected because a deterministic flip is not noise, and the
    /// paper's probability calculations divide by `1 − ε`.
    pub fn validate(&self) -> Result<(), InvalidNoise> {
        let eps = self.epsilon();
        if eps.is_finite() && (0.0..1.0).contains(&eps) {
            Ok(())
        } else {
            Err(InvalidNoise { epsilon: eps })
        }
    }

    /// Corrupts the true OR for regimes where all parties hear one bit.
    ///
    /// This is the *per-round reference sampler*: one Bernoulli draw per
    /// (eligible) round. [`crate::StochasticChannel`] batches the same
    /// distribution with geometric skip-sampling; the chi-squared tests
    /// in the channel test suite pin the two against each other.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) when called on
    /// [`NoiseModel::Independent`]; use [`NoiseModel::corrupt_per_party`].
    #[inline]
    pub fn corrupt_shared<R: Rng + ?Sized>(&self, true_or: bool, rng: &mut R) -> bool {
        debug_assert!(self.is_shared(), "independent noise has no shared output");
        match *self {
            NoiseModel::Noiseless => true_or,
            NoiseModel::Correlated { epsilon } => true_or ^ rng.gen_bool(epsilon),
            NoiseModel::OneSidedZeroToOne { epsilon } => {
                if true_or {
                    true
                } else {
                    rng.gen_bool(epsilon)
                }
            }
            NoiseModel::OneSidedOneToZero { epsilon } => {
                if true_or {
                    !rng.gen_bool(epsilon)
                } else {
                    false
                }
            }
            NoiseModel::Independent { .. } => unreachable!("checked by debug_assert"),
        }
    }

    /// Produces each party's independently corrupted copy of the true OR.
    ///
    /// For shared regimes this returns `n` copies of the single shared bit,
    /// so the method is safe to call for any regime. Like
    /// [`NoiseModel::corrupt_shared`], this is the per-round reference
    /// sampler; the stochastic channel's batched mask blocks must match
    /// its flip-count distribution.
    pub fn corrupt_per_party<R: Rng + ?Sized>(
        &self,
        true_or: bool,
        n: usize,
        rng: &mut R,
    ) -> Vec<bool> {
        match *self {
            NoiseModel::Independent { epsilon } => {
                (0..n).map(|_| true_or ^ rng.gen_bool(epsilon)).collect()
            }
            _ => vec![self.corrupt_shared(true_or, rng); n],
        }
    }
}

impl fmt::Display for NoiseModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NoiseModel::Noiseless => write!(f, "noiseless"),
            NoiseModel::Correlated { epsilon } => write!(f, "correlated(eps={epsilon})"),
            NoiseModel::OneSidedZeroToOne { epsilon } => {
                write!(f, "one-sided 0->1 (eps={epsilon})")
            }
            NoiseModel::OneSidedOneToZero { epsilon } => {
                write!(f, "one-sided 1->0 (eps={epsilon})")
            }
            NoiseModel::Independent { epsilon } => write!(f, "independent(eps={epsilon})"),
        }
    }
}

/// Error returned by [`NoiseModel::validate`] for out-of-range ε.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidNoise {
    /// The offending noise parameter.
    pub epsilon: f64,
}

impl fmt::Display for InvalidNoise {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "noise parameter {} outside [0, 1)", self.epsilon)
    }
}

impl std::error::Error for InvalidNoise {}

/// What the channel delivered in one round: a single bit heard by
/// everyone (shared-noise regimes), or one bit per party (independent
/// noise).
///
/// Per-party deliveries are one dense, word-packed row ([`BitVec`]):
/// for up to 128 parties the whole row lives inline, so
/// independent-noise rounds allocate nothing.
///
/// Equality is by variant and bits: `Shared` never equals a
/// `PerParty` row, even one whose bits all agree. Being shared is a
/// channel-level guarantee, not just a bit pattern, and collapsing it
/// would hide a regime bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// All parties heard this bit.
    Shared(bool),
    /// Party `i` heard `bits.get(i)`.
    PerParty(BitVec),
}

impl Delivery {
    /// The bit heard by party `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for a per-party delivery.
    #[inline]
    pub fn heard_by(&self, i: usize) -> bool {
        match self {
            Delivery::Shared(b) => *b,
            Delivery::PerParty(bits) => bits.get(i),
        }
    }

    /// The shared bit, if this delivery was shared.
    #[inline]
    pub fn shared(&self) -> Option<bool> {
        match self {
            Delivery::Shared(b) => Some(*b),
            Delivery::PerParty(_) => None,
        }
    }

    /// The single bit everyone heard, whether the delivery is `Shared`
    /// or a per-party delivery whose bits happen to agree.
    #[inline]
    pub fn uniform(&self) -> Option<bool> {
        match self {
            Delivery::Shared(b) => Some(*b),
            Delivery::PerParty(bits) => bits.uniform(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn flip_rate(model: NoiseModel, true_or: bool, trials: u32, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flips = 0u32;
        for _ in 0..trials {
            if model.corrupt_shared(true_or, &mut rng) != true_or {
                flips += 1;
            }
        }
        f64::from(flips) / f64::from(trials)
    }

    #[test]
    fn noiseless_never_flips() {
        assert_eq!(flip_rate(NoiseModel::Noiseless, true, 1_000, 1), 0.0);
        assert_eq!(flip_rate(NoiseModel::Noiseless, false, 1_000, 2), 0.0);
    }

    #[test]
    fn correlated_flips_both_directions_at_eps() {
        let m = NoiseModel::Correlated { epsilon: 0.25 };
        let r1 = flip_rate(m, true, 100_000, 3);
        let r0 = flip_rate(m, false, 100_000, 4);
        assert!((r1 - 0.25).abs() < 0.01, "1->0 rate {r1}");
        assert!((r0 - 0.25).abs() < 0.01, "0->1 rate {r0}");
    }

    #[test]
    fn one_sided_up_never_erases_beeps() {
        let m = NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 };
        assert_eq!(flip_rate(m, true, 10_000, 5), 0.0);
        let r0 = flip_rate(m, false, 100_000, 6);
        assert!((r0 - 1.0 / 3.0).abs() < 0.01, "0->1 rate {r0}");
    }

    #[test]
    fn one_sided_down_never_creates_beeps() {
        let m = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
        assert_eq!(flip_rate(m, false, 10_000, 7), 0.0);
        let r1 = flip_rate(m, true, 100_000, 8);
        assert!((r1 - 1.0 / 3.0).abs() < 0.01, "1->0 rate {r1}");
    }

    #[test]
    fn independent_copies_differ_across_parties() {
        let m = NoiseModel::Independent { epsilon: 0.5 };
        let mut rng = StdRng::seed_from_u64(9);
        let bits = m.corrupt_per_party(false, 64, &mut rng);
        assert!(bits.iter().any(|&b| b) && bits.iter().any(|&b| !b));
    }

    #[test]
    fn shared_regimes_deliver_identical_copies() {
        let mut rng = StdRng::seed_from_u64(10);
        for m in [
            NoiseModel::Noiseless,
            NoiseModel::Correlated { epsilon: 0.3 },
            NoiseModel::OneSidedZeroToOne { epsilon: 0.3 },
            NoiseModel::OneSidedOneToZero { epsilon: 0.3 },
        ] {
            for _ in 0..50 {
                let bits = m.corrupt_per_party(true, 8, &mut rng);
                assert!(bits.windows(2).all(|w| w[0] == w[1]), "{m} diverged");
            }
        }
    }

    #[test]
    fn validate_accepts_and_rejects() {
        assert!(NoiseModel::Correlated { epsilon: 0.0 }.validate().is_ok());
        assert!(NoiseModel::Correlated { epsilon: 0.999 }.validate().is_ok());
        assert!(NoiseModel::Correlated { epsilon: 1.0 }.validate().is_err());
        assert!(NoiseModel::Correlated { epsilon: -0.1 }.validate().is_err());
        assert!(NoiseModel::Correlated { epsilon: f64::NAN }
            .validate()
            .is_err());
        assert!(NoiseModel::Noiseless.validate().is_ok());
    }

    #[test]
    fn delivery_accessors() {
        let d = Delivery::Shared(true);
        assert!(d.heard_by(7));
        assert_eq!(d.shared(), Some(true));
        let p = Delivery::PerParty(BitVec::from_bools(&[true, false]));
        assert!(!p.heard_by(1));
        assert_eq!(p.shared(), None);
        assert_eq!(p.uniform(), None);
        let agree = Delivery::PerParty(BitVec::from_bools(&[true, true]));
        assert_eq!(agree.shared(), None);
        assert_eq!(agree.uniform(), Some(true));
        assert_eq!(d.uniform(), Some(true));
        // Equal bits do not make a per-party row shared.
        assert_ne!(d, Delivery::PerParty(BitVec::from_flips(&[], true, 2)));
    }

    #[test]
    fn display_mentions_regime() {
        let s = NoiseModel::OneSidedZeroToOne { epsilon: 0.5 }.to_string();
        assert!(s.contains("0->1"));
    }
}
