//! Simulation parameters and their resolution against a noise model.
//!
//! The paper's schemes are parameterized by "sufficiently large constants";
//! here those constants are *computed* from the target error via the tail
//! bounds of `beeps-info`:
//!
//! * repetition counts from exact binomial tails
//!   ([`beeps_info::tail::repetitions_for_error`]),
//! * codeword lengths from the random-coding union bound at the channel's
//!   cutoff rate ([`beeps_info::tail::random_code_length`]).

use beeps_channel::NoiseModel;
use beeps_ecc::{BitMetric, CodeTable};
use beeps_info::tail;

/// Tunable parameters of the chunked simulators.
///
/// Build one with [`SimulatorConfig::builder`]: pick the party count,
/// optionally the channel the parameters should be sized for, and any
/// overrides, then [`build`](SimulatorConfigBuilder::build).
///
/// # Examples
///
/// ```
/// use beeps_channel::NoiseModel;
/// use beeps_core::SimulatorConfig;
///
/// let mild = SimulatorConfig::builder(16)
///     .model(NoiseModel::Correlated { epsilon: 0.05 })
///     .build();
/// let harsh = SimulatorConfig::builder(16)
///     .model(NoiseModel::Correlated { epsilon: 1.0 / 3.0 })
///     .build();
/// // Harsher channels need more repetitions and longer codewords.
/// assert!(harsh.repetitions > mild.repetitions);
/// assert!(harsh.code_len > mild.code_len);
/// ```
#[derive(Debug, Clone)]
pub struct SimulatorConfig {
    /// Chunk length `L` in protocol rounds (the paper uses `L = n`).
    pub chunk_len: usize,
    /// Repetitions `R` per simulated round in the chunk-simulation phase
    /// (and the whole-protocol repetition scheme).
    pub repetitions: usize,
    /// Codeword length in bits for the owners-phase symbol code.
    pub code_len: usize,
    /// Rounds `V` of the verification-flag OR.
    pub verify_repetitions: usize,
    /// The channel-round budget is `budget_factor ×` the ideal (rewind-free)
    /// cost; exceeding it aborts with `SimError::BudgetExhausted`.
    pub budget_factor: f64,
    /// Seed from which all parties derive the (shared, public) symbol code.
    pub code_seed: u64,
    /// When set, the owners phase uses a constant-weight code of this
    /// Hamming weight instead of the default random code — roughly
    /// `code_len / (2·weight)` times less beeping energy, best suited to
    /// the one-sided `0→1` (Z) channel. `None` = random code.
    pub code_weight: Option<usize>,
    /// Per-decision failure probability the parameters were sized for.
    pub target_error: f64,
    /// Experiment-scoped cache consulted by
    /// [`build_code`](SimulatorConfig::build_code); `None` rebuilds the
    /// table on every call. Private so equality and the cache stay
    /// orthogonal: two configs describing the same parameters compare
    /// equal whether or not either carries a cache.
    code_cache: Option<std::sync::Arc<crate::code_cache::CodeCache>>,
}

impl PartialEq for SimulatorConfig {
    /// Parameter equality; the attached [`crate::CodeCache`] (if any) is
    /// deliberately excluded, since it memoizes derived tables rather
    /// than describing the simulation.
    fn eq(&self, other: &Self) -> bool {
        self.chunk_len == other.chunk_len
            && self.repetitions == other.repetitions
            && self.code_len == other.code_len
            && self.verify_repetitions == other.verify_repetitions
            && self.budget_factor == other.budget_factor
            && self.code_seed == other.code_seed
            && self.code_weight == other.code_weight
            && self.target_error == other.target_error
    }
}

/// Staged construction of a [`SimulatorConfig`]; see
/// [`SimulatorConfig::builder`].
///
/// Sizing happens once, in [`build`](SimulatorConfigBuilder::build):
/// repetition counts and codeword lengths are derived from the noise
/// model and the per-decision error target. An explicit
/// [`target_error`](SimulatorConfigBuilder::target_error) **overrides**
/// the automatic target; the remaining setters override individual
/// fields after sizing.
///
/// # Examples
///
/// ```
/// use beeps_channel::NoiseModel;
/// use beeps_core::SimulatorConfig;
///
/// // Paper defaults (correlated ε = 1/3 channel, chunk length n):
/// let default = SimulatorConfig::builder(16).build();
///
/// // Sized for a Z-channel, with a tighter error target and a
/// // low-energy constant-weight owners code:
/// let custom = SimulatorConfig::builder(16)
///     .model(NoiseModel::OneSidedZeroToOne { epsilon: 0.2 })
///     .target_error(1e-6)
///     .code_weight(4)
///     .build();
/// assert!(custom.repetitions != default.repetitions);
/// ```
#[derive(Debug, Clone)]
pub struct SimulatorConfigBuilder {
    n: usize,
    model: NoiseModel,
    chunk_len: Option<usize>,
    target_error: Option<f64>,
    budget_factor: Option<f64>,
    code_seed: Option<u64>,
    code_weight: Option<usize>,
    code_cache: Option<std::sync::Arc<crate::code_cache::CodeCache>>,
}

impl SimulatorConfigBuilder {
    /// Sizes the parameters for this noise model (default: the paper's
    /// exposition channel, correlated noise at `ε = 1/3`).
    pub fn model(mut self, model: NoiseModel) -> Self {
        self.model = model;
        self
    }

    /// Overrides the chunk length `L` (default: `max(n, 4)`, the
    /// paper's `L = n`). Also feeds the automatic error target, since
    /// longer chunks make more decisions per chunk.
    pub fn chunk_len(mut self, chunk_len: usize) -> Self {
        self.chunk_len = Some(chunk_len);
        self
    }

    /// Sets an explicit per-decision error target, **overriding** the
    /// automatic `~0.15 / decisions` target that
    /// [`build`](SimulatorConfigBuilder::build) would derive (e.g.
    /// `n^{-10}` to match Theorem D.1's statement exactly, at a
    /// correspondingly higher constant).
    pub fn target_error(mut self, target: f64) -> Self {
        self.target_error = Some(target);
        self
    }

    /// Overrides the round-budget multiple (default 8).
    pub fn budget_factor(mut self, factor: f64) -> Self {
        self.budget_factor = Some(factor);
        self
    }

    /// Overrides the shared symbol-code seed.
    pub fn code_seed(mut self, seed: u64) -> Self {
        self.code_seed = Some(seed);
        self
    }

    /// Uses a constant-weight owners code of this Hamming weight
    /// (default: seeded random code). See
    /// [`SimulatorConfig::code_weight`].
    pub fn code_weight(mut self, weight: usize) -> Self {
        self.code_weight = Some(weight);
        self
    }

    /// Attaches a shared [`crate::CodeCache`] that
    /// [`build_code`](SimulatorConfig::build_code) will consult, so
    /// repeated simulations over equal parameters build their symbol-code
    /// table once. Equality of the finished config is unaffected.
    pub fn code_cache(mut self, cache: std::sync::Arc<crate::code_cache::CodeCache>) -> Self {
        self.code_cache = Some(cache);
        self
    }

    /// Sizes and assembles the [`SimulatorConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the model's ε is invalid or an explicit target error
    /// is outside `(0, 1)`.
    pub fn build(self) -> SimulatorConfig {
        self.model.validate().expect("invalid noise parameter");
        let n = self.n;
        let chunk_len = self.chunk_len.unwrap_or(n.max(4));
        let target = match self.target_error {
            Some(t) => {
                assert!(t > 0.0 && t < 1.0, "target must be in (0, 1)");
                t
            }
            None => {
                // Per-decision target: each chunk makes ~ L + (L + n) + 1
                // decisions (L repetition decodes, L+n codeword decodes, 1
                // verification OR); aim for a clean chunk with probability
                // ~0.85 so rewinds are rare. Under independent noise every
                // party decodes from its own view and any single divergence
                // desynchronizes the lockstep control flow, so the budget
                // is split across all n parties' decisions.
                let per_party = (3 * chunk_len + n + 1) as f64;
                let decisions = match self.model {
                    NoiseModel::Independent { .. } => per_party * n as f64,
                    _ => per_party,
                };
                (0.15 / decisions).clamp(1e-9, 0.25)
            }
        };
        let mut config = SimulatorConfig::sized(chunk_len, self.model, target);
        if let Some(factor) = self.budget_factor {
            config.budget_factor = factor;
        }
        if let Some(seed) = self.code_seed {
            config.code_seed = seed;
        }
        if let Some(weight) = self.code_weight {
            config.code_weight = Some(weight);
        }
        if let Some(cache) = self.code_cache {
            config.code_cache = Some(cache);
        }
        config
    }
}

impl SimulatorConfig {
    /// Starts a builder for `n` parties; see [`SimulatorConfigBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn builder(n: usize) -> SimulatorConfigBuilder {
        assert!(n > 0, "need at least one party");
        SimulatorConfigBuilder {
            n,
            model: NoiseModel::Correlated { epsilon: 1.0 / 3.0 },
            chunk_len: None,
            target_error: None,
            budget_factor: None,
            code_seed: None,
            code_weight: None,
            code_cache: None,
        }
    }

    fn sized(chunk_len: usize, model: NoiseModel, target: f64) -> Self {
        let eps = model.epsilon();
        let q = chunk_len + 1; // symbols [L] plus Next
        let (repetitions, code_len, verify_repetitions): (usize, usize, usize) = match model {
            NoiseModel::Noiseless => (1, tail::random_code_length(q, 1.0, target), 1),
            NoiseModel::Correlated { .. } | NoiseModel::Independent { .. } => {
                let r = tail::repetitions_for_error(eps, 0.5, target) as usize;
                let len = tail::random_code_length(q, tail::cutoff_rate_bsc(eps), target);
                (r, len, r)
            }
            NoiseModel::OneSidedZeroToOne { .. } => {
                let thr = (1.0 + eps) / 2.0;
                let r = tail::repetitions_for_error_one_sided(eps, thr, target) as usize;
                let len = tail::random_code_length(q, tail::cutoff_rate_z(eps), target);
                (r, len, r)
            }
            NoiseModel::OneSidedOneToZero { .. } => {
                // Decode 1 iff any copy is 1; a true 1 is missed w.p. ε^R.
                let r = if eps == 0.0 {
                    1
                } else {
                    (target.ln() / eps.ln()).ceil().max(1.0) as usize
                };
                let len = tail::random_code_length(q, tail::cutoff_rate_z(eps), target);
                (r, len, r)
            }
        };
        Self {
            chunk_len,
            repetitions,
            code_len,
            verify_repetitions,
            budget_factor: 8.0,
            code_seed: 0x0B_EE_50_0D,
            code_weight: None,
            target_error: target,
            code_cache: None,
        }
    }

    /// Builds the owners-phase symbol code this configuration describes:
    /// a seeded random code, or a constant-weight code when
    /// [`SimulatorConfig::code_weight`] is set.
    ///
    /// With a cache attached (see
    /// [`SimulatorConfigBuilder::code_cache`]) the table is
    /// built at most once per distinct parameter tuple and shared;
    /// without one, every call constructs afresh. Either way the returned
    /// table is identical — it is a pure function of the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `code_weight` is incompatible with `code_len`.
    pub fn build_code(&self) -> crate::owners::SharedCode {
        match &self.code_cache {
            Some(cache) => cache.get_or_build(self),
            None => self.build_code_uncached(),
        }
    }

    /// Builds the symbol code without consulting any attached cache —
    /// the raw constructor path, also used by [`crate::CodeCache`] itself
    /// on a miss.
    ///
    /// # Panics
    ///
    /// Panics if `code_weight` is incompatible with `code_len`.
    pub fn build_code_uncached(&self) -> crate::owners::SharedCode {
        let q = self.chunk_len + 1;
        std::sync::Arc::new(match self.code_weight {
            Some(w) => CodeTable::constant_weight(q, self.code_len, w, self.code_seed),
            None => CodeTable::with_length(q, self.code_len, self.code_seed),
        })
    }

    /// Chunks of `chunk_len` rounds a `t`-round protocol needs (at least
    /// one): the count every chunked scheme's budget scales with.
    pub(crate) fn chunks_needed(&self, t: usize) -> usize {
        t.div_ceil(self.chunk_len).max(1)
    }

    /// Resolves decode thresholds and the decoding metric for the channel
    /// the simulation will actually run over.
    pub fn resolve(&self, model: NoiseModel) -> ResolvedParams {
        let (rep_ones, verify_ones) = match model {
            NoiseModel::Noiseless | NoiseModel::OneSidedOneToZero { .. } => (1, 1),
            NoiseModel::Correlated { .. } | NoiseModel::Independent { .. } => {
                (self.repetitions / 2 + 1, self.verify_repetitions / 2 + 1)
            }
            NoiseModel::OneSidedZeroToOne { epsilon } => {
                let thr = (1.0 + epsilon) / 2.0;
                (
                    biased_threshold(self.repetitions, thr),
                    biased_threshold(self.verify_repetitions, thr),
                )
            }
        };
        ResolvedParams {
            rep_ones,
            verify_ones,
            metric: crate::owners::metric_for(model),
        }
    }
}

/// `⌈thr · r⌉` clamped into `1..=r`, and 1 for `r = 0`: more ones than
/// a zero-round block hears, as the majority threshold `r/2 + 1` is.
fn biased_threshold(r: usize, thr: f64) -> usize {
    ((thr * r as f64).ceil() as usize).clamp(1, r.max(1))
}

/// Thresholds and decoding metric resolved against a concrete channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedParams {
    /// Heard-ones needed (out of `repetitions`) to decode a simulated
    /// round as 1.
    pub rep_ones: usize,
    /// Heard-ones needed (out of `verify_repetitions`) to treat the
    /// verification flag OR as raised.
    pub verify_ones: usize,
    /// Metric for decoding owners-phase codewords.
    pub metric: BitMetric,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_apply_after_sizing() {
        let cfg = SimulatorConfig::builder(8)
            .chunk_len(32)
            .budget_factor(3.5)
            .code_seed(0xC0DE)
            .code_weight(5)
            .build();
        assert_eq!(cfg.chunk_len, 32);
        assert!((cfg.budget_factor - 3.5).abs() < 1e-12);
        assert_eq!(cfg.code_seed, 0xC0DE);
        assert_eq!(cfg.code_weight, Some(5));
    }

    #[test]
    fn builder_explicit_target_overrides_automatic() {
        let auto = SimulatorConfig::builder(16).build();
        let tight = SimulatorConfig::builder(16).target_error(1e-8).build();
        assert!(tight.repetitions > auto.repetitions);
        assert!(tight.code_len > auto.code_len);
        assert_eq!(tight.chunk_len, auto.chunk_len);
        assert!((tight.target_error - 1e-8).abs() < 1e-20);
    }

    #[test]
    fn defaults_scale_with_n() {
        let small = SimulatorConfig::builder(4).build();
        let large = SimulatorConfig::builder(256).build();
        assert!(large.code_len > small.code_len);
        assert!(large.chunk_len > small.chunk_len);
        // Codeword length grows like log n: going 4 -> 256 parties
        // (64x) should much less than 64x the code length.
        assert!(large.code_len < 8 * small.code_len);
    }

    #[test]
    fn one_sided_up_cheaper_than_two_sided() {
        let two = SimulatorConfig::builder(32)
            .model(NoiseModel::Correlated { epsilon: 1.0 / 3.0 })
            .build();
        let one = SimulatorConfig::builder(32)
            .model(NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 })
            .build();
        assert!(one.code_len < two.code_len, "Z-channel codes are shorter");
    }

    #[test]
    fn resolve_thresholds_by_model() {
        let cfg = SimulatorConfig::builder(8).build();
        let two = cfg.resolve(NoiseModel::Correlated { epsilon: 1.0 / 3.0 });
        assert_eq!(two.rep_ones, cfg.repetitions / 2 + 1);
        assert_eq!(two.metric, BitMetric::Hamming);

        let up = cfg.resolve(NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 });
        assert!(up.rep_ones > two.rep_ones, "ZUp threshold is biased high");
        assert_eq!(up.metric, BitMetric::ZUp);

        let down = cfg.resolve(NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 });
        assert_eq!(down.rep_ones, 1, "any heard 1 proves a true 1");
        assert_eq!(down.metric, BitMetric::ZDown);

        let clean = cfg.resolve(NoiseModel::Noiseless);
        assert_eq!(clean.rep_ones, 1);
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_rejected() {
        SimulatorConfig::builder(0);
    }
}
