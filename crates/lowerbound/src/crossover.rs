//! The overhead crossover of experiment E2: how much repetition the
//! trivial `InputSet_n` protocol needs before it survives the noise.
//!
//! Theorem C.1 says *any* protocol for `InputSet_n` over the one-sided
//! `ε`-noisy channel needs `Ω(n log n)` rounds — an `Ω(log n)`
//! multiplicative overhead over the trivial `2n`-round protocol. The
//! repetition scheme achieves `O(log n)`, so the *minimum* overhead that
//! reaches a fixed success rate is `Θ(log n)`; this module computes that
//! minimum both exactly (binomial tails) and by Monte Carlo simulation,
//! and the `fig2_lower_bound_crossover` bench prints the resulting curve.

use beeps_channel::NoiseModel;
use beeps_core::{RepetitionSimulator, Simulator, SimulatorConfig};
use beeps_info::tail;
use beeps_protocols::InputSet;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A point on the crossover curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossoverPoint {
    /// Number of parties.
    pub n: usize,
    /// Minimum per-round repetitions reaching the success target.
    pub min_repetitions: usize,
    /// Exact success probability at that repetition count.
    pub success: f64,
}

/// Exact minimum repetitions for the repetition-coded trivial protocol to
/// compute `InputSet_n` with probability at least `success_target`, over
/// the one-sided `0→1` channel with noise `eps`.
///
/// Exactness comes from the protocol's structure: with threshold
/// `⌈r(1+ε)/2⌉`, a true-1 round can never decode wrong (beeps are never
/// erased and the threshold is at most `r`), and each of the `z` true-0
/// rounds independently decodes wrong with probability
/// `P[Binom(r, ε) ≥ thr]`, so success is `(1 − p₀(r))^z`. The number of
/// zero rounds `z` depends on the input; this uses the worst case
/// `z = 2n − 1` (all parties share one input).
///
/// # Panics
///
/// Panics unless `0 < eps < 1` and `0 < success_target < 1`.
///
/// # Examples
///
/// ```
/// use beeps_lowerbound::min_repetitions_exact;
///
/// let p4 = min_repetitions_exact(4, 1.0 / 3.0, 0.9);
/// let p64 = min_repetitions_exact(64, 1.0 / 3.0, 0.9);
/// // More parties -> more rounds to protect -> more repetitions...
/// assert!(p64.min_repetitions > p4.min_repetitions);
/// // ...but only logarithmically so.
/// assert!(p64.min_repetitions < 4 * p4.min_repetitions);
/// ```
pub fn min_repetitions_exact(n: usize, eps: f64, success_target: f64) -> CrossoverPoint {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
    assert!(
        success_target > 0.0 && success_target < 1.0,
        "success target must be in (0, 1)"
    );
    let zero_rounds = (2 * n - 1) as f64;
    let thr = (1.0 + eps) / 2.0;
    for r in 1..=4096u64 {
        let p0 = tail::decode_error_one_sided_up(eps, thr, r);
        let success = (1.0 - p0).powf(zero_rounds);
        if success >= success_target {
            return CrossoverPoint {
                n,
                min_repetitions: r as usize,
                success,
            };
        }
    }
    unreachable!("repetition count cap exceeded — eps too close to 1?")
}

/// One measured crossover experiment: the repetition-coded trivial
/// protocol at a fixed `(n, repetitions, eps)`, run trial by trial
/// through [`beeps_core::RepetitionSimulator`].
///
/// The per-trial method makes the Monte Carlo estimate shardable: a
/// harness (e.g. `beeps-bench`'s `TrialRunner`) can hand each trial its
/// own input stream and channel seed and aggregate the booleans in any
/// order. [`measured_success_rate`] is the serial aggregation.
#[derive(Debug, Clone)]
pub struct MeasuredCrossover {
    protocol: InputSet,
    config: SimulatorConfig,
    model: NoiseModel,
    n: usize,
}

impl MeasuredCrossover {
    /// Sets up the measured experiment for `InputSet_n` with the given
    /// per-round repetition count over the one-sided `0→1` channel.
    #[must_use]
    pub fn new(n: usize, repetitions: usize, eps: f64) -> Self {
        let model = NoiseModel::OneSidedZeroToOne { epsilon: eps };
        let mut config = SimulatorConfig::builder(n).model(model).build();
        config.repetitions = repetitions;
        Self {
            protocol: InputSet::new(n),
            config,
            model,
            n,
        }
    }

    /// Runs one trial: samples inputs from `input_rng`, simulates with
    /// channel seed `sim_seed`, and reports whether every party decoded
    /// the correct answer.
    pub fn trial(&self, input_rng: &mut StdRng, sim_seed: u64) -> bool {
        let inputs: Vec<usize> = (0..self.n)
            .map(|_| input_rng.gen_range(0..2 * self.n))
            .collect();
        let expect = self.protocol.answer(&inputs);
        let sim = RepetitionSimulator::new(&self.protocol, self.config.clone());
        let out = sim
            .simulate(&inputs, self.model, sim_seed)
            .expect("repetition simulation is fixed-length");
        out.outputs().iter().all(|o| *o == expect)
    }
}

/// Monte Carlo success rate of the repetition-coded trivial protocol,
/// actually run through [`beeps_core::RepetitionSimulator`] over the
/// one-sided channel — the measured twin of [`min_repetitions_exact`].
///
/// # Panics
///
/// Panics if `trials == 0` or the parameters are out of range.
pub fn measured_success_rate(
    n: usize,
    repetitions: usize,
    eps: f64,
    trials: u32,
    seed: u64,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let experiment = MeasuredCrossover::new(n, repetitions, eps);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut good = 0u32;
    for t in 0..trials {
        if experiment.trial(&mut rng, seed.wrapping_add(u64::from(t) << 20)) {
            good += 1;
        }
    }
    f64::from(good) / f64::from(trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_grows_like_log_n() {
        let eps = 1.0 / 3.0;
        let r: Vec<usize> = [4usize, 16, 64, 256]
            .iter()
            .map(|&n| min_repetitions_exact(n, eps, 0.9).min_repetitions)
            .collect();
        // Strictly increasing...
        assert!(r.windows(2).all(|w| w[0] < w[1]), "{r:?}");
        // ...with roughly constant increments per 4x in n (log-linear).
        let d1 = r[1] - r[0];
        let d3 = r[3] - r[2];
        assert!(
            d3 <= 3 * d1.max(1) && d1 <= 3 * d3.max(1),
            "increments not log-linear: {r:?}"
        );
    }

    #[test]
    fn exact_point_meets_target() {
        let p = min_repetitions_exact(16, 1.0 / 3.0, 0.9);
        assert!(p.success >= 0.9);
        assert_eq!(p.n, 16);
    }

    #[test]
    fn one_fewer_repetition_misses_target() {
        let eps = 1.0 / 3.0;
        let p = min_repetitions_exact(32, eps, 0.9);
        assert!(p.min_repetitions > 1);
        let r = (p.min_repetitions - 1) as u64;
        let thr = (1.0 + eps) / 2.0;
        let p0 = beeps_info::tail::decode_error_one_sided_up(eps, thr, r);
        let success = (1.0 - p0).powf(63.0);
        assert!(success < 0.9, "minimality violated: {success}");
    }

    #[test]
    fn measured_rate_tracks_exact_prediction() {
        let n = 8;
        let eps = 1.0 / 3.0;
        let point = min_repetitions_exact(n, eps, 0.9);
        // At the crossover the measured rate should be near-or-above
        // target (exact uses worst-case zero-round count, so measured is
        // at least as good in expectation).
        let rate = measured_success_rate(n, point.min_repetitions, eps, 60, 0xE2);
        assert!(rate >= 0.8, "measured {rate} far below predicted 0.9");
        // Far below the crossover the protocol collapses.
        let low = measured_success_rate(n, 1, eps, 60, 0xE3);
        assert!(low <= 0.2, "1 repetition should fail, got {low}");
    }
}
