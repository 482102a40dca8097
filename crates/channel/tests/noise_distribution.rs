//! Statistical equivalence of the batched noise sampler and the per-round
//! reference samplers.
//!
//! The stochastic channel draws noise in batches — geometric skip-sampling
//! for shared/one-sided flips, 64-round flip masks for independent
//! noise — instead of one RNG draw per round. The batched draws consume
//! the seed stream differently, so transcripts are **not** expected to be
//! byte-identical to the old per-round code; what must hold is that the
//! *distribution* of corruptions is unchanged. These tests pin that with
//! fixed seeds (fully deterministic) and generous chi-squared / z-score
//! thresholds, comparing the channel against
//! [`NoiseModel::corrupt_shared`] / [`NoiseModel::corrupt_per_party`],
//! the documented per-round reference samplers.

use beeps_channel::{Channel, Delivery, NoiseModel, StochasticChannel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `rounds` rounds through the batched channel with the given sent-OR
/// pattern and returns, per round, whether the delivery was corrupted.
fn channel_corruptions(
    model: NoiseModel,
    seed: u64,
    rounds: usize,
    or_pattern: impl Fn(usize) -> bool,
) -> Vec<bool> {
    let mut ch = StochasticChannel::new(1, model, seed);
    (0..rounds)
        .map(|r| {
            let or = or_pattern(r);
            match ch.transmit(or) {
                Delivery::Shared(bit) => bit != or,
                Delivery::PerParty(bits) => bits.uniform() != Some(or),
            }
        })
        .collect()
}

/// Same experiment through the per-round reference sampler.
fn reference_corruptions(
    model: NoiseModel,
    seed: u64,
    rounds: usize,
    or_pattern: impl Fn(usize) -> bool,
) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rounds)
        .map(|r| {
            let or = or_pattern(r);
            model.corrupt_shared(or, &mut rng) != or
        })
        .collect()
}

/// Asserts two Bernoulli-count observations are consistent: the gap must
/// stay within `sigmas` standard deviations of a Binomial(rounds, eps).
fn assert_counts_close(obs_a: usize, obs_b: usize, rounds: usize, eps: f64, sigmas: f64) {
    let sd = (rounds as f64 * eps * (1.0 - eps)).sqrt();
    let diff = (obs_a as f64 - obs_b as f64).abs();
    // Both counts fluctuate, so the difference has variance 2·σ².
    let bound = sigmas * sd * std::f64::consts::SQRT_2;
    assert!(
        diff <= bound,
        "flip counts {obs_a} vs {obs_b} differ by {diff:.0} > {bound:.0} \
         (rounds={rounds}, eps={eps})"
    );
}

/// Chi-squared statistic of observed gap counts against the geometric
/// pmf `P(gap = k) = eps·(1-eps)^k`, binned `0..tail` plus a tail bin.
fn geometric_chi_squared(gaps: &[u64], eps: f64, tail: usize) -> f64 {
    let total = gaps.len() as f64;
    let mut observed = vec![0f64; tail + 1];
    for &g in gaps {
        observed[(g as usize).min(tail)] += 1.0;
    }
    let mut stat = 0.0;
    let mut tail_mass = 1.0;
    for (k, &obs) in observed.iter().enumerate() {
        let p = if k < tail {
            let p = eps * (1.0 - eps).powi(k as i32);
            tail_mass -= p;
            p
        } else {
            tail_mass
        };
        let exp = total * p;
        if exp > 0.0 {
            stat += (obs - exp).powi(2) / exp;
        }
    }
    stat
}

/// Gaps (clean-round runs) between consecutive corruptions.
fn gaps_of(corruptions: &[bool]) -> Vec<u64> {
    let mut gaps = Vec::new();
    let mut run = 0u64;
    for &c in corruptions {
        if c {
            gaps.push(run);
            run = 0;
        } else {
            run += 1;
        }
    }
    gaps
}

const ROUNDS: usize = 40_000;

#[test]
fn correlated_flip_rate_matches_reference() {
    let eps = 0.2;
    let model = NoiseModel::Correlated { epsilon: eps };
    for seed in [1u64, 77, 4242] {
        let batched = channel_corruptions(model, seed, ROUNDS, |r| r % 3 == 0);
        let reference = reference_corruptions(model, seed.wrapping_add(1), ROUNDS, |r| r % 3 == 0);
        let a = batched.iter().filter(|&&c| c).count();
        let b = reference.iter().filter(|&&c| c).count();
        assert_counts_close(a, b, ROUNDS, eps, 5.0);
    }
}

#[test]
fn correlated_gaps_are_geometric() {
    let eps = 0.15;
    let model = NoiseModel::Correlated { epsilon: eps };
    // Every round is eligible under correlated noise, so skip-sampled flip
    // positions must look like iid geometric gaps. Apply the identical
    // chi-squared machinery to the reference sampler as calibration: the
    // batched statistic must not be materially worse.
    let batched = gaps_of(&channel_corruptions(model, 9, ROUNDS, |_| false));
    let reference = gaps_of(&reference_corruptions(model, 10, ROUNDS, |_| false));
    let stat_batched = geometric_chi_squared(&batched, eps, 10);
    let stat_reference = geometric_chi_squared(&reference, eps, 10);
    // df = 10; the 0.001 critical value is 29.6. 40 is deliberately slack
    // because the test must never flake across toolchains.
    assert!(
        stat_batched < 40.0,
        "batched gap chi-squared {stat_batched:.1} (reference ran {stat_reference:.1})"
    );
    assert!(stat_reference < 40.0, "reference sampler miscalibrated");
}

#[test]
fn one_sided_zero_to_one_only_flips_eligible_rounds() {
    let eps = 0.3;
    let model = NoiseModel::OneSidedZeroToOne { epsilon: eps };
    // ORs: true on multiples of 4 — those rounds are ineligible (noise
    // can only create beeps) and must never be corrupted.
    let pattern = |r: usize| r.is_multiple_of(4);
    for seed in [3u64, 51] {
        let batched = channel_corruptions(model, seed, ROUNDS, pattern);
        for (r, &c) in batched.iter().enumerate() {
            assert!(!(pattern(r) && c), "0->1 noise erased a beep at round {r}");
        }
        let eligible = (0..ROUNDS).filter(|&r| !pattern(r)).count();
        let reference = reference_corruptions(model, seed.wrapping_add(9), ROUNDS, pattern);
        let a = batched.iter().filter(|&&c| c).count();
        let b = reference.iter().filter(|&&c| c).count();
        assert_counts_close(a, b, eligible, eps, 5.0);
    }
}

#[test]
fn one_sided_one_to_zero_only_flips_eligible_rounds() {
    let eps = 0.25;
    let model = NoiseModel::OneSidedOneToZero { epsilon: eps };
    // ORs: true except on multiples of 5; silent rounds are ineligible.
    let pattern = |r: usize| !r.is_multiple_of(5);
    for seed in [8u64, 1234] {
        let batched = channel_corruptions(model, seed, ROUNDS, pattern);
        for (r, &c) in batched.iter().enumerate() {
            assert!(
                pattern(r) || !c,
                "1->0 noise fabricated a beep at round {r}"
            );
        }
        let eligible = (0..ROUNDS).filter(|&r| pattern(r)).count();
        let reference = reference_corruptions(model, seed.wrapping_add(9), ROUNDS, pattern);
        let a = batched.iter().filter(|&&c| c).count();
        let b = reference.iter().filter(|&&c| c).count();
        assert_counts_close(a, b, eligible, eps, 5.0);
    }
}

#[test]
fn independent_per_party_flip_rates_match_reference() {
    let n = 32;
    let eps = 0.1;
    let rounds = 20_000;
    let model = NoiseModel::Independent { epsilon: eps };

    let mut ch = StochasticChannel::new(n, model, 21);
    let mut per_party = vec![0usize; n];
    for _ in 0..rounds {
        match ch.transmit(false) {
            Delivery::Shared(bit) => {
                if bit {
                    for c in per_party.iter_mut() {
                        *c += 1;
                    }
                }
            }
            Delivery::PerParty(bits) => {
                for (i, c) in per_party.iter_mut().enumerate() {
                    *c += usize::from(bits.get(i));
                }
            }
        }
    }

    // Per-party counts must be Binomial(rounds, eps): chi-squared over the
    // 32 parties. df = 31, 0.001 critical value 61.1; 75 is slack.
    let exp = rounds as f64 * eps;
    let stat: f64 = per_party
        .iter()
        .map(|&c| (c as f64 - exp).powi(2) / (exp * (1.0 - eps)))
        .sum();
    assert!(
        stat < 75.0,
        "per-party chi-squared {stat:.1}, counts {per_party:?}"
    );

    // Aggregate mass vs the per-round reference sampler.
    let mut rng = StdRng::seed_from_u64(22);
    let mut reference = 0usize;
    for _ in 0..rounds {
        reference += model
            .corrupt_per_party(false, n, &mut rng)
            .iter()
            .filter(|&&b| b)
            .count();
    }
    let total: usize = per_party.iter().sum();
    assert_counts_close(total, reference, rounds * n, eps, 5.0);
}

#[test]
fn independent_flips_land_on_every_block_offset() {
    // The flip masks cover 64 rounds at a time; a refill bug would bias
    // flips toward particular offsets within a block. Chi-squared of flip
    // positions mod 64 against uniform: df = 63, 0.001 critical 103.4.
    let n = 8;
    let eps = 0.1;
    let rounds = 64 * 1024;
    let model = NoiseModel::Independent { epsilon: eps };
    let mut ch = StochasticChannel::new(n, model, 5);
    let mut by_offset = vec![0f64; 64];
    let mut total = 0f64;
    for r in 0..rounds {
        let flips = match ch.transmit(false) {
            // Sent OR is false, so heard 1s are exactly the flips.
            Delivery::PerParty(bits) => bits.count_ones() as f64,
            Delivery::Shared(_) => panic!("independent noise must deliver per party"),
        };
        by_offset[r % 64] += flips;
        total += flips;
    }
    let exp = total / 64.0;
    let stat: f64 = by_offset.iter().map(|&o| (o - exp).powi(2) / exp).sum();
    assert!(stat < 120.0, "block-offset chi-squared {stat:.1}");
}
