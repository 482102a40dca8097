//! The `InputSet_n` communication task (Appendix A.2) — the workload the
//! paper's Ω(log n) lower bound is proved against.

use beeps_channel::{EnumerableInputs, Protocol};
use std::collections::BTreeSet;
use std::sync::Arc;

/// `InputSet_n`: each of `n` parties holds a number `x^i ∈ [2n]`
/// (represented 0-based as `0..2n`); all parties must output the set
/// `L(x) = { x^i : i ∈ [n] }`.
///
/// The trivial noiseless protocol has `2n` rounds: in round `m`, party `i`
/// beeps iff `x^i = m`, so `π_m = 1 ⟺ m ∈ L(x)` and every party reads the
/// answer off the transcript. Under `ε`-noise that protocol's output is
/// wrong with probability `1 − (1−ε)^{2n} → 1`, and Theorem C.1 shows *any*
/// protocol needs `Ω(n log n)` rounds — an `Ω(log n)` blow-up.
///
/// Every party outputs the same set, so the output type is an
/// `Arc<BTreeSet<usize>>`: [`Protocol::outputs`], which every engine calls
/// on a transcript all parties share, builds the set once and hands each
/// party a pointer to that one allocation instead of `n` copies of it.
///
/// # Examples
///
/// ```
/// use beeps_channel::run_noiseless;
/// use beeps_protocols::InputSet;
///
/// let p = InputSet::new(3);
/// let exec = run_noiseless(&p, &[2, 2, 4]);
/// assert!(exec.outputs()[0].contains(&2) && exec.outputs()[0].contains(&4));
/// assert_eq!(exec.outputs()[0].len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSet {
    n: usize,
}

impl InputSet {
    /// The task for `n` parties (inputs range over `0..2n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one party");
        Self { n }
    }

    /// Size of every party's input domain, `2n`.
    pub fn domain_size(&self) -> usize {
        2 * self.n
    }

    /// The correct answer `L(x)` for an input vector, in the protocol's
    /// output type, so it compares directly with any party's output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n` or an input is out of range.
    pub fn answer(&self, inputs: &[usize]) -> Arc<BTreeSet<usize>> {
        assert_eq!(inputs.len(), self.n, "need one input per party");
        let set = inputs
            .iter()
            .map(|&x| {
                assert!(x < self.domain_size(), "input {x} outside [2n]");
                x
            })
            .collect();
        Arc::new(set)
    }

    /// The set every party reads off `transcript`: the rounds that carried
    /// a 1.
    fn decode(&self, transcript: &[bool]) -> BTreeSet<usize> {
        transcript
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(m, _)| m)
            .collect()
    }
}

impl Protocol for InputSet {
    type Input = usize;
    type Output = Arc<BTreeSet<usize>>;

    fn num_parties(&self) -> usize {
        self.n
    }

    fn length(&self) -> usize {
        2 * self.n
    }

    #[inline]
    fn beep(&self, _party: usize, input: &usize, transcript: &[bool]) -> bool {
        *input == transcript.len()
    }

    fn output(&self, _party: usize, _input: &usize, transcript: &[bool]) -> Self::Output {
        Arc::new(self.decode(transcript))
    }

    /// Builds the set once and hands every party the same allocation.
    fn outputs(&self, inputs: &[usize], transcript: &[bool]) -> Vec<Self::Output> {
        let set = Arc::new(self.decode(transcript));
        vec![set; inputs.len()]
    }
}

impl EnumerableInputs for InputSet {
    fn input_domain(&self, _party: usize) -> Vec<usize> {
        (0..self.domain_size()).collect()
    }
}

/// The repetition-coded trivial protocol for `InputSet_n`: round block
/// `m` (of `r` channel rounds) carries the indicator `x^i = m`, and the
/// output decodes each block by a threshold count.
///
/// This is footnote 1's scheme specialized to the paper's task, expressed
/// as a plain noiseless-model [`Protocol`] of length `2n·r` so that the
/// lower-bound machinery (which needs an enumerable input domain) can
/// analyze protocols of *growing length* — the knob experiment E5 turns.
///
/// As with [`InputSet`], every party decodes the same set, so the output
/// is an `Arc<BTreeSet<usize>>` and [`Protocol::outputs`] decodes it once
/// for all parties.
///
/// # Examples
///
/// ```
/// use beeps_channel::{run_noiseless, Protocol};
/// use beeps_protocols::RepeatedInputSet;
///
/// let p = RepeatedInputSet::new(3, 4, 3); // r = 4, decode needs 3 ones
/// assert_eq!(p.length(), 24);
/// let exec = run_noiseless(&p, &[1, 5, 1]);
/// assert!(exec.outputs()[0].contains(&1) && exec.outputs()[0].contains(&5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatedInputSet {
    n: usize,
    repetitions: usize,
    threshold_ones: usize,
}

impl RepeatedInputSet {
    /// `n` parties, each indicator repeated `repetitions` times, decoded
    /// as 1 when at least `threshold_ones` copies read 1.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `repetitions == 0`, or
    /// `threshold_ones` is not in `1..=repetitions`.
    pub fn new(n: usize, repetitions: usize, threshold_ones: usize) -> Self {
        assert!(n > 0, "need at least one party");
        assert!(repetitions > 0, "need at least one repetition");
        assert!(
            (1..=repetitions).contains(&threshold_ones),
            "threshold must be within 1..=repetitions"
        );
        Self {
            n,
            repetitions,
            threshold_ones,
        }
    }

    /// The per-round repetition count `r`.
    pub fn repetitions(&self) -> usize {
        self.repetitions
    }

    /// The set every party decodes from `transcript`: the blocks holding at
    /// least `threshold_ones` ones.
    fn decode(&self, transcript: &[bool]) -> BTreeSet<usize> {
        transcript
            .chunks(self.repetitions)
            .enumerate()
            .filter(|(_, block)| block.iter().filter(|&&b| b).count() >= self.threshold_ones)
            .map(|(m, _)| m)
            .collect()
    }
}

impl Protocol for RepeatedInputSet {
    type Input = usize;
    type Output = Arc<BTreeSet<usize>>;

    fn num_parties(&self) -> usize {
        self.n
    }

    fn length(&self) -> usize {
        2 * self.n * self.repetitions
    }

    fn beep(&self, _party: usize, input: &usize, transcript: &[bool]) -> bool {
        transcript.len() / self.repetitions == *input
    }

    fn output(&self, _party: usize, _input: &usize, transcript: &[bool]) -> Self::Output {
        Arc::new(self.decode(transcript))
    }

    /// Decodes the set once and hands every party the same allocation.
    fn outputs(&self, inputs: &[usize], transcript: &[bool]) -> Vec<Self::Output> {
        let set = Arc::new(self.decode(transcript));
        vec![set; inputs.len()]
    }
}

impl EnumerableInputs for RepeatedInputSet {
    fn input_domain(&self, _party: usize) -> Vec<usize> {
        (0..2 * self.n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeps_channel::{run_noiseless, run_protocol, NoiseModel};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn noiseless_execution_computes_the_set() {
        let p = InputSet::new(5);
        let inputs = [0, 9, 3, 3, 7];
        let exec = run_noiseless(&p, &inputs);
        let expect = p.answer(&inputs);
        for out in exec.outputs() {
            assert_eq!(out, &expect);
        }
        // Transcript is the indicator vector of the set.
        for (m, &bit) in exec.transcript().iter().enumerate() {
            assert_eq!(bit, expect.contains(&m));
        }
    }

    #[test]
    fn all_same_input_yields_singleton() {
        let p = InputSet::new(4);
        let exec = run_noiseless(&p, &[6; 4]);
        assert_eq!(exec.outputs()[0].len(), 1);
    }

    #[test]
    fn random_instances_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x15);
        for _ in 0..50 {
            let n = rng.gen_range(1..20);
            let p = InputSet::new(n);
            let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
            let exec = run_noiseless(&p, &inputs);
            assert_eq!(exec.outputs()[0], p.answer(&inputs));
        }
    }

    #[test]
    fn naked_protocol_breaks_under_noise() {
        // The headline motivation: the trivial 2n-round protocol fails with
        // probability -> 1 under constant noise.
        let n = 32;
        let p = InputSet::new(n);
        let mut rng = StdRng::seed_from_u64(7);
        let mut wrong = 0;
        let trials = 100;
        for t in 0..trials {
            let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
            let exec = run_protocol(
                &p,
                &inputs,
                NoiseModel::Correlated { epsilon: 1.0 / 3.0 },
                t as u64,
            );
            if exec.outputs()[0] != p.answer(&inputs) {
                wrong += 1;
            }
        }
        assert!(wrong > trials * 9 / 10, "only {wrong}/{trials} failed");
    }

    #[test]
    fn domain_enumerates_2n_values() {
        let p = InputSet::new(6);
        assert_eq!(p.input_domain(0).len(), 12);
    }

    #[test]
    #[should_panic(expected = "outside [2n]")]
    fn answer_rejects_out_of_range() {
        InputSet::new(2).answer(&[4, 0]);
    }

    #[test]
    fn repeated_variant_matches_plain_variant_noiselessly() {
        let mut rng = StdRng::seed_from_u64(0x21);
        for _ in 0..20 {
            let n = rng.gen_range(1..8);
            let r = rng.gen_range(1..5);
            let plain = InputSet::new(n);
            let repeated = RepeatedInputSet::new(n, r, r / 2 + 1);
            let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
            assert_eq!(
                run_noiseless(&plain, &inputs).outputs()[0],
                run_noiseless(&repeated, &inputs).outputs()[0],
            );
        }
    }

    #[test]
    fn repeated_variant_survives_noise_that_kills_the_plain_one() {
        let n = 8;
        let eps = 1.0 / 3.0;
        let model = NoiseModel::OneSidedZeroToOne { epsilon: eps };
        // Threshold for one-sided up-noise: ceil(r (1+eps)/2).
        let r = 24;
        let thr = ((r as f64) * (1.0 + eps) / 2.0).ceil() as usize;
        let repeated = RepeatedInputSet::new(n, r, thr);
        let mut rng = StdRng::seed_from_u64(0x22);
        let mut good = 0;
        let trials = 30;
        for seed in 0..trials {
            let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
            let expect = InputSet::new(n).answer(&inputs);
            let out = run_protocol(&repeated, &inputs, model, seed);
            if out.outputs()[0] == expect {
                good += 1;
            }
        }
        assert!(good >= trials - 2, "only {good}/{trials} survived");
    }

    #[test]
    #[should_panic(expected = "threshold must be within")]
    fn repeated_variant_rejects_bad_threshold() {
        RepeatedInputSet::new(2, 3, 4);
    }
}
