//! Order statistics over measured times, and the outcome digest.

use std::collections::BTreeMap;

/// FNV-1a, 64-bit: every workload folds each outcome into one of these,
/// in trial-index order, so the digest is a pure function of the seed.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// A bit string, length first so `[]` and `[false]` differ.
    pub fn bits(&mut self, bits: &[bool]) {
        self.u64(bits.len() as u64);
        for chunk in bits.chunks(8) {
            let byte = chunk
                .iter()
                .enumerate()
                .fold(0u8, |acc, (i, &b)| acc | (u8::from(b) << i));
            self.bytes(&[byte]);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Whole-microsecond durations, kept as counts per tick so a run's
/// memory does not grow with the number of samples it takes.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Latencies {
    pub fn add(&mut self, us: u64) {
        *self.counts.entry(us).or_default() += 1;
        self.total += 1;
    }

    /// The `p`-quantile in microseconds.
    ///
    /// The clock truncates to whole microseconds, so a sample `v` stands
    /// for a true duration somewhere in `[v - 0.5, v + 0.5)` on average.
    /// Treating each tick as a bin its samples spread uniformly over, and
    /// interpolating inside the bin the rank falls in, gives a quantile
    /// that moves continuously with the data instead of snapping to
    /// whole ticks.
    pub fn quantile_us(&self, p: f64) -> f64 {
        let rank = p.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, (&tick, &count)) in self.counts.iter().enumerate() {
            if (below + count) as f64 > rank || i + 1 == self.counts.len() {
                let within = ((rank - below as f64) / count as f64).clamp(0.0, 1.0);
                return (tick as f64 - 0.5 + within).max(0.0);
            }
            below += count;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates_inside_a_tick() {
        let of = |samples: &[u64]| {
            let mut l = Latencies::default();
            samples.iter().for_each(|&us| l.add(us));
            l
        };
        // Ten samples all on tick 5: the median sits mid-tick.
        assert!((of(&[5; 10]).quantile_us(0.5) - 5.0).abs() < 1e-12);
        // Shifting one sample up nudges p90 without leaving the tick.
        let mut s = [5u64; 10];
        s[9] = 6;
        let p90 = of(&s).quantile_us(0.9);
        assert!(p90 > 5.0 && p90 < 6.0, "p90 = {p90}");
        assert!((of(&[1, 2, 3, 4]).quantile_us(0.5) - 2.5).abs() < 1e-12);
        assert!((of(&[1, 2, 3, 4]).quantile_us(1.0) - 4.5).abs() < 1e-12);
        assert_eq!(of(&[]).quantile_us(0.5), 0.0);
    }

    #[test]
    fn digest_separates_lengths_and_order() {
        let hash = |f: &dyn Fn(&mut Fnv)| {
            let mut h = Fnv::new();
            f(&mut h);
            h.finish()
        };
        assert_ne!(hash(&|h| h.bits(&[])), hash(&|h| h.bits(&[false])));
        assert_ne!(
            hash(&|h| {
                h.u64(1);
                h.u64(2);
            }),
            hash(&|h| {
                h.u64(2);
                h.u64(1);
            })
        );
    }
}
