//! The host's speed, measured beside every timed pass by a fixed piece of
//! reference work, so that pass times can be stated at one host speed.
//!
//! The benchmark runs on a few cores of a shared machine whose speed
//! drifts by a fifth to a half over tens of seconds as other tenants'
//! load comes and goes. Two runs of the same code a few minutes apart then
//! differ by more than a regression worth catching. The reference work
//! calls no code of the program. Timing it right before and right after
//! each pass gives the host's speed during that pass, and the pass time
//! multiplied by `NOMINAL_US / reference time` is the time the pass would
//! have taken on a host that does the reference work in `NOMINAL_US`.
//!
//! The reference leans on what the trial code leans on, through the
//! standard library alone: formatted string keys counted in a `BTreeMap`
//! (as the metrics registry does on every trial), short vectors allocated,
//! filled and sorted. Other tenants slow that mix of allocation, branchy
//! comparisons and scattered code far more than they slow a tight
//! arithmetic loop, which tracked the program's slowdowns poorly.

use std::collections::BTreeMap;
use std::hint::black_box;

use beeps_observe::clock::monotonic_micros;

/// Microseconds one reference run takes on the host the recorded numbers
/// in `perfbench/README.md` came from, at its usual speed.
pub const NOMINAL_US: f64 = 8_000.0;

/// Xorshift steps per reference run.
const STEPS: u32 = 12_000;

fn reference_work() {
    let mut counts = BTreeMap::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("ref.{}.{:03}", x % 97, x % 13);
        *counts.entry(key).or_insert(0u64) += x & 0xff;
        let mut v: Vec<u32> = (0..(x % 64) as u32)
            .map(|k| k.wrapping_mul(x as u32))
            .collect();
        v.sort_unstable();
        acc ^= v.iter().fold(0u64, |a, &b| a.rotate_left(3) ^ u64::from(b));
    }
    black_box((counts, acc));
}

/// Runs the reference work on each of `workers` threads at the same time,
/// so it loads the cores a pass does, repeating it until `at_least_us`
/// have gone by; the mean time of one run in microseconds.
pub fn reference_us(workers: usize, at_least_us: u64) -> f64 {
    let timed = || {
        let (start, mut runs) = (monotonic_micros(), 0u32);
        while runs == 0 || monotonic_micros() - start < at_least_us {
            reference_work();
            runs += 1;
        }
        (monotonic_micros() - start) as f64 / f64::from(runs)
    };
    if workers <= 1 {
        return timed();
    }
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(timed)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference worker panicked"))
            .sum()
    });
    total / workers as f64
}
