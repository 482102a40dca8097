//! **Hot-path ratio gate** — times every fast collapsed path against its
//! slow per-party twin in the same run, and fails when one stops paying.
//!
//! Each of the [`SOA_PAIRS`] runs one workload twice on the same seeds:
//! through the slow twin and through the fast path. The collapsed
//! rewind engine at n = 10^4 (`party.soa.*`) runs against the per-party
//! engine, and every collapsed scheme engine `simulate` routes shared
//! noise to (`simulate_with_scratch` with one reused [`SoaScratch`])
//! against the per-party oracle (`simulate_over` over an explicit
//! channel). Both sides of a pair count the same ops, so the ratio is
//! per unit of work.
//!
//! ```text
//! cargo run --release -p beeps-bench --bin bench_hotpaths [-- --smoke]
//! ```
//!
//! A pair runs its fast side once untimed, then slow, then fast, [`K`]
//! times (once under `--smoke`, at smaller sizes), and its gated ratio
//! is the [`median`] of the per-iteration ratios slow ns/op ÷ fast
//! ns/op: a ratio taken within one iteration cancels the host's speed,
//! which drifts between runs on a shared machine, and the median drops a
//! stray slow iteration. It prints one line per pair and exits 1 when
//! [`passes`] rejects any ratio: below [`FLOOR`] in a full run, not
//! finite and positive in either mode. A pair that fails to run panics,
//! and a pair missing from the run fails it too.
//!
//! Timing uses the sanctioned [`Stopwatch`]; everything else is
//! seed-deterministic, so two runs measure the same work.

use beeps_channel::{NoiseModel, StochasticChannel};
use beeps_core::{
    HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator, RepetitionSimulator,
    RewindSimulator, SimError, SimOutcome, Simulator, SimulatorConfig, SoaScratch,
};
use beeps_observe::clock::Stopwatch;
use beeps_protocols::{Broadcast, InputSet, RollCall};

/// Fast paths paired with their slow twins, as `(slow, fast)`: the
/// binary runs exactly these, in this order, and fails when one goes
/// missing. The scheme pairs cover every engine `simulate` routes shared
/// noise to.
const SOA_PAIRS: [(&str, &str); 6] = [
    ("party.soa.scalar.n1e4", "party.soa.collapsed.n1e4"),
    ("scheme.repetition.n64", "scheme.repetition.soa"),
    ("scheme.rewind", "scheme.rewind.soa"),
    ("scheme.hierarchical", "scheme.hierarchical.soa"),
    ("scheme.one_to_zero", "scheme.one_to_zero.soa"),
    ("scheme.owned_rounds", "scheme.owned_rounds.soa"),
];

/// The least slow ÷ fast ratio a full run accepts for any pair.
const FLOOR: f64 = 3.0;

/// Timed iterations per pair in a full run.
const K: usize = 5;

/// The median of `ratios` (at least one): the middle value for an odd
/// count, the mean of the two middle values for an even one, and NaN
/// when any ratio is NaN.
fn median(ratios: &[f64]) -> f64 {
    if ratios.iter().any(|r| r.is_nan()) {
        return f64::NAN;
    }
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The gate rule: a pair's ratio passes when it is finite and positive
/// and, in a full run, at least [`FLOOR`]. Smoke-sized work is too small
/// for its ratio to say anything about speed, so `--smoke` checks only
/// that the ratio is a real measurement.
fn passes(ratio: f64, smoke: bool) -> bool {
    ratio.is_finite() && ratio > 0.0 && (smoke || ratio >= FLOOR)
}

/// Nanoseconds per op of one run of `work`, which returns its op count.
fn ns_per_op(work: &mut impl FnMut() -> usize) -> f64 {
    let sw = Stopwatch::start();
    let ops = work();
    sw.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

struct Gate {
    smoke: bool,
    ran: Vec<(&'static str, &'static str)>,
    failed: bool,
}

impl Gate {
    /// Times `slow` then `fast`, `K` times (once under `--smoke`), and
    /// gates the median ratio. `fast` runs once untimed first: the fast
    /// sides reuse a [`SoaScratch`] across calls, and a cold first run
    /// would time its growth, which `--smoke` reads alone.
    fn pair(
        &mut self,
        (slow_name, fast_name): (&'static str, &'static str),
        mut slow: impl FnMut() -> usize,
        mut fast: impl FnMut() -> usize,
    ) {
        let k = if self.smoke { 1 } else { K };
        fast();
        let ratios: Vec<f64> = (0..k)
            .map(|_| ns_per_op(&mut slow) / ns_per_op(&mut fast))
            .collect();
        let ratio = median(&ratios);
        let (lo, hi) = ratios.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
        let ok = passes(ratio, self.smoke);
        println!(
            "{slow_name:<28} / {fast_name:<28} {ratio:>9.2}x  (k={k}: {lo:.2}x..{hi:.2}x)  {}",
            if ok { "ok" } else { "FAIL" }
        );
        self.failed |= !ok;
        self.ran.push((slow_name, fast_name));
    }
}

/// Runs `trials` seeds of one scheme through the per-party oracle (the
/// slow twin) and through the collapsed engine with one reused scratch
/// (the fast path). Each workload is sized so that the per-party work
/// the collapsed engine removes dominates the twin.
macro_rules! scheme_pair {
    ($gate:expr, $pair:expr, $trials:expr, $sim:expr, $n:expr, $inputs:expr, $model:expr) => {{
        let (sim, n, inputs, model, trials) = (&$sim, $n, $inputs, $model, $trials);
        let mut scratch = SoaScratch::default();
        $gate.pair(
            $pair,
            || {
                for seed in 0..trials as u64 {
                    let mut ch = StochasticChannel::new(n, model, seed);
                    let out = sim.simulate_over(inputs, model, &mut ch);
                    std::hint::black_box(out.ok().map_or(0, |o| o.stats().energy));
                }
                trials
            },
            || {
                for seed in 0..trials as u64 {
                    let out = sim.simulate_with_scratch(inputs, model, seed, &mut scratch);
                    std::hint::black_box(out.ok().map_or(0, |o| o.stats().energy));
                }
                trials
            },
        );
    }};
}

fn party_pair(gate: &mut Gate) {
    // The collapsed rewind engine against the per-party path on a short
    // broadcast at n = 10^4 (256 in smoke), where the owners phase is the
    // cost: the per-party path steps all n parties every channel round
    // (n²·W work per chunk), the collapsed engine one shared decode
    // state (n·W). A full run's owners phase is (2 + n)·W ≈ 4·10^5
    // channel rounds, minutes through the per-party path, so the pair
    // runs budget-truncated: both engines execute the identical round
    // prefix (budget errors are part of the bitwise-equivalence pin) and
    // report the same rounds_used. Ops count those shared channel rounds.
    let n = if gate.smoke { 256 } else { 10_000 };
    let width = 2usize;
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let protocol = Broadcast::new(n, 0, width);
    let config = SimulatorConfig::builder(n)
        .model(model)
        .chunk_len(width)
        .budget_factor(0.01)
        .build();
    let sim = RewindSimulator::new(&protocol, config);
    let mut inputs = vec![0usize; n];
    inputs[0] = 0b10;
    let chan_rounds = |res: Result<SimOutcome<usize>, SimError>| match res {
        Ok(out) => {
            std::hint::black_box(out.stats().energy);
            out.stats().channel_rounds
        }
        Err(SimError::BudgetExhausted { rounds_used, .. }) => rounds_used,
        Err(e) => panic!("unexpected simulation error: {e}"),
    };
    let mut scratch = SoaScratch::default();
    gate.pair(
        SOA_PAIRS[0],
        || {
            let mut ch = StochasticChannel::new(n, model, 0x50A);
            chan_rounds(sim.simulate_over(&inputs, model, &mut ch))
        },
        || chan_rounds(sim.simulate_with_scratch(&inputs, model, 0x50A, &mut scratch)),
    );
}

fn scheme_pairs(gate: &mut Gate) {
    let trials = if gate.smoke { 1 } else { 8 };
    let two = NoiseModel::Correlated { epsilon: 0.1 };

    // Repetition and owned rounds run RollCall at n = 64: cheap beeps
    // and allocation-free outputs, so the pairs measure the simulation
    // rather than per-trial protocol-output construction.
    let wide = 64usize;
    let wide_protocol = RollCall::new(wide);
    let wide_inputs: Vec<bool> = (0..wide).map(|i| i % 3 != 0).collect();
    let wide_config = SimulatorConfig::builder(wide).model(two).build();
    let rep = RepetitionSimulator::new(&wide_protocol, wide_config.clone());
    scheme_pair!(gate, SOA_PAIRS[1], trials, rep, wide, &wide_inputs, two);

    // Rewind and hierarchical run InputSet at n = 32, where the
    // per-party owners and verify work the collapsed engine removes
    // dominates: at n = 8 these pairs read 3.3–4.2× on a 2-core host,
    // too close to the floor.
    let mid = 32usize;
    let mid_protocol = InputSet::new(mid);
    let mid_inputs: Vec<usize> = (0..mid).map(|i| (5 * i + 3) % (2 * mid)).collect();
    let mid_config = SimulatorConfig::builder(mid).model(two).build();
    let rew = RewindSimulator::new(&mid_protocol, mid_config.clone());
    scheme_pair!(gate, SOA_PAIRS[2], trials, rew, mid, &mid_inputs, two);
    let hier = HierarchicalSimulator::new(&mid_protocol, mid_config);
    scheme_pair!(gate, SOA_PAIRS[3], trials, hier, mid, &mid_inputs, two);

    // One-to-zero runs at n = 16 under its dense ε = 1/3 erasure noise:
    // wide enough that the twin's cost is party-dominated.
    let z_n = 16usize;
    let z_protocol = InputSet::new(z_n);
    let z_inputs: Vec<usize> = (0..z_n).map(|i| (5 * i + 3) % (2 * z_n)).collect();
    let z = OneToZeroSimulator::new(&z_protocol, 2, 32.0);
    let down = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
    scheme_pair!(gate, SOA_PAIRS[4], trials, z, z_n, &z_inputs, down);

    let owned = OwnedRoundsSimulator::new(&wide_protocol, wide_config);
    scheme_pair!(gate, SOA_PAIRS[5], trials, owned, wide, &wide_inputs, two);
}

pub fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            eprintln!("unknown argument {arg}\nusage: bench_hotpaths [--smoke]");
            std::process::exit(2);
        }
    }
    let mut gate = Gate {
        smoke,
        ran: Vec::new(),
        failed: false,
    };
    party_pair(&mut gate);
    scheme_pairs(&mut gate);

    if gate.ran != SOA_PAIRS {
        eprintln!("bench_hotpaths: ran {:?}, expected {SOA_PAIRS:?}", gate.ran);
        std::process::exit(1);
    }
    let rule = if smoke {
        "finite and positive".to_owned()
    } else {
        format!("at least {FLOOR}x")
    };
    if gate.failed {
        eprintln!("bench_hotpaths: not every median ratio is {rule}");
        std::process::exit(1);
    }
    println!("bench_hotpaths: every median ratio is {rule}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_floor_passes_and_just_below_fails_only_the_full_run() {
        assert!(passes(3.0, false));
        assert!(passes(3.0, true));
        assert!(!passes(2.9, false));
        assert!(passes(2.9, true));
    }

    #[test]
    fn a_ratio_that_is_not_finite_and_positive_fails_both_modes() {
        for ratio in [f64::NAN, f64::INFINITY, 0.0, -4.0] {
            assert!(!passes(ratio, false), "{ratio} passed a full run");
            assert!(!passes(ratio, true), "{ratio} passed the smoke");
        }
    }

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[9.0, 3.0, 5.0, 4.0, 8.0]), 5.0);
        assert_eq!(median(&[9.0, 3.0, 5.0, 4.0]), 4.5);
        assert!(median(&[4.0, f64::NAN, 5.0]).is_nan());
    }
}
