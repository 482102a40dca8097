//! **Experiment E15 / scaling figure — a million parties on one machine.**
//!
//! Two sweeps, two regimes:
//!
//! 1. **Amortized regime** (`chunk_len = n`, the paper's setting): the
//!    rewind scheme over `InputSet_n` (`T = 2n`), where the codeword
//!    alphabet `q = n + 1` makes the owner codewords `Θ(log n)` symbols
//!    and the per-chunk `(L+n)` owners cost amortizes against `L = n`
//!    protocol rounds. Overhead here is the `Θ(log n)` curve of
//!    Theorem 1.2 — but total work is `Ω(n·T) = Ω(n²)`, so the sweep
//!    stops at `n = 10⁴`.
//! 2. **Scale regime** (fixed `T = 16`): a 16-bit [`Broadcast`] whose
//!    length does not grow with `n`, pushing the party count to 10⁶.
//!    Here the per-chunk owners pass dominates (overhead grows like
//!    `n·W/L` — amortization needs `T = Ω(n)`), and the interesting
//!    rows are feasibility and footprint: wall-clock per trial, the
//!    retained verification-window words (`O(window · n/64)` instead of
//!    the old `O(T · n)` committed transcript), and process peak RSS.
//!
//! `--smoke` caps both sweeps at `n = 10⁴` totals suitable for tier-1 /
//! CI. Trials run on the shared [`TrialRunner`] (`--threads N` /
//! `BEEPS_THREADS`); each worker reuses one [`SoaScratch`] arena across
//! its trials, so steady-state simulation performs no per-round heap
//! allocation (pinned by the `party-loop-alloc` lint pass). Wall-clock
//! goes through the sanctioned [`Stopwatch`]; it annotates rows and
//! never feeds back into deterministic state.

use beeps_bench::{f3, trial_seed, ExperimentLog, Observation, Table, TrialRunner};
use beeps_channel::NoiseModel;
use beeps_core::{RewindSimulator, SimulatorConfig, SoaScratch};
use beeps_observe::clock::Stopwatch;
use beeps_protocols::{Broadcast, InputSet};
use rand::Rng;

/// Fixed protocol length of the scale regime: `Broadcast` with a
/// 16-bit message runs exactly 16 rounds regardless of `n`, so that
/// sweep varies only the party count.
const WIDTH: usize = 16;

/// Amortized regime: `InputSet_n` with the default `chunk_len = n`, the
/// configuration whose overhead Theorem 1.2 bounds by `Θ(log n)`.
/// Returns per-`n` rows of (n, mean overhead, overhead / log₂ n).
fn amortized_sweep(
    runner: &TrialRunner,
    model: NoiseModel,
    base_seed: u64,
    smoke: bool,
) -> (Table, Vec<(f64, f64)>) {
    let sweep: &[(usize, usize)] = if smoke {
        &[(100, 4), (1_000, 2)]
    } else {
        &[(100, 4), (1_000, 2), (10_000, 1)]
    };
    let mut table = Table::new(
        "E15a: amortized regime (chunk_len = n), InputSet_n at eps=0.1",
        &["n", "log2 n", "overhead", "ovh/log2 n", "rewinds"],
    );
    let mut curve = Vec::new();
    for &(n, trials) in sweep {
        let p = InputSet::new(n);
        let sim = RewindSimulator::new(&p, SimulatorConfig::builder(n).model(model).build());
        let records = runner.run_with_scratch(
            trial_seed(base_seed, n as u64),
            trials,
            SoaScratch::default,
            |trial, scratch| {
                let mut input_rng = trial.sub_rng(0);
                let inputs: Vec<usize> = (0..n).map(|_| input_rng.gen_range(0..2 * n)).collect();
                sim.simulate_with_scratch(&inputs, model, trial.seed, scratch)
                    .ok()
                    .map(|out| (out.stats().overhead(), out.stats().rewinds))
            },
        );
        let mut overhead = 0.0f64;
        let mut rewinds = 0usize;
        let mut counted = 0u32;
        for (o, r) in records.into_iter().flatten() {
            counted += 1;
            overhead += o;
            rewinds += r;
        }
        assert!(counted > 0, "all amortized trials failed at n={n}");
        let mean = overhead / f64::from(counted);
        let log_n = (n as f64).log2();
        curve.push((log_n, mean));
        table.row(&[&n, &f3(log_n), &f3(mean), &f3(mean / log_n), &rewinds]);
    }
    (table, curve)
}

/// Scale regime: fixed-length `Broadcast` with `chunk_len = T = 16`, so
/// chunking stays scale-free while `n` climbs to 10⁶ (the default
/// `chunk_len = n` would mean a million-symbol alphabet). Rows report
/// feasibility and footprint rather than amortized overhead.
///
/// Returns two tables because they live on opposite sides of the
/// determinism contract: the first (overhead, rewinds, retained
/// window words) is seed-deterministic and goes into the JSON log;
/// the second (wall-clock per trial, process peak RSS) is
/// machine-dependent, so it is printed under a NON-DETERMINISTIC
/// banner and *never* serialized — the run log's `summary` line
/// carries `peak_rss_bytes` on the observability side channel.
fn scale_sweep(
    runner: &TrialRunner,
    model: NoiseModel,
    base_seed: u64,
    smoke: bool,
) -> (Table, Table) {
    let sweep: &[(usize, usize)] = if smoke {
        &[(100, 8), (1_000, 4), (10_000, 2)]
    } else {
        &[
            (100, 8),
            (1_000, 4),
            (10_000, 2),
            (100_000, 1),
            (1_000_000, 1),
        ]
    };
    let mut table = Table::new(
        "E15b: scale regime (T = 16 broadcast), eps=0.1 shared noise",
        &["n", "overhead", "rewinds", "window KiB"],
    );
    let mut timing = Table::new(
        "E15b footprint (NON-DETERMINISTIC: wall-clock and RSS, not logged)",
        &["n", "ms/trial", "peak RSS MiB"],
    );
    for &(n, trials) in sweep {
        let p = Broadcast::new(n, 0, WIDTH);
        let config = SimulatorConfig::builder(n)
            .model(model)
            .chunk_len(WIDTH)
            .build();
        let sim = RewindSimulator::new(&p, config);
        let sw = Stopwatch::start();
        let records = runner.run_with_scratch(
            trial_seed(base_seed, n as u64),
            trials,
            SoaScratch::default,
            |trial, scratch| {
                let mut input_rng = trial.sub_rng(0);
                let mut inputs = vec![0usize; n];
                inputs[0] = input_rng.gen_range(0..1usize << WIDTH);
                sim.simulate_with_scratch(&inputs, model, trial.seed, scratch)
                    .ok()
                    .map(|out| {
                        (
                            out.stats().overhead(),
                            out.stats().rewinds,
                            scratch.retained_words(),
                        )
                    })
            },
        );
        let ms_per_trial = sw.elapsed().as_secs_f64() * 1e3 / trials as f64;
        let mut overhead = 0.0f64;
        let mut rewinds = 0usize;
        let mut words = 0usize;
        let mut counted = 0u32;
        for (o, r, w) in records.into_iter().flatten() {
            counted += 1;
            overhead += o;
            rewinds += r;
            words = words.max(w);
        }
        assert!(counted > 0, "all scale trials failed at n={n}");
        table.row(&[
            &n,
            &f3(overhead / f64::from(counted)),
            &rewinds,
            &f3(words as f64 * 8.0 / 1024.0),
        ]);
        timing.row(&[
            &n,
            &f3(ms_per_trial),
            &f3(beeps_observe::clock::peak_rss_bytes() as f64 / (1024.0 * 1024.0)),
        ]);
    }
    (table, timing)
}

pub fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let base_seed = 0xE15u64;
    let runner = TrialRunner::from_cli();
    let observation = Observation::from_cli("fig_scale", base_seed);
    let runner = observation.attach(runner);

    // Scale regime first: peak RSS is a process-wide high-water mark,
    // so its column only reflects the million-party footprint if the
    // (memory-hungrier per party) amortized sweep hasn't run yet.
    let (scale, scale_timing) = scale_sweep(&runner, model, base_seed ^ 0xB00, smoke);
    let (amortized, curve) = amortized_sweep(&runner, model, base_seed, smoke);

    amortized.print();
    scale.print();
    scale_timing.print();

    let (first, last) = (curve[0], curve[curve.len() - 1]);
    println!(
        "Amortized overhead per log2 n stays flat ({} at n={} vs {} at the top of",
        f3(first.1 / first.0),
        100,
        f3(last.1 / last.0),
    );
    println!("the sweep) — Theorem 1.2's Theta(log n) — while the scale regime's");
    println!("windowed transcript + sparse channel keep a million-party trial inside");
    println!("one machine's RAM: retained window words are O(window * n/64), not O(T * n).");

    let mut log = ExperimentLog::new("fig_scale");
    log.field("base_seed", base_seed)
        .field("epsilon", 0.1)
        .field("scale_chunk_len", WIDTH)
        .field("smoke", smoke)
        .table(&amortized)
        .table(&scale);
    log.save();
    observation.finish(None);
}
