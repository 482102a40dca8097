//! **Hot-path benchmark suite** — pins the wall-clock performance of the
//! executor/channel/metrics stack so perf regressions are visible in a
//! diff, not just in vibes.
//!
//! Measures four layers of the stack:
//!
//! * raw [`StochasticChannel::transmit`] throughput per noise model
//!   (the per-round sampling cost each Monte Carlo sweep pays);
//! * [`Executor::run`] / [`Executor::run_with_metrics`] round throughput
//!   under `Independent` and `Correlated` noise (the inner loop of every
//!   experiment binary);
//! * every scheme end to end, twice on the same seeds and workload:
//!   through the per-party engines (`simulate_over` over an explicit
//!   channel, the oracle: `scheme.repetition.n64`, `scheme.rewind`,
//!   `scheme.hierarchical`, `scheme.one_to_zero`,
//!   `scheme.owned_rounds`) and through the collapsed engine that
//!   `simulate` routes shared noise to (`simulate_with_scratch` with one
//!   reused [`SoaScratch`], the matching `scheme.*.soa` rows);
//! * the cross-trial layer: skewed Monte Carlo fan-out through the
//!   [`TrialRunner`] scratch arenas (`runner.skewed`), the shared
//!   owners-code table cache (`code_cache`), and the packed
//!   encode/decode symbol roundtrip (`decode_packed`).
//!
//! Results are written as JSON (default `BENCH_hotpaths.json` in the
//! current directory). Pass `--baseline <file>` — a JSON previously
//! produced by this harness — to embed the old numbers and per-benchmark
//! speedups in the output; `--smoke` runs one tiny iteration of
//! everything so CI can keep the harness compiling and running without
//! paying measurement-grade iteration counts.
//!
//! Independently of `--baseline`, the output always carries a flat
//! `"soa"` object pairing each fast path with its slow twin *from the
//! same run* — `{slow name: slow ns ÷ fast ns}` — for every collapsed
//! scheme engine against its per-party twin, the collapsed rewind
//! engine at n = 10^4 (`party.soa.*`) and the sparse channel against
//! the dense one (`channel.sparse.*`); `scripts/bench_compare.sh`
//! gates each ratio at ≥ 3× in full mode. The `scheme.rewind.n1e5` row
//! pins the collapsed engine's wall-clock at fig_scale's scale regime.
//! The `config` block records the host's core count and `BEEPS_THREADS`
//! so the comparison script can flag cross-hardware baselines.
//!
//! Timing uses the sanctioned [`Stopwatch`] wrapper; everything else in
//! the harness is seed-deterministic, so two runs measure the same work.

use std::path::PathBuf;

use beeps_bench::{Json, Observation, TrialRunner};
use beeps_channel::{Channel, Executor, NoiseModel, Party, StochasticChannel};
use beeps_core::{
    CodeCache, HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator,
    RepetitionSimulator, RewindSimulator, SimulatorConfig, SoaScratch,
};
use beeps_ecc::{BitMetric, RandomCode, SymbolCode};
use beeps_metrics::{MetricsRegistry, Stopwatch};
use beeps_protocols::{Broadcast, InputSet, RollCall};

/// Parties attached to the executor/channel benchmarks.
const PARTIES: usize = 64;
/// Noise rate used by the channel/executor benchmarks.
const EPS: f64 = 0.05;
/// Noise rate for the *independent-noise executor* rows: the sparse
/// regime the per-party flip calendar targets (fig_scale sweeps ε down
/// to 10^-5), where the rows measure the executor's round loop rather
/// than flip sampling. Dense independent *sampling* throughput stays
/// pinned by `noise.independent` (at [`EPS`]).
const INDEP_EPS: f64 = 1e-3;

struct Args {
    iters: usize,
    rounds: usize,
    scheme_trials: usize,
    smoke: bool,
    out: PathBuf,
    baseline: Option<PathBuf>,
    progress: bool,
    profile: Option<PathBuf>,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            iters: 5,
            rounds: 200_000,
            scheme_trials: 8,
            smoke: false,
            out: PathBuf::from("BENCH_hotpaths.json"),
            baseline: None,
            progress: false,
            profile: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => {
                    args.smoke = true;
                    args.iters = 1;
                    args.rounds = 2_000;
                    args.scheme_trials = 1;
                }
                "--iters" => args.iters = parse_num(it.next(), "--iters"),
                "--rounds" => args.rounds = parse_num(it.next(), "--rounds"),
                "--out" => args.out = PathBuf::from(it.next().expect("--out needs a path")),
                "--baseline" => {
                    args.baseline =
                        Some(PathBuf::from(it.next().expect("--baseline needs a path")));
                }
                "--progress" => args.progress = true,
                "--profile" => {
                    args.profile = Some(PathBuf::from(it.next().expect("--profile needs a path")));
                }
                other => {
                    eprintln!("unknown argument {other}");
                    eprintln!(
                        "usage: bench_hotpaths [--smoke] [--iters N] [--rounds N] \
                         [--out FILE] [--baseline FILE] [--progress] [--profile FILE]"
                    );
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

fn parse_num(v: Option<String>, flag: &str) -> usize {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a positive integer"))
}

/// A deliberately cheap party so the benchmarks measure the harness, not
/// the protocol: beeps on multiples of its stride, remembers one bit.
struct Strider {
    stride: usize,
    round: usize,
    last: bool,
}

impl Party for Strider {
    fn beep(&mut self) -> bool {
        self.round.is_multiple_of(self.stride)
    }

    fn hear(&mut self, heard: bool) {
        self.round += 1;
        self.last = heard;
    }
}

fn striders(n: usize) -> Vec<Strider> {
    (0..n)
        .map(|i| Strider {
            stride: 2 + (i % 7),
            round: 0,
            last: false,
        })
        .collect()
}

/// Fast paths paired with their slow twins: the `"soa"` section
/// reports `slow ns_per_op ÷ fast ns_per_op` under the slow (baseline)
/// name, and `scripts/bench_compare.sh` gates each ratio at ≥ 3× in
/// full mode. Both sides of a pair count the same ops — shared channel
/// rounds on the `party.soa` pair, transmits on the channel pair,
/// trials on the scheme pairs — so every ratio is per unit of work.
/// The scheme pairs cover every engine `simulate` routes shared noise
/// to, each against the per-party oracle on the same seeds.
const SOA_PAIRS: [(&str, &str); 7] = [
    ("party.soa.scalar.n1e4", "party.soa.collapsed.n1e4"),
    (
        "channel.dense.transmit.n1e4",
        "channel.sparse.transmit.n1e4",
    ),
    ("scheme.repetition.n64", "scheme.repetition.soa"),
    ("scheme.rewind", "scheme.rewind.soa"),
    ("scheme.hierarchical", "scheme.hierarchical.soa"),
    ("scheme.one_to_zero", "scheme.one_to_zero.soa"),
    ("scheme.owned_rounds", "scheme.owned_rounds.soa"),
];

/// One measurement: runs `work` (which reports how many operations it
/// performed) `iters` times and keeps the fastest iteration.
fn measure(iters: usize, mut work: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut ops = 0;
    for _ in 0..iters.max(1) {
        let sw = Stopwatch::start();
        ops = work();
        let ns = sw.elapsed().as_nanos() as f64;
        let per_op = if ops == 0 { ns } else { ns / ops as f64 };
        if per_op < best {
            best = per_op;
        }
    }
    (best, ops)
}

struct Suite {
    args: Args,
    results: Vec<(String, f64, usize)>,
    observer: Option<std::sync::Arc<dyn beeps_observe::Observer>>,
}

impl Suite {
    /// A `threads`-wide runner carrying the suite's observer stack (if
    /// `--progress` / `--profile` asked for one).
    fn runner(&self, threads: usize) -> TrialRunner {
        match &self.observer {
            Some(obs) => TrialRunner::new(threads).with_observer(std::sync::Arc::clone(obs)),
            None => TrialRunner::new(threads),
        }
    }

    fn bench(&mut self, name: &str, work: impl FnMut() -> usize) {
        self.bench_with_iters(name, self.args.iters, work);
    }

    /// [`Suite::bench`] with an explicit iteration count — for the few
    /// deliberately slow baselines (the scalar twin of the collapsed
    /// engine) where the default count would dominate the whole suite.
    fn bench_with_iters(&mut self, name: &str, iters: usize, work: impl FnMut() -> usize) {
        let (ns_per_op, ops) = measure(iters, work);
        println!("{name:<40} {ns_per_op:>12.1} ns/op  ({ops} ops/iter)");
        // Plausibility floor: nothing in this stack really completes an
        // operation in under a hundredth of a nanosecond, so a number
        // below it means the row's op count includes work the measured
        // engine never performs (or the work got optimized away).
        if ns_per_op < 0.01 {
            eprintln!(
                "bench_hotpaths: WARNING: {name} at {ns_per_op} ns/op is implausible; \
                 check the row's ops accounting (and its black_box sinks)"
            );
        }
        self.results.push((name.to_owned(), ns_per_op, ops));
    }
}

fn channel_benches(suite: &mut Suite) {
    let rounds = suite.args.rounds;
    let models: [(&str, NoiseModel); 5] = [
        ("noise.noiseless", NoiseModel::Noiseless),
        ("noise.correlated", NoiseModel::Correlated { epsilon: EPS }),
        (
            "noise.one_sided_0to1",
            NoiseModel::OneSidedZeroToOne { epsilon: EPS },
        ),
        (
            "noise.one_sided_1to0",
            NoiseModel::OneSidedOneToZero { epsilon: EPS },
        ),
        (
            "noise.independent",
            NoiseModel::Independent { epsilon: EPS },
        ),
    ];
    for (name, model) in models {
        suite.bench(name, || {
            let mut ch = StochasticChannel::new(PARTIES, model, 0xC0FFEE);
            let mut sink = 0usize;
            for r in 0..rounds {
                // Mostly-silent rounds with periodic beeps, as in real
                // sparse protocols; exercises both one-sided regimes.
                let or = r % 8 == 0;
                sink += usize::from(ch.transmit(or).heard_by(r % PARTIES));
            }
            std::hint::black_box(sink);
            rounds
        });
    }
}

fn executor_benches(suite: &mut Suite) {
    let rounds = suite.args.rounds;
    let independent = NoiseModel::Independent { epsilon: INDEP_EPS };
    let correlated = NoiseModel::Correlated { epsilon: EPS };

    suite.bench("executor.run.independent", || {
        let mut parties = striders(PARTIES);
        let mut ch = StochasticChannel::new(PARTIES, independent, 7);
        let stats = Executor::run(&mut parties, &mut ch, rounds);
        std::hint::black_box(stats.energy);
        rounds
    });
    suite.bench("executor.run.correlated", || {
        let mut parties = striders(PARTIES);
        let mut ch = StochasticChannel::new(PARTIES, correlated, 7);
        let stats = Executor::run(&mut parties, &mut ch, rounds);
        std::hint::black_box(stats.energy);
        rounds
    });
    suite.bench("executor.run_with_metrics.independent", || {
        let mut parties = striders(PARTIES);
        let mut ch = StochasticChannel::new(PARTIES, independent, 7);
        let mut metrics = MetricsRegistry::new();
        let stats = Executor::run_with_metrics(&mut parties, &mut ch, rounds, &mut metrics);
        std::hint::black_box(stats.energy + metrics.counter("channel.energy") as usize);
        rounds
    });
    suite.bench("executor.run_with_metrics.correlated", || {
        let mut parties = striders(PARTIES);
        let mut ch = StochasticChannel::new(PARTIES, correlated, 7);
        let mut metrics = MetricsRegistry::new();
        let stats = Executor::run_with_metrics(&mut parties, &mut ch, rounds, &mut metrics);
        std::hint::black_box(stats.energy + metrics.counter("channel.energy") as usize);
        rounds
    });
}

fn scheme_benches(suite: &mut Suite) {
    let n = 8usize;
    let trials = suite.args.scheme_trials;
    let protocol = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (5 * i + 3) % (2 * n)).collect();
    let two = NoiseModel::Correlated { epsilon: 0.1 };
    let down = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
    let config = SimulatorConfig::builder(n).model(two).build();

    let rep = RepetitionSimulator::new(&protocol, config);
    suite.bench("scheme.repetition", || {
        for seed in 0..trials as u64 {
            let out = rep.simulate(&inputs, two, seed).expect("fixed length");
            std::hint::black_box(out.stats().energy);
        }
        trials
    });

    // Every pair below runs one scheme twice over the same seeds: the
    // per-party twin drives an explicit channel through `simulate_over`
    // (the oracle engine), the `.soa` row runs `simulate_with_scratch`
    // with one reused scratch (the collapsed engine `simulate` routes
    // shared noise to). Each workload is sized so that the per-party
    // work the collapsed engine removes dominates the twin.
    macro_rules! soa_pair {
        ($slow:literal, $fast:literal, $sim:expr, $n:expr, $inputs:expr, $model:expr) => {{
            let (sim, n, inputs, model) = (&$sim, $n, $inputs, $model);
            suite.bench($slow, || {
                for seed in 0..trials as u64 {
                    let mut ch = StochasticChannel::new(n, model, seed);
                    let out = sim.simulate_over(inputs, model, &mut ch);
                    std::hint::black_box(out.ok().map_or(0, |o| o.stats().energy));
                }
                trials
            });
            let mut scratch = SoaScratch::default();
            suite.bench($fast, || {
                for seed in 0..trials as u64 {
                    let out = sim.simulate_with_scratch(inputs, model, seed, &mut scratch);
                    std::hint::black_box(out.ok().map_or(0, |o| o.stats().energy));
                }
                trials
            });
        }};
    }

    // Repetition and owned rounds run RollCall at n = 64: cheap beeps
    // and allocation-free outputs, so the pairs measure the simulation
    // rather than per-trial protocol-output construction.
    let wide = 64usize;
    let wide_protocol = RollCall::new(wide);
    let wide_inputs: Vec<bool> = (0..wide).map(|i| i % 3 != 0).collect();
    let wide_config = SimulatorConfig::builder(wide).model(two).build();
    let wide_rep = RepetitionSimulator::new(&wide_protocol, wide_config.clone());
    soa_pair!(
        "scheme.repetition.n64",
        "scheme.repetition.soa",
        wide_rep,
        wide,
        &wide_inputs,
        two
    );
    let owned = OwnedRoundsSimulator::new(&wide_protocol, wide_config);
    soa_pair!(
        "scheme.owned_rounds",
        "scheme.owned_rounds.soa",
        owned,
        wide,
        &wide_inputs,
        two
    );

    // Rewind and hierarchical run InputSet at n = 32, where the
    // per-party owners and verify work the collapsed engine removes
    // dominates: on a 2-core host these pairs read 9–16×, against
    // 3.3–4.2× at n = 8, too close to the 3× floor.
    let mid = 32usize;
    let mid_protocol = InputSet::new(mid);
    let mid_inputs: Vec<usize> = (0..mid).map(|i| (5 * i + 3) % (2 * mid)).collect();
    let mid_config = SimulatorConfig::builder(mid).model(two).build();
    let rew = RewindSimulator::new(&mid_protocol, mid_config.clone());
    soa_pair!(
        "scheme.rewind",
        "scheme.rewind.soa",
        rew,
        mid,
        &mid_inputs,
        two
    );
    let hier = HierarchicalSimulator::new(&mid_protocol, mid_config);
    soa_pair!(
        "scheme.hierarchical",
        "scheme.hierarchical.soa",
        hier,
        mid,
        &mid_inputs,
        two
    );

    // One-to-zero runs at n = 16 under its dense ε = 1/3 erasure noise:
    // wide enough that the twin's cost is party-dominated.
    let z_n = 16usize;
    let z_protocol = InputSet::new(z_n);
    let z_inputs: Vec<usize> = (0..z_n).map(|i| (5 * i + 3) % (2 * z_n)).collect();
    let z = OneToZeroSimulator::new(&z_protocol, 2, 32.0);
    soa_pair!(
        "scheme.one_to_zero",
        "scheme.one_to_zero.soa",
        z,
        z_n,
        &z_inputs,
        down
    );
}

fn soa_benches(suite: &mut Suite) {
    // --- party.soa.*: the collapsed struct-of-arrays rewind engine
    // against the per-party scalar path on the same workload — a short
    // fixed-length broadcast at n = 10^4 (256 in smoke), where the
    // owners phase is the cost: the scalar path steps all n party
    // structs every channel round (n^2·W work per chunk) while the
    // collapsed engine keeps one shared decode state (n·W). Ops count
    // shared channel rounds on both sides — the unit both engines
    // actually execute, so both ns/op numbers are plausible wall-clock
    // figures — and since the denominators match, the "soa" ratio is
    // still the honest per-round (equivalently per-party-round) cost
    // improvement: the scalar side pays O(n) per channel round, which
    // is exactly the gap the ratio reports.
    // A full run's owners phase is (2+n)·W ≈ 4·10^5 channel rounds —
    // minutes through the scalar path at n = 10^4 — so the pair runs
    // budget-truncated: both engines execute the identical round
    // prefix (budget errors are part of the bitwise-equivalence pin)
    // and report the same rounds_used, keeping the ratio honest while
    // the bench stays seconds.
    let n = if suite.args.smoke { 256 } else { 10_000 };
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
    let chan_rounds = |res: Result<beeps_core::SimOutcome<usize>, beeps_core::SimError>| match res {
        Ok(out) => {
            std::hint::black_box(out.stats().energy);
            out.stats().channel_rounds
        }
        Err(beeps_core::SimError::BudgetExhausted { rounds_used, .. }) => rounds_used,
        Err(e) => panic!("unexpected simulation error: {e}"),
    };
    let scalar_iters = suite.args.iters.min(2);
    suite.bench_with_iters("party.soa.scalar.n1e4", scalar_iters, || {
        let mut ch = StochasticChannel::new(n, model, 0x50A);
        chan_rounds(sim.simulate_over(&inputs, model, &mut ch))
    });
    let mut scratch = SoaScratch::default();
    suite.bench("party.soa.collapsed.n1e4", || {
        chan_rounds(sim.simulate_with_scratch(&inputs, model, 0x50A, &mut scratch))
    });

    // --- channel.sparse.*: independent-noise transmit at n = 10^4,
    // consumed the way the schemes consume it — uniform() fast path,
    // per-party reads only on corrupted rounds. At eps = 10^-5 almost
    // every round is clean: the sparse path hands out the (empty)
    // skip-sampled flip bucket and classifies it O(1), while the dense
    // twin (set_dense_deliveries) materializes and then scans an
    // n/64-word row per round. The flip *sampling* cost is identical
    // on both sides, so the ratio isolates the representation.
    let rounds = suite.args.rounds;
    let light = NoiseModel::Independent { epsilon: 1e-5 };
    let consume = |ch: &mut StochasticChannel, rounds: usize| {
        let mut sink = 0usize;
        for r in 0..rounds {
            let d = ch.transmit(r % 8 == 0);
            sink += match d.uniform() {
                Some(bit) => usize::from(bit),
                None => usize::from(d.heard_by(r % n)),
            };
        }
        std::hint::black_box(sink);
        rounds
    };
    suite.bench("channel.sparse.transmit.n1e4", || {
        let mut ch = StochasticChannel::new(n, light, 0x5BA);
        consume(&mut ch, rounds)
    });
    suite.bench("channel.dense.transmit.n1e4", || {
        let mut ch = StochasticChannel::new(n, light, 0x5BA);
        ch.set_dense_deliveries(true);
        consume(&mut ch, rounds)
    });

    // --- scheme.rewind.n1e5: the collapsed engine end to end at
    // n = 10^5 (10^3 in smoke) — the scale regime fig_scale sweeps,
    // pinned here so a wall-clock regression at large n shows up in
    // the diff. No scalar twin: the per-party path at this n is
    // minutes, which is the point of the collapsed engine. Ops count
    // the channel rounds the engine actually executes (not ×n, which
    // would yield sub-picosecond vanity numbers).
    let big_n = if suite.args.smoke { 1_000 } else { 100_000 };
    let big_protocol = Broadcast::new(big_n, 0, 16);
    let big_config = SimulatorConfig::builder(big_n)
        .model(model)
        .chunk_len(16)
        .build();
    let big_sim = RewindSimulator::new(&big_protocol, big_config);
    let mut big_inputs = vec![0usize; big_n];
    big_inputs[0] = 0xBEE5;
    let mut big_scratch = SoaScratch::default();
    suite.bench("scheme.rewind.n1e5", || {
        let out = big_sim
            .simulate_with_scratch(&big_inputs, model, 0x1E5, &mut big_scratch)
            .expect("within budget");
        std::hint::black_box(out.stats().energy);
        out.stats().channel_rounds
    });
}

fn crosstrial_benches(suite: &mut Suite) {
    // --- runner.skewed: a Monte Carlo fan-out whose per-trial cost is
    // deliberately skewed ~100x with the trial index (party counts
    // 8..=800), driven through the TrialRunner. Pins the cross-trial
    // scheduling + per-trial buffer story.
    let trials = if suite.args.smoke { 16 } else { 256 };
    let runner = suite.runner(4);
    suite.bench("runner.skewed", || {
        let out =
            runner.run_with_scratch(0xBEE5, trials, Vec::new, |t, states: &mut Vec<Vec<u64>>| {
                // 100x cost skew: index 0 simulates 800 parties, most
                // simulate 8. The per-party state vectors live in the
                // worker's scratch arena and are zeroed, not reallocated.
                let parties = if t.index % 8 == 0 { 800 } else { 8 };
                let rounds = 4usize;
                if states.len() < parties {
                    states.resize_with(parties, || vec![0u64; 16]);
                }
                let states = &mut states[..parties];
                for st in states.iter_mut() {
                    st.fill(0);
                }
                let mut acc = t.seed | 1;
                for _ in 0..rounds {
                    for st in states.iter_mut() {
                        acc = acc
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(t.seed | 1);
                        st[(acc % 16) as usize] ^= acc;
                    }
                }
                states.iter().flatten().fold(0u64, |a, &b| a ^ b)
            });
        std::hint::black_box(out.iter().fold(0u64, |a, &b| a ^ b));
        trials
    });

    // --- code_cache: the owners-phase code table an experiment's config
    // describes, requested once per trial (as the rewind/hierarchical
    // simulators do per simulate() call).
    let builds = (suite.args.rounds / 2_000).max(2);
    let two = NoiseModel::Correlated { epsilon: 0.1 };
    suite.bench("code_cache", || {
        // One cache per experiment run: the first request builds the
        // table, every later trial gets the shared Arc back.
        let cache = std::sync::Arc::new(CodeCache::new());
        let config = SimulatorConfig::builder(16)
            .model(two)
            .code_cache(std::sync::Arc::clone(&cache))
            .build();
        let mut sink = 0usize;
        for _ in 0..builds {
            sink += config.build_code().codeword_len();
        }
        std::hint::black_box(sink);
        builds
    });

    // --- decode_packed: one owners-phase symbol roundtrip (encode the
    // turn-holder's codeword, ML-decode the received word), the inner
    // loop of every owners iteration.
    let decodes = (suite.args.rounds / 20).max(8);
    let code = RandomCode::with_length(33, 96, 0xC0DE);
    suite.bench("decode_packed", || {
        let mut sink = 0usize;
        for i in 0..decodes {
            let sym = i % 33;
            let word = code.encode_packed(sym);
            sink += code.decode_packed(&word, BitMetric::Hamming);
        }
        std::hint::black_box(sink);
        decodes
    });
}

/// Pulls `"<name>":{"ns_per_op":<float>` values back out of a JSON file
/// previously written by this harness. A full JSON parser would be
/// overkill for a format we emit ourselves.
fn read_baseline(path: &PathBuf) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    // A file produced with --baseline embeds its *own* "baseline"
    // section; only the leading "results" section describes that run.
    let results_only = match text.find("\"baseline\":") {
        Some(pos) => &text[..pos],
        None => text.as_str(),
    };
    let mut out = Vec::new();
    let marker = "\"ns_per_op\":";
    let mut search = results_only;
    while let Some(pos) = search.find(marker) {
        let head = &search[..pos];
        // The benchmark name is the nearest preceding quoted key that
        // owns this object: ..."name":{"ns_per_op":...
        if let Some(open) = head.rfind(":{") {
            let key_end = open;
            if let Some(q2) = head[..key_end].rfind('"') {
                if let Some(q1) = head[..q2].rfind('"') {
                    let name = &head[q1 + 1..q2];
                    let tail = &search[pos + marker.len()..];
                    let end = tail
                        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                        .unwrap_or(tail.len());
                    if let Ok(v) = tail[..end].parse::<f64>() {
                        out.push((name.to_owned(), v));
                    }
                }
            }
        }
        search = &search[pos + marker.len()..];
    }
    out
}

pub fn main() {
    let args = Args::parse();
    let baseline = args.baseline.as_ref().map(read_baseline);
    let mut obs_args: Vec<String> = Vec::new();
    if args.progress {
        obs_args.push("--progress".into());
    }
    if let Some(p) = &args.profile {
        obs_args.push(format!("--profile={}", p.display()));
    }
    let observation = Observation::from_args("bench_hotpaths", 0xBEE5, &obs_args);
    // Instrumented code outside the TrialRunner (direct Executor /
    // scheme benches) reports through the ambient install.
    let ambient = observation.install_ambient();
    let mut suite = Suite {
        args,
        results: Vec::new(),
        observer: observation.observer(),
    };

    channel_benches(&mut suite);
    executor_benches(&mut suite);
    scheme_benches(&mut suite);
    soa_benches(&mut suite);
    crosstrial_benches(&mut suite);

    drop(ambient);
    observation.finish(None);

    let mut results = Json::object();
    for (name, ns, ops) in &suite.results {
        let mut entry = Json::object();
        entry.set("ns_per_op", *ns).set("ops_per_iter", *ops);
        results.set(name, entry);
    }

    let mut root = Json::object();
    root.set("schema", "bench_hotpaths/v1");
    let mut cfg = Json::object();
    // Host provenance: pinned numbers are only comparable on similar
    // hardware, so record where they came from. bench_compare.sh warns
    // (rather than failing) when the baseline's host fields differ.
    let host_cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let beeps_threads = std::env::var("BEEPS_THREADS").unwrap_or_default();
    cfg.set("iters", suite.args.iters)
        .set("rounds", suite.args.rounds)
        .set("scheme_trials", suite.args.scheme_trials)
        .set("parties", PARTIES)
        .set("epsilon", EPS)
        .set("smoke", suite.args.smoke)
        .set("host_cores", host_cores)
        .set("beeps_threads", beeps_threads.as_str());
    root.set("config", cfg);
    root.set("results", results);

    let ns_of = |name: &str| {
        suite
            .results
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, ns, _)| ns)
    };

    // Fast-vs-slow ratios from this run (independent of --baseline):
    // the collapsed engines and the sparse channel against their twins,
    // keyed by the slow twin's name; bench_compare.sh gates these at
    // >= 3x in full mode.
    let mut soa = Json::object();
    println!();
    for (slow, fast) in SOA_PAIRS {
        if let (Some(s), Some(f)) = (ns_of(slow), ns_of(fast)) {
            if f > 0.0 {
                soa.set(slow, s / f);
                println!("{slow:<40} soa   {:>8.2}x", s / f);
            }
        }
    }
    root.set("soa", soa);

    if let Some(base) = baseline {
        let mut before = Json::object();
        let mut speedup = Json::object();
        for (name, ns) in &base {
            let mut entry = Json::object();
            entry.set("ns_per_op", *ns);
            before.set(name, entry);
            if let Some((_, now, _)) = suite.results.iter().find(|(n, _, _)| n == name) {
                if *now > 0.0 {
                    speedup.set(name, ns / now);
                }
            }
        }
        root.set("baseline", before);
        root.set("speedup", speedup);
        println!();
        for (name, ns) in &base {
            if let Some((_, now, _)) = suite.results.iter().find(|(n, _, _)| n == name) {
                println!("{name:<40} speedup {:>8.2}x", ns / now);
            }
        }
    }

    std::fs::write(&suite.args.out, root.render() + "\n").expect("write benchmark output");
    println!("\nwrote {}", suite.args.out.display());
}
