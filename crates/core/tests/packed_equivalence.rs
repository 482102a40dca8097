//! Property tests for the word-packed delivery path: every scheme must
//! behave **bit-identically** whether per-party deliveries travel as the
//! packed [`BitVec`] row the channel produces or are unpacked into a
//! plain `Vec<bool>` and re-packed.
//!
//! This pins the row's bit view (`iter` / `from_bools`) against its
//! words: if packing or tail masking ever disagreed with the boolean
//! semantics, the re-packed row would differ from the channel's, or some
//! scheme's transcript would diverge here.

use beeps_channel::{
    run_noiseless, run_protocol, run_protocol_over, BitVec, Channel, Delivery, NoiseModel,
    Protocol, StochasticChannel,
};
use beeps_core::{
    HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator, RepetitionSimulator,
    RewindSimulator, SimError, SimOutcome, Simulator, SimulatorConfig, SoaScratch,
};
use beeps_protocols::{Broadcast, InputSet, MultiOr, RollCall};
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

/// Delegates to a [`StochasticChannel`] but re-materialises every
/// per-party delivery through `Vec<bool>`, so downstream code consumes a
/// freshly re-packed `BitVec` instead of the channel's original words.
struct RoundtripChannel {
    inner: StochasticChannel,
}

impl RoundtripChannel {
    fn new(n: usize, model: NoiseModel, seed: u64) -> Self {
        Self {
            inner: StochasticChannel::new(n, model, seed),
        }
    }
}

impl Channel for RoundtripChannel {
    fn num_parties(&self) -> usize {
        self.inner.num_parties()
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        match self.inner.transmit(true_or) {
            Delivery::Shared(bit) => Delivery::Shared(bit),
            Delivery::PerParty(bits) => {
                let bools: Vec<bool> = bits.iter().collect();
                let repacked = BitVec::from_bools(&bools);
                assert_eq!(repacked, bits, "packed bits disagree with bool view");
                Delivery::PerParty(repacked)
            }
        }
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn corrupted_rounds(&self) -> usize {
        self.inner.corrupted_rounds()
    }
}

/// Forwards only the four required `Channel` methods, so every word the
/// per-party driver sends takes the provided per-round
/// `Channel::transmit_word`.
struct PerRound<C>(C);

impl<C: Channel> Channel for PerRound<C> {
    fn num_parties(&self) -> usize {
        self.0.num_parties()
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        self.0.transmit(true_or)
    }

    fn rounds(&self) -> usize {
        self.0.rounds()
    }

    fn corrupted_rounds(&self) -> usize {
        self.0.corrupted_rounds()
    }
}

/// The noise regimes to sweep: every shared regime plus the only regime
/// that produces genuinely per-party (divergent) deliveries.
fn models() -> Vec<NoiseModel> {
    vec![
        NoiseModel::Noiseless,
        NoiseModel::Correlated { epsilon: 0.1 },
        NoiseModel::OneSidedZeroToOne { epsilon: 0.2 },
        NoiseModel::OneSidedOneToZero { epsilon: 0.2 },
        NoiseModel::Independent { epsilon: 0.05 },
    ]
}

/// The inputs the oracle tests sweep for a Theorem 1.2 scheme at `n`
/// parties: the default budget over every regime, then a budget-starved
/// config (ε = 0.2 against `budget_factor(starved)`) over more seeds,
/// so `BudgetExhausted { rounds_used, committed }` is exercised too,
/// then an unbounded budget (`budget_factor` ∞), whose runs must end in
/// `Ok`, and last zero-round blocks (`repetitions = 0`, then
/// `verify_repetitions = 0`) over every regime: a chunk round or a
/// rewind or hierarchical vote of zero rounds never ends, so the run
/// exhausts its budget, and a zero-round owned-rounds vote ends after
/// one round.
fn oracle_cases(n: usize, starved: f64) -> Vec<(SimulatorConfig, NoiseModel, Range<u64>)> {
    let default = NoiseModel::Correlated { epsilon: 0.1 };
    let config = SimulatorConfig::builder(n).model(default).build();
    let mut cases: Vec<_> = models()
        .into_iter()
        .map(|model| (config.clone(), model, 0..2))
        .collect();
    let mut no_repetitions = config.clone();
    no_repetitions.repetitions = 0;
    let mut no_vote = config;
    no_vote.verify_repetitions = 0;
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let starved = SimulatorConfig::builder(n)
        .model(model)
        .budget_factor(starved)
        .build();
    cases.push((starved, model, 0..32));
    let unbounded = SimulatorConfig::builder(n)
        .model(default)
        .budget_factor(f64::INFINITY)
        .build();
    cases.push((unbounded, default, 0..2));
    for zero in [no_repetitions, no_vote] {
        cases.extend(
            models()
                .into_iter()
                .map(|model| (zero.clone(), model, 0..2)),
        );
    }
    cases
}

/// Asserts that a `simulate` run (the collapsed body under shared
/// noise) and a per-party `simulate_over` run of the same trial agree
/// bit for bit: transcript, outputs and stats on success, the full
/// `SimError` on failure. Returns whether the runs failed.
fn assert_matches_oracle<O: PartialEq + Debug>(
    packed: Result<SimOutcome<O>, SimError>,
    unpacked: Result<SimOutcome<O>, SimError>,
    context: &str,
) -> bool {
    match (&packed, &unpacked) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.transcript(), b.transcript(), "transcript: {context}");
            assert_eq!(a.outputs(), b.outputs(), "outputs: {context}");
            assert_eq!(a.stats(), b.stats(), "stats: {context}");
        }
        (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "error: {context}"),
    }
    packed.is_err()
}

/// Runs one per-party `simulate_over` trial over a word-delivering
/// `StochasticChannel` and over [`PerRound`] of the same channel,
/// asserts the two outcomes equal, full `SimError` included, and folds
/// the outcome into `digest` (FNV-1a over its `Debug` text). Returns
/// whether the runs failed.
fn assert_words_match_rounds<O: PartialEq + Debug>(
    digest: &mut u64,
    n: usize,
    model: NoiseModel,
    seed: u64,
    context: &str,
    run: impl Fn(&mut dyn Channel) -> Result<SimOutcome<O>, SimError>,
) -> bool {
    let words = run(&mut StochasticChannel::new(n, model, seed));
    let rounds = run(&mut PerRound(StochasticChannel::new(n, model, seed)));
    for byte in format!("{words:?}").bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
    assert_matches_oracle(words, rounds, &format!("n={n} {context}"))
}

/// [`oracle_cases`] with two-chunk schedules (`chunk_len` 3 of a
/// 6-round protocol) plus configs whose per-party repetition blocks
/// (`repetitions = 0`) or votes (`verify_repetitions = 0`) can never
/// end, so the machines idle in one phase until the budget runs out.
/// Codewords cross a limb boundary (65 bits) at n ≤ 5 and stay short
/// (16 bits) at n ≥ 64, where every party decodes every codeword.
/// The oracle's unbounded-budget and zero-round cases stay out: the
/// callers' digests pin the outcomes the per-round engines gave the
/// cases without them.
fn word_cases(n: usize, starved: f64) -> Vec<(SimulatorConfig, NoiseModel)> {
    let mut cases: Vec<_> = oracle_cases(n, starved)
        .into_iter()
        .filter(|(config, ..)| {
            config.budget_factor.is_finite()
                && config.repetitions > 0
                && config.verify_repetitions > 0
        })
        .map(|(config, model, _)| (config, model))
        .collect();
    // Silence lets a vote pass: a block that wrongly ended would commit.
    for model in [
        NoiseModel::Noiseless,
        NoiseModel::Correlated { epsilon: 0.1 },
        NoiseModel::Independent { epsilon: 0.1 },
    ] {
        let config = SimulatorConfig::builder(n)
            .model(model)
            .budget_factor(1.0)
            .build();
        let mut no_repetitions = config.clone();
        no_repetitions.repetitions = 0;
        let mut no_vote = config;
        no_vote.verify_repetitions = 0;
        cases.push((no_repetitions, model));
        cases.push((no_vote, model));
    }
    for (config, _) in &mut cases {
        config.chunk_len = 3;
        config.code_len = if n <= 5 { 65 } else { 16 };
    }
    cases
}

/// The per-party engines step a channel word at a time. Over
/// [`PerRound`], which delivers those words one `transmit` at a time,
/// every engine must reach the identical `Result` at `n` parties in
/// every regime it accepts, at 8 seeds per case, through budget-starved
/// and zero-length-block configs. Returns the digest of every outcome.
///
/// Both runs step the parties alike, so a run that ended anywhere but
/// where the per-round machine changes state would pass that
/// comparison; the callers pin the digest to the outcomes the engines
/// produced when they were stepped one round at a time (`beep`/`hear`
/// per round), which it would not.
fn assert_engines_step_words_like_single_rounds(n: usize) -> u64 {
    let seeds = 0..8u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut failed = 0usize;
    let multi_or = MultiOr::new(n, 6);
    let inputs: Vec<Vec<bool>> = (0..n)
        .map(|i| (0..6).map(|m| (3 * i + m) % 4 == 0).collect())
        .collect();
    let broadcast = Broadcast::new(n, n / 2, 6);
    let mut messages = vec![0usize; n];
    messages[n / 2] = 0b10_1101;
    for (config, model) in word_cases(n, 1.0) {
        let rewind = RewindSimulator::new(&multi_or, config.clone());
        let owned = OwnedRoundsSimulator::new(&broadcast, config.clone());
        let repetition = RepetitionSimulator::new(&multi_or, config.clone());
        for seed in seeds.clone() {
            let context = format!("{model} seed {seed}");
            failed += usize::from(assert_words_match_rounds(
                &mut digest,
                n,
                model,
                seed,
                &context,
                |ch| rewind.simulate_over(&inputs, model, ch),
            ));
            failed += usize::from(assert_words_match_rounds(
                &mut digest,
                n,
                model,
                seed,
                &context,
                |ch| owned.simulate_over(&messages, model, ch),
            ));
            if config.repetitions > 0 {
                // A zero-round repetition schedule has no budget at all.
                assert_words_match_rounds(&mut digest, n, model, seed, &context, |ch| {
                    repetition.simulate_over(&inputs, model, ch)
                });
            }
        }
    }
    // The hierarchical budget carries fixed check slack on top of
    // `budget_factor`, so starving it takes a factor well below 1.
    for (config, model) in word_cases(n, 0.3) {
        let hierarchical = HierarchicalSimulator::new(&multi_or, config);
        for seed in seeds.clone() {
            let context = format!("hierarchical {model} seed {seed}");
            failed += usize::from(assert_words_match_rounds(
                &mut digest,
                n,
                model,
                seed,
                &context,
                |ch| hierarchical.simulate_over(&inputs, model, ch),
            ));
        }
    }
    // One-to-zero accepts 1->0 noise and silence; the minimum legal
    // budget under heavy erasure starves it.
    for (base, budget_factor, model) in [
        (2, 32.0, NoiseModel::Noiseless),
        (
            2,
            32.0,
            NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 },
        ),
        (1, 2.0, NoiseModel::OneSidedOneToZero { epsilon: 0.45 }),
    ] {
        let one_to_zero = OneToZeroSimulator::new(&multi_or, base, budget_factor);
        for seed in seeds.clone() {
            let context = format!("one-to-zero {model} seed {seed}");
            failed += usize::from(assert_words_match_rounds(
                &mut digest,
                n,
                model,
                seed,
                &context,
                |ch| one_to_zero.simulate_over(&inputs, model, ch),
            ));
        }
    }
    assert!(failed > 0, "n={n}: no run exhausted its budget: weak test");
    digest
}

#[test]
fn per_party_engines_step_words_like_single_rounds() {
    for (n, pinned) in [(1, 0xfab6_efad_e292_25c2), (5, 0xd2de_339e_350a_b8ac)] {
        let digest = assert_engines_step_words_like_single_rounds(n);
        assert_eq!(
            digest, pinned,
            "n={n}: outcomes moved off the per-round engines'"
        );
    }
}

// The word-sized party counts get a test each, so the parallel harness
// can run them side by side.
#[test]
fn per_party_engines_step_words_like_single_rounds_at_64_parties() {
    let digest = assert_engines_step_words_like_single_rounds(64);
    assert_eq!(
        digest, 0x2182_7f5d_f765_bba5,
        "outcomes moved off the per-round engines'"
    );
}

#[test]
fn per_party_engines_step_words_like_single_rounds_at_65_parties() {
    let digest = assert_engines_step_words_like_single_rounds(65);
    assert_eq!(
        digest, 0x81bb_b8ad_aea7_d6f6,
        "outcomes moved off the per-round engines'"
    );
}

#[test]
fn naked_execution_matches_roundtrip() {
    let p = InputSet::new(6);
    let inputs = [3, 0, 8, 8, 11, 5];
    for model in models() {
        for seed in 0..4 {
            let packed = run_protocol(&p, &inputs, model, seed);
            let mut rt = RoundtripChannel::new(6, model, seed);
            let unpacked = run_protocol_over(&p, &inputs, &mut rt);
            for i in 0..6 {
                assert_eq!(
                    packed.views().view(i),
                    unpacked.views().view(i),
                    "party {i} view diverged over {model} seed {seed}"
                );
            }
            assert_eq!(packed.outputs(), unpacked.outputs());
            assert_eq!(packed.energy(), unpacked.energy());
            assert_eq!(packed.corrupted_rounds(), unpacked.corrupted_rounds());
        }
    }
}

#[test]
fn repetition_scheme_matches_roundtrip() {
    let p = InputSet::new(5);
    let inputs = [2, 9, 0, 0, 4];
    let config = SimulatorConfig::builder(5)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    // A zero-round block never ends, so at `repetitions = 0` the budget
    // T·0 fits no round: every engine exhausts it before round 0.
    let mut no_repetitions = config.clone();
    no_repetitions.repetitions = 0;
    for config in [config, no_repetitions] {
        let r = config.repetitions;
        let want_err = (r == 0).then_some(SimError::BudgetExhausted {
            rounds_used: 0,
            committed: 0,
        });
        let sim = RepetitionSimulator::new(&p, config);
        for model in models() {
            for seed in 0..3 {
                let context = format!("{model} seed {seed} repetitions {r}");
                let packed = sim.simulate(&inputs, model, seed);
                assert_eq!(packed.as_ref().err(), want_err.as_ref(), "{context}");
                let mut rt = RoundtripChannel::new(5, model, seed);
                let unpacked = sim.simulate_over(&inputs, model, &mut rt);
                assert_matches_oracle(packed, unpacked, &context);
            }
        }
    }
}

/// Runs `simulate` and, on the `scratch` earlier runs left behind,
/// `simulate_with_scratch`, and asserts that both return the same full
/// `Result`: a reused scratch must act as a fresh one, whatever scheme,
/// config or budget-exhausted run used it last. Returns `simulate`'s.
fn simulate_twice<I, O: PartialEq + Debug>(
    sim: &dyn Simulator<I, O>,
    inputs: &[I],
    model: NoiseModel,
    seed: u64,
    scratch: &mut SoaScratch,
) -> Result<SimOutcome<O>, SimError> {
    let fresh = sim.simulate(inputs, model, seed);
    let reused = sim.simulate_with_scratch(inputs, model, seed, scratch);
    assert_eq!(
        reused,
        fresh,
        "reused scratch: {} {model} seed {seed}",
        sim.name()
    );
    fresh
}

/// Holds `simulate` (the collapsed body under shared noise) to the
/// per-party `simulate_over` over a [`RoundtripChannel`] in every
/// [`oracle_cases`] case at `n` parties, for each input vector, with
/// `scheme` building the simulator of a case's config, and every
/// `simulate` run to `simulate_with_scratch` on one scratch kept for
/// the whole sweep. Returns how many runs exhausted their budget,
/// leaving out the zero-round cases, most of which exhaust it by
/// construction and so would keep the callers' starved-budget guards
/// from ever failing.
fn sweep_oracle_cases<I: Debug, O: PartialEq + Debug, S: Simulator<I, O>>(
    n: usize,
    starved: f64,
    input_sets: &[&[I]],
    scheme: impl Fn(SimulatorConfig) -> S,
) -> usize {
    let mut failed = 0usize;
    let mut scratch = SoaScratch::default();
    for (config, model, seeds) in oracle_cases(n, starved) {
        let bounded = config.budget_factor.is_finite();
        let zero_round = config.repetitions == 0 || config.verify_repetitions == 0;
        let sim = scheme(config);
        for inputs in input_sets {
            for seed in seeds.clone() {
                let packed = simulate_twice(&sim, inputs, model, seed, &mut scratch);
                let mut rt = RoundtripChannel::new(n, model, seed);
                let unpacked = sim.simulate_over(inputs, model, &mut rt);
                let context = format!("{model} seed {seed} inputs {inputs:?}");
                let err = assert_matches_oracle(packed, unpacked, &context);
                assert!(bounded || !err, "unbounded budget ran out: {context}");
                failed += usize::from(err && !zero_round);
            }
        }
    }
    failed
}

/// `InputSet::new(4)` inputs that are silent through the first
/// four-round chunk, so decoding that chunk as all zeros is right and
/// it commits: a collapsed run that left a zero-round block would show.
const SILENT_FIRST_CHUNK: [usize; 4] = [5, 6, 6, 7];

#[test]
fn rewind_scheme_matches_roundtrip() {
    let p = InputSet::new(4);
    let failed = sweep_oracle_cases(4, 1.0, &[&[1, 5, 5, 2], &SILENT_FIRST_CHUNK], |config| {
        RewindSimulator::new(&p, config)
    });
    assert!(failed > 0, "starved budget never exhausted: weak test");
}

#[test]
fn hierarchical_scheme_matches_roundtrip() {
    let p = InputSet::new(4);
    // The hierarchical budget carries fixed check slack on top of
    // `budget_factor`, so starving it takes a factor well below 1.
    let failed = sweep_oracle_cases(4, 0.3, &[&[1, 6, 6, 3], &SILENT_FIRST_CHUNK], |config| {
        HierarchicalSimulator::new(&p, config)
    });
    assert!(failed > 0, "starved budget never exhausted: weak test");

    // A wider starved case: n = 8 at half the default budget, where
    // some runs exhaust it mid-search.
    let p = InputSet::new(8);
    let inputs = [1, 5, 5, 2, 9, 0, 12, 3];
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let config = SimulatorConfig::builder(8)
        .model(model)
        .budget_factor(0.5)
        .build();
    let sim = HierarchicalSimulator::new(&p, config);
    let mut exhausted = 0usize;
    for seed in 0..32 {
        let packed = sim.simulate(&inputs, model, seed);
        let mut rt = RoundtripChannel::new(8, model, seed);
        let unpacked = sim.simulate_over(&inputs, model, &mut rt);
        let context = format!("n=8 {model} seed {seed}");
        exhausted += usize::from(assert_matches_oracle(packed, unpacked, &context));
    }
    assert!(
        exhausted > 0,
        "starved n = 8 budget never exhausted: weak test"
    );
}

#[test]
fn owned_rounds_scheme_matches_roundtrip() {
    let p = RollCall::new(8);
    let inputs = [true, false, true, true, false, false, true, false];
    // The second roll call is silent, so its all-zero decode is right.
    let failed = sweep_oracle_cases(8, 1.0, &[&inputs, &[false; 8]], |config| {
        OwnedRoundsSimulator::new(&p, config)
    });
    assert!(failed > 0, "starved budget never exhausted: weak test");
}

/// Degenerate party counts: a single party (every delivery word is all
/// tail) and 65 parties (one bit past a word boundary, so the packed
/// path straddles two words). Every scheme with a collapsed body must
/// stay bitwise identical between `simulate` and the per-party engine
/// over the roundtrip representation at both, in every noise regime
/// (one-to-zero must reject the regimes it does not accept alike).
#[test]
fn degenerate_party_counts_match_roundtrip() {
    for n in [1usize, 65] {
        let p = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|i| (7 * i + 1) % (2 * n)).collect();
        let roll_call = RollCall::new(n);
        let flags: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        let config = SimulatorConfig::builder(n)
            .model(NoiseModel::Correlated { epsilon: 0.1 })
            .build();
        let repetition = RepetitionSimulator::new(&p, config.clone());
        let rewind = RewindSimulator::new(&p, config.clone());
        let hierarchical = HierarchicalSimulator::new(&p, config.clone());
        let one_to_zero = OneToZeroSimulator::new(&p, 2, 32.0);
        let owned = OwnedRoundsSimulator::new(&roll_call, config);
        let schemes: [&dyn Simulator<usize, <InputSet as Protocol>::Output>; 4] =
            [&repetition, &rewind, &hierarchical, &one_to_zero];
        for model in models() {
            for seed in 0..2 {
                let rt = || RoundtripChannel::new(n, model, seed);
                for sim in schemes {
                    assert_matches_oracle(
                        sim.simulate(&inputs, model, seed),
                        sim.simulate_over(&inputs, model, &mut rt()),
                        &format!("{} n={n} {model} seed {seed}", sim.name()),
                    );
                }
                assert_matches_oracle(
                    owned.simulate(&flags, model, seed),
                    owned.simulate_over(&flags, model, &mut rt()),
                    &format!("owned_rounds n={n} {model} seed {seed}"),
                );
            }
        }
    }
}

/// Under shared noise every party holds one transcript, and every engine
/// that builds outputs on it goes through `Protocol::outputs`: the
/// noiseless and naked runners and all four collapsed bodies that run
/// `InputSet`. `InputSet` builds its set once there, so every party must
/// hold the same allocation. The oracle tests compare outputs by value
/// and would pass if an engine built one set per party again; this one
/// would not.
#[test]
fn shared_transcript_outputs_share_one_set() {
    fn assert_shared(outputs: &[<InputSet as Protocol>::Output], n: usize, context: &str) {
        assert_eq!(outputs.len(), n, "{context}: one output per party");
        assert!(
            outputs.iter().all(|out| Arc::ptr_eq(out, &outputs[0])),
            "{context}: parties hold separate sets"
        );
    }
    let n = 12;
    let p = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (5 * i + 3) % (2 * n)).collect();
    assert_shared(run_noiseless(&p, &inputs).outputs(), n, "run_noiseless");
    let correlated = NoiseModel::Correlated { epsilon: 0.1 };
    let down = NoiseModel::OneSidedOneToZero { epsilon: 0.2 };
    for seed in 0..2 {
        let naked = run_protocol(&p, &inputs, correlated, seed);
        assert_shared(naked.outputs(), n, &format!("run_protocol seed {seed}"));
    }
    let config = SimulatorConfig::builder(n).model(correlated).build();
    let repetition = RepetitionSimulator::new(&p, config.clone());
    let rewind = RewindSimulator::new(&p, config.clone());
    let hierarchical = HierarchicalSimulator::new(&p, config);
    let one_to_zero = OneToZeroSimulator::new(&p, 2, 32.0);
    let cases: [(
        &dyn Simulator<usize, <InputSet as Protocol>::Output>,
        NoiseModel,
    ); 4] = [
        (&repetition, correlated),
        (&rewind, correlated),
        (&hierarchical, correlated),
        (&one_to_zero, down),
    ];
    for (sim, model) in cases {
        for seed in 0..2 {
            let context = format!("{} {model} seed {seed}", sim.name());
            let outcome = sim
                .simulate(&inputs, model, seed)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_shared(outcome.outputs(), n, &context);
        }
    }
}

/// Runs `sim` over 64 seeds, holding each collapsed `simulate` run to
/// the per-party oracle's full `Result` and to `simulate_with_scratch`
/// on the reused `scratch`, and returns the failed runs.
fn starved_runs<I, O: PartialEq + Debug>(
    sim: &dyn Simulator<I, O>,
    inputs: &[I],
    model: NoiseModel,
    scratch: &mut SoaScratch,
) -> usize {
    let mut failed = 0usize;
    for seed in 0..64 {
        let oracle = sim.simulate_over(
            inputs,
            model,
            &mut StochasticChannel::new(inputs.len(), model, seed),
        );
        let context = format!("{} {model} seed {seed}", sim.name());
        failed += usize::from(assert_matches_oracle(
            simulate_twice(sim, inputs, model, seed, scratch),
            oracle,
            &context,
        ));
    }
    failed
}

/// Deep stacks: two-round chunks give the collapsed rewind, owned-rounds
/// and hierarchical engines their longest verification stacks of any
/// oracle case, and starved budgets (`budget_factor` 1 for rewind and
/// owned rounds, 0.3 for hierarchical, correlated ε = 0.2) make rewinds
/// and truncations cut deep into them. Each must still match the
/// per-party oracle, through runs that exhaust the budget, and one
/// scratch serves all three schemes.
#[test]
fn deep_stacks_match_oracle_when_budget_starved() {
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let config = |n: usize, budget_factor: f64| {
        SimulatorConfig::builder(n)
            .model(model)
            .chunk_len(2)
            .budget_factor(budget_factor)
            .build()
    };
    let input_set = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let roll_call = RollCall::new(8);
    let flags = [true, false, true, true, false, false, true, false];
    let rewind = RewindSimulator::new(&input_set, config(4, 1.0));
    let owned = OwnedRoundsSimulator::new(&roll_call, config(8, 1.0));
    let hierarchical = HierarchicalSimulator::new(&input_set, config(4, 0.3));
    let scratch = &mut SoaScratch::default();
    for (scheme, failed) in [
        ("rewind", starved_runs(&rewind, &inputs, model, scratch)),
        ("owned_rounds", starved_runs(&owned, &flags, model, scratch)),
        (
            "hierarchical",
            starved_runs(&hierarchical, &inputs, model, scratch),
        ),
    ] {
        assert!(failed > 0, "{scheme}: starved budget never exhausted");
    }
}

#[test]
fn one_to_zero_scheme_matches_roundtrip() {
    let p = InputSet::new(5);
    let inputs = [2, 8, 8, 1, 0];
    // The default budget, then the minimum legal one (`budget_factor`
    // 2) under heavy erasure so `BudgetExhausted` is exercised too, then
    // a budget of 3, whose exhausted runs leave witnessed-erasure rows in
    // the reused scratch for later runs to trip over, then an unbounded
    // one, whose runs must end in `Ok`.
    let default = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
    let erasing = NoiseModel::OneSidedOneToZero { epsilon: 0.45 };
    let cases = [
        (32.0, default, 0..4),
        (2.0, erasing, 0..32),
        (3.0, erasing, 0..128),
        (f64::INFINITY, default, 0..2),
    ];
    let mut failed = 0usize;
    let mut scratch = SoaScratch::default();
    for (budget_factor, model, seeds) in cases {
        let sim = OneToZeroSimulator::new(&p, 2, budget_factor);
        for seed in seeds {
            let packed = simulate_twice(&sim, &inputs, model, seed, &mut scratch);
            let mut rt = RoundtripChannel::new(5, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt);
            let context = format!("{model} seed {seed}");
            let err = assert_matches_oracle(packed, unpacked, &context);
            assert!(
                budget_factor.is_finite() || !err,
                "unbounded budget ran out: {context}"
            );
            failed += usize::from(err);
        }
    }
    assert!(failed > 0, "starved budget never exhausted: weak test");
}

/// Delivers each round of a shared-noise [`StochasticChannel`] as a
/// [`Delivery::PerParty`] row in which every party hears the shared
/// bit, so a per-party engine takes its independent-noise paths (one
/// heard word per party, each party's own certified owners decode) on
/// views that happen to agree. It forwards `transmit_word`, whose shared
/// arm hands every party the same word; wrapped in [`PerRound`], words
/// take the provided per-round default and read the rows.
struct UniformRows(StochasticChannel);

impl Channel for UniformRows {
    fn num_parties(&self) -> usize {
        self.0.num_parties()
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        let bit = self.0.transmit(true_or).shared().expect("a shared model");
        Delivery::PerParty(BitVec::from_flips(&[], bit, self.num_parties()))
    }

    fn transmit_word(&mut self, sent: u64, len: usize, heard: &mut [u64]) {
        self.0.transmit_word(sent, len, heard);
    }

    fn rounds(&self) -> usize {
        self.0.rounds()
    }

    fn corrupted_rounds(&self) -> usize {
        self.0.corrupted_rounds()
    }
}

/// The per-party engines under independent noise, held to the collapsed
/// bodies: over [`UniformRows`] of a correlated channel, `simulate_over`
/// with `Independent { ε }` must return exactly what `simulate` returns
/// under `Correlated { ε }` at the same seed, full `Result` included.
/// Every party hears the correlated channel's bit, and the two models
/// resolve to the same thresholds and decoding metric, so any
/// difference is an engine's. Rewind, hierarchical, repetition and owned
/// rounds, at the default budget and at a starved one (`budget_factor`
/// 0.6), with words delivered whole and round by round.
#[test]
fn independent_engines_match_collapsed_bodies_on_uniform_rows() {
    let mut exhausted = 0usize;
    for n in [1usize, 4, 5, 64, 65] {
        let input_set = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|i| (7 * i + 1) % (2 * n)).collect();
        let roll_call = RollCall::new(n);
        let flags: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        let cases = [
            (0.05, 8.0, 0..1),
            (0.1, 8.0, 1..2),
            (0.2, 8.0, 2..3),
            (0.2, 0.6, 0..2),
        ];
        for (epsilon, budget_factor, seeds) in cases {
            let correlated = NoiseModel::Correlated { epsilon };
            let independent = NoiseModel::Independent { epsilon };
            let config = SimulatorConfig::builder(n)
                .model(correlated)
                .budget_factor(budget_factor)
                .build();
            let repetition = RepetitionSimulator::new(&input_set, config.clone());
            let rewind = RewindSimulator::new(&input_set, config.clone());
            let hierarchical = HierarchicalSimulator::new(&input_set, config.clone());
            let owned = OwnedRoundsSimulator::new(&roll_call, config);
            let schemes: [&dyn Simulator<usize, <InputSet as Protocol>::Output>; 3] =
                [&repetition, &rewind, &hierarchical];
            for seed in seeds {
                let rows = || UniformRows(StochasticChannel::new(n, correlated, seed));
                let context = |name: &str, words: &str| {
                    format!("{name} n={n} {independent} budget {budget_factor} seed {seed} {words}")
                };
                for sim in schemes {
                    let want = || sim.simulate(&inputs, correlated, seed);
                    let got = sim.simulate_over(&inputs, independent, &mut rows());
                    let err = assert_matches_oracle(got, want(), &context(sim.name(), "words"));
                    let got = sim.simulate_over(&inputs, independent, &mut PerRound(rows()));
                    assert_matches_oracle(got, want(), &context(sim.name(), "rounds"));
                    exhausted += usize::from(err);
                }
                let want = || owned.simulate(&flags, correlated, seed);
                let got = owned.simulate_over(&flags, independent, &mut rows());
                let err = assert_matches_oracle(got, want(), &context("owned_rounds", "words"));
                let got = owned.simulate_over(&flags, independent, &mut PerRound(rows()));
                assert_matches_oracle(got, want(), &context("owned_rounds", "rounds"));
                exhausted += usize::from(err);
            }
        }
    }
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}
