//! Property tests for the word-packed delivery path: every scheme must
//! behave **bit-identically** whether per-party deliveries travel as the
//! packed [`BitVec`] the channel produces or are round-tripped through a
//! plain `Vec<bool>` and re-packed.
//!
//! This pins the `BitVec` adapter layer (`to_bools` / `from_bools` /
//! `uniform`) against the reference representation: if packing, tail
//! masking, or the uniform-delivery fast path ever disagreed with the
//! boolean semantics, some scheme's transcript would diverge here.

use beeps_channel::{
    run_protocol, run_protocol_over, BitVec, Channel, Delivery, NoiseModel, StochasticChannel,
};
use beeps_core::{
    HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator, RepetitionSimulator,
    RewindSimulator, SimError, SimOutcome, SimulatorConfig,
};
use beeps_protocols::{Broadcast, InputSet, MultiOr, RollCall};
use std::fmt::Debug;
use std::ops::Range;

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
                let bools = bits.to_bools();
                assert_eq!(bits, bools, "packed bits disagree with bool view");
                Delivery::PerParty(BitVec::from_bools(&bools))
            }
            Delivery::Sparse(sparse) => {
                // Expand the flip list through the boolean reference
                // representation, so consumers of this channel exercise
                // the dense path on bits the sparse path produced.
                let bools: Vec<bool> = (0..sparse.len()).map(|i| sparse.heard_by(i)).collect();
                let dense = BitVec::from_bools(&bools);
                assert_eq!(sparse, dense, "sparse delivery disagrees with dense view");
                Delivery::PerParty(dense)
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
/// so `BudgetExhausted { rounds_used, committed }` is exercised too.
fn oracle_cases(n: usize, starved: f64) -> Vec<(SimulatorConfig, NoiseModel, Range<u64>)> {
    let config = SimulatorConfig::builder(n)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let mut cases: Vec<_> = models()
        .into_iter()
        .map(|model| (config.clone(), model, 0..2))
        .collect();
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let starved = SimulatorConfig::builder(n)
        .model(model)
        .budget_factor(starved)
        .build();
    cases.push((starved, model, 0..32));
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
fn word_cases(n: usize, starved: f64) -> Vec<(SimulatorConfig, NoiseModel)> {
    let mut cases: Vec<_> = oracle_cases(n, starved)
        .into_iter()
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
    let sim = RepetitionSimulator::new(&p, config);
    for model in models() {
        for seed in 0..3 {
            let packed = sim.simulate(&inputs, model, seed).unwrap();
            let mut rt = RoundtripChannel::new(5, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt).unwrap();
            assert_eq!(packed.transcript(), unpacked.transcript());
            assert_eq!(packed.outputs(), unpacked.outputs());
            assert_eq!(packed.stats(), unpacked.stats());
        }
    }
}

#[test]
fn rewind_scheme_matches_roundtrip() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let mut failed = 0usize;
    for (config, model, seeds) in oracle_cases(4, 1.0) {
        let sim = RewindSimulator::new(&p, config);
        for seed in seeds {
            let packed = sim.simulate(&inputs, model, seed);
            let mut rt = RoundtripChannel::new(4, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt);
            let context = format!("{model} seed {seed}");
            failed += usize::from(assert_matches_oracle(packed, unpacked, &context));
        }
    }
    assert!(failed > 0, "starved budget never exhausted: weak test");
}

#[test]
fn hierarchical_scheme_matches_roundtrip() {
    let p = InputSet::new(4);
    let inputs = [1, 6, 6, 3];
    let mut failed = 0usize;
    // The hierarchical budget carries fixed check slack on top of
    // `budget_factor`, so starving it takes a factor well below 1.
    for (config, model, seeds) in oracle_cases(4, 0.3) {
        let sim = HierarchicalSimulator::new(&p, config);
        for seed in seeds {
            let packed = sim.simulate(&inputs, model, seed);
            let mut rt = RoundtripChannel::new(4, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt);
            let context = format!("{model} seed {seed}");
            failed += usize::from(assert_matches_oracle(packed, unpacked, &context));
        }
    }
    assert!(failed > 0, "starved budget never exhausted: weak test");
}

#[test]
fn owned_rounds_scheme_matches_roundtrip() {
    let p = RollCall::new(8);
    let inputs = [true, false, true, true, false, false, true, false];
    let mut failed = 0usize;
    for (config, model, seeds) in oracle_cases(8, 1.0) {
        let sim = OwnedRoundsSimulator::new(&p, config);
        for seed in seeds {
            let packed = sim.simulate(&inputs, model, seed);
            let mut rt = RoundtripChannel::new(8, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt);
            let context = format!("{model} seed {seed}");
            failed += usize::from(assert_matches_oracle(packed, unpacked, &context));
        }
    }
    assert!(failed > 0, "starved budget never exhausted: weak test");
}

/// Transposition proof for the lane-sliced repetition engine: a 64-lane
/// batch must be bitwise equal, trial by trial, to the scalar path.
#[test]
fn repetition_batch_matches_per_trial() {
    let p = InputSet::new(5);
    let inputs = [2, 9, 0, 0, 4];
    let config = SimulatorConfig::builder(5)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = RepetitionSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..9).map(|i| i * 1_000_003 + 17).collect();
    for model in models() {
        let batch = sim.simulate_batch(&inputs, model, &seeds);
        assert_eq!(batch.len(), seeds.len());
        for (&seed, sliced) in seeds.iter().zip(batch) {
            let scalar = sim.simulate(&inputs, model, seed).unwrap();
            let sliced = sliced.unwrap();
            assert_eq!(
                scalar.transcript(),
                sliced.transcript(),
                "transcript diverged over {model} seed {seed}"
            );
            assert_eq!(scalar.outputs(), sliced.outputs());
            assert_eq!(scalar.stats(), sliced.stats());
        }
    }
}

/// Transposition proof for the lane-sliced rewind engine, including the
/// `BudgetExhausted` error path (transcripts, stats, and errors must all
/// be bitwise equal to the scalar path, trial by trial).
#[test]
fn rewind_batch_matches_per_trial() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let config = SimulatorConfig::builder(4)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = RewindSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..9).map(|i| i * 6_700_417 + 3).collect();
    for model in models() {
        let batch = sim.simulate_batch(&inputs, model, &seeds);
        assert_eq!(batch.len(), seeds.len());
        for (&seed, sliced) in seeds.iter().zip(batch) {
            let scalar = sim.simulate(&inputs, model, seed);
            match (scalar, sliced) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.transcript(),
                        b.transcript(),
                        "transcript diverged over {model} seed {seed}"
                    );
                    assert_eq!(a.outputs(), b.outputs());
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(a.err(), b.err(), "error mismatch over {model} seed {seed}"),
            }
        }
    }
}

/// A rewind batch under a starved budget must reproduce the scalar
/// path's `BudgetExhausted` errors exactly (rounds and committed count).
#[test]
fn rewind_batch_matches_per_trial_when_budget_starved() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let config = SimulatorConfig::builder(4)
        .model(NoiseModel::Correlated { epsilon: 0.2 })
        .budget_factor(1.0)
        .build();
    let sim = RewindSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..16).collect();
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let batch = sim.simulate_batch(&inputs, model, &seeds);
    let mut exhausted = 0;
    for (&seed, sliced) in seeds.iter().zip(batch) {
        let scalar = sim.simulate(&inputs, model, seed);
        match (scalar, sliced) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.transcript(), b.transcript(), "seed {seed}");
                assert_eq!(a.stats(), b.stats());
            }
            (a, b) => {
                assert_eq!(a.err(), b.err(), "error mismatch seed {seed}");
                exhausted += 1;
            }
        }
    }
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}

/// Degenerate party counts: a single party (every delivery word is all
/// tail) and 65 parties (one bit past a word boundary, so the packed
/// path straddles two words). The rewind scheme must stay bitwise
/// identical between the packed and roundtrip representations at both,
/// in every noise regime.
#[test]
fn degenerate_party_counts_match_roundtrip() {
    for n in [1usize, 65] {
        let p = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|i| (7 * i + 1) % (2 * n)).collect();
        let config = SimulatorConfig::builder(n)
            .model(NoiseModel::Correlated { epsilon: 0.1 })
            .build();
        let sim = RewindSimulator::new(&p, config);
        for model in models() {
            for seed in 0..2 {
                let packed = sim.simulate(&inputs, model, seed);
                let mut rt = RoundtripChannel::new(n, model, seed);
                let unpacked = sim.simulate_over(&inputs, model, &mut rt);
                assert_matches_oracle(packed, unpacked, &format!("n={n} {model} seed {seed}"));
            }
        }
    }
}

/// Sparse flip lists and forced-dense rows are two encodings of the
/// same delivery: round by round they must compare equal (the semantic
/// `Delivery` equality) in every regime and at the degenerate party
/// counts. The saturated case drives noise hard enough that rounds
/// where *every* party's bit flips occur, forcing the sparse→dense
/// fallback — both encodings must agree through the crossover too.
#[test]
fn sparse_and_forced_dense_deliveries_agree_across_regimes() {
    let mut cases = models();
    cases.push(NoiseModel::Independent { epsilon: 0.97 });
    for n in [1usize, 65] {
        for &model in &cases {
            let mut sparse = StochasticChannel::new(n, model, 0xD15E);
            let mut dense = StochasticChannel::new(n, model, 0xD15E);
            dense.set_dense_deliveries(true);
            let mut fallbacks = 0usize;
            let mut all_flipped = 0usize;
            for round in 0..400 {
                let or = round % 3 == 0;
                let a = sparse.transmit(or);
                let b = dense.transmit(or);
                assert_eq!(a, b, "n={n} round {round} over {model}");
                if let Delivery::PerParty(_) = a {
                    fallbacks += 1;
                }
                if (0..n).all(|i| a.heard_by(i) != or) {
                    all_flipped += 1;
                }
            }
            if n == 65 && matches!(model, NoiseModel::Independent { epsilon } if epsilon > 0.5) {
                assert!(
                    fallbacks > 0,
                    "saturated noise never tripped the dense fallback"
                );
                assert!(
                    all_flipped > 0,
                    "saturated noise never flipped all parties in one round"
                );
            }
        }
    }
}

/// Windowed committed-transcript retention is a pure memory
/// optimization: sweeping the verification window from its minimum to
/// effectively unbounded must not move a bit of any collapsed scheme's
/// transcript, outputs, or stats relative to the default window, in any
/// regime.
#[test]
fn windowed_retention_matches_full_for_every_scheme() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let owned_p = RollCall::new(8);
    let owned_inputs = [true, false, true, true, false, false, true, false];
    let config = |window: Option<usize>| {
        let mut b = SimulatorConfig::builder(4).model(NoiseModel::Correlated { epsilon: 0.1 });
        if let Some(w) = window {
            b = b.verify_window(w);
        }
        b.build()
    };
    for model in models() {
        for seed in 0..2 {
            let reference = RewindSimulator::new(&p, config(None)).simulate(&inputs, model, seed);
            let hier_ref =
                HierarchicalSimulator::new(&p, config(None)).simulate(&inputs, model, seed);
            for window in [1usize, 2, usize::MAX] {
                let windowed =
                    RewindSimulator::new(&p, config(Some(window))).simulate(&inputs, model, seed);
                match (&reference, &windowed) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.transcript(),
                            b.transcript(),
                            "rewind window {window} over {model} seed {seed}"
                        );
                        assert_eq!(a.outputs(), b.outputs());
                        assert_eq!(a.stats(), b.stats());
                    }
                    (a, b) => assert_eq!(a.is_err(), b.is_err(), "window {window} over {model}"),
                }
                let hier = HierarchicalSimulator::new(&p, config(Some(window)))
                    .simulate(&inputs, model, seed);
                match (&hier_ref, &hier) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.transcript(),
                            b.transcript(),
                            "hierarchical window {window} over {model} seed {seed}"
                        );
                        assert_eq!(a.stats(), b.stats());
                    }
                    (a, b) => assert_eq!(a.is_err(), b.is_err(), "window {window} over {model}"),
                }
            }
            let owned_config = |window: Option<usize>| {
                let mut b =
                    SimulatorConfig::builder(8).model(NoiseModel::Correlated { epsilon: 0.1 });
                if let Some(w) = window {
                    b = b.verify_window(w);
                }
                b.build()
            };
            let owned_ref = OwnedRoundsSimulator::new(&owned_p, owned_config(None)).simulate(
                &owned_inputs,
                model,
                seed,
            );
            for window in [1usize, usize::MAX] {
                let owned = OwnedRoundsSimulator::new(&owned_p, owned_config(Some(window)))
                    .simulate(&owned_inputs, model, seed);
                match (&owned_ref, &owned) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.transcript(),
                            b.transcript(),
                            "owned_rounds window {window} over {model} seed {seed}"
                        );
                        assert_eq!(a.stats(), b.stats());
                    }
                    (a, b) => assert_eq!(a.is_err(), b.is_err(), "window {window} over {model}"),
                }
            }
        }
    }
}

/// A starved budget must exhaust at the identical round regardless of
/// the retention window: `BudgetExhausted { rounds_used, committed }`
/// is part of the bitwise contract, and rematerializing evicted window
/// entries must not perturb it.
#[test]
fn windowed_retention_matches_full_when_budget_starved() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let config = |window: Option<usize>| {
        let mut b = SimulatorConfig::builder(4).model(model).budget_factor(1.0);
        if let Some(w) = window {
            b = b.verify_window(w);
        }
        b.build()
    };
    let mut exhausted = 0usize;
    for seed in 0..16 {
        let reference = RewindSimulator::new(&p, config(None)).simulate(&inputs, model, seed);
        if reference.is_err() {
            exhausted += 1;
        }
        for window in [1usize, usize::MAX] {
            let windowed =
                RewindSimulator::new(&p, config(Some(window))).simulate(&inputs, model, seed);
            match (&reference, &windowed) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.transcript(),
                        b.transcript(),
                        "window {window} seed {seed}"
                    );
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(
                    a.as_ref().err(),
                    b.as_ref().err(),
                    "budget error mismatch window {window} seed {seed}"
                ),
            }
        }
    }
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}

/// Transposition proof for the lane-sliced hierarchical engine: a batch
/// must be bitwise equal, trial by trial, to the scalar path in every
/// regime (independent noise falls back to the per-seed loop, which
/// must be equally invisible).
#[test]
fn hierarchical_batch_matches_per_trial() {
    let p = InputSet::new(4);
    let inputs = [1, 6, 6, 3];
    let config = SimulatorConfig::builder(4)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = HierarchicalSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..9).map(|i| i * 999_983 + 29).collect();
    for model in models() {
        let batch = sim.simulate_batch(&inputs, model, &seeds);
        assert_eq!(batch.len(), seeds.len());
        for (&seed, sliced) in seeds.iter().zip(batch) {
            let scalar = sim.simulate(&inputs, model, seed);
            match (scalar, sliced) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.transcript(),
                        b.transcript(),
                        "transcript diverged over {model} seed {seed}"
                    );
                    assert_eq!(a.outputs(), b.outputs());
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(a.err(), b.err(), "error mismatch over {model} seed {seed}"),
            }
        }
    }
}

/// A hierarchical batch under a starved budget must reproduce the
/// scalar path's `BudgetExhausted` errors exactly through the
/// lane-sliced engine (rounds and committed count).
#[test]
fn hierarchical_batch_matches_per_trial_when_budget_starved() {
    let p = InputSet::new(8);
    let inputs = [1, 5, 5, 2, 9, 0, 12, 3];
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let config = SimulatorConfig::builder(8)
        .model(model)
        .budget_factor(0.5)
        .build();
    let sim = HierarchicalSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..32).collect();
    let batch = sim.simulate_batch(&inputs, model, &seeds);
    let mut exhausted = 0;
    for (&seed, sliced) in seeds.iter().zip(batch) {
        let scalar = sim.simulate(&inputs, model, seed);
        match (scalar, sliced) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.transcript(), b.transcript(), "seed {seed}");
                assert_eq!(a.stats(), b.stats());
            }
            (a, b) => {
                assert_eq!(a.err(), b.err(), "error mismatch seed {seed}");
                exhausted += 1;
            }
        }
    }
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}

/// Transposition proof for the lane-sliced owned-rounds engine across
/// every regime (shared regimes ride the lane channel, independent
/// noise the per-seed fallback — both must match the scalar path).
#[test]
fn owned_rounds_batch_matches_per_trial() {
    let p = RollCall::new(8);
    let inputs = [true, false, true, true, false, false, true, false];
    let config = SimulatorConfig::builder(8)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = OwnedRoundsSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..9).map(|i| i * 104_729 + 7).collect();
    for model in models() {
        let batch = sim.simulate_batch(&inputs, model, &seeds);
        assert_eq!(batch.len(), seeds.len());
        for (&seed, sliced) in seeds.iter().zip(batch) {
            let scalar = sim.simulate(&inputs, model, seed);
            match (scalar, sliced) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.transcript(),
                        b.transcript(),
                        "transcript diverged over {model} seed {seed}"
                    );
                    assert_eq!(a.outputs(), b.outputs());
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(a.err(), b.err(), "error mismatch over {model} seed {seed}"),
            }
        }
    }
}

/// Transposition proof for the lane-sliced one-to-zero engine. The
/// sweep includes the regimes the scheme rejects: those must surface
/// the identical `UnsupportedNoise` error from the batch path.
#[test]
fn one_to_zero_batch_matches_per_trial() {
    let p = InputSet::new(5);
    let inputs = [2, 8, 8, 1, 0];
    let sim = OneToZeroSimulator::new(&p, 2, 32.0);
    let seeds: Vec<u64> = (0..9).map(|i| i * 15_485_863 + 11).collect();
    for model in models() {
        let batch = sim.simulate_batch(&inputs, model, &seeds);
        assert_eq!(batch.len(), seeds.len());
        for (&seed, sliced) in seeds.iter().zip(batch) {
            let scalar = sim.simulate(&inputs, model, seed);
            match (scalar, sliced) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.transcript(),
                        b.transcript(),
                        "transcript diverged over {model} seed {seed}"
                    );
                    assert_eq!(a.outputs(), b.outputs());
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(a.err(), b.err(), "error mismatch over {model} seed {seed}"),
            }
        }
    }
}

/// A one-to-zero batch at the minimum legal budget under heavy erasure
/// must reproduce the scalar path's `BudgetExhausted` errors exactly
/// through the lane-sliced engine.
#[test]
fn one_to_zero_batch_matches_per_trial_when_budget_starved() {
    let p = InputSet::new(5);
    let inputs = [2, 8, 8, 1, 0];
    let sim = OneToZeroSimulator::new(&p, 2, 2.0);
    let model = NoiseModel::OneSidedOneToZero { epsilon: 0.45 };
    let seeds: Vec<u64> = (0..24).collect();
    let batch = sim.simulate_batch(&inputs, model, &seeds);
    let mut exhausted = 0;
    for (&seed, sliced) in seeds.iter().zip(batch) {
        let scalar = sim.simulate(&inputs, model, seed);
        match (scalar, sliced) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.transcript(), b.transcript(), "seed {seed}");
                assert_eq!(a.stats(), b.stats());
            }
            (a, b) => {
                assert_eq!(a.err(), b.err(), "error mismatch seed {seed}");
                exhausted += 1;
            }
        }
    }
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}

/// A batch one trial past a full lane group (65 seeds = 64 + 1) must
/// split cleanly: the full group and the single-lane remainder both
/// bitwise match the scalar path.
#[test]
fn partial_final_lane_group_matches_per_trial() {
    let p = InputSet::new(5);
    let inputs = [2, 9, 0, 0, 4];
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let config = SimulatorConfig::builder(5).model(model).build();
    let sim = RepetitionSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..65).map(|i| i * 2_097_593 + 41).collect();
    let batch = sim.simulate_batch(&inputs, model, &seeds);
    assert_eq!(batch.len(), seeds.len());
    for (&seed, sliced) in seeds.iter().zip(batch) {
        let scalar = sim.simulate(&inputs, model, seed).unwrap();
        let sliced = sliced.unwrap();
        assert_eq!(
            scalar.transcript(),
            sliced.transcript(),
            "transcript diverged at seed {seed}"
        );
        assert_eq!(scalar.outputs(), sliced.outputs());
        assert_eq!(scalar.stats(), sliced.stats());
    }
}

/// Independent noise through the repetition lane engine at the
/// degenerate party counts: one party (a delivery word that is all
/// tail) and 65 parties (the flip calendar straddles a word boundary).
/// Both must stay bitwise identical to the scalar path.
#[test]
fn independent_repetition_batch_matches_at_degenerate_party_counts() {
    let model = NoiseModel::Independent { epsilon: 0.05 };
    for n in [1usize, 65] {
        let p = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|i| (7 * i + 1) % (2 * n)).collect();
        let config = SimulatorConfig::builder(n).model(model).build();
        let sim = RepetitionSimulator::new(&p, config);
        let seeds: Vec<u64> = (0..6).map(|i| i * 32_452_843 + 13).collect();
        let batch = sim.simulate_batch(&inputs, model, &seeds);
        assert_eq!(batch.len(), seeds.len());
        for (&seed, sliced) in seeds.iter().zip(batch) {
            let scalar = sim.simulate(&inputs, model, seed).unwrap();
            let sliced = sliced.unwrap();
            assert_eq!(
                scalar.transcript(),
                sliced.transcript(),
                "transcript diverged at n={n} seed {seed}"
            );
            assert_eq!(scalar.outputs(), sliced.outputs());
            assert_eq!(scalar.stats(), sliced.stats());
        }
    }
}

#[test]
fn one_to_zero_scheme_matches_roundtrip() {
    let p = InputSet::new(5);
    let inputs = [2, 8, 8, 1, 0];
    // The default budget, then the minimum legal one (`budget_factor`
    // 2) under heavy erasure so `BudgetExhausted` is exercised too.
    let cases = [
        (
            32.0,
            NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 },
            0..4,
        ),
        (2.0, NoiseModel::OneSidedOneToZero { epsilon: 0.45 }, 0..32),
    ];
    let mut failed = 0usize;
    for (budget_factor, model, seeds) in cases {
        let sim = OneToZeroSimulator::new(&p, 2, budget_factor);
        for seed in seeds {
            let packed = sim.simulate(&inputs, model, seed);
            let mut rt = RoundtripChannel::new(5, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt);
            let context = format!("{model} seed {seed}");
            failed += usize::from(assert_matches_oracle(packed, unpacked, &context));
        }
    }
    assert!(failed > 0, "starved budget never exhausted: weak test");
}
