//! Property-based tests for the channel substrate: model invariants that
//! must hold for arbitrary beep sequences, not just curated ones.

use beeps_channel::{
    run_noiseless, Channel, CorrectingAdversaryChannel, CorrectionPolicy, Delivery,
    MultiplicationChannel, NoiseModel, Protocol, ReducedTwoSidedChannel, ScriptedChannel,
    StochasticChannel,
};
use proptest::prelude::*;

/// A protocol defined by an explicit per-party beep schedule.
struct Table {
    n: usize,
    t: usize,
}

impl Protocol for Table {
    type Input = Vec<bool>;
    type Output = Vec<bool>;

    fn num_parties(&self) -> usize {
        self.n
    }

    fn length(&self) -> usize {
        self.t
    }

    fn beep(&self, _party: usize, input: &Vec<bool>, transcript: &[bool]) -> bool {
        input[transcript.len()]
    }

    fn output(&self, _party: usize, _input: &Vec<bool>, transcript: &[bool]) -> Vec<bool> {
        transcript.to_vec()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Noiseless transcript = round-wise OR of the schedules, always.
    #[test]
    fn noiseless_transcript_is_roundwise_or(
        schedules in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 6),
            1..5,
        ),
    ) {
        let n = schedules.len();
        let p = Table { n, t: 6 };
        let exec = run_noiseless(&p, &schedules);
        for m in 0..6 {
            let or = schedules.iter().any(|s| s[m]);
            prop_assert_eq!(exec.transcript()[m], or);
        }
    }

    /// The one-sided 0->1 channel never erases a true 1; the 1->0 channel
    /// never fabricates one — for arbitrary input sequences and seeds.
    #[test]
    fn one_sided_channels_respect_their_direction(
        bits in prop::collection::vec(any::<bool>(), 1..64),
        seed in any::<u64>(),
    ) {
        let mut up = StochasticChannel::new(
            3,
            NoiseModel::OneSidedZeroToOne { epsilon: 0.5 },
            seed,
        );
        let mut down = StochasticChannel::new(
            3,
            NoiseModel::OneSidedOneToZero { epsilon: 0.5 },
            seed,
        );
        for &b in &bits {
            let heard_up = up.transmit(b).shared().unwrap();
            if b {
                prop_assert!(heard_up, "0->1 channel erased a beep");
            }
            let heard_down = down.transmit(b).shared().unwrap();
            if !b {
                prop_assert!(!heard_down, "1->0 channel fabricated a beep");
            }
        }
    }

    /// A scripted channel applies exactly its script.
    #[test]
    fn scripted_channel_applies_script(
        sent in prop::collection::vec(any::<bool>(), 1..32),
        flips in prop::collection::vec(any::<bool>(), 1..32),
    ) {
        let mut ch = ScriptedChannel::new(2, flips.clone());
        for (i, &b) in sent.iter().enumerate() {
            let expect = b ^ flips.get(i).copied().unwrap_or(false);
            prop_assert_eq!(ch.transmit(b).shared(), Some(expect));
        }
        let expected_corrupted = flips
            .iter()
            .take(sent.len())
            .filter(|&&f| f)
            .count();
        prop_assert_eq!(ch.corrupted_rounds(), expected_corrupted);
    }

    /// Per-party deliveries always carry exactly n bits and shared
    /// regimes always produce Shared deliveries.
    #[test]
    fn delivery_shapes(seed in any::<u64>(), n in 1usize..10, or in any::<bool>()) {
        let mut shared = StochasticChannel::new(
            n,
            NoiseModel::Correlated { epsilon: 0.3 },
            seed,
        );
        prop_assert!(matches!(shared.transmit(or), Delivery::Shared(_)));
        let mut indep = StochasticChannel::new(
            n,
            NoiseModel::Independent { epsilon: 0.3 },
            seed,
        );
        match indep.transmit(or) {
            Delivery::PerParty(bits) => prop_assert_eq!(bits.len(), n),
            Delivery::Shared(_) => prop_assert!(false, "independent must be per-party"),
        }
    }

    /// The correcting adversary with the `DownFlips` policy is
    /// trace-equivalent to a one-sided 0->1 channel: beeps always arrive.
    #[test]
    fn adversary_down_policy_protects_beeps(
        bits in prop::collection::vec(any::<bool>(), 1..64),
        seed in any::<u64>(),
    ) {
        let mut ch = CorrectingAdversaryChannel::new(
            2,
            0.45,
            CorrectionPolicy::DownFlips,
            seed,
        );
        for &b in &bits {
            let heard = ch.transmit(b).shared().unwrap();
            if b {
                prop_assert!(heard);
            }
        }
    }

    /// De Morgan: the multiplication channel computes AND noiselessly for
    /// every bit pair sequence.
    #[test]
    fn multiplication_channel_is_and(
        pairs in prop::collection::vec((any::<bool>(), any::<bool>()), 1..32),
        seed in any::<u64>(),
    ) {
        let mut ch = MultiplicationChannel::noiseless(seed);
        for &(a, b) in &pairs {
            prop_assert_eq!(ch.transmit(a, b), a && b);
        }
    }

    /// Determinism: same seed, same channel behaviour.
    #[test]
    fn channels_are_seed_deterministic(
        bits in prop::collection::vec(any::<bool>(), 1..48),
        seed in any::<u64>(),
    ) {
        let mut a = ReducedTwoSidedChannel::new(2, seed);
        let mut b = ReducedTwoSidedChannel::new(2, seed);
        for &bit in &bits {
            prop_assert_eq!(a.transmit(bit), b.transmit(bit));
        }
    }
}

/// One delivery call of the word-primitive equivalence tests.
#[derive(Debug, Clone, Copy)]
enum Delivered {
    /// `Channel::transmit_word(sent, len, heard)`.
    Word { sent: u64, len: usize },
    /// `flips_in_span(rounds, or)`.
    Span { rounds: usize, or: bool },
    /// One `transmit(or)` / `step(or)`.
    Round(bool),
}

fn delivered() -> impl Strategy<Value = Delivered> {
    (
        0u8..3,
        any::<u64>(),
        0usize..=64,
        0usize..150,
        any::<bool>(),
    )
        .prop_map(|(kind, sent, len, rounds, or)| match kind {
            0 => Delivered::Word { sent, len },
            1 => Delivered::Span { rounds, or },
            _ => Delivered::Round(or),
        })
}

/// A random interleaving of deliveries that always holds a 63- and a
/// 64-round word (the limb-boundary lengths), at random positions.
fn interleaving() -> impl Strategy<Value = Vec<Delivered>> {
    (
        prop::collection::vec(delivered(), 0..40),
        any::<u64>(),
        any::<u64>(),
        any::<usize>(),
        any::<usize>(),
    )
        .prop_map(|(mut ops, w63, w64, at63, at64)| {
            ops.insert(
                at63 % (ops.len() + 1),
                Delivered::Word { sent: w63, len: 63 },
            );
            ops.insert(
                at64 % (ops.len() + 1),
                Delivered::Word { sent: w64, len: 64 },
            );
            ops
        })
}

/// Every shared-delivery model at ε ∈ {0, 10⁻³, 0.1, 1/3, 0.49}.
fn shared_model() -> impl Strategy<Value = NoiseModel> {
    (0usize..4, 0usize..5).prop_map(|(kind, e)| {
        let epsilon = [0.0, 1e-3, 0.1, 1.0 / 3.0, 0.49][e];
        match kind {
            0 => NoiseModel::Noiseless,
            1 => NoiseModel::Correlated { epsilon },
            2 => NoiseModel::OneSidedZeroToOne { epsilon },
            _ => NoiseModel::OneSidedOneToZero { epsilon },
        }
    })
}

/// The per-round reference for one delivery call: the heard word (bit
/// `k` = round `k`) and the number of flipped rounds, from single
/// `transmit` calls on `reference`.
fn per_round(reference: &mut StochasticChannel, op: Delivered) -> (u64, usize) {
    let (sent, len) = match op {
        Delivered::Word { sent, len } => (sent, len),
        Delivered::Span { rounds, or } => {
            let flips = (0..rounds)
                .filter(|_| reference.transmit(or).shared() != Some(or))
                .count();
            return (0, flips);
        }
        Delivered::Round(or) => (u64::from(or), 1),
    };
    let (mut heard, mut flips) = (0u64, 0usize);
    for k in 0..len {
        let or = sent >> k & 1 == 1;
        let bit = reference.transmit(or).shared().expect("shared delivery");
        heard |= u64::from(bit) << k;
        flips += usize::from(bit != or);
    }
    (heard, flips)
}

/// Bits of a delivered word at or above its length must be zero.
fn above(heard: u64, len: usize) -> u64 {
    heard.checked_shr(len as u32).unwrap_or(0)
}

/// Words and single rounds: an [`interleaving`] without its spans.
fn words_and_rounds() -> impl Strategy<Value = Vec<Delivered>> {
    interleaving().prop_map(|ops| {
        ops.into_iter()
            .filter(|op| !matches!(op, Delivered::Span { .. }))
            .collect()
    })
}

/// Every model, independent noise included, at
/// ε ∈ {0, 10⁻³, 0.1, 1/3, 0.49, 0.9}; at ε = 0.9 most parties' copies
/// flip in every independent round.
fn any_model() -> impl Strategy<Value = NoiseModel> {
    (0usize..5, 0usize..6).prop_map(|(kind, e)| {
        let epsilon = [0.0, 1e-3, 0.1, 1.0 / 3.0, 0.49, 0.9][e];
        match kind {
            0 => NoiseModel::Noiseless,
            1 => NoiseModel::Correlated { epsilon },
            2 => NoiseModel::OneSidedZeroToOne { epsilon },
            3 => NoiseModel::OneSidedOneToZero { epsilon },
            _ => NoiseModel::Independent { epsilon },
        }
    })
}

/// Party counts on and around the word boundaries of a delivery row.
fn party_count() -> impl Strategy<Value = usize> {
    (0usize..5).prop_map(|i| [1, 5, 64, 65, 200][i])
}

/// Forwards only the four required `Channel` methods, so
/// `transmit_word` takes the provided per-round default.
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

/// Drives `worded` through `ops` — `Channel::transmit_word` for words,
/// `transmit` for single rounds — and its same-seed twin `reference`
/// through `transmit` alone. Asserts that every party hears the same
/// bits, zero at and above each word's length; that `rounds()` and
/// `corrupted_rounds()` agree after every call; and that the next 256
/// deliveries (true ORs from `tail`) are equal.
fn assert_words_match_rounds(
    worded: &mut dyn Channel,
    reference: &mut dyn Channel,
    ops: &[Delivered],
    tail: u64,
    context: &str,
) {
    let n = reference.num_parties();
    let mut heard = vec![0u64; n];
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Delivered::Word { sent, len } => {
                // Junk in the buffer must not survive the call.
                heard.fill(u64::MAX);
                worded.transmit_word(sent, len, &mut heard);
                let mut want = vec![0u64; n];
                for k in 0..len {
                    let delivery = reference.transmit(sent >> k & 1 == 1);
                    for (i, word) in want.iter_mut().enumerate() {
                        *word |= u64::from(delivery.heard_by(i)) << k;
                    }
                }
                for (i, &word) in heard.iter().enumerate() {
                    assert_eq!(above(word, len), 0, "{context}: party {i} above len {len}");
                }
                assert_eq!(heard, want, "{context}: word of {len} at step {step}");
            }
            Delivered::Round(or) => {
                assert_eq!(
                    worded.transmit(or),
                    reference.transmit(or),
                    "{context}: step {step}"
                );
            }
            Delivered::Span { .. } => unreachable!("spans are shared-countdown calls"),
        }
        assert_eq!(
            worded.rounds(),
            reference.rounds(),
            "{context}: step {step}"
        );
        assert_eq!(
            worded.corrupted_rounds(),
            reference.corrupted_rounds(),
            "{context}: step {step}"
        );
    }
    for r in 0..256u64 {
        let or = (tail >> (r % 64)) & 1 == 1;
        assert_eq!(
            worded.transmit(or),
            reference.transmit(or),
            "{context}: tail round {r}"
        );
    }
    assert_eq!(worded.corrupted_rounds(), reference.corrupted_rounds());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Word and span deliveries draw, flip and count exactly as the same
    /// rounds delivered one `transmit` at a time, in any interleaving.
    #[test]
    fn word_and_span_deliveries_match_per_round_transmits(
        model in shared_model(),
        seed in any::<u64>(),
        ops in interleaving(),
    ) {
        let mut batched = StochasticChannel::new(3, model, seed);
        let mut reference = StochasticChannel::new(3, model, seed);
        let mut heard = [0u64; 3];
        for op in ops {
            let (want, want_flips) = per_round(&mut reference, op);
            match op {
                Delivered::Word { sent, len } => {
                    // Junk in the buffer must not survive the call.
                    heard.fill(u64::MAX);
                    batched.transmit_word(sent, len, &mut heard);
                    for word in heard {
                        prop_assert_eq!(above(word, len), 0, "{}: bits above len {}", model, len);
                        prop_assert_eq!(word, want, "{}: word of {}", model, len);
                    }
                }
                Delivered::Span { rounds, or } => {
                    prop_assert_eq!(batched.flips_in_span(rounds, or), want_flips, "{}: span", model);
                }
                Delivered::Round(or) => {
                    prop_assert_eq!(batched.transmit(or).shared(), Some(want == 1), "{}: round", model);
                }
            }
            prop_assert_eq!(batched.rounds(), reference.rounds());
            prop_assert_eq!(batched.corrupted_rounds(), reference.corrupted_rounds());
        }
        for r in 0..256u64 {
            let or = (seed >> (r % 64)) & 1 == 1;
            prop_assert_eq!(batched.transmit(or), reference.transmit(or), "{}: tail round {}", model, r);
        }
        prop_assert_eq!(batched.corrupted_rounds(), reference.corrupted_rounds());
    }

    /// `Channel::transmit_word` matches single `transmit`s for every
    /// model, in any interleaving with them: the stochastic channel's
    /// override (the countdown for shared models; for independent noise,
    /// each flipped party's flip mask XORed into its heard word) and the
    /// provided per-round default over the same channel, which reads
    /// each independent round's dense row against the round's true OR.
    #[test]
    fn channel_words_match_per_round_transmits(
        model in any_model(),
        n in party_count(),
        seed in any::<u64>(),
        ops in words_and_rounds(),
    ) {
        let context = format!("{model} n={n}");
        assert_words_match_rounds(
            &mut StochasticChannel::new(n, model, seed),
            &mut StochasticChannel::new(n, model, seed),
            &ops,
            seed,
            &context,
        );
        assert_words_match_rounds(
            &mut PerRound(StochasticChannel::new(n, model, seed)),
            &mut StochasticChannel::new(n, model, seed),
            &ops,
            seed,
            &format!("per-round default, {context}"),
        );
    }

    /// The same contract for channels that keep the per-round default.
    #[test]
    fn default_words_match_per_round_transmits(
        script in prop::collection::vec(any::<bool>(), 0..600),
        n in party_count(),
        seed in any::<u64>(),
        ops in words_and_rounds(),
    ) {
        assert_words_match_rounds(
            &mut ScriptedChannel::new(n, script.clone()),
            &mut ScriptedChannel::new(n, script),
            &ops,
            seed,
            &format!("scripted n={n}"),
        );
        assert_words_match_rounds(
            &mut ReducedTwoSidedChannel::new(n, seed),
            &mut ReducedTwoSidedChannel::new(n, seed),
            &ops,
            seed,
            &format!("reduced two-sided n={n}"),
        );
    }
}

/// Every shared-delivery model at ε ∈ {2⁻⁵⁴, 10⁻³, 0.1, 1/3, 0.9}: from
/// the `1 − ε` that rounds to 1 to a flip in most eligible rounds.
fn codeword_model() -> impl Strategy<Value = NoiseModel> {
    (0usize..4, 0usize..5).prop_map(|(kind, e)| {
        let epsilon = [f64::EPSILON / 4.0, 1e-3, 0.1, 1.0 / 3.0, 0.9][e];
        match kind {
            0 => NoiseModel::Noiseless,
            1 => NoiseModel::Correlated { epsilon },
            2 => NoiseModel::OneSidedZeroToOne { epsilon },
            _ => NoiseModel::OneSidedOneToZero { epsilon },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A codeword delivered in one call draws, flips and counts exactly
    /// as its rounds delivered one `transmit` at a time: the same heard
    /// bits and flip count, `rounds()` and `corrupted_rounds()`, and the
    /// same next 100 deliveries. `pre` single rounds first leave the
    /// countdown mid-gap; the limbs' bits past `len` are junk the call
    /// must ignore.
    #[test]
    fn codeword_deliveries_match_per_round_transmits(
        model in codeword_model(),
        seed in any::<u64>(),
        len in 1usize..=200,
        limbs in prop::collection::vec(any::<u64>(), 4),
        pre in 0usize..20,
    ) {
        let mut batched = StochasticChannel::new(3, model, seed);
        let mut reference = StochasticChannel::new(3, model, seed);
        for r in 0..pre {
            let or = (seed >> r) & 1 == 1;
            prop_assert_eq!(batched.transmit(or), reference.transmit(or));
        }
        let sent = &limbs[..len.div_ceil(64)];
        let mut flipped = vec![u64::MAX; sent.len()];
        let flips = batched.transmit_codeword(sent, len, &mut flipped);
        let mut want = vec![0u64; sent.len()];
        for k in 0..len {
            let or = (sent[k / 64] >> (k % 64)) & 1 == 1;
            let bit = reference.transmit(or).shared().expect("shared delivery");
            want[k / 64] |= u64::from(bit != or) << (k % 64);
        }
        prop_assert_eq!(&flipped, &want, "{}: codeword of {}", model, len);
        let want_flips: u32 = want.iter().map(|w| w.count_ones()).sum();
        prop_assert_eq!(flips, want_flips as usize, "{}: flip count", model);
        prop_assert_eq!(batched.rounds(), reference.rounds());
        prop_assert_eq!(batched.corrupted_rounds(), reference.corrupted_rounds());
        for r in 0..100u64 {
            let or = (seed >> (r % 64)) & 1 == 0;
            prop_assert_eq!(batched.transmit(or), reference.transmit(or), "{}: next round {}", model, r);
        }
        prop_assert_eq!(batched.corrupted_rounds(), reference.corrupted_rounds());
    }
}
