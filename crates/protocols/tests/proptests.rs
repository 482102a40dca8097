//! Property-based tests: every protocol's noiseless execution matches an
//! independent reference computation on arbitrary inputs.

use beeps_channel::{run_noiseless, Protocol};
use beeps_protocols::{
    Broadcast, InputSet, LeaderElection, Membership, MultiOr, PointerChase, RepeatedInputSet,
    RollCall,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Checks [`Protocol::outputs`] on one transcript every party holds: one
/// output per party, each equal to that party's own [`Protocol::output`],
/// and every one of them the same allocation.
fn assert_outputs_share_one_set<P>(p: &P, inputs: &[usize], transcript: &[bool])
where
    P: Protocol<Input = usize, Output = Arc<BTreeSet<usize>>>,
{
    let outs = p.outputs(inputs, transcript);
    prop_assert_eq!(outs.len(), inputs.len());
    for (i, out) in outs.iter().enumerate() {
        prop_assert_eq!(out, &p.output(i, &inputs[i], transcript));
        prop_assert!(Arc::ptr_eq(out, &outs[0]), "party {} holds its own set", i);
    }
}

/// A length-`len` transcript: random bits (`fill == 0`), all zeros
/// (`fill == 1`) or all ones.
fn transcript(rng: &mut impl rand::Rng, fill: u8, len: usize) -> Vec<bool> {
    (0..len)
        .map(|_| match fill {
            0 => rng.gen_bool(0.5),
            1 => false,
            _ => true,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn input_set_outputs_the_set(n in 1usize..12, seed in any::<u64>()) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        let expect: BTreeSet<usize> = inputs.iter().copied().collect();
        let exec = run_noiseless(&p, &inputs);
        for out in exec.outputs() {
            prop_assert_eq!(&**out, &expect);
        }
    }

    #[test]
    fn repeated_input_set_matches_plain(
        n in 1usize..8,
        r in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        let plain = run_noiseless(&InputSet::new(n), &inputs);
        let rep = run_noiseless(&RepeatedInputSet::new(n, r, r / 2 + 1), &inputs);
        prop_assert_eq!(&plain.outputs()[0], &rep.outputs()[0]);
    }

    /// The batch builds `L(x)` once and shares it, on any transcript, and
    /// so does a `&InputSet` (the blanket impl must forward the batch).
    #[test]
    fn input_set_outputs_share_one_set(
        n in 1usize..40,
        fill in 0u8..3,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        let t = transcript(&mut rng, fill, p.length());
        assert_outputs_share_one_set(&p, &inputs, &t);
        assert_outputs_share_one_set(&&p, &inputs, &t);
    }

    /// The same for the repetition-coded variant, at any threshold.
    #[test]
    fn repeated_input_set_outputs_share_one_set(
        n in 1usize..8,
        (r, threshold) in (1usize..6).prop_flat_map(|r| (Just(r), 1..=r)),
        fill in 0u8..3,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = RepeatedInputSet::new(n, r, threshold);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        let t = transcript(&mut rng, fill, p.length());
        assert_outputs_share_one_set(&p, &inputs, &t);
        assert_outputs_share_one_set(&&p, &inputs, &t);
    }

    #[test]
    fn leader_election_elects_the_max(
        ids in prop::collection::vec(0usize..1024, 1..10),
    ) {
        let p = LeaderElection::new(ids.len(), 10);
        let exec = run_noiseless(&p, &ids);
        let max = *ids.iter().max().unwrap();
        for &out in exec.outputs() {
            prop_assert_eq!(out, max);
        }
    }

    #[test]
    fn membership_resolves_the_active_set(
        actives in prop::collection::vec(prop::option::of(0usize..32), 1..8),
    ) {
        let p = Membership::new(actives.len(), 32);
        let exec = run_noiseless(&p, &actives);
        let mut expect: Vec<usize> = actives.iter().flatten().copied().collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(&exec.outputs()[0], &expect);
    }

    #[test]
    fn multi_or_is_the_or(
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 8), 1..6),
    ) {
        let p = MultiOr::new(rows.len(), 8);
        let exec = run_noiseless(&p, &rows);
        for m in 0..8 {
            prop_assert_eq!(exec.transcript()[m], rows.iter().any(|r| r[m]));
        }
    }

    #[test]
    fn broadcast_delivers_any_message(
        msg in 0usize..65536,
        speaker in 0usize..4,
    ) {
        let p = Broadcast::new(4, speaker, 16);
        let mut inputs = vec![0usize; 4];
        inputs[speaker] = msg;
        let exec = run_noiseless(&p, &inputs);
        for &out in exec.outputs() {
            prop_assert_eq!(out, msg);
        }
    }

    /// `Broadcast::outputs` folds the transcript once; it must equal
    /// every party's own `output`, the per-party default, on random,
    /// all-zero and all-one transcripts, at n = 1 and at n.
    #[test]
    fn broadcast_outputs_match_per_party_outputs(
        n in 2usize..9,
        width in 1usize..=32,
        fill in 0u8..3,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = transcript(&mut rng, fill, width);
        for n in [1, n] {
            let p = Broadcast::new(n, rng.gen_range(0..n), width);
            let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..1usize << width)).collect();
            let outs = p.outputs(&inputs, &t);
            prop_assert_eq!(outs.len(), n);
            for (i, &out) in outs.iter().enumerate() {
                prop_assert_eq!(out, p.output(i, &inputs[i], &t), "party {} of {}", i, n);
            }
        }
    }

    /// `Broadcast::true_or` asks only the speaker; it must equal the OR
    /// of every party's `beep`, the default, on every prefix of random,
    /// all-zero and all-one transcripts, at n = 1 and at n.
    #[test]
    fn broadcast_true_or_matches_every_partys_beep(
        n in 2usize..9,
        width in 1usize..=32,
        fill in 0u8..3,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = transcript(&mut rng, fill, width);
        for n in [1, n] {
            let p = Broadcast::new(n, rng.gen_range(0..n), width);
            let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..1usize << width)).collect();
            for m in 0..width {
                let any = (0..n).any(|i| p.beep(i, &inputs[i], &t[..m]));
                prop_assert_eq!(p.true_or(&inputs, &t[..m]), any, "round {} of {}", m, width);
            }
        }
    }

    #[test]
    fn roll_call_counts(bits in prop::collection::vec(any::<bool>(), 1..16)) {
        let p = RollCall::new(bits.len());
        let exec = run_noiseless(&p, &bits);
        let expect = bits.iter().filter(|&&b| b).count();
        prop_assert_eq!(exec.outputs()[0], expect);
    }

    #[test]
    fn pointer_chase_matches_reference(
        tables in prop::collection::vec(
            prop::collection::vec(0usize..8, 8),
            1..4,
        ),
        depth in 1usize..8,
    ) {
        let n = tables.len();
        let p = PointerChase::new(n, 8, depth);
        let exec = run_noiseless(&p, &tables);
        let mut pointer = 0usize;
        for t in 0..depth {
            pointer = tables[t % n][pointer];
        }
        prop_assert_eq!(exec.outputs()[0], pointer);
    }

    /// Protocol trait invariant: transcripts of noiseless executions have
    /// exactly `length()` rounds, for every protocol in the library.
    #[test]
    fn transcript_lengths(n in 1usize..6, seed in any::<u64>()) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);

        let p = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        prop_assert_eq!(run_noiseless(&p, &inputs).transcript().len(), p.length());

        let p = RollCall::new(n);
        let inputs: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        prop_assert_eq!(run_noiseless(&p, &inputs).transcript().len(), p.length());

        let p = LeaderElection::new(n, 6);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..64)).collect();
        prop_assert_eq!(run_noiseless(&p, &inputs).transcript().len(), p.length());
    }
}
