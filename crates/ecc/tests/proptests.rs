//! Property-based tests for the code substrate: decoding guarantees hold
//! for *arbitrary* error patterns within the design radius, not just the
//! hand-picked ones in the unit tests.

use beeps_ecc::bits::PackedBits;
use beeps_ecc::{
    BitMetric, ConcatenatedCode, ConstantWeightCode, GfField, Hadamard, RandomCode, ReedSolomon,
    RepetitionCode, SymbolCode,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Shuffles `items` in place (Fisher–Yates).
fn shuffle(items: &mut [usize], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The words a certified decode of `sent` is checked on: `c ⊕ e` for
/// one random error `e` of every weight 0..=len; every step of two
/// walks from `c` to `toward` (its nearest neighbour), one changing
/// `c`'s 0s first and one its 1s first, so each metric's boundary
/// `c₀ + k = r` lies on a walk; and words far from every codeword
/// (random words and the complement of `c`).
fn certificate_words(c: &[bool], toward: &[bool], rng: &mut StdRng) -> Vec<Vec<bool>> {
    let len = c.len();
    let mut words = Vec::new();
    let mut positions: Vec<usize> = (0..len).collect();
    for weight in 0..=len {
        shuffle(&mut positions, rng);
        let mut y = c.to_vec();
        for &p in &positions[..weight] {
            y[p] = !y[p];
        }
        words.push(y);
    }
    for zeros_first in [true, false] {
        let mut diff: Vec<usize> = (0..len).filter(|&i| c[i] != toward[i]).collect();
        shuffle(&mut diff, rng);
        diff.sort_by_key(|&i| c[i] == zeros_first);
        let mut y = c.to_vec();
        for &p in &diff {
            y[p] = toward[p];
            words.push(y.clone());
        }
    }
    for _ in 0..4 {
        words.push((0..len).map(|_| rng.gen_bool(0.5)).collect());
    }
    words.push(c.iter().map(|&b| !b).collect());
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RS corrects every error pattern of weight ≤ t, wherever it lands.
    #[test]
    fn rs_corrects_any_pattern_within_radius(
        msg in prop::collection::vec(0u16..16, 7),
        positions in prop::collection::btree_set(0usize..15, 0..=4),
        magnitudes in prop::collection::vec(1u16..16, 4),
    ) {
        let rs = ReedSolomon::new(GfField::new(4), 15, 7);
        let mut cw = rs.encode(&msg);
        for (idx, &pos) in positions.iter().enumerate() {
            cw[pos] ^= magnitudes[idx % magnitudes.len()];
        }
        prop_assert_eq!(rs.decode(&cw).unwrap(), msg);
    }

    /// Errors-and-erasures: any pattern with 2e + f <= n - k decodes.
    #[test]
    fn rs_errors_and_erasures_within_budget(
        msg in prop::collection::vec(0u16..16, 7),
        erased in prop::collection::btree_set(0usize..15, 0..=4),
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let rs = ReedSolomon::new(GfField::new(4), 15, 7);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cw = rs.encode(&msg);
        // f erasures with arbitrary junk values...
        let erased: Vec<usize> = erased.into_iter().collect();
        for &i in &erased {
            cw[i] = rng.gen_range(0..16);
        }
        // ...plus e errors outside the erased set, 2e <= 8 - f.
        let e_budget = (8 - erased.len()) / 2;
        let mut errors = 0;
        for (i, symbol) in cw.iter_mut().enumerate() {
            if errors >= e_budget {
                break;
            }
            if !erased.contains(&i) && rng.gen_bool(0.2) {
                *symbol ^= rng.gen_range(1..16) as u16;
                errors += 1;
            }
        }
        prop_assert_eq!(rs.decode_with_erasures(&cw, &erased).unwrap(), msg);
    }

    /// Hadamard decodes any pattern below half the minimum distance.
    #[test]
    fn hadamard_unique_decoding_radius(
        symbol in 0usize..32,
        flips in prop::collection::btree_set(0usize..32, 0..8), // < d/2 = 8
    ) {
        let code = Hadamard::new(5);
        let mut w = code.encode(symbol);
        for &i in &flips {
            w[i] = !w[i];
        }
        prop_assert_eq!(code.decode(&w, BitMetric::Hamming), symbol);
    }

    /// Repetition decodes when strictly fewer than half of each bit's
    /// copies flip.
    #[test]
    fn repetition_majority_radius(
        symbol in 0usize..16,
        flip_one in 0usize..5,
        flip_two in 0usize..5,
    ) {
        let code = RepetitionCode::new(16, 5);
        let mut w = code.encode(symbol);
        // Flip at most 2 copies (minority) of two different bits.
        w[flip_one] = !w[flip_one];
        let second = 5 + flip_two;
        w[second] = !w[second];
        // Undo if both flips hit the same copy index of bit 0... they
        // can't: disjoint ranges. Majority (3 of 5) survives single flips.
        prop_assert_eq!(code.decode_bitwise(&w, 3), symbol);
    }

    /// Random codes roundtrip cleanly for every symbol and seed.
    #[test]
    fn random_code_roundtrips(seed in any::<u64>(), q in 2usize..64) {
        let code = RandomCode::new(q, 8, seed);
        for s in 0..q {
            prop_assert_eq!(code.decode(&code.encode(s), BitMetric::Hamming), s);
        }
    }

    /// Z-up metric decodes any received word that covers exactly one
    /// codeword (no erasures of 1s have happened).
    #[test]
    fn zup_decodes_covering_words(seed in any::<u64>(), symbol in 0usize..16) {
        let code = RandomCode::new(16, 10, seed);
        let mut w = code.encode(symbol);
        // Lift every fourth zero.
        let mut count = 0;
        for b in w.iter_mut() {
            if !*b {
                count += 1;
                if count % 4 == 0 {
                    *b = true;
                }
            }
        }
        // The true codeword is covered; under ZUp it must beat any
        // codeword with a 1 outside the received word. (Another codeword
        // could also be covered, but with 40-bit random words at q=16 the
        // chance is negligible; accept rare mismatch by re-checking cost.)
        let decoded = code.decode(&w, BitMetric::ZUp);
        if decoded != symbol {
            // Then the decoded word must also be covered and sparser.
            let alt = code.encode(decoded);
            let covered = alt.iter().zip(&w).all(|(&c, &r)| !c || r);
            prop_assert!(covered, "ZUp returned an impossible codeword");
        }
    }

    /// Concatenated codes survive any single corrupted inner block.
    #[test]
    fn concat_survives_one_block(
        symbol in 0usize..100,
        block in 0usize..15,
        pattern in any::<u16>(),
    ) {
        let code = ConcatenatedCode::for_alphabet(100, 4);
        let mut w = code.encode(symbol);
        for i in 0..16 {
            if (pattern >> i) & 1 == 1 {
                w[block * 16 + i] = !w[block * 16 + i];
            }
        }
        prop_assert_eq!(code.decode(&w, BitMetric::Hamming), symbol);
    }

    /// GF arithmetic: random triples satisfy field axioms in GF(256).
    #[test]
    fn gf256_axioms(a in 0u16..256, b in 0u16..256, c in 0u16..256) {
        let f = GfField::new(8);
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        prop_assert_eq!(f.mul(a, f.mul(b, c)), f.mul(f.mul(a, b), c));
        prop_assert_eq!(
            f.mul(a, f.add(b, c)),
            f.add(f.mul(a, b), f.mul(a, c))
        );
        if a != 0 {
            prop_assert_eq!(f.mul(a, f.inv(a)), 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The certified decode returns exactly the full scan's symbol, for
    /// both table codes under every metric, at q ∈ {2, 3, 17, 65} and
    /// code lengths around the limb boundaries, on the words of
    /// [`certificate_words`]. Under Hamming an even radius puts the
    /// boundary word, a tie with the nearest neighbour, on both walks.
    #[test]
    fn certified_decode_matches_full_scan(
        q_index in 0usize..4,
        len_index in 0usize..5,
        constant_weight in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let q = [2usize, 3, 17, 65][q_index];
        let len = [8usize, 63, 64, 65, 130][len_index];
        let code: Box<dyn SymbolCode> = if constant_weight {
            // Every weight in 2..=len-2 has enough supports for q = 65
            // once len ≥ 63; at len 8 only weight 4 does.
            let weight = if len == 8 { 4 } else { 2 + (seed % (len as u64 - 3)) as usize };
            Box::new(ConstantWeightCode::new(q, len, weight, seed))
        } else {
            Box::new(RandomCode::with_length(q, len, seed))
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let sent = rng.gen_range(0..q);
        let c = code.encode(sent);
        let distance = |t: usize| code.encode(t).iter().zip(&c).filter(|(a, b)| a != b).count();
        let nearest = (0..q)
            .filter(|&t| t != sent)
            .min_by_key(|&t| distance(t))
            .expect("q ≥ 2");
        for y in certificate_words(&c, &code.encode(nearest), &mut rng) {
            let y = PackedBits::from_bools(&y);
            for metric in [BitMetric::Hamming, BitMetric::ZUp, BitMetric::ZDown] {
                prop_assert_eq!(
                    code.decode_sent(sent, &y, metric),
                    code.decode_packed(&y, metric),
                    "q={} len={} constant_weight={} sent={} {:?}",
                    q, len, constant_weight, sent, metric
                );
            }
        }
    }
}
