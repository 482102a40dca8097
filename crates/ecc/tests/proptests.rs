//! Property-based tests for the symbol codes: clean roundtrips, Z-channel
//! decoding and certified decoding hold for *arbitrary* seeds, symbols
//! and received words, not just the hand-picked ones in the unit tests.

use beeps_ecc::{BitMetric, CodeTable};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Codeword `symbol` of `code`, unpacked.
fn bools(code: &CodeTable, symbol: usize) -> Vec<bool> {
    let word = code.codeword(symbol);
    (0..code.codeword_len())
        .map(|i| word[i / 64] >> (i % 64) & 1 == 1)
        .collect()
}

/// `bits`, packed into limbs as a codeword is.
fn limbs(bits: &[bool]) -> Vec<u64> {
    let mut limbs = vec![0u64; bits.len().div_ceil(64)];
    for (i, &bit) in bits.iter().enumerate() {
        limbs[i / 64] |= u64::from(bit) << (i % 64);
    }
    limbs
}

/// A code of `q` symbols whose length is `expansion` times the bits
/// that name one, `max(⌈log₂ q⌉, 1)`.
fn expanded(q: usize, expansion: usize, seed: u64) -> CodeTable {
    let bits = (usize::BITS - (q - 1).leading_zeros()).max(1) as usize;
    CodeTable::with_length(q, expansion * bits, seed)
}

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

    /// Random codes roundtrip cleanly for every symbol and seed.
    #[test]
    fn random_code_roundtrips(seed in any::<u64>(), q in 2usize..64) {
        let code = expanded(q, 8, seed);
        for s in 0..q {
            prop_assert_eq!(code.decode(code.codeword(s), BitMetric::Hamming), s);
        }
    }

    /// Z-up metric decodes any received word that covers exactly one
    /// codeword (no erasures of 1s have happened).
    #[test]
    fn zup_decodes_covering_words(seed in any::<u64>(), symbol in 0usize..16) {
        let code = expanded(16, 10, seed);
        let mut w = bools(&code, symbol);
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
        let decoded = code.decode(&limbs(&w), BitMetric::ZUp);
        if decoded != symbol {
            // Then the decoded word must also be covered and sparser.
            let alt = bools(&code, decoded);
            let covered = alt.iter().zip(&w).all(|(&c, &r)| !c || r);
            prop_assert!(covered, "ZUp returned an impossible codeword");
        }
    }
}

/// The symbol whose codeword is nearest `word` in Hamming distance,
/// the first on a tie.
fn closest(code: &CodeTable, word: &[u64]) -> usize {
    let distance = |t: usize| -> u32 {
        let codeword = code.codeword(t);
        codeword
            .iter()
            .zip(word)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum()
    };
    (0..code.alphabet_size())
        .min_by_key(|&t| distance(t))
        .expect("q ≥ 2")
}

/// A random (`constant_weight` false) or constant-weight code of `q`
/// symbols and length `len`, drawn from `seed`.
fn table_code(q: usize, len: usize, constant_weight: bool, seed: u64) -> CodeTable {
    if constant_weight {
        // Every weight in 2..=len-2 has enough supports for q = 65 once
        // len ≥ 63; at len 8 only weight 4 does.
        let weight = if len == 8 {
            4
        } else {
            2 + (seed % (len as u64 - 3)) as usize
        };
        CodeTable::constant_weight(q, len, weight, seed)
    } else {
        CodeTable::with_length(q, len, seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The certified decode returns exactly the full scan's symbol, for
    /// both table codes under every metric, at q ∈ {2, 3, 17, 65} and
    /// code lengths around the limb boundaries, on the words of
    /// [`certificate_words`]. Under Hamming an even radius puts the
    /// boundary word, a tie with the nearest neighbour, on both walks.
    /// `decode_near` is given
    /// each of these references: the codeword closest to the word, the
    /// walk's other codeword (so a tie's later symbol is a reference at
    /// the midpoint), the closest codeword with one bit flipped, the OR
    /// of the walk's two codewords and the all-zero word — the true OR
    /// word of an owners codeword when the parties agree on the turn,
    /// and when they do not.
    #[test]
    fn certified_decode_matches_full_scan(
        q_index in 0usize..4,
        len_index in 0usize..5,
        constant_weight in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let q = [2usize, 3, 17, 65][q_index];
        let len = [8usize, 63, 64, 65, 130][len_index];
        let code = table_code(q, len, constant_weight, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let sent = rng.gen_range(0..q);
        let c = bools(&code, sent);
        let distance = |t: usize| bools(&code, t).iter().zip(&c).filter(|(a, b)| a != b).count();
        let nearest = (0..q)
            .filter(|&t| t != sent)
            .min_by_key(|&t| distance(t))
            .expect("q ≥ 2");
        let or: Vec<bool> = c.iter().zip(bools(&code, nearest)).map(|(&a, b)| a | b).collect();
        for y in certificate_words(&c, &bools(&code, nearest), &mut rng) {
            let y = limbs(&y);
            let close = closest(&code, &y);
            let other = if close == sent { nearest } else { sent };
            let mut flipped = bools(&code, close);
            let bit = rng.gen_range(0..len);
            flipped[bit] = !flipped[bit];
            let references = [
                code.codeword(close).to_vec(),
                code.codeword(other).to_vec(),
                limbs(&flipped),
                limbs(&or),
                limbs(&vec![false; len]),
            ];
            for metric in [BitMetric::Hamming, BitMetric::ZUp, BitMetric::ZDown] {
                let scan = code.decode(&y, metric);
                for reference in &references {
                    prop_assert_eq!(
                        code.decode_near(reference, &y, metric),
                        scan,
                        "q={} len={} constant_weight={} reference={:?} {:?}",
                        q, len, constant_weight, reference, metric
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The count-form certificate is a proof, and the table codes give
    /// exactly `2k < r`: whenever `certifies(sent, k)` holds, the full
    /// scan decodes `c ⊕ m` to `sent` for random masks `m` of weight `k`
    /// on the bits `metric` charges one each — any bit under Hamming, a
    /// 0 of `c` under `ZUp`, a 1 under `ZDown`, the flips of the noise
    /// each metric is matched to. Every weight up to the eligible bits'
    /// count is asked, for both table codes at the sizes of
    /// `certified_decode_matches_full_scan`.
    #[test]
    fn count_certificate_holds_for_every_eligible_mask(
        q_index in 0usize..4,
        len_index in 0usize..5,
        constant_weight in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let q = [2usize, 3, 17, 65][q_index];
        let len = [8usize, 63, 64, 65, 130][len_index];
        let code = table_code(q, len, constant_weight, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let sent = rng.gen_range(0..q);
        let c = bools(&code, sent);
        let radius = (0..q)
            .filter(|&t| t != sent)
            .map(|t| bools(&code, t).iter().zip(&c).filter(|(a, b)| a != b).count())
            .min()
            .expect("q ≥ 2");
        for metric in [BitMetric::Hamming, BitMetric::ZUp, BitMetric::ZDown] {
            let mut eligible: Vec<usize> = (0..len)
                .filter(|&i| match metric {
                    BitMetric::Hamming => true,
                    BitMetric::ZUp => !c[i],
                    BitMetric::ZDown => c[i],
                })
                .collect();
            for k in 0..=eligible.len() {
                let certified = code.certifies(sent, k);
                prop_assert_eq!(certified, 2 * k < radius, "q={} len={} k={} r={}", q, len, k, radius);
                if !certified {
                    continue;
                }
                for _ in 0..4 {
                    shuffle(&mut eligible, &mut rng);
                    let mut y = c.clone();
                    for &i in &eligible[..k] {
                        y[i] = !y[i];
                    }
                    prop_assert_eq!(
                        code.decode(&limbs(&y), metric),
                        sent,
                        "q={} len={} constant_weight={} sent={} k={} {:?}",
                        q, len, constant_weight, sent, k, metric
                    );
                }
            }
        }
    }
}
