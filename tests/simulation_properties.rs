//! Property-based tests: the simulation schemes must reproduce the
//! noiseless execution of *arbitrary* (adaptive, randomly generated)
//! protocols — not just the curated library ones.

use noisy_beeps::channel::{run_noiseless, NoiseModel, Protocol};
use noisy_beeps::core::{RepetitionSimulator, RewindSimulator, Simulator, SimulatorConfig};
use proptest::prelude::*;

/// A pseudorandom adaptive protocol: each party's beep decision is a hash
/// of (its index, its input, the transcript so far), so the protocol is
/// deterministic yet maximally transcript-dependent.
#[derive(Debug, Clone)]
struct HashProtocol {
    n: usize,
    t: usize,
    salt: u64,
    /// Probability (per mille) that any given (party, input, transcript)
    /// combination beeps — controls transcript density.
    density: u64,
}

impl HashProtocol {
    fn mix(&self, party: usize, input: u64, transcript: &[bool]) -> u64 {
        // FNV-1a over the decision context.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.salt;
        let mut absorb = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for b in party.to_le_bytes() {
            absorb(b);
        }
        for b in input.to_le_bytes() {
            absorb(b);
        }
        absorb(transcript.len() as u8);
        for (i, &bit) in transcript.iter().enumerate() {
            absorb((i as u8) ^ u8::from(bit).wrapping_mul(0x5A));
        }
        h
    }
}

impl Protocol for HashProtocol {
    type Input = u64;
    type Output = Vec<bool>;

    fn num_parties(&self) -> usize {
        self.n
    }

    fn length(&self) -> usize {
        self.t
    }

    fn beep(&self, party: usize, input: &u64, transcript: &[bool]) -> bool {
        self.mix(party, *input, transcript) % 1000 < self.density
    }

    fn output(&self, _party: usize, _input: &u64, transcript: &[bool]) -> Vec<bool> {
        transcript.to_vec()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With zero noise and one repetition, simulation is a pure replay.
    #[test]
    fn noiseless_simulation_replays_any_protocol(
        n in 1usize..6,
        t in 1usize..24,
        salt in any::<u64>(),
        density in 50u64..800,
        inputs_seed in any::<u64>(),
    ) {
        let p = HashProtocol { n, t, salt, density };
        let inputs: Vec<u64> = (0..n as u64).map(|i| inputs_seed.wrapping_add(i * 7919)).collect();
        let truth = run_noiseless(&p, &inputs);

        let mut config = SimulatorConfig::builder(n).model(NoiseModel::Noiseless).build();
        config.repetitions = 1;
        let sim = RepetitionSimulator::new(&p, config.clone());
        let out = sim.simulate(&inputs, NoiseModel::Noiseless, 0).unwrap();
        prop_assert_eq!(out.transcript(), truth.transcript());
        prop_assert_eq!(out.stats().channel_rounds, t);

        let rewind = RewindSimulator::new(&p, config);
        let out = rewind.simulate(&inputs, NoiseModel::Noiseless, 0).unwrap();
        prop_assert_eq!(out.transcript(), truth.transcript());
        prop_assert_eq!(out.stats().rewinds, 0);
    }

    /// The rewind scheme reproduces arbitrary adaptive protocols over
    /// mild correlated noise.
    #[test]
    fn rewind_simulates_arbitrary_protocols_under_noise(
        n in 2usize..5,
        t in 2usize..16,
        salt in any::<u64>(),
        density in 100u64..600,
        seed in any::<u64>(),
    ) {
        let p = HashProtocol { n, t, salt, density };
        let inputs: Vec<u64> = (0..n as u64).map(|i| salt.wrapping_mul(31).wrapping_add(i)).collect();
        let truth = run_noiseless(&p, &inputs);

        let model = NoiseModel::Correlated { epsilon: 0.05 };
        let mut config = SimulatorConfig::builder(n).model(model).build();
        config.budget_factor = 16.0;
        let sim = RewindSimulator::new(&p, config);
        // A single seed may legitimately fail (the scheme is randomized);
        // require success within a few tries to keep flakiness ~0 while
        // still catching systematic bugs.
        let mut ok = false;
        for attempt in 0..4u64 {
            if let Ok(out) = sim.simulate(&inputs, model, seed.wrapping_add(attempt)) {
                if out.transcript() == truth.transcript() {
                    ok = true;
                    break;
                }
            }
        }
        prop_assert!(ok, "no exact simulation in 4 attempts");
    }

    /// Simulated transcripts always have the protocol's length and all
    /// parties agree under shared noise.
    #[test]
    fn transcript_shape_invariants(
        n in 1usize..5,
        t in 1usize..12,
        salt in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let p = HashProtocol { n, t, salt, density: 300 };
        let inputs: Vec<u64> = (0..n as u64).collect();
        let model = NoiseModel::OneSidedZeroToOne { epsilon: 0.2 };
        let config = SimulatorConfig::builder(n).model(model).build();
        let sim = RewindSimulator::new(&p, config);
        if let Ok(out) = sim.simulate(&inputs, model, seed) {
            prop_assert_eq!(out.transcript().len(), t);
            prop_assert!(out.stats().agreement, "shared noise must preserve agreement");
            prop_assert!(out.stats().channel_rounds >= t);
        }
    }
}
