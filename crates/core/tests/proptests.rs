//! Property-based tests for the coding schemes: invariants that must hold
//! for arbitrary inputs, not just curated scenarios.

use beeps_channel::{NoiseModel, Protocol};
use beeps_core::{run_owners_phase, RewindSimulator, Simulator, SimulatorConfig};
use beeps_protocols::InputSet;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over a noiseless channel, Algorithm 1's owners phase is valid for
    /// every bit matrix: agreed owners who really beeped.
    #[test]
    fn owners_phase_valid_noiselessly(
        bits in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 5),
            1..6,
        ),
        code_seed in any::<u64>(),
    ) {
        let out = run_owners_phase(&bits, NoiseModel::Noiseless, 24, code_seed, 0);
        prop_assert!(out.valid_for(&bits));
    }

    /// First-claimant-in-turn-order: the owner of every 1-round is the
    /// lowest-indexed party that beeped there, when the phase is clean.
    #[test]
    fn owners_are_lowest_beepers_noiselessly(
        bits in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 4),
            1..5,
        ),
    ) {
        let out = run_owners_phase(&bits, NoiseModel::Noiseless, 24, 7, 0);
        for j in 0..4 {
            let lowest = (0..bits.len()).find(|&i| bits[i][j]);
            prop_assert_eq!(out.owners[0][j], lowest);
        }
    }

    /// Config sizing is monotone: more noise never shrinks any parameter.
    #[test]
    fn config_monotone_in_eps(n in 1usize..64, step in 1usize..5) {
        let lo = 0.05 * step as f64;
        let hi = (lo + 0.1).min(0.45);
        let a = SimulatorConfig::builder(n).model(NoiseModel::Correlated { epsilon: lo }).build();
        let b = SimulatorConfig::builder(n).model(NoiseModel::Correlated { epsilon: hi }).build();
        prop_assert!(b.repetitions >= a.repetitions);
        prop_assert!(b.code_len >= a.code_len);
        prop_assert!(b.verify_repetitions >= a.verify_repetitions);
    }

    /// Phase-round accounting partitions the run for arbitrary instances.
    #[test]
    fn phase_rounds_partition_channel_rounds(
        n in 2usize..7,
        seed in any::<u64>(),
        input_seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let p = InputSet::new(n);
        let mut rng = StdRng::seed_from_u64(input_seed);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        let model = NoiseModel::Correlated { epsilon: 0.1 };
        let sim = RewindSimulator::new(&p, SimulatorConfig::builder(n).model(model).build());
        if let Ok(out) = sim.simulate(&inputs, model, seed) {
            let ph = out.stats().phase_rounds;
            prop_assert_eq!(
                ph.chunk + ph.owners + ph.verify,
                out.stats().channel_rounds
            );
            prop_assert!(out.stats().agreement);
            prop_assert_eq!(out.transcript().len(), p.length());
        }
    }

    /// Through the [`beeps_core::Simulator`] trait, every scheme
    /// reproduces the noiseless transcript exactly when the channel is
    /// noise-free.
    #[test]
    fn every_scheme_is_exact_at_zero_noise(
        n in 2usize..7,
        seed in any::<u64>(),
        input_seed in any::<u64>(),
    ) {
        use beeps_core::{
            HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator,
            RepetitionSimulator, Simulator,
        };
        use beeps_protocols::RollCall;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let p = InputSet::new(n);
        let mut rng = StdRng::seed_from_u64(input_seed);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        let truth = beeps_channel::run_noiseless(&p, &inputs);
        let config = SimulatorConfig::builder(n).model(NoiseModel::Noiseless).build();
        let rep = RepetitionSimulator::new(&p, config.clone());
        let rew = RewindSimulator::new(&p, config.clone());
        let hier = HierarchicalSimulator::new(&p, config);
        let z = OneToZeroSimulator::new(&p, 2, 32.0);
        let schemes: Vec<&dyn Simulator<_, _>> = vec![&rep, &rew, &hier, &z];
        for sim in schemes {
            let out = sim.simulate(&inputs, NoiseModel::Noiseless, seed);
            prop_assert!(out.is_ok(), "{} failed at eps=0", sim.name());
            prop_assert_eq!(
                out.unwrap().transcript(),
                truth.transcript(),
                "{} transcript diverged at eps=0",
                sim.name()
            );
        }

        // The owned-rounds scheme needs a uniquely-owned workload.
        let rc = RollCall::new(n);
        let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let rc_truth = beeps_channel::run_noiseless(&rc, &bits);
        let owned = OwnedRoundsSimulator::new(
            &rc,
            SimulatorConfig::builder(n).model(NoiseModel::Noiseless).build(),
        );
        let owned: &dyn Simulator<_, _> = &owned;
        let out = owned.simulate(&bits, NoiseModel::Noiseless, seed);
        prop_assert!(out.is_ok(), "owned_rounds failed at eps=0");
        prop_assert_eq!(out.unwrap().transcript(), rc_truth.transcript());
    }

    /// Single-party simulations work for any input (degenerate owners
    /// phase, trivial verification).
    #[test]
    fn single_party_simulation(input in 0usize..2, seed in any::<u64>()) {
        let p = InputSet::new(1);
        let model = NoiseModel::Correlated { epsilon: 0.1 };
        let sim = RewindSimulator::new(&p, SimulatorConfig::builder(1).model(model).build());
        if let Ok(out) = sim.simulate(&[input], model, seed) {
            let truth = beeps_channel::run_noiseless(&p, &[input]);
            prop_assert_eq!(out.transcript(), truth.transcript());
        }
    }
}
