//! End-to-end matrix: every library protocol, simulated by the paper's
//! schemes, over every applicable noise regime, must reproduce the
//! noiseless execution.

use noisy_beeps::channel::{run_noiseless, NoiseModel, Protocol};
use noisy_beeps::core::{
    OneToZeroSimulator, RepetitionSimulator, RewindSimulator, Simulator, SimulatorConfig,
};
use noisy_beeps::protocols::{Census, FireflySync, InputSet, LeaderElection, Membership, MultiOr};
use rand::{rngs::StdRng, SeedableRng};

/// Runs a protocol through both general-purpose simulators over `model`
/// and checks the simulated transcript matches the noiseless one in at
/// least `min_good` out of `trials` seeds each.
fn check_schemes<P: Protocol>(
    protocol: &P,
    inputs: &[P::Input],
    model: NoiseModel,
    trials: u64,
    min_good: usize,
) {
    let truth = run_noiseless(protocol, inputs);
    let config = SimulatorConfig::builder(protocol.num_parties())
        .model(model)
        .build();

    let rep = RepetitionSimulator::new(protocol, config.clone());
    let mut good = 0;
    for seed in 0..trials {
        if let Ok(out) = rep.simulate(inputs, model, seed) {
            if out.transcript() == truth.transcript() {
                good += 1;
            }
        }
    }
    assert!(
        good >= min_good,
        "repetition: only {good}/{trials} exact over {model}"
    );

    let rewind = RewindSimulator::new(protocol, config);
    let mut good = 0;
    for seed in 0..trials {
        if let Ok(out) = rewind.simulate(inputs, model, seed) {
            if out.transcript() == truth.transcript() {
                good += 1;
            }
        }
    }
    assert!(
        good >= min_good,
        "rewind: only {good}/{trials} exact over {model}"
    );
}

#[test]
fn input_set_over_correlated_noise() {
    let p = InputSet::new(6);
    check_schemes(
        &p,
        &[0, 3, 7, 7, 10, 2],
        NoiseModel::Correlated { epsilon: 0.15 },
        8,
        7,
    );
}

#[test]
fn input_set_over_one_sided_up_noise() {
    let p = InputSet::new(6);
    check_schemes(
        &p,
        &[1, 1, 4, 9, 11, 0],
        NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 },
        8,
        7,
    );
}

#[test]
fn leader_election_over_correlated_noise() {
    let p = LeaderElection::new(5, 8);
    check_schemes(
        &p,
        &[17, 230, 101, 5, 64],
        NoiseModel::Correlated { epsilon: 0.1 },
        6,
        5,
    );
}

#[test]
fn membership_over_independent_noise() {
    let p = Membership::new(4, 8);
    check_schemes(
        &p,
        &[Some(1), Some(6), None, Some(3)],
        NoiseModel::Independent { epsilon: 0.08 },
        6,
        5,
    );
}

#[test]
fn multi_or_over_one_sided_down_noise() {
    let p = MultiOr::new(4, 12);
    let inputs: Vec<Vec<bool>> = (0..4)
        .map(|i| (0..12).map(|m| (m + i) % 4 == 0).collect())
        .collect();
    check_schemes(
        &p,
        &inputs,
        NoiseModel::OneSidedOneToZero { epsilon: 0.25 },
        6,
        5,
    );
}

#[test]
fn census_tape_roundtrip_over_noise() {
    let n = 12;
    let p = Census::new(n, 10);
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let inputs: Vec<Vec<bool>> = (0..n).map(|_| p.sample_input(&mut rng)).collect();
    check_schemes(&p, &inputs, NoiseModel::Correlated { epsilon: 0.1 }, 5, 4);
}

#[test]
fn firefly_over_correlated_noise() {
    let p = FireflySync::new(6, 9);
    check_schemes(
        &p,
        &[2, 8, 5, 0, 7, 4],
        NoiseModel::Correlated { epsilon: 0.12 },
        6,
        5,
    );
}

#[test]
fn one_to_zero_scheme_across_protocols() {
    let model = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };

    let p = InputSet::new(10);
    let inputs: Vec<usize> = (0..10).map(|i| (7 * i) % 20).collect();
    let truth = run_noiseless(&p, &inputs);
    let sim = OneToZeroSimulator::new(&p, 2, 24.0);
    let mut good = 0;
    for seed in 0..10 {
        if let Ok(out) = sim.simulate(&inputs, model, seed) {
            if out.transcript() == truth.transcript() {
                good += 1;
            }
        }
    }
    assert!(good >= 9, "InputSet over 1->0: {good}/10");

    let p = Membership::new(3, 16);
    let inputs = [Some(9), Some(2), None];
    let truth = run_noiseless(&p, &inputs);
    let sim = OneToZeroSimulator::new(&p, 2, 24.0);
    let mut good = 0;
    for seed in 0..10 {
        if let Ok(out) = sim.simulate(&inputs, model, seed) {
            if out.outputs() == truth.outputs() {
                good += 1;
            }
        }
    }
    assert!(good >= 9, "Membership over 1->0: {good}/10");
}

#[test]
fn overhead_ordering_matches_theory() {
    // At the same eps, the constant-overhead 1->0 scheme must be cheaper
    // than the rewind scheme, which must be cheaper than repetition made
    // reliable to the same target... (repetition is cheap per round but
    // the comparison the paper cares about is rewind vs the trivial
    // protocol). Check the robust ordering: 1->0 constant < rewind.
    let n = 16;
    let p = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (3 * i) % (2 * n)).collect();

    let down = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
    let z = OneToZeroSimulator::new(&p, 2, 24.0)
        .simulate(&inputs, down, 1)
        .unwrap();

    let up = NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 };
    let r = RewindSimulator::new(&p, SimulatorConfig::builder(n).model(up).build())
        .simulate(&inputs, up, 1)
        .unwrap();

    assert!(
        z.stats().overhead() < r.stats().overhead(),
        "1->0 ({:.1}x) should beat 0->1 ({:.1}x)",
        z.stats().overhead(),
        r.stats().overhead()
    );
}
