//! The reproducibility contract: same seed, same everything — bitwise.
//!
//! Every experiment in `EXPERIMENTS.md` leans on this; pin it for every
//! simulator and channel so a regression cannot hide.

use noisy_beeps::channel::{run_protocol, NoiseModel};
use noisy_beeps::core::{
    run_owners_phase, HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator,
    RepetitionSimulator, RewindSimulator, Simulator, SimulatorConfig,
};
use noisy_beeps::protocols::{InputSet, RollCall};

#[test]
fn noisy_executions_are_seed_deterministic() {
    let p = InputSet::new(6);
    let inputs = [0usize, 3, 7, 7, 10, 2];
    for model in [
        NoiseModel::Correlated { epsilon: 0.3 },
        NoiseModel::OneSidedZeroToOne { epsilon: 0.3 },
        NoiseModel::OneSidedOneToZero { epsilon: 0.3 },
        NoiseModel::Independent { epsilon: 0.3 },
    ] {
        let a = run_protocol(&p, &inputs, model, 12345);
        let b = run_protocol(&p, &inputs, model, 12345);
        assert_eq!(a, b, "{model} diverged across identical runs");
        let c = run_protocol(&p, &inputs, model, 54321);
        assert!(
            a.views() != c.views() || a.corrupted_rounds() == c.corrupted_rounds(),
            "different seeds should (almost always) differ"
        );
    }
}

#[test]
fn all_simulators_are_seed_deterministic() {
    let n = 5;
    let p = InputSet::new(n);
    let inputs = [1usize, 4, 8, 2, 9];
    let model = NoiseModel::Correlated { epsilon: 0.15 };
    let config = SimulatorConfig::builder(n).model(model).build();

    let a = RepetitionSimulator::new(&p, config.clone())
        .simulate(&inputs, model, 7)
        .unwrap();
    let b = RepetitionSimulator::new(&p, config.clone())
        .simulate(&inputs, model, 7)
        .unwrap();
    assert_eq!(a, b);

    let a = RewindSimulator::new(&p, config.clone())
        .simulate(&inputs, model, 7)
        .unwrap();
    let b = RewindSimulator::new(&p, config.clone())
        .simulate(&inputs, model, 7)
        .unwrap();
    assert_eq!(a, b);

    let a = HierarchicalSimulator::new(&p, config.clone())
        .simulate(&inputs, model, 7)
        .unwrap();
    let b = HierarchicalSimulator::new(&p, config)
        .simulate(&inputs, model, 7)
        .unwrap();
    assert_eq!(a, b);

    let down = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
    let a = OneToZeroSimulator::new(&p, 2, 24.0)
        .simulate(&inputs, down, 7)
        .unwrap();
    let b = OneToZeroSimulator::new(&p, 2, 24.0)
        .simulate(&inputs, down, 7)
        .unwrap();
    assert_eq!(a, b);

    let rc = RollCall::new(n);
    let bits = [true, false, true, true, false];
    let cfg = SimulatorConfig::builder(n).model(model).build();
    let a = OwnedRoundsSimulator::new(&rc, cfg.clone())
        .simulate(&bits, model, 7)
        .unwrap();
    let b = OwnedRoundsSimulator::new(&rc, cfg)
        .simulate(&bits, model, 7)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn owners_phase_is_seed_deterministic() {
    let bits = vec![
        vec![true, false, true, false],
        vec![false, true, false, false],
        vec![true, true, false, false],
    ];
    let model = NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 };
    let a = run_owners_phase(&bits, model, 40, 3, 11);
    let b = run_owners_phase(&bits, model, 40, 3, 11);
    assert_eq!(a, b);
}
