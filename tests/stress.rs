//! Statistical stress tests: seed counts and sizes pushed far enough to
//! expose rare-event bugs (decode miscorrections, rewind livelocks,
//! agreement breaks) with real statistical power. They run with the rest
//! of the suite (about a second in a debug build on two cores):
//!
//! ```text
//! cargo test --test stress
//! ```

use noisy_beeps::channel::{run_noiseless, NoiseModel};
use noisy_beeps::core::{
    HierarchicalSimulator, OneToZeroSimulator, RewindSimulator, Simulator, SimulatorConfig,
};
use noisy_beeps::protocols::{InputSet, LeaderElection, Membership};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn rewind_scheme_hundreds_of_seeds() {
    let n = 12;
    let p = InputSet::new(n);
    let model = NoiseModel::Correlated { epsilon: 0.15 };
    let sim = RewindSimulator::new(&p, SimulatorConfig::builder(n).model(model).build());
    let mut rng = StdRng::seed_from_u64(0x57E55);
    let trials = 300u64;
    let mut bad = 0u32;
    for seed in 0..trials {
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        let truth = run_noiseless(&p, &inputs);
        match sim.simulate(&inputs, model, seed) {
            Ok(out) if out.transcript() == truth.transcript() => {}
            _ => bad += 1,
        }
    }
    assert!(bad <= 3, "{bad}/{trials} failures at eps=0.15");
}

#[test]
fn hierarchical_scheme_hundreds_of_seeds() {
    let n = 10;
    let p = LeaderElection::new(n, 12);
    let model = NoiseModel::Correlated { epsilon: 0.12 };
    let sim = HierarchicalSimulator::new(&p, SimulatorConfig::builder(n).model(model).build());
    let mut rng = StdRng::seed_from_u64(0x57E56);
    let trials = 200u64;
    let mut bad = 0u32;
    for seed in 0..trials {
        let ids: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4096)).collect();
        let truth = run_noiseless(&p, &ids);
        match sim.simulate(&ids, model, seed) {
            Ok(out) if out.outputs() == truth.outputs() => {}
            _ => bad += 1,
        }
    }
    assert!(bad <= 2, "{bad}/{trials} failures");
}

#[test]
fn one_to_zero_scheme_long_protocols() {
    // T = 2000-round protocols at the paper's eps = 1/3: the hierarchy of
    // checkpoints must hold the error probability down across hundreds of
    // erasures per run.
    let n = 5;
    let p = noisy_beeps::protocols::MultiOr::new(n, 2000);
    let model = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
    let sim = OneToZeroSimulator::new(&p, 2, 32.0);
    let mut rng = StdRng::seed_from_u64(0x57E57);
    let trials = 40u64;
    let mut bad = 0u32;
    for seed in 0..trials {
        let inputs: Vec<Vec<bool>> = (0..n)
            .map(|_| (0..2000).map(|_| rng.gen_bool(0.1)).collect())
            .collect();
        let truth = run_noiseless(&p, &inputs);
        match sim.simulate(&inputs, model, seed) {
            Ok(out) if out.transcript() == truth.transcript() => {}
            _ => bad += 1,
        }
    }
    assert!(bad <= 1, "{bad}/{trials} failures on long protocols");
}

#[test]
fn independent_noise_agreement_at_scale() {
    let n = 48;
    let p = InputSet::new(n);
    let model = NoiseModel::Independent { epsilon: 0.1 };
    let sim = RewindSimulator::new(&p, SimulatorConfig::builder(n).model(model).build());
    let mut rng = StdRng::seed_from_u64(0x57E58);
    let trials = 30u64;
    let mut disagreements = 0u32;
    let mut bad = 0u32;
    for seed in 0..trials {
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        let truth = run_noiseless(&p, &inputs);
        match sim.simulate(&inputs, model, seed) {
            Ok(out) => {
                if !out.stats().agreement {
                    disagreements += 1;
                }
                if out.transcript() != truth.transcript() {
                    bad += 1;
                }
            }
            Err(_) => bad += 1,
        }
    }
    assert!(bad <= 2, "{bad}/{trials} wrong transcripts");
    assert!(
        disagreements <= 3,
        "{disagreements}/{trials} agreement breaks"
    );
}

#[test]
fn deep_membership_under_paper_noise() {
    // The heaviest adaptive workload at the paper's exposition rate.
    let p = Membership::new(6, 32);
    let model = NoiseModel::Correlated { epsilon: 1.0 / 3.0 };
    let mut config = SimulatorConfig::builder(6).model(model).build();
    config.budget_factor = 16.0;
    let sim = RewindSimulator::new(&p, config);
    let inputs = [Some(3), Some(17), None, Some(30), None, Some(8)];
    let truth = run_noiseless(&p, &inputs);
    let trials = 25u64;
    let mut bad = 0u32;
    for seed in 0..trials {
        match sim.simulate(&inputs, model, seed) {
            Ok(out) if out.outputs() == truth.outputs() => {}
            _ => bad += 1,
        }
    }
    assert!(bad <= 2, "{bad}/{trials} failures at eps=1/3");
}
