//! Integration tests for the extension systems: the hierarchical (D.2)
//! simulator, protocol combinators, the pointer-chasing workload, the
//! correcting adversary, and the multiplication-channel view.

use noisy_beeps::channel::{
    run_noiseless, run_protocol_over, BurstNoiseChannel, Channel, CorrectingAdversaryChannel,
    CorrectionPolicy, NoiseModel, Protocol, ScriptedChannel,
};
use noisy_beeps::core::{HierarchicalSimulator, RewindSimulator, Simulator, SimulatorConfig};
use noisy_beeps::protocols::combinators::{Chained, ParallelRepeat};
use noisy_beeps::protocols::{Broadcast, InputSet, PointerChase, RollCall};

#[test]
fn hierarchical_simulator_over_scripted_adversary() {
    // A scripted burst inside the first chunk: the level-0 check must
    // truncate it and the end result must still be exact.
    let n = 4;
    let p = InputSet::new(n);
    let inputs = [1usize, 3, 4, 6];
    let truth = run_noiseless(&p, &inputs);
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let config = SimulatorConfig::builder(n).model(model).build();
    let r = config.repetitions;
    let sim = HierarchicalSimulator::new(&p, config);
    let mut flips = vec![false; r];
    for f in flips.iter_mut() {
        *f = true;
    }
    let mut ch = ScriptedChannel::new(n, flips);
    let out = sim.simulate_over(&inputs, model, &mut ch).unwrap();
    assert_eq!(out.transcript(), truth.transcript());
    assert!(out.stats().rewinds >= 1, "{:?}", out.stats());
}

#[test]
fn pointer_chase_protected_by_both_theorem_1_2_schemes() {
    // The most sequential workload: one corrupted phase derails the
    // noiseless protocol, but both simulators keep it exact.
    let p = PointerChase::new(3, 8, 6);
    let tables = vec![
        vec![4, 2, 7, 1, 0, 3, 6, 5],
        vec![1, 5, 0, 2, 6, 7, 3, 4],
        vec![3, 0, 1, 6, 2, 4, 5, 7],
    ];
    let truth = run_noiseless(&p, &tables);
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let config = SimulatorConfig::builder(3).model(model).build();

    let rewind = RewindSimulator::new(&p, config.clone());
    let hier = HierarchicalSimulator::new(&p, config);
    let mut rewind_good = 0;
    let mut hier_good = 0;
    for seed in 0..6 {
        if let Ok(out) = rewind.simulate(&tables, model, seed) {
            rewind_good += u32::from(out.outputs() == truth.outputs());
        }
        if let Ok(out) = hier.simulate(&tables, model, seed) {
            hier_good += u32::from(out.outputs() == truth.outputs());
        }
    }
    assert!(rewind_good >= 5, "rewind: {rewind_good}/6");
    assert!(hier_good >= 5, "hierarchical: {hier_good}/6");
}

#[test]
fn chained_pipeline_simulates_exactly() {
    // RollCall feeding InputSet, protected end to end.
    let p = Chained::new(RollCall::new(4), InputSet::new(4), |_, count| count % 8);
    let inputs = [true, true, false, true];
    let truth = run_noiseless(&p, &inputs);
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let sim = RewindSimulator::new(&p, SimulatorConfig::builder(4).model(model).build());
    let mut good = 0;
    for seed in 0..6 {
        if let Ok(out) = sim.simulate(&inputs, model, seed) {
            good += u32::from(out.outputs() == truth.outputs());
        }
    }
    assert!(good >= 5, "{good}/6 pipelines exact");
}

#[test]
fn parallel_repeat_simulates_exactly() {
    let p = ParallelRepeat::new(Broadcast::new(3, 1, 6), 3);
    let inputs = [0usize, 0x2A, 0];
    let truth = run_noiseless(&p, &inputs);
    let model = NoiseModel::OneSidedZeroToOne { epsilon: 0.25 };
    let sim = RewindSimulator::new(&p, SimulatorConfig::builder(3).model(model).build());
    let out = sim.simulate(&inputs, model, 7).unwrap();
    assert_eq!(out.outputs(), truth.outputs());
    assert_eq!(out.outputs()[0], vec![0x2A, 0x2A, 0x2A]);
}

#[test]
fn correcting_adversary_matches_one_sided_statistics_through_protocols() {
    // Running the naked InputSet over (two-sided + DownFlips adversary)
    // must behave like the one-sided 0->1 channel: phantom elements only.
    let n = 8;
    let p = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (2 * i) % (2 * n)).collect();
    let expect = run_noiseless(&p, &inputs).outputs()[0].clone();
    for seed in 0..20 {
        let mut ch =
            CorrectingAdversaryChannel::new(n, 1.0 / 3.0, CorrectionPolicy::DownFlips, seed);
        let out = run_protocol_over(&p, &inputs, &mut ch);
        // Every true element must survive (beeps are never erased)...
        for x in expect.iter() {
            assert!(
                out.outputs()[0].contains(x),
                "adversary channel erased a beep"
            );
        }
        // ...and corrections were only ever applied to down-flips.
        assert!(ch.rounds() == p.length());
    }
}

#[test]
fn simulators_work_over_the_adversary_channel() {
    // Parameters sized for the one-sided model must survive the
    // adversarially-corrected two-sided channel (they are the same
    // channel, which is the A.1.2 point).
    let n = 6;
    let p = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (5 * i) % (2 * n)).collect();
    let truth = run_noiseless(&p, &inputs);
    let model = NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 };
    let sim = RewindSimulator::new(&p, SimulatorConfig::builder(n).model(model).build());
    let mut good = 0;
    for seed in 0..6 {
        let mut ch =
            CorrectingAdversaryChannel::new(n, 1.0 / 3.0, CorrectionPolicy::DownFlips, 900 + seed);
        if let Ok(out) = sim.simulate_over(&inputs, model, &mut ch) {
            good += u32::from(out.transcript() == truth.transcript());
        }
    }
    assert!(good >= 5, "{good}/6 exact over the adversary channel");
}

#[test]
fn rewind_scheme_survives_burst_noise() {
    // The paper assumes i.i.d. noise; the rewind discipline also handles
    // Markov-modulated bursts (a burst ruins a chunk, which is redone) —
    // configure for the burst channel's *stationary* rate and simulate
    // over the bursty channel itself.
    let n = 6;
    let p = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (7 * i) % (2 * n)).collect();
    let truth = run_noiseless(&p, &inputs);
    let probe = BurstNoiseChannel::new(n, 0.02, 0.4, 0.05, 0.15, 0);
    let stationary = probe.stationary_flip_rate();
    let model = NoiseModel::Correlated {
        epsilon: stationary.max(0.05),
    };
    let mut config = SimulatorConfig::builder(n).model(model).build();
    config.budget_factor = 24.0;
    let sim = RewindSimulator::new(&p, config);
    let mut good = 0;
    let trials = 8;
    for seed in 0..trials {
        let mut ch = BurstNoiseChannel::new(n, 0.02, 0.4, 0.05, 0.15, 40 + seed);
        if let Ok(out) = sim.simulate_over(&inputs, model, &mut ch) {
            good += u32::from(out.transcript() == truth.transcript());
        }
    }
    assert!(
        u64::from(good) >= trials - 2,
        "only {good}/{trials} exact under bursts"
    );
}

#[test]
fn phase_round_accounting_is_complete_and_owners_dominated() {
    // The per-phase counters must sum to the channel rounds, and on
    // InputSet the owners phase must dominate (the E13 observation).
    let n = 8;
    let p = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (3 * i) % (2 * n)).collect();
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let sim = RewindSimulator::new(&p, SimulatorConfig::builder(n).model(model).build());
    let out = sim.simulate(&inputs, model, 5).unwrap();
    let ph = out.stats().phase_rounds;
    assert_eq!(
        ph.chunk + ph.owners + ph.verify,
        out.stats().channel_rounds,
        "phase rounds must partition the run"
    );
    assert!(
        ph.owners_fraction() > 0.5,
        "owners phase should dominate: {ph:?}"
    );
}

#[test]
fn repetition_scheme_attributes_everything_to_chunk_phase() {
    use noisy_beeps::core::RepetitionSimulator;
    let p = InputSet::new(4);
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let sim = RepetitionSimulator::new(&p, SimulatorConfig::builder(4).model(model).build());
    let out = sim.simulate(&[0, 1, 2, 3], model, 1).unwrap();
    let ph = out.stats().phase_rounds;
    assert_eq!(ph.chunk, out.stats().channel_rounds);
    assert_eq!(ph.owners, 0);
    assert_eq!(ph.verify, 0);
}

#[test]
fn low_energy_code_cuts_owners_phase_energy() {
    // Same scheme, same channel, constant-weight owners code: the run
    // stays exact while the energy drops substantially.
    let n = 8;
    let p = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (5 * i + 1) % (2 * n)).collect();
    let truth = run_noiseless(&p, &inputs);
    let model = NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 };
    let base = SimulatorConfig::builder(n).model(model).build();
    let mut frugal = base.clone();
    // A third of the length keeps decoding reliable (enough distinguishing
    // ones under Z noise) while roughly halving the per-word energy
    // against the random code's len/2 expectation.
    frugal.code_weight = Some((base.code_len / 3).max(4));

    let mut a_energy = 0usize;
    let mut b_energy = 0usize;
    let trials = 6;
    for seed in 0..trials {
        let a = RewindSimulator::new(&p, base.clone())
            .simulate(&inputs, model, seed)
            .unwrap();
        let b = RewindSimulator::new(&p, frugal.clone())
            .simulate(&inputs, model, seed)
            .unwrap();
        assert_eq!(a.transcript(), truth.transcript());
        assert_eq!(b.transcript(), truth.transcript());
        a_energy += a.stats().energy;
        b_energy += b.stats().energy;
    }
    assert!(
        b_energy < a_energy,
        "constant-weight code should cut energy: {b_energy} vs {a_energy}"
    );
}
