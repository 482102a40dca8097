//! Failure injection: adversarially scripted noise against the coding
//! schemes. The stochastic tests elsewhere measure average-case behaviour;
//! these place every flip by hand and check the mechanisms (detection,
//! rewind, budget exhaustion) fire exactly as designed.

use noisy_beeps::channel::{run_noiseless, NoiseModel, Protocol, ScriptedChannel};
use noisy_beeps::core::{RewindSimulator, Simulator, SimulatorConfig};
use noisy_beeps::protocols::{InputSet, MultiOr};

fn config_for(n: usize) -> SimulatorConfig {
    // Thresholds for a two-sided channel; the scripts below corrupt rounds
    // deterministically.
    SimulatorConfig::builder(n)
        .model(NoiseModel::Correlated { epsilon: 0.2 })
        .build()
}

#[test]
fn clean_script_simulates_exactly_with_zero_rewinds() {
    let p = InputSet::new(4);
    let inputs = [0usize, 2, 5, 7];
    let truth = run_noiseless(&p, &inputs);
    let sim = RewindSimulator::new(&p, config_for(4));
    let mut ch = ScriptedChannel::new(4, vec![]); // no flips ever
    let out = sim
        .simulate_over(&inputs, NoiseModel::Correlated { epsilon: 0.2 }, &mut ch)
        .unwrap();
    assert_eq!(out.transcript(), truth.transcript());
    assert_eq!(out.stats().rewinds, 0);
}

#[test]
fn a_corrupted_chunk_is_rewound_and_resimulated() {
    let n = 4;
    let p = InputSet::new(n);
    let inputs = [1usize, 3, 4, 6];
    let truth = run_noiseless(&p, &inputs);
    let config = config_for(n);
    let r = config.repetitions;
    let sim = RewindSimulator::new(&p, config);

    // Corrupt a whole repetition block of the first chunk round: the
    // majority decode flips the simulated bit, verification must flag it,
    // and the chunk must be re-simulated — ending exact anyway.
    let mut flips = vec![false; r];
    for f in flips.iter_mut() {
        *f = true;
    }
    let mut ch = ScriptedChannel::new(n, flips);
    let out = sim
        .simulate_over(&inputs, NoiseModel::Correlated { epsilon: 0.2 }, &mut ch)
        .unwrap();
    assert_eq!(out.transcript(), truth.transcript());
    assert!(
        out.stats().rewinds >= 1,
        "the corrupted chunk must trigger a rewind, got {:?}",
        out.stats()
    );
}

#[test]
fn flipping_a_verification_flag_forces_a_spurious_rewind() {
    let n = 4;
    let p = InputSet::new(n);
    let inputs = [0usize, 1, 2, 3];
    let truth = run_noiseless(&p, &inputs);
    let config = config_for(n);
    let sim = RewindSimulator::new(&p, config.clone());

    // Compute where the first verification phase sits and corrupt ALL its
    // rounds: a unanimous phantom flag.
    let l = config.chunk_len.min(p.length());
    let chunk_rounds = l * config.repetitions;
    let owners_rounds = (config.chunk_len + n) * config.code_len;
    // The first chunk is full-length here (2n >= chunk_len? with n=4,
    // T=8, chunk_len=4 -> l=4).
    let verify_start = chunk_rounds + owners_rounds;
    let mut flips = vec![false; verify_start + config.verify_repetitions];
    for f in flips.iter_mut().skip(verify_start) {
        *f = true;
    }
    let mut ch = ScriptedChannel::new(n, flips);
    let out = sim
        .simulate_over(&inputs, NoiseModel::Correlated { epsilon: 0.2 }, &mut ch)
        .unwrap();
    // The phantom flag costs a rewind but not correctness.
    assert!(out.stats().rewinds >= 1, "{:?}", out.stats());
    assert_eq!(out.transcript(), truth.transcript());
}

#[test]
fn persistent_chunk_corruption_exhausts_the_budget() {
    // An adversary that corrupts every chunk-simulation round (but leaves
    // the owners and verification phases clean) forces an endless
    // detect-and-rewind loop: nothing ever commits and the budget runs
    // out. (Inverting *every* round including verification would defeat
    // any scheme — the flag OR itself would be erased — so the honest
    // adversary model here is per-phase.)
    let n = 3;
    let p = MultiOr::new(n, 6);
    let inputs: Vec<Vec<bool>> = (0..n).map(|i| vec![i == 0; 6]).collect();
    let mut config = config_for(n);
    config.budget_factor = 3.0;
    let sim = RewindSimulator::new(&p, config.clone());

    // With nothing ever committing, every iteration simulates a
    // full-length chunk, so the phase layout is periodic and scriptable.
    let l = config.chunk_len;
    let chunk_rounds = l * config.repetitions;
    let per_iter =
        chunk_rounds + (config.chunk_len + n) * config.code_len + config.verify_repetitions;
    let total = per_iter * 400;
    let mut flips = vec![false; total];
    for it in 0..400 {
        for r in 0..chunk_rounds {
            flips[it * per_iter + r] = true;
        }
    }
    let mut ch = ScriptedChannel::new(n, flips);
    let err = sim
        .simulate_over(&inputs, NoiseModel::Correlated { epsilon: 0.2 }, &mut ch)
        .unwrap_err();
    match err {
        noisy_beeps::core::SimError::BudgetExhausted { committed, .. } => {
            assert_eq!(committed, 0, "nothing should commit under chunk corruption");
        }
        other => panic!("expected budget exhaustion, got {other}"),
    }
}

#[test]
fn burst_errors_in_owners_phase_do_not_corrupt_the_output() {
    // Corrupt an entire codeword slot in the owners phase: the decoded
    // owner may be wrong, verification flags it, and the final transcript
    // is still exact.
    let n = 4;
    let p = InputSet::new(n);
    let inputs = [2usize, 4, 6, 0];
    let truth = run_noiseless(&p, &inputs);
    let config = config_for(n);
    let sim = RewindSimulator::new(&p, config.clone());

    let l = config.chunk_len.min(p.length());
    let chunk_rounds = l * config.repetitions;
    let w = config.code_len;
    // Corrupt the second owners iteration wholesale.
    let start = chunk_rounds + w;
    let mut flips = vec![false; start + w];
    for f in flips.iter_mut().skip(start) {
        *f = true;
    }
    let mut ch = ScriptedChannel::new(n, flips);
    let out = sim
        .simulate_over(&inputs, NoiseModel::Correlated { epsilon: 0.2 }, &mut ch)
        .unwrap();
    assert_eq!(out.transcript(), truth.transcript());
}

#[test]
fn scripted_flips_on_idle_tail_are_harmless() {
    // Flips after the protocol has finished must not matter.
    let p = InputSet::new(3);
    let inputs = [0usize, 1, 2];
    let truth = run_noiseless(&p, &inputs);
    let sim = RewindSimulator::new(&p, config_for(3));
    let mut flips = vec![false; 100_000];
    for f in flips.iter_mut().skip(50_000) {
        *f = true;
    }
    let mut ch = ScriptedChannel::new(3, flips);
    let out = sim
        .simulate_over(&inputs, NoiseModel::Correlated { epsilon: 0.2 }, &mut ch)
        .unwrap();
    assert_eq!(out.transcript(), truth.transcript());
}
