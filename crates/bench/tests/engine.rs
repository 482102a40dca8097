//! Integration tests for the experiment engine: thread-count
//! independence of rendered experiment logs, and protocol-execution
//! invariants when trials are fanned out through [`TrialRunner`].

use beeps_bench::{ExperimentLog, Table, TrialRunner};
use beeps_channel::{run_noiseless, run_protocol, NoiseModel, Protocol};
use beeps_core::{RewindSimulator, SimulatorConfig};
use beeps_protocols::InputSet;
use rand::Rng;

/// Runs a small but real experiment (rewind simulator on `InputSet_6`
/// under correlated noise) and renders its full JSON log.
fn render_with(threads: usize) -> String {
    let runner = TrialRunner::new(threads);
    let n = 6;
    let protocol = InputSet::new(n);
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let sim = RewindSimulator::new(&protocol, SimulatorConfig::builder(n).model(model).build());
    let records = runner.run(0xBEE5, 12, |trial| {
        let mut rng = trial.sub_rng(0);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        match sim.simulate(&inputs, model, trial.seed) {
            Ok(out) => (out.stats().channel_rounds, true),
            Err(_) => (0, false),
        }
    });
    let mut table = Table::new("engine determinism", &["trial", "rounds", "done"]);
    for (i, (rounds, done)) in records.iter().enumerate() {
        table.row(&[&i, rounds, done]);
    }
    let mut log = ExperimentLog::new("engine_identity_check");
    log.field("base_seed", 0xBEE5u64)
        .field("trials", 12usize)
        .field("epsilon", 0.1)
        .table(&table);
    log.render()
}

/// The tentpole guarantee: the same base seed renders byte-identical
/// experiment JSON regardless of how many worker threads ran the
/// trials.
#[test]
fn parallel_and_serial_runs_render_identical_json() {
    let serial = render_with(1);
    for threads in [2, 4, 8] {
        assert_eq!(serial, render_with(threads), "{threads} threads diverged");
    }
}

/// `run_protocol` invariants hold for every trial fanned out by the runner:
/// energy counts at least one beep per round whose true OR is 1,
/// corruption counts stay within the round budget, and a noiseless
/// channel neither corrupts nor deviates from the reference execution.
#[test]
fn executor_invariants_hold_under_the_runner() {
    let runner = TrialRunner::new(4);
    let n = 5;
    let protocol = InputSet::new(n);
    let length = protocol.length();
    let checks = runner.run(0xC0FFEE, 24, |trial| {
        let mut rng = trial.sub_rng(0);
        let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
        let truth = run_noiseless(&protocol, &inputs);
        let noisy = run_protocol(
            &protocol,
            &inputs,
            NoiseModel::Correlated { epsilon: 0.2 },
            trial.seed,
        );
        let clean = run_protocol(&protocol, &inputs, NoiseModel::Noiseless, trial.seed);
        let ones = noisy.true_ors().iter().filter(|&&b| b).count();
        [
            ("energy >= rounds with a beep", noisy.energy() >= ones),
            ("energy <= n * rounds", noisy.energy() <= n * length),
            (
                "corruption within budget",
                noisy.corrupted_rounds() <= length,
            ),
            ("noiseless channel is clean", clean.corrupted_rounds() == 0),
            (
                "noiseless ORs match reference",
                clean.true_ors() == truth.transcript(),
            ),
            (
                "noiseless outputs match reference",
                clean.outputs() == truth.outputs(),
            ),
        ]
    });
    for (i, trial_checks) in checks.iter().enumerate() {
        for (what, ok) in trial_checks {
            assert!(ok, "trial {i}: {what}");
        }
    }
}
