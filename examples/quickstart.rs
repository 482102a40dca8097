//! Quickstart: the paper's `InputSet_n` task, broken by noise and then
//! rescued by the Theorem 1.2 simulation scheme.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use noisy_beeps::channel::{run_noiseless, run_protocol, NoiseModel, Protocol};
use noisy_beeps::core::{RewindSimulator, Simulator, SimulatorConfig};
use noisy_beeps::protocols::InputSet;

fn main() {
    let n = 8;
    let epsilon = 1.0 / 3.0;
    let model = NoiseModel::Correlated { epsilon };
    let protocol = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (5 * i + 2) % (2 * n)).collect();

    println!("== InputSet_{n} over the beeping channel ==");
    println!("inputs: {inputs:?}");

    // 1. Ground truth: the trivial 2n-round noiseless protocol.
    let truth = run_noiseless(&protocol, &inputs);
    println!(
        "noiseless protocol ({} rounds) computes L(x) = {:?}",
        protocol.length(),
        truth.outputs()[0]
    );

    // 2. The same protocol run naked over the eps-noisy channel: broken.
    let mut naked_failures = 0;
    let trials = 50;
    for seed in 0..trials {
        let noisy = run_protocol(&protocol, &inputs, model, seed);
        if noisy.outputs()[0] != truth.outputs()[0] {
            naked_failures += 1;
        }
    }
    println!("naked over {model}: wrong output in {naked_failures}/{trials} runs");

    // 3. Theorem 1.2: the rewind-if-error simulation with owners.
    let config = SimulatorConfig::builder(n).model(model).build();
    let sim = RewindSimulator::new(&protocol, config);
    let mut simulated_failures = 0;
    let mut rounds = 0usize;
    for seed in 0..trials {
        match sim.simulate(&inputs, model, seed) {
            Ok(outcome) => {
                rounds += outcome.stats().channel_rounds;
                if outcome.outputs()[0] != truth.outputs()[0] {
                    simulated_failures += 1;
                }
            }
            Err(err) => {
                println!("  budget miss: {err}");
                simulated_failures += 1;
            }
        }
    }
    let avg_rounds = rounds as f64 / trials as f64;
    println!(
        "simulated (Theorem 1.2): wrong output in {simulated_failures}/{trials} runs, \
         avg {avg_rounds:.0} channel rounds = {:.1}x overhead",
        avg_rounds / protocol.length() as f64
    );
    println!("(the paper: Theta(log n) overhead is necessary and sufficient for this task)");
}
