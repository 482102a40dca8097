//! Noise-resilient network-size estimation (census).
//!
//! One-sided `0→1` noise keeps "busy" rounds alive and systematically
//! inflates the geometric size estimate; the simulation scheme restores
//! the noiseless behaviour.
//!
//! ```text
//! cargo run --release --example census
//! ```

use noisy_beeps::channel::{run_noiseless, run_protocol, NoiseModel};
use noisy_beeps::core::{RewindSimulator, Simulator, SimulatorConfig};
use noisy_beeps::protocols::Census;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let n = 32;
    let phases = 14;
    let protocol = Census::new(n, phases);
    let model = NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 };
    let trials = 30;

    println!("== census: estimate network size n = {n} ==");

    // beeps-lint: allow(seed-provenance) -- fixed demo seed keeps this example's printed output stable across runs; not a TrialRunner path, so per-trial derivation does not apply
    let mut rng = StdRng::seed_from_u64(0xCE25);
    let mut clean_sum = 0usize;
    let mut naked_sum = 0usize;
    let mut simulated_sum = 0usize;
    let mut simulated_runs = 0usize;

    for seed in 0..trials {
        // Randomized protocol = deterministic protocol + random tape input.
        let inputs: Vec<Vec<bool>> = (0..n).map(|_| protocol.sample_input(&mut rng)).collect();

        let clean = run_noiseless(&protocol, &inputs).outputs()[0];
        clean_sum += clean;

        let naked = run_protocol(&protocol, &inputs, model, seed).outputs()[0];
        naked_sum += naked;

        let config = SimulatorConfig::builder(n).model(model).build();
        let sim = RewindSimulator::new(&protocol, config);
        if let Ok(outcome) = sim.simulate(&inputs, model, seed) {
            simulated_sum += outcome.outputs()[0];
            simulated_runs += 1;
        }
    }

    println!(
        "noiseless estimate (avg over {trials} tapes): {:.0}",
        clean_sum as f64 / trials as f64
    );
    println!(
        "naked over {model}: avg estimate {:.0}  <- inflated by phantom beeps",
        naked_sum as f64 / trials as f64
    );
    println!(
        "simulated (Thm 1.2): avg estimate {:.0} over {simulated_runs} runs \
         <- matches noiseless",
        simulated_sum as f64 / simulated_runs.max(1) as f64
    );
}
