//! Firefly phase synchronization — the paper's biological motivation —
//! under independent noise, where parties can end up with *different*
//! transcripts and desynchronize.
//!
//! ```text
//! cargo run --release --example firefly
//! ```

use noisy_beeps::channel::{run_noiseless, run_protocol, NoiseModel, PartyViews};
use noisy_beeps::core::{RewindSimulator, Simulator, SimulatorConfig};
use noisy_beeps::protocols::FireflySync;

fn main() {
    let n = 10;
    let period = 12;
    let protocol = FireflySync::new(n, period);
    let offsets: Vec<usize> = (0..n).map(|i| (7 * i + 3) % period).collect();
    let truth = run_noiseless(&protocol, &offsets);
    println!("== firefly synchronization: {n} fireflies, period {period} ==");
    println!("offsets: {offsets:?}");
    println!("noiseless sync phase: {}", truth.outputs()[0]);

    // Independent noise (§1.2): each firefly mis-sees flashes on its own.
    let model = NoiseModel::Independent { epsilon: 0.15 };
    let trials = 40;

    let mut desync = 0;
    for seed in 0..trials {
        let out = run_protocol(&protocol, &offsets, model, seed);
        if let PartyViews::PerParty(_) = out.views() {
            let first = out.outputs()[0];
            if out.outputs().iter().any(|&o| o != first) {
                desync += 1;
            }
        }
    }
    println!("naked over {model}: fireflies disagree on the phase in {desync}/{trials} runs");

    // Theorem 1.2 applies to independent noise too (§1.2).
    let config = SimulatorConfig::builder(n).model(model).build();
    let sim = RewindSimulator::new(&protocol, config);
    let mut desync = 0;
    let mut wrong = 0;
    let mut done = 0;
    for seed in 0..trials {
        if let Ok(out) = sim.simulate(&offsets, model, seed) {
            done += 1;
            let first = out.outputs()[0];
            if out.outputs().iter().any(|&o| o != first) {
                desync += 1;
            }
            if first != truth.outputs()[0] {
                wrong += 1;
            }
        }
    }
    println!(
        "simulated (Thm 1.2 over independent noise): {done}/{trials} completed, \
         {desync} disagreements, {wrong} wrong phases"
    );
}
