//! A composed wireless-sensor-network pipeline — membership discovery,
//! then leader election, then the *elected* leader broadcasts a payload —
//! run as ONE beeping protocol via the `Chained` combinator and protected
//! end-to-end by the Theorem 1.2 simulator (including the hand-offs
//! between phases).
//!
//! ```text
//! cargo run --release --example sensor_network
//! ```

use noisy_beeps::channel::{run_noiseless, run_protocol, NoiseModel, Protocol};
use noisy_beeps::core::{RewindSimulator, Simulator, SimulatorConfig};
use noisy_beeps::protocols::combinators::Chained;
use noisy_beeps::protocols::LeaderElection;

/// Phase 3: the party holding `Some(payload)` beeps it, 8 bits MSB-first.
struct Announce {
    n: usize,
}

impl Protocol for Announce {
    type Input = Option<usize>;
    type Output = usize;

    fn num_parties(&self) -> usize {
        self.n
    }

    fn length(&self) -> usize {
        8
    }

    fn beep(&self, _party: usize, input: &Option<usize>, transcript: &[bool]) -> bool {
        input.is_some_and(|m| (m >> (7 - transcript.len())) & 1 == 1)
    }

    fn output(&self, _party: usize, _input: &Option<usize>, transcript: &[bool]) -> usize {
        transcript
            .iter()
            .fold(0usize, |acc, &b| (acc << 1) | usize::from(b))
    }
}

fn main() {
    let n = 6;
    // Sensor ids double as inputs; the leader announces a reading derived
    // from its id (stand-in for a measurement).
    let ids = [0x3A, 0x51, 0x2C, 0x77, 0x68, 0x19];

    let pipeline = Chained::new(LeaderElection::new(n, 8), Announce { n }, |id, leader| {
        (*id == leader).then_some((id * 3) % 256)
    });

    let truth = run_noiseless(&pipeline, &ids);
    let (leader, reading) = truth.outputs()[0];
    println!("== sensor network: elect + announce over one noisy channel ==");
    println!("ids: {ids:02X?}");
    println!("noiseless: leader {leader:#04X} announces reading {reading}");

    let model = NoiseModel::Correlated { epsilon: 0.15 };
    let trials = 30u64;

    // Naked pipeline: phase errors compound (a corrupted election makes
    // the wrong node broadcast, or nobody at all).
    let mut naked_bad = 0;
    for seed in 0..trials {
        let out = run_protocol(&pipeline, &ids, model, seed);
        if out.outputs().iter().any(|o| *o != (leader, reading)) {
            naked_bad += 1;
        }
    }
    println!("naked over {model}: {naked_bad}/{trials} pipelines corrupted");

    // Simulated pipeline: one scheme protects all phases and hand-offs.
    let sim = RewindSimulator::new(&pipeline, SimulatorConfig::builder(n).model(model).build());
    let mut sim_bad = 0;
    let mut overhead = 0.0;
    let mut done = 0u32;
    for seed in 0..trials {
        match sim.simulate(&ids, model, seed) {
            Ok(out) => {
                done += 1;
                overhead += out.stats().overhead();
                if out.outputs().iter().any(|o| *o != (leader, reading)) {
                    sim_bad += 1;
                }
            }
            Err(_) => sim_bad += 1,
        }
    }
    println!(
        "simulated (Thm 1.2): {sim_bad}/{trials} corrupted, avg overhead {:.1}x",
        overhead / f64::from(done.max(1))
    );
}
