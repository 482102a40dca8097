//! Noise-resilient leader election: a classic beeping-network workload
//! (the paper's wireless-network motivation), made reliable with each of
//! the three coding schemes.
//!
//! ```text
//! cargo run --release --example leader_election
//! ```

use noisy_beeps::channel::{run_noiseless, run_protocol, NoiseModel};
use noisy_beeps::core::{
    OneToZeroSimulator, RepetitionSimulator, RewindSimulator, Simulator, SimulatorConfig,
};
use noisy_beeps::protocols::LeaderElection;

fn main() {
    let n = 6;
    let bits = 12;
    let protocol = LeaderElection::new(n, bits);
    let ids = [0x2F1, 0x9A0, 0x777, 0x005, 0xB13, 0x4C4];
    let truth = run_noiseless(&protocol, &ids);
    let leader = truth.outputs()[0];
    println!("== leader election among {n} parties, {bits}-bit ids ==");
    println!("ids: {ids:04X?}; true leader: {leader:#05X}");

    let trials = 40;

    // Naked protocol under two-sided noise: phantom or wrong leaders.
    let two_sided = NoiseModel::Correlated { epsilon: 0.2 };
    let mut wrong = 0;
    for seed in 0..trials {
        let out = run_protocol(&protocol, &ids, two_sided, seed);
        if out.outputs().iter().any(|&o| o != leader) {
            wrong += 1;
        }
    }
    println!("naked over {two_sided}: {wrong}/{trials} elections corrupted");

    // Scheme 1: repetition (footnote 1) — fine for short protocols.
    let config = SimulatorConfig::builder(n).model(two_sided).build();
    let rep = RepetitionSimulator::new(&protocol, config.clone());
    report(
        "repetition scheme",
        trials,
        |seed| {
            rep.simulate(&ids, two_sided, seed)
                .map(|o| (o.outputs().to_vec(), o.stats().overhead()))
        },
        leader,
    );

    // Scheme 2: the full Theorem 1.2 rewind scheme.
    let rewind = RewindSimulator::new(&protocol, config);
    report(
        "rewind scheme (Thm 1.2)",
        trials,
        |seed| {
            rewind
                .simulate(&ids, two_sided, seed)
                .map(|o| (o.outputs().to_vec(), o.stats().overhead()))
        },
        leader,
    );

    // Scheme 3: constant overhead, but only over 1->0 noise (§2 asymmetry).
    let down = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
    let one_zero = OneToZeroSimulator::new(&protocol, 2, 24.0);
    report(
        "constant-overhead scheme over 1->0 noise",
        trials,
        |seed| {
            one_zero
                .simulate(&ids, down, seed)
                .map(|o| (o.outputs().to_vec(), o.stats().overhead()))
        },
        leader,
    );
}

fn report<F>(name: &str, trials: u64, mut run: F, leader: usize)
where
    F: FnMut(u64) -> Result<(Vec<usize>, f64), noisy_beeps::core::SimError>,
{
    let mut wrong = 0;
    let mut overhead = 0.0;
    let mut completed = 0u32;
    for seed in 0..trials {
        match run(seed) {
            Ok((outputs, oh)) => {
                completed += 1;
                overhead += oh;
                if outputs.iter().any(|&o| o != leader) {
                    wrong += 1;
                }
            }
            Err(_) => wrong += 1,
        }
    }
    let avg = if completed > 0 {
        overhead / f64::from(completed)
    } else {
        f64::NAN
    };
    println!("{name}: {wrong}/{trials} corrupted, avg overhead {avg:.1}x");
}
