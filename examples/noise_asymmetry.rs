//! The paper's central asymmetry, live: noise that *erases* beeps
//! (`1→0`) admits constant-overhead coding, while noise that *creates*
//! beeps (`0→1`) forces `Θ(log n)` overhead (Theorems 1.1 and 1.2, and
//! the §2 discussion).
//!
//! ```text
//! cargo run --release --example noise_asymmetry
//! ```

use noisy_beeps::channel::{run_noiseless, NoiseModel, Protocol};
use noisy_beeps::core::{OneToZeroSimulator, RewindSimulator, Simulator, SimulatorConfig};
use noisy_beeps::lowerbound::min_repetitions_exact;
use noisy_beeps::protocols::InputSet;

fn main() {
    let eps = 1.0 / 3.0;
    println!("== overhead to simulate InputSet_n at eps = 1/3, by noise direction ==");
    println!(
        "{:>6} {:>22} {:>22} {:>22}",
        "n", "1->0 noise (measured)", "0->1 noise (measured)", "0->1 minimum (exact)"
    );

    for n in [4usize, 8, 16, 32] {
        let protocol = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|i| (3 * i + 1) % (2 * n)).collect();
        let truth = run_noiseless(&protocol, &inputs);

        // 1->0 noise: constant-overhead scheme.
        let down = NoiseModel::OneSidedOneToZero { epsilon: eps };
        let z_sim = OneToZeroSimulator::new(&protocol, 2, 24.0);
        let mut z_overhead = f64::NAN;
        for seed in 0..5 {
            if let Ok(out) = z_sim.simulate(&inputs, down, seed) {
                assert_eq!(out.transcript(), truth.transcript());
                z_overhead = out.stats().overhead();
                break;
            }
        }

        // 0->1 noise: the rewind scheme (cost grows with log n).
        let up = NoiseModel::OneSidedZeroToOne { epsilon: eps };
        let sim = RewindSimulator::new(&protocol, SimulatorConfig::builder(n).model(up).build());
        let mut up_overhead = f64::NAN;
        for seed in 0..5 {
            if let Ok(out) = sim.simulate(&inputs, up, seed) {
                assert_eq!(out.transcript(), truth.transcript());
                up_overhead = out.stats().overhead();
                break;
            }
        }

        // The information-theoretic floor for 0->1 noise: minimum
        // repetitions for the trivial protocol to survive at 90%.
        let floor = min_repetitions_exact(n, eps, 0.9).min_repetitions;

        println!("{n:>6} {z_overhead:>21.1}x {up_overhead:>21.1}x {floor:>21}x");
        let _ = protocol.length();
    }
    println!();
    println!("1->0 stays flat (constant); 0->1 grows with n (the Omega(log n) bound).");
}
