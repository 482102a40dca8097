//! # noisy-beeps
//!
//! A full Rust reproduction of **“Noisy Beeps”** (Klim Efremenko, Gillat
//! Kol, Raghuvansh R. Saxena; PODC 2020): noise-resilient interactive
//! coding for the *n*-party beeping model, together with the executable
//! machinery of the paper's matching `Θ(log n)` upper and lower bounds.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`channel`] | `beeps-channel` | the beeping channel in all five noise regimes, the `(T, f, g)` protocol formalism, and the `Channel` trait the schemes drive |
//! | [`ecc`] | `beeps-ecc` | the owners phase's symbol code: one flat codeword table (`CodeTable`), seeded random or constant-weight, with maximum-likelihood decoding |
//! | [`info`] | `beeps-info` | entropy/mutual-information and the tail bounds that size repetition counts |
//! | [`protocols`] | `beeps-protocols` | noiseless beeping protocols: `InputSet`, OR, leader election, census, membership, firefly sync |
//! | [`core`] | `beeps-core` | **the paper's contribution**: repetition simulation, Algorithm 1 chunk simulation with owners, the rewind hierarchy of Theorem 1.2, and the constant-overhead one-sided scheme |
//! | [`lowerbound`] | `beeps-lowerbound` | Theorem 1.1 made executable: feasible sets, good players, the ζ progress measure, and the overhead-crossover search |
//!
//! # Quickstart
//!
//! Simulate the paper's `InputSet_n` task over an `ε = 1/3` correlated-noise
//! beeping channel with the `O(log n)`-overhead scheme of Theorem 1.2:
//!
//! ```
//! use noisy_beeps::channel::{NoiseModel, Protocol};
//! use noisy_beeps::core::{RewindSimulator, Simulator, SimulatorConfig};
//! use noisy_beeps::protocols::InputSet;
//!
//! let n = 8;
//! let protocol = InputSet::new(n);
//! let inputs: Vec<usize> = (0..n).map(|i| (3 * i) % (2 * n)).collect();
//!
//! // Ground truth: the deterministic noiseless execution.
//! let truth = noisy_beeps::channel::run_noiseless(&protocol, &inputs);
//!
//! let sim = RewindSimulator::new(&protocol, SimulatorConfig::builder(n).build());
//! let outcome = sim
//!     .simulate(&inputs, NoiseModel::Correlated { epsilon: 1.0 / 3.0 }, 0xBEE9)
//!     .expect("simulation produced a transcript");
//! assert_eq!(outcome.transcript(), truth.transcript());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;

pub use beeps_bench as bench;
pub use beeps_channel as channel;
pub use beeps_core as core;
pub use beeps_ecc as ecc;
pub use beeps_info as info;
pub use beeps_lowerbound as lowerbound;
pub use beeps_protocols as protocols;

pub use beeps_core::{NakedSimulator, Simulator};
