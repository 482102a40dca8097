//! The interactive-coding schemes of **Noisy Beeps** — the paper's primary
//! contribution, implemented as runnable protocols over `beeps-channel`.
//!
//! Three simulators turn a noiseless beeping protocol `Π` into a
//! noise-resilient protocol `Π'`:
//!
//! * [`RepetitionSimulator`] — footnote 1 of the paper: repeat every round
//!   `O(log n)` times and take a (threshold) majority. Simple, works for
//!   every noise regime, but its error grows linearly with the protocol
//!   length, so it only covers protocols of length polynomial in `n`.
//! * [`RewindSimulator`] — the full Theorem 1.2 scheme: the protocol is
//!   cut into chunks; each chunk is simulated by repetition and then an
//!   **owners phase** (Algorithm 1, [`owners`]) assigns every 1 in the
//!   simulated transcript to a party that actually beeped it; a
//!   **verification phase** lets owners vouch for their 1s (and everyone
//!   for the 0s), and failed verifications rewind. Overhead `O(log n)`
//!   for *any* protocol length, over correlated, one-sided, and
//!   independent noise.
//! * [`HierarchicalSimulator`] — the same guarantees via Appendix D.2's
//!   literal structure: recursive doubling (`A_l`) with binary-search
//!   progress checks that truncate to the exact longest correct prefix;
//!   kept alongside the rewind scheme as an ablation
//!   (`tab5_scheme_ablation`).
//! * [`OneToZeroSimulator`] — the constant-overhead scheme that §2 of the
//!   paper observes is possible when noise can only erase beeps
//!   (`1→0` flips): every error is witnessed by a beeping party the moment
//!   it happens, a raised flag can never be missed, and a hierarchy of
//!   exponentially-spaced checkpoints keeps the overhead independent
//!   of `n`.
//!
//! The asymmetry between the last two — `Θ(log n)` necessary for `0→1`
//! noise (Theorem 1.1), `O(1)` sufficient for `1→0` noise — is the
//! paper's central phenomenon, regenerated empirically by experiment E3.
//!
//! # Examples
//!
//! ```
//! use beeps_channel::{run_noiseless, NoiseModel};
//! use beeps_core::{RewindSimulator, Simulator, SimulatorConfig};
//! use beeps_protocols::LeaderElection;
//!
//! let protocol = LeaderElection::new(4, 6);
//! let inputs = [11, 47, 2, 33];
//! let truth = run_noiseless(&protocol, &inputs);
//!
//! let sim = RewindSimulator::new(&protocol, SimulatorConfig::builder(4).build());
//! let outcome = sim
//!     .simulate(&inputs, NoiseModel::Correlated { epsilon: 0.1 }, 7)
//!     .expect("within budget");
//! assert_eq!(outcome.transcript(), truth.transcript());
//! assert_eq!(outcome.outputs(), truth.outputs());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod driver;

pub mod code_cache;
pub mod hierarchical;
pub mod one_to_zero;
pub mod outcome;
pub mod owned_rounds;
pub mod owners;
pub mod params;
pub mod repetition;
pub mod rewind;
pub mod simulator;
pub mod soa;

pub use code_cache::CodeCache;
pub use hierarchical::HierarchicalSimulator;
pub use one_to_zero::OneToZeroSimulator;
pub use outcome::{SimError, SimOutcome, SimStats};
pub use owned_rounds::OwnedRoundsSimulator;
pub use owners::{run_owners_phase, OwnersOutcome};
pub use params::{ResolvedParams, SimulatorConfig, SimulatorConfigBuilder};
pub use repetition::RepetitionSimulator;
pub use rewind::RewindSimulator;
pub use simulator::{record_simulation, NakedSimulator, Simulator};
pub use soa::SoaScratch;
