//! The *n*-party beeping channel of **Noisy Beeps** (Efremenko, Kol,
//! Saxena; PODC 2020), Appendix A.
//!
//! In every synchronous round each of `n` parties either *beeps* (sends 1)
//! or stays silent (sends 0); the channel computes the OR of the sent bits
//! and delivers a possibly noise-corrupted copy:
//!
//! * [`NoiseModel::Noiseless`] — everyone hears the true OR;
//! * [`NoiseModel::Correlated`] — with probability ε the OR is flipped and
//!   **all parties receive the same flipped bit** (the paper's main model,
//!   A.1.1);
//! * [`NoiseModel::OneSidedZeroToOne`] — noise can only turn a silent round
//!   into a beep (the relaxation under which the Ω(log n) lower bound is
//!   proved, A.1.2);
//! * [`NoiseModel::OneSidedOneToZero`] — noise can only erase beeps; §2 of
//!   the paper observes this regime admits constant-overhead coding;
//! * [`NoiseModel::Independent`] — every party receives its own
//!   independently-corrupted copy (§1.2).
//!
//! The crate provides:
//!
//! * the [`Protocol`] trait — the paper's `(T, {f_m^i}, {g^i})` formalism;
//! * [`run_noiseless`] / [`run_protocol`] — deterministic and noisy
//!   executions of a protocol;
//! * the [`Channel`] trait and its [`channel`] implementations:
//!   stochastic, scripted (failure injection), and the shared-randomness
//!   reduction of two-sided to one-sided noise (A.1.2). The
//!   interactive-coding schemes of `beeps-core` interleave simulation,
//!   owner-finding, and verification phases, so they cannot be a fixed
//!   `(T, f, g)` table: they drive a [`Channel`] with their own per-party
//!   state machines.
//!
//! # Examples
//!
//! Run the trivial one-round OR protocol under correlated noise:
//!
//! ```
//! use beeps_channel::{run_protocol, NoiseModel, Protocol};
//!
//! /// One round; party i beeps its input bit; everyone outputs the OR.
//! struct Or;
//! impl Protocol for Or {
//!     type Input = bool;
//!     type Output = bool;
//!     fn num_parties(&self) -> usize { 4 }
//!     fn length(&self) -> usize { 1 }
//!     fn beep(&self, _i: usize, input: &bool, _t: &[bool]) -> bool { *input }
//!     fn output(&self, _i: usize, _input: &bool, t: &[bool]) -> bool { t[0] }
//! }
//!
//! let exec = run_protocol(
//!     &Or,
//!     &[false, true, false, false],
//!     NoiseModel::Correlated { epsilon: 0.1 },
//!     42,
//! );
//! // Under correlated noise all parties share one transcript.
//! assert_eq!(exec.views().shared().unwrap().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
pub mod bits;
pub mod burst;
pub mod channel;
pub mod multiplication;
pub mod noise;
pub mod protocol;
pub mod trace;

pub use adversary::{CorrectingAdversaryChannel, CorrectionPolicy};
pub use bits::BitVec;
pub use burst::BurstNoiseChannel;
pub use channel::{Channel, ReducedTwoSidedChannel, ScriptedChannel, StochasticChannel};
pub use multiplication::MultiplicationChannel;
pub use noise::{Delivery, NoiseModel};
pub use protocol::{
    run_noiseless, run_protocol, run_protocol_over, EnumerableInputs, Execution, NoisyExecution,
    PartyViews, Protocol, Transcript, UniquelyOwned,
};
pub use trace::{RoundTrace, TraceSummary, TracingChannel, DEFAULT_TRACE_CAPACITY};
