//! A library of noiseless beeping protocols.
//!
//! These are the workloads of the reproduction: the task the paper's lower
//! bound is proved against ([`InputSet`], Appendix A.2), its unrestricted
//! form ([`MultiOr`], subsection 2.2), and a set of classic single-hop
//! beeping applications from the literature the paper cites in its
//! introduction — leader election ([`LeaderElection`]), network-size
//! estimation ([`Census`]), membership resolution ([`Membership`]), and
//! firefly-style phase synchronization ([`FireflySync`]).
//!
//! Every protocol implements [`beeps_channel::Protocol`] — the paper's
//! `(T, {f_m^i}, {g^i})` formalism — and can therefore be
//!
//! * run noiselessly ([`beeps_channel::run_noiseless`]),
//! * run naked over a noisy channel ([`beeps_channel::run_protocol`]) to
//!   watch it break, and
//! * simulated noise-resiliently by the coding schemes in `beeps-core`.
//!
//! # Examples
//!
//! ```
//! use beeps_channel::run_noiseless;
//! use beeps_protocols::InputSet;
//! use std::collections::BTreeSet;
//!
//! let p = InputSet::new(4); // 4 parties, inputs in [8]
//! let exec = run_noiseless(&p, &[3, 5, 3, 0]);
//! let expect: BTreeSet<usize> = [0, 3, 5].into_iter().collect();
//! assert_eq!(*exec.outputs()[0], expect);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod broadcast;
pub mod census;
pub mod combinators;
pub mod firefly;
pub mod input_set;
pub mod leader;
pub mod membership;
pub mod multi_or;
pub mod pointer_chase;
pub mod roll_call;

pub use broadcast::Broadcast;
pub use census::Census;
pub use firefly::FireflySync;
pub use input_set::{InputSet, RepeatedInputSet};
pub use leader::LeaderElection;
pub use membership::Membership;
pub use multi_or::MultiOr;
pub use pointer_chase::PointerChase;
pub use roll_call::RollCall;
