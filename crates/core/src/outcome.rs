//! Results and statistics of a noise-resilient simulation.

use beeps_channel::NoiseModel;
use std::fmt;

/// Channel rounds attributed to each phase of a chunked simulation.
///
/// For the repetition scheme everything is `chunk`; for the `1→0`
/// checkpoint scheme, data rounds count as `chunk` and checkpoint rounds
/// as `verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseRounds {
    /// Chunk-simulation rounds (the `L·R` repetition part).
    pub chunk: usize,
    /// Owners-phase rounds (Algorithm 1's codeword exchange).
    pub owners: usize,
    /// Verification / progress-check rounds.
    pub verify: usize,
}

impl PhaseRounds {
    /// Fraction of the accounted rounds spent in the owners phase.
    pub fn owners_fraction(&self) -> f64 {
        let total = self.chunk + self.owners + self.verify;
        if total == 0 {
            0.0
        } else {
            self.owners as f64 / total as f64
        }
    }
}

/// Statistics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Rounds of the noisy channel actually used.
    pub channel_rounds: usize,
    /// Breakdown of `channel_rounds` by simulation phase.
    pub phase_rounds: PhaseRounds,
    /// Length `T` of the simulated noiseless protocol.
    pub protocol_rounds: usize,
    /// Chunks committed (rewind-based simulators; 0 otherwise).
    pub chunks_committed: usize,
    /// Verification failures that caused a rewind.
    pub rewinds: usize,
    /// Whether all parties finished with identical simulated transcripts.
    /// Guaranteed under shared-noise regimes; empirically near-certain
    /// under independent noise.
    pub agreement: bool,
    /// Total beeps sent by all parties (channel energy).
    pub energy: usize,
    /// Channel rounds in which noise corrupted the delivered bit for at
    /// least one party. Zero for any run under
    /// [`NoiseModel::Noiseless`](beeps_channel::NoiseModel).
    pub corrupted_rounds: usize,
}

impl SimStats {
    /// The multiplicative round overhead `rounds(Π') / rounds(Π)` — the
    /// quantity Theorems 1.1 and 1.2 bound by `Θ(log n)`.
    pub fn overhead(&self) -> f64 {
        self.channel_rounds as f64 / self.protocol_rounds as f64
    }
}

/// A completed simulation: the reconstructed noiseless transcript, every
/// party's output, and statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome<O> {
    transcript: Vec<bool>,
    outputs: Vec<O>,
    stats: SimStats,
}

impl<O> SimOutcome<O> {
    pub(crate) fn new(transcript: Vec<bool>, outputs: Vec<O>, stats: SimStats) -> Self {
        Self {
            transcript,
            outputs,
            stats,
        }
    }

    /// The simulated transcript of the noiseless protocol, as reconstructed
    /// by party 0. A correct simulation reproduces
    /// `beeps_channel::run_noiseless` exactly.
    pub fn transcript(&self) -> &[bool] {
        &self.transcript
    }

    /// Every party's output, computed from its own reconstructed
    /// transcript.
    pub fn outputs(&self) -> &[O] {
        &self.outputs
    }

    /// Run statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

/// Failure of a simulation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The round budget (see
    /// [`SimulatorConfig::budget_factor`](crate::SimulatorConfig)) ran out
    /// before the whole protocol was committed — the noisy-channel
    /// equivalent of "too many rewinds".
    BudgetExhausted {
        /// Channel rounds consumed before giving up.
        rounds_used: usize,
        /// Protocol rounds that were committed by party 0.
        committed: usize,
    },
    /// The noise model passed to `simulate` is not supported by this
    /// simulator (e.g. [`crate::OneToZeroSimulator`] requires `1→0`-only
    /// noise).
    UnsupportedNoise {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BudgetExhausted {
                rounds_used,
                committed,
            } => write!(
                f,
                "round budget exhausted after {rounds_used} rounds with {committed} rounds committed"
            ),
            SimError::UnsupportedNoise { reason } => {
                write!(f, "unsupported noise model: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The model check every [`Simulator`](crate::Simulator) runs first: a
/// noise parameter outside `[0, 1)` is [`SimError::UnsupportedNoise`].
pub(crate) fn check_model(model: NoiseModel) -> Result<(), SimError> {
    model.validate().map_err(|_| SimError::UnsupportedNoise {
        reason: "noise parameter outside [0, 1)",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_ratio() {
        let stats = SimStats {
            channel_rounds: 120,
            phase_rounds: PhaseRounds::default(),
            protocol_rounds: 10,
            chunks_committed: 2,
            rewinds: 0,
            agreement: true,
            energy: 5,
            corrupted_rounds: 0,
        };
        assert!((stats.overhead() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn errors_display() {
        let e = SimError::BudgetExhausted {
            rounds_used: 100,
            committed: 3,
        };
        assert!(e.to_string().contains("100"));
        let u = SimError::UnsupportedNoise { reason: "nope" };
        assert!(u.to_string().contains("nope"));
    }
}
