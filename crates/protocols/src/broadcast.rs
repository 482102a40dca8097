//! Single-speaker broadcast — the workload of the noisy-broadcast line of
//! work (\[EKS18\] and its predecessors) that §1.3 of the paper contrasts
//! the beeping model with.

use beeps_channel::{EnumerableInputs, Protocol, UniquelyOwned};

/// `Broadcast`: one designated speaker holds a `width`-bit message; after
/// `width` rounds every party outputs it.
///
/// Over the noiseless channel the speaker beeps its message bit-by-bit
/// (everyone else stays silent), so the transcript *is* the message. The
/// protocol is non-adaptive and every round is "owned" by the speaker —
/// the structural property \[EKS18\]'s verification relies on, which makes
/// this the cleanest workload for exercising the owners phase: every
/// 1-round has exactly one legal owner.
///
/// Non-speakers' inputs are ignored (use 0).
///
/// # Examples
///
/// ```
/// use beeps_channel::run_noiseless;
/// use beeps_protocols::Broadcast;
///
/// let p = Broadcast::new(3, 0, 4);
/// let exec = run_noiseless(&p, &[0b1011, 0, 0]);
/// assert_eq!(exec.outputs(), &[0b1011, 0b1011, 0b1011]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Broadcast {
    n: usize,
    speaker: usize,
    width: usize,
}

impl Broadcast {
    /// A broadcast among `n` parties where `speaker` transmits a
    /// `width`-bit message.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `speaker >= n`, or `width` is 0 or above 32.
    pub fn new(n: usize, speaker: usize, width: usize) -> Self {
        assert!(n > 0, "need at least one party");
        assert!(speaker < n, "speaker index out of range");
        assert!((1..=32).contains(&width), "message width must be 1..=32");
        Self { n, speaker, width }
    }

    /// The speaking party.
    pub fn speaker(&self) -> usize {
        self.speaker
    }

    /// The message a transcript carries, its first round the most
    /// significant bit.
    fn message(transcript: &[bool]) -> usize {
        transcript
            .iter()
            .fold(0usize, |acc, &b| (acc << 1) | usize::from(b))
    }
}

impl Protocol for Broadcast {
    type Input = usize;
    type Output = usize;

    fn num_parties(&self) -> usize {
        self.n
    }

    fn length(&self) -> usize {
        self.width
    }

    #[inline]
    fn beep(&self, party: usize, input: &usize, transcript: &[bool]) -> bool {
        if party != self.speaker {
            return false;
        }
        assert!(
            *input < (1usize << self.width),
            "message {input} exceeds {} bits",
            self.width
        );
        (input >> (self.width - 1 - transcript.len())) & 1 == 1
    }

    fn output(&self, _party: usize, _input: &usize, transcript: &[bool]) -> usize {
        Self::message(transcript)
    }

    /// Only the speaker ever beeps, so the OR is its bit: one `beep`
    /// where the default asks every party.
    fn true_or(&self, inputs: &[usize], transcript: &[bool]) -> bool {
        let inputs = &inputs[..self.n];
        self.beep(self.speaker, &inputs[self.speaker], transcript)
    }

    /// Every party outputs the same message: one fold of the transcript.
    fn outputs(&self, inputs: &[usize], transcript: &[bool]) -> Vec<usize> {
        vec![Self::message(transcript); inputs.len()]
    }
}

impl UniquelyOwned for Broadcast {
    fn round_owner(&self, _m: usize) -> usize {
        self.speaker
    }
}

impl EnumerableInputs for Broadcast {
    fn input_domain(&self, party: usize) -> Vec<usize> {
        if party == self.speaker {
            assert!(
                self.width <= 16,
                "enumerating 2^{} messages is unreasonable",
                self.width
            );
            (0..(1usize << self.width)).collect()
        } else {
            vec![0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeps_channel::{run_noiseless, run_protocol, NoiseModel};

    #[test]
    fn message_arrives_verbatim() {
        let p = Broadcast::new(4, 2, 8);
        let exec = run_noiseless(&p, &[0, 0, 0xA5, 0]);
        assert!(exec.outputs().iter().all(|&m| m == 0xA5));
    }

    #[test]
    fn non_speakers_stay_silent() {
        let p = Broadcast::new(3, 1, 4);
        // Speaker message 0 -> all-silent transcript.
        let exec = run_noiseless(&p, &[9, 0, 9]);
        assert!(exec.transcript().iter().all(|&b| !b));
    }

    #[test]
    fn one_sided_down_noise_erases_message_bits() {
        let p = Broadcast::new(2, 0, 16);
        let mut corrupted = 0;
        for seed in 0..30 {
            let out = run_protocol(
                &p,
                &[0xFFFF, 0],
                NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 },
                seed,
            );
            if out.outputs()[1] != 0xFFFF {
                corrupted += 1;
            }
        }
        assert!(
            corrupted >= 29,
            "an all-ones message should almost never survive"
        );
    }

    #[test]
    fn domain_is_singleton_for_listeners() {
        let p = Broadcast::new(3, 0, 4);
        assert_eq!(p.input_domain(0).len(), 16);
        assert_eq!(p.input_domain(1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "speaker index")]
    fn speaker_out_of_range_rejected() {
        Broadcast::new(2, 2, 4);
    }
}
