//! The paper's protocol formalism and direct (non-simulated) execution.
//!
//! Appendix A.1.1 defines a deterministic protocol over the beeping model
//! as a tuple `(T, {f_m^i}, {g^i})`: a length, per-round broadcast
//! functions `f_m^i : X^i × {0,1}^{m-1} → {0,1}`, and output functions
//! `g^i : X^i × {0,1}^T → Y^i`. The [`Protocol`] trait is that tuple:
//! [`Protocol::beep`] is `f`, [`Protocol::output`] is `g`, and the round
//! index is the length of the transcript seen so far.

use crate::channel::{Channel, StochasticChannel};
use crate::noise::{Delivery, NoiseModel};

/// A sequence of channel outputs `π_1 π_2 ⋯`, one bit per round.
pub type Transcript = Vec<bool>;

/// A deterministic protocol over the *n*-party beeping model — the
/// `(T, {f_m^i}, {g^i})` tuple of Appendix A.1.1.
///
/// Randomized protocols are distributions over deterministic ones; model
/// them by putting the party's random string inside `Input`.
///
/// # Examples
///
/// See the crate-level example, or [`run_noiseless`].
pub trait Protocol {
    /// Input domain `X^i` of each party.
    type Input: Clone;
    /// Output space `Y^i`.
    type Output: PartialEq + std::fmt::Debug;

    /// Number of parties `n`.
    fn num_parties(&self) -> usize;

    /// Protocol length `T` in rounds.
    fn length(&self) -> usize;

    /// Broadcast function `f_m^i(x^i, π_{<m})` with `m = transcript.len() + 1`:
    /// whether party `i` beeps in the next round after observing
    /// `transcript`.
    fn beep(&self, party: usize, input: &Self::Input, transcript: &[bool]) -> bool;

    /// Output function `g^i(x^i, π)` applied to the full transcript.
    fn output(&self, party: usize, input: &Self::Input, transcript: &[bool]) -> Self::Output;

    /// The true OR `⋁_i f^i` of all parties' beeps for the next round —
    /// the bit the channel would carry absent noise.
    ///
    /// Provided for analysis code (the lower-bound machinery recomputes
    /// `B_m`, the set of beeping parties, with it) and for
    /// [`run_noiseless`]. The default asks every party; an override may
    /// ask fewer (when only some parties can beep), but must return
    /// exactly what the default returns.
    fn true_or(&self, inputs: &[Self::Input], transcript: &[bool]) -> bool {
        // One bounds check for the whole loop, whatever the caller's
        // inlining: the per-party index then provably stays in range.
        let inputs = &inputs[..self.num_parties()];
        (0..inputs.len()).any(|i| self.beep(i, &inputs[i], transcript))
    }

    /// Every party's output `g^i(x^i, π)` on one transcript `π` that all
    /// of them hold, indexed by party id — what shared noise (A.1.1)
    /// leaves every party with.
    ///
    /// The default calls [`Protocol::output`] once per party. An override
    /// may share work across parties (when every `g^i` is one function of
    /// `π`, it can evaluate it once), but must return exactly what the
    /// default returns.
    ///
    /// [`run_noiseless`], [`run_protocol_over`] on shared views and
    /// `beeps-core`'s collapsed engines call it. Wherever parties may
    /// hold different views, engines call [`Protocol::output`] per party
    /// instead, and `beeps-core`'s per-party engines always do: they are
    /// the oracle its tests hold this batch to.
    fn outputs(&self, inputs: &[Self::Input], transcript: &[bool]) -> Vec<Self::Output> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, input)| self.output(i, input, transcript))
            .collect()
    }
}

/// A protocol whose per-party input domains are finite and enumerable.
///
/// The lower-bound machinery (`beeps-lowerbound`) sweeps a party's input
/// domain to compute the feasible sets `S^i(π)` of subsection C.2; any
/// protocol used there must implement this.
pub trait EnumerableInputs: Protocol {
    /// All possible inputs of `party`, in a fixed order.
    fn input_domain(&self, party: usize) -> Vec<Self::Input>;
}

/// A *uniquely-owned* protocol: the schedule fixes, for every round, the
/// single party allowed to beep there. (The owner's *bit* may still be
/// adaptive — `PointerChase` owns rounds by schedule while its bits depend
/// on the whole transcript; what matters is that ownership itself never
/// does.)
///
/// This is the structural assumption of \[EKS18\] that subsection 2.1 of
/// the paper contrasts with the beeping model: when each party "owns a
/// disjoint set of bits in the transcript", a transcript mismatch in
/// *either* direction is detected by the round's owner alone — `π_m = 1`
/// with the owner silent is just as self-evident as `π_m = 0` with the
/// owner beeping — so no owner-finding phase is needed. The
/// `OwnedRoundsSimulator` in `beeps-core` exploits exactly this.
///
/// Implementations must guarantee that `beep(i, x, π_{<m})` is `false`
/// whenever `i != round_owner(m)`; the simulator's correctness relies on
/// it (and the test suites assert it for the library's implementations).
pub trait UniquelyOwned: Protocol {
    /// The party that owns round `m` — the only one that may beep there.
    fn round_owner(&self, m: usize) -> usize;
}

/// Blanket impl so `&P` is usable wherever a protocol is expected.
impl<P: Protocol + ?Sized> Protocol for &P {
    type Input = P::Input;
    type Output = P::Output;

    fn num_parties(&self) -> usize {
        (**self).num_parties()
    }

    fn length(&self) -> usize {
        (**self).length()
    }

    fn beep(&self, party: usize, input: &Self::Input, transcript: &[bool]) -> bool {
        (**self).beep(party, input, transcript)
    }

    fn output(&self, party: usize, input: &Self::Input, transcript: &[bool]) -> Self::Output {
        (**self).output(party, input, transcript)
    }

    fn true_or(&self, inputs: &[Self::Input], transcript: &[bool]) -> bool {
        (**self).true_or(inputs, transcript)
    }

    fn outputs(&self, inputs: &[Self::Input], transcript: &[bool]) -> Vec<Self::Output> {
        (**self).outputs(inputs, transcript)
    }
}

/// Result of a noiseless execution: the unique transcript and every
/// party's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution<O> {
    transcript: Transcript,
    outputs: Vec<O>,
}

impl<O> Execution<O> {
    /// The channel transcript `π`.
    pub fn transcript(&self) -> &[bool] {
        &self.transcript
    }

    /// Output of every party, indexed by party id.
    pub fn outputs(&self) -> &[O] {
        &self.outputs
    }

    /// Consumes the execution, returning `(transcript, outputs)`.
    pub fn into_parts(self) -> (Transcript, Vec<O>) {
        (self.transcript, self.outputs)
    }
}

/// Runs `protocol` on `inputs` over the noiseless channel.
///
/// The execution is deterministic; its transcript is the ground truth that
/// the simulation schemes in `beeps-core` must reproduce.
///
/// # Panics
///
/// Panics if `inputs.len() != protocol.num_parties()`.
///
/// # Examples
///
/// ```
/// use beeps_channel::{run_noiseless, Protocol};
///
/// struct Echo; // two rounds: party 0 beeps its bit twice
/// impl Protocol for Echo {
///     type Input = bool;
///     type Output = (bool, bool);
///     fn num_parties(&self) -> usize { 2 }
///     fn length(&self) -> usize { 2 }
///     fn beep(&self, i: usize, input: &bool, _t: &[bool]) -> bool {
///         i == 0 && *input
///     }
///     fn output(&self, _i: usize, _x: &bool, t: &[bool]) -> (bool, bool) {
///         (t[0], t[1])
///     }
/// }
///
/// let exec = run_noiseless(&Echo, &[true, false]);
/// assert_eq!(exec.transcript(), &[true, true]);
/// assert_eq!(exec.outputs(), &[(true, true), (true, true)]);
/// ```
pub fn run_noiseless<P: Protocol>(protocol: &P, inputs: &[P::Input]) -> Execution<P::Output> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    let mut transcript = Vec::with_capacity(protocol.length());
    for _ in 0..protocol.length() {
        let or = protocol.true_or(inputs, &transcript);
        transcript.push(or);
    }
    let outputs = protocol.outputs(inputs, &transcript);
    Execution {
        transcript,
        outputs,
    }
}

/// Per-party transcript views of a noisy execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PartyViews {
    /// All parties observed this single transcript (shared-noise regimes).
    Shared(Transcript),
    /// Party `i` observed `views[i]` (independent noise).
    PerParty(Vec<Transcript>),
}

impl PartyViews {
    /// The transcript observed by party `i`.
    pub fn view(&self, i: usize) -> &[bool] {
        match self {
            PartyViews::Shared(t) => t,
            PartyViews::PerParty(v) => &v[i],
        }
    }

    /// The single shared transcript, if the noise regime guarantees one.
    pub fn shared(&self) -> Option<&[bool]> {
        match self {
            PartyViews::Shared(t) => Some(t),
            PartyViews::PerParty(_) => None,
        }
    }
}

/// Result of running a protocol over a noisy channel *directly* (without
/// any coding): per-party views, outputs, and channel statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyExecution<O> {
    views: PartyViews,
    /// The true (pre-noise) OR of every round, for analysis.
    true_ors: Transcript,
    outputs: Vec<O>,
    corrupted_rounds: usize,
    energy: usize,
}

impl<O> NoisyExecution<O> {
    /// What each party observed.
    pub fn views(&self) -> &PartyViews {
        &self.views
    }

    /// The noise-free OR of every round (what a noiseless channel would
    /// have delivered given the *same* beeping decisions).
    pub fn true_ors(&self) -> &[bool] {
        &self.true_ors
    }

    /// Output of every party.
    pub fn outputs(&self) -> &[O] {
        &self.outputs
    }

    /// Number of rounds in which at least one party heard a corrupted bit.
    pub fn corrupted_rounds(&self) -> usize {
        self.corrupted_rounds
    }

    /// Total beeps sent by all parties across the run (channel energy).
    pub fn energy(&self) -> usize {
        self.energy
    }

    /// Consumes the execution, yielding every party's output.
    pub fn into_outputs(self) -> Vec<O> {
        self.outputs
    }
}

/// Runs `protocol` on `inputs` over a [`StochasticChannel`] with the given
/// noise model and seed.
///
/// Each party beeps according to its own *view*: under independent noise
/// the parties' transcripts (and hence beeping decisions) may diverge,
/// exactly as in §1.2 of the paper.
///
/// # Panics
///
/// Panics if `inputs.len() != protocol.num_parties()` or the noise
/// parameter is invalid.
pub fn run_protocol<P: Protocol>(
    protocol: &P,
    inputs: &[P::Input],
    model: NoiseModel,
    seed: u64,
) -> NoisyExecution<P::Output> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    let mut channel = StochasticChannel::new(n, model, seed);
    run_protocol_over(protocol, inputs, &mut channel)
}

/// Runs `protocol` over an arbitrary [`Channel`] implementation — used for
/// scripted failure-injection and the A.1.2 reduction channel.
///
/// # Panics
///
/// Panics if `inputs.len() != protocol.num_parties()` or the channel was
/// built for a different number of parties.
pub fn run_protocol_over<P: Protocol, C: Channel>(
    protocol: &P,
    inputs: &[P::Input],
    channel: &mut C,
) -> NoisyExecution<P::Output> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    assert_eq!(channel.num_parties(), n, "channel sized for wrong n");

    let t = protocol.length();
    let mut shared: Option<Transcript> = Some(Vec::with_capacity(t));
    let mut per_party: Vec<Transcript> = Vec::new();
    let mut true_ors = Vec::with_capacity(t);
    let corrupted_before = channel.corrupted_rounds();

    let mut energy = 0usize;
    for _ in 0..t {
        // Each party beeps based on its own view so far. Counting (not
        // short-circuiting) also yields the run's total energy.
        let beeps = match (&shared, &per_party[..]) {
            (Some(view), _) => (0..n)
                .filter(|&i| protocol.beep(i, &inputs[i], view))
                .count(),
            (None, views) => (0..n)
                .filter(|&i| protocol.beep(i, &inputs[i], &views[i]))
                .count(),
        };
        energy += beeps;
        let or = beeps > 0;
        true_ors.push(or);
        match channel.transmit(or) {
            Delivery::Shared(bit) => match &mut shared {
                Some(view) => view.push(bit),
                None => {
                    for view in &mut per_party {
                        view.push(bit);
                    }
                }
            },
            Delivery::PerParty(bits) => {
                // Lazily switch to per-party views on first divergence-capable
                // delivery.
                if let Some(view) = shared.take() {
                    per_party = vec![view; n];
                }
                for (view, bit) in per_party.iter_mut().zip(bits.iter()) {
                    view.push(bit);
                }
            }
        }
    }

    let views = match shared {
        Some(t) => PartyViews::Shared(t),
        None => PartyViews::PerParty(per_party),
    };
    let outputs = match &views {
        PartyViews::Shared(t) => protocol.outputs(inputs, t),
        PartyViews::PerParty(views) => (0..n)
            .map(|i| protocol.output(i, &inputs[i], &views[i]))
            .collect(),
    };
    NoisyExecution {
        views,
        true_ors,
        outputs,
        corrupted_rounds: channel.corrupted_rounds() - corrupted_before,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ScriptedChannel;

    /// T-round protocol: party i beeps in round m iff bit m of its input
    /// schedule is set; output = transcript (adaptive-free).
    struct Schedule {
        n: usize,
        t: usize,
    }

    impl Protocol for Schedule {
        type Input = Vec<bool>;
        type Output = Vec<bool>;

        fn num_parties(&self) -> usize {
            self.n
        }

        fn length(&self) -> usize {
            self.t
        }

        fn beep(&self, _party: usize, input: &Vec<bool>, transcript: &[bool]) -> bool {
            input[transcript.len()]
        }

        fn output(&self, _party: usize, _input: &Vec<bool>, transcript: &[bool]) -> Vec<bool> {
            transcript.to_vec()
        }
    }

    /// Adaptive: party 0 beeps round 0; in round 1 everyone echoes what
    /// they heard in round 0.
    struct Adaptive;

    impl Protocol for Adaptive {
        type Input = ();
        type Output = bool;

        fn num_parties(&self) -> usize {
            3
        }

        fn length(&self) -> usize {
            2
        }

        fn beep(&self, party: usize, _input: &(), transcript: &[bool]) -> bool {
            match transcript.len() {
                0 => party == 0,
                _ => transcript[0],
            }
        }

        fn output(&self, _party: usize, _input: &(), transcript: &[bool]) -> bool {
            transcript[1]
        }
    }

    #[test]
    fn noiseless_or_of_schedules() {
        let p = Schedule { n: 3, t: 4 };
        let inputs = vec![
            vec![true, false, false, false],
            vec![false, false, true, false],
            vec![false, false, true, false],
        ];
        let exec = run_noiseless(&p, &inputs);
        assert_eq!(exec.transcript(), &[true, false, true, false]);
        for out in exec.outputs() {
            assert_eq!(out, &vec![true, false, true, false]);
        }
    }

    #[test]
    fn adaptive_protocol_follows_noise() {
        // Round 0 flipped: everyone hears 0 even though party 0 beeped,
        // so nobody echoes in round 1.
        let mut ch = ScriptedChannel::new(3, vec![true, false]);
        let exec = run_protocol_over(&Adaptive, &[(), (), ()], &mut ch);
        assert_eq!(exec.views().shared().unwrap(), &[false, false]);
        assert_eq!(exec.true_ors(), &[true, false]);
        assert_eq!(exec.outputs(), &[false, false, false]);
        assert_eq!(exec.corrupted_rounds(), 1);
    }

    #[test]
    fn noisy_execution_with_zero_noise_matches_noiseless() {
        let p = Schedule { n: 2, t: 8 };
        let inputs = vec![
            vec![true, false, true, false, true, false, true, false],
            vec![false, false, false, false, true, true, true, true],
        ];
        let truth = run_noiseless(&p, &inputs);
        let noisy = run_protocol(&p, &inputs, NoiseModel::Noiseless, 5);
        assert_eq!(noisy.views().shared().unwrap(), truth.transcript());
        assert_eq!(noisy.corrupted_rounds(), 0);
    }

    #[test]
    fn independent_noise_produces_divergent_views() {
        let p = Schedule { n: 16, t: 32 };
        let inputs = vec![vec![false; 32]; 16];
        let exec = run_protocol(&p, &inputs, NoiseModel::Independent { epsilon: 0.4 }, 11);
        match exec.views() {
            PartyViews::PerParty(views) => {
                assert_eq!(views.len(), 16);
                let first = &views[0];
                assert!(
                    views.iter().any(|v| v != first),
                    "with eps=0.4 over 32 rounds views should diverge"
                );
            }
            PartyViews::Shared(_) => panic!("independent noise must yield per-party views"),
        }
    }

    #[test]
    fn one_sided_up_preserves_ones() {
        let p = Schedule { n: 2, t: 64 };
        let inputs = vec![vec![true; 64], vec![false; 64]];
        let exec = run_protocol(
            &p,
            &inputs,
            NoiseModel::OneSidedZeroToOne { epsilon: 0.9 },
            3,
        );
        // True OR is 1 every round and the 0->1 channel never erases it.
        assert!(exec.views().shared().unwrap().iter().all(|&b| b));
        assert_eq!(exec.corrupted_rounds(), 0);
    }

    #[test]
    #[should_panic(expected = "one input per party")]
    fn input_count_mismatch_panics() {
        let p = Schedule { n: 3, t: 1 };
        run_noiseless(&p, &[vec![true]]);
    }

    #[test]
    fn protocol_usable_through_reference() {
        let p = Schedule { n: 2, t: 1 };
        let exec = run_noiseless(&&p, &[vec![true], vec![false]]);
        assert_eq!(exec.transcript(), &[true]);
    }
}
