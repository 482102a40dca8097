//! Lane-sliced batch engines: every scheme, every noise regime.
//!
//! A [`LaneChannel`] carries up to 64 independent trials, one bit-lane
//! each, with every lane's noise drawn from that trial's own seed in
//! exactly the order a scalar `StochasticChannel` would draw it. On top
//! of that contract the batch path exploits two structural facts of the
//! shared-noise regimes:
//!
//! * **State collapse** — under shared noise every party hears the same
//!   bit every round, so all per-party decode state (decoded chunk
//!   bits, owners bookkeeping, committed prefix) is identical across
//!   parties. The rewind, hierarchical, one-to-zero, and owned-rounds
//!   schemes have no lane code of their own: [`collapsed_lanes`] runs
//!   each scheme's one collapsed body from [`crate::soa`] one lane at a
//!   time through the [`LaneBits`] backend, so `simulate` and
//!   `simulate_batch` execute the same body over two channel backends.
//!   Repetition keeps a lockstep engine, [`repetition_lanes`], that
//!   shares one protocol evaluation across lanes with equal prefixes.
//! * **Span batching** — whenever the true OR is constant over a span
//!   (an `R`-round repetition block, an idle owners iteration, a
//!   `V`-round verification vote), the only observable is the number of
//!   heard 1s, which is `span − flips` (OR = 1) or `flips` (OR = 0).
//!   [`LaneChannel::flips_in_span`] produces that count with RNG work
//!   proportional to the number of flips, not rounds.
//!
//! Independent noise breaks the state collapse (per-party deliveries
//! diverge) but not the span batching:
//! [`repetition_lanes_independent`] keeps per-party transcripts and
//! reads each lane's `R`-round block as a sparse per-party flip list
//! from [`IndependentLaneChannel::span_flips`], so the work per block
//! is `O(n + flips)` instead of `O(n · R)`. Only the rewind-family
//! schemes still fall back to the scalar loop under independent noise
//! (their owners/verify phases need per-party heard words round by
//! round).
//!
//! The outputs are **bitwise identical** to the per-trial `simulate`
//! path — same transcripts, outputs, statistics, and errors — which is
//! pinned scheme-by-scheme by `tests/packed_equivalence.rs`.

use crate::outcome::{PhaseRounds, SimError, SimOutcome, SimStats};
use crate::params::SimulatorConfig;
use crate::soa::{ones_in_span, SharedBits, SoaScratch};
use beeps_channel::{
    lanes::{IndependentLaneChannel, LaneChannel},
    NoiseModel, Protocol, LANES,
};

/// One lane of a [`LaneChannel`] exposed as a scalar stream of shared
/// heard bits, the backend the collapsed engine bodies in
/// [`crate::soa`] are generic over. Single rounds step the lane;
/// constant-OR spans batch into [`LaneChannel::flips_in_span`] and
/// owners codewords into [`LaneChannel::transmit_rounds`], so a whole
/// repetition block, verification vote, idle owners iteration or
/// codeword word costs RNG work proportional to its flips, not its
/// rounds.
pub(crate) struct LaneBits<'a> {
    channel: &'a mut LaneChannel,
    lane: usize,
}

impl SharedBits for LaneBits<'_> {
    fn bit(&mut self, or: bool) -> bool {
        self.channel.step(self.lane, or)
    }

    fn ones(&mut self, span: usize, or: bool) -> usize {
        let flips = self.channel.flips_in_span(self.lane, span as u64, or);
        ones_in_span(span as u64, flips, or) as usize
    }

    fn word(&mut self, sent: u64, len: usize) -> u64 {
        self.channel.transmit_rounds(self.lane, sent, len)
    }

    fn corrupted(&self) -> usize {
        self.channel.corrupted(self.lane) as usize
    }
}

/// Runs one shared-noise trial per seed through a collapsed engine body,
/// lane-sliced and bitwise identical to `simulate` per seed: the seeds
/// split into [`LANES`]-sized groups that each share one
/// [`LaneChannel`], and `body` runs once per lane with that lane as its
/// [`LaneBits`] backend. One [`SoaScratch`] serves the whole batch (the
/// bodies reset it per trial). Results come back in seed order.
///
/// # Panics
///
/// Panics if `model` is not a validated shared-delivery model (the
/// schemes' `simulate_batch` routes everything else to the per-seed
/// loop).
pub(crate) fn collapsed_lanes<T>(
    model: NoiseModel,
    seeds: &[u64],
    mut body: impl FnMut(LaneBits<'_>, &mut SoaScratch) -> Result<SimOutcome<T>, SimError>,
) -> Vec<Result<SimOutcome<T>, SimError>> {
    let mut scratch = SoaScratch::default();
    let mut results = Vec::with_capacity(seeds.len());
    for group in seeds.chunks(LANES) {
        let mut channel = LaneChannel::shared(model, group)
            .expect("simulate_batch routes only shared models here");
        for lane in 0..group.len() {
            let bits = LaneBits {
                channel: &mut channel,
                lane,
            };
            results.push(body(bits, &mut scratch));
        }
    }
    results
}

/// Runs up to 64 repetition-scheme trials under **independent** noise,
/// bitwise identical to `RepetitionSimulator::simulate` per seed.
///
/// Per-party deliveries diverge here, so each lane keeps one decoded
/// transcript *per party* (the scalar path's `RepParty` state). What
/// stays batched is the noise: each `R`-round repetition block has a
/// constant true OR per lane, so party `i`'s heard-1 count is
/// `ones_in_span(R, flips_i, or)` and
/// [`IndependentLaneChannel::span_flips`] hands back exactly the
/// parties with `flips_i > 0` as a sparse list — every untouched party
/// decodes the block's default bit without touching the RNG.
///
/// # Panics
///
/// Panics if `model` is not a validated independent-noise model (the
/// scheme's `simulate_batch` routes everything else to the shared lane
/// engine or the scalar loop) or if
/// `inputs.len() != protocol.num_parties()`.
pub(crate) fn repetition_lanes_independent<P: Protocol>(
    protocol: &P,
    config: &SimulatorConfig,
    inputs: &[P::Input],
    model: NoiseModel,
    seeds: &[u64],
) -> Vec<Result<SimOutcome<P::Output>, SimError>> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    let mut channel = IndependentLaneChannel::new(n, model, seeds)
        .expect("simulate_batch routes only independent models here");
    let resolved = config.resolve(model);
    let r = config.repetitions;
    let t = protocol.length();
    let lanes = seeds.len();

    // Lane-major flat table of per-party decoded transcripts.
    let mut transcripts: Vec<Vec<bool>> = vec![Vec::with_capacity(t); lanes * n];
    let mut energy = vec![0usize; lanes];
    let span = beeps_observe::phase("sim.repetition.chunk");
    for _ in 0..t {
        for (lane, lane_energy) in energy.iter_mut().enumerate() {
            let base = lane * n;
            let mut beeps = 0usize;
            for i in 0..n {
                beeps += usize::from(protocol.beep(i, &inputs[i], &transcripts[base + i]));
            }
            let or = beeps > 0;
            // A party whose block had no flips hears `or` R times.
            let default_bit = ones_in_span(r as u64, 0, or) >= resolved.rep_ones as u64;
            for i in 0..n {
                transcripts[base + i].push(default_bit);
            }
            for &(party, flips) in channel.span_flips(lane, r as u64) {
                let ones = ones_in_span(r as u64, flips as u64, or);
                let slot = transcripts[base + party as usize]
                    .last_mut()
                    .expect("pushed this round");
                *slot = ones >= resolved.rep_ones as u64;
            }
            *lane_energy += r * beeps;
        }
    }
    drop(span);

    let mut results = Vec::with_capacity(lanes);
    for lane in (0..lanes).rev() {
        let views = transcripts.split_off(lane * n);
        let outputs = (0..n)
            .map(|i| protocol.output(i, &inputs[i], &views[i]))
            .collect();
        let agreement = views.iter().all(|v| v[..] == views[0][..]);
        let transcript = views.into_iter().next().expect("n >= 1 parties");
        results.push(Ok(SimOutcome::new(
            transcript,
            outputs,
            SimStats {
                channel_rounds: t * r,
                phase_rounds: PhaseRounds {
                    chunk: t * r,
                    ..Default::default()
                },
                protocol_rounds: t,
                chunks_committed: 0,
                rewinds: 0,
                agreement,
                energy: energy[lane],
                corrupted_rounds: channel.corrupted(lane) as usize,
            },
        )));
    }
    results.reverse();
    results
}

/// Runs up to 64 repetition-scheme trials lane-sliced, bitwise identical
/// to `RepetitionSimulator::simulate` per seed.
///
/// The caller guarantees `model` is a valid shared-noise model (the
/// schemes' `simulate_batch` routes independent noise and invalid ε to
/// the scalar path first).
pub(crate) fn repetition_lanes<P: Protocol>(
    protocol: &P,
    config: &SimulatorConfig,
    inputs: &[P::Input],
    model: NoiseModel,
    seeds: &[u64],
) -> Vec<Result<SimOutcome<P::Output>, SimError>> {
    let n = protocol.num_parties();
    assert_eq!(inputs.len(), n, "need one input per party");
    let mut channel =
        LaneChannel::shared(model, seeds).expect("simulate_batch routes only shared models here");
    let resolved = config.resolve(model);
    let r = config.repetitions;
    let t = protocol.length();

    let mut transcripts: Vec<Vec<bool>> = vec![Vec::with_capacity(t); seeds.len()];
    let mut energy = vec![0usize; seeds.len()];
    // Simulated rounds advance in lockstep: every lane decodes one
    // protocol round per R-round repetition block. The round's beep
    // count is a pure function of the decoded prefix, so a run of
    // lanes with equal prefixes shares one protocol evaluation — under
    // majority decode most lanes sit on the same transcript, collapsing
    // the n beep() calls per round to (nearly) one set per batch.
    // `same_as_prev[lane]` says lane's decoded prefix still equals
    // lane − 1's; it clears the first round the two decode different
    // bits, so the check is O(1) per lane and round.
    let mut same_as_prev = vec![true; seeds.len()];
    let span = beeps_observe::phase("sim.repetition.chunk");
    for _ in 0..t {
        let mut prev: Option<usize> = None;
        let mut prev_bit = false;
        for lane in 0..transcripts.len() {
            let beeps = match prev {
                Some(cached) if same_as_prev[lane] => cached,
                _ => {
                    let transcript = &transcripts[lane];
                    (0..n)
                        .filter(|&i| protocol.beep(i, &inputs[i], transcript))
                        .count()
                }
            };
            prev = Some(beeps);
            let or = beeps > 0;
            let flips = channel.flips_in_span(lane, r as u64, or);
            let bit = ones_in_span(r as u64, flips, or) >= resolved.rep_ones as u64;
            transcripts[lane].push(bit);
            if lane > 0 && bit != prev_bit {
                same_as_prev[lane] = false;
            }
            prev_bit = bit;
            energy[lane] += r * beeps;
        }
    }
    drop(span);

    transcripts
        .into_iter()
        .enumerate()
        .map(|(lane, transcript)| {
            let outputs = (0..n)
                .map(|i| protocol.output(i, &inputs[i], &transcript))
                .collect();
            Ok(SimOutcome::new(
                transcript,
                outputs,
                SimStats {
                    channel_rounds: t * r,
                    phase_rounds: PhaseRounds {
                        chunk: t * r,
                        ..Default::default()
                    },
                    protocol_rounds: t,
                    chunks_committed: 0,
                    rewinds: 0,
                    // All parties decode the shared channel identically.
                    agreement: true,
                    energy: energy[lane],
                    corrupted_rounds: channel.corrupted(lane) as usize,
                },
            ))
        })
        .collect()
}
