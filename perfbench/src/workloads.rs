//! The four workloads: which experiment traffic each copies, how one
//! pass of it runs, and the digest every pass folds its outcomes into.
//!
//! Every experiment binary goes through `TrialRunner::run_with_metrics`
//! and a per-trial `Simulator::simulate_with_metrics` (E4 calls
//! `run_owners_phase` instead), and `fig_scale` through
//! `run_with_scratch` + `simulate_with_scratch`; the cells below make
//! exactly those calls. A pass is a fixed set of trials fixed by the
//! seed, so every pass of a run must produce the same digest.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use beeps_bench::{trial_seed, Trial, TrialRunner};
use beeps_channel::{run_noiseless, NoiseModel, Protocol, StochasticChannel};
use beeps_core::{
    record_simulation, run_owners_phase, CodeCache, HierarchicalSimulator, OneToZeroSimulator,
    OwnedRoundsSimulator, RewindSimulator, SimError, SimOutcome, Simulator, SimulatorConfig,
    SoaScratch,
};
use beeps_ecc::RandomCode;
use beeps_metrics::MetricsRegistry;
use beeps_observe::clock::monotonic_micros;
use beeps_protocols::{Broadcast, InputSet, PointerChase, RollCall};
use rand::rngs::StdRng;
use rand::Rng;

use crate::stats::Fnv;
use crate::trace::{self, Layer, Span, TimedChannel, Traced};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SharedSweep,
    IndependentRewind,
    OwnersPhase,
    MillionParty,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SharedSweep,
        Workload::IndependentRewind,
        Workload::OwnersPhase,
        Workload::MillionParty,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SharedSweep => "shared_sweep",
            Workload::IndependentRewind => "independent_rewind",
            Workload::OwnersPhase => "owners_phase",
            Workload::MillionParty => "million_party",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads: the shared sweep runs at the host's two cores like
    /// the experiment binaries; the rest copy single-worker traffic.
    pub fn workers(self) -> usize {
        match self {
            Workload::SharedSweep => 2,
            _ => 1,
        }
    }
}

/// Full size for measurement; tiny for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Exact counts over a set of units (trials or owners calls).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub units: u64,
    /// `SimError`, a transcript that differs from `run_noiseless`, or an
    /// owners table that is not `valid_for` its bits.
    pub failed: u64,
    /// Calls that returned an error: the `SimError` part of `failed`.
    pub errors: u64,
    pub channel_rounds: u64,
    pub corrupted_rounds: u64,
    /// Channel and protocol rounds of the trials that completed, whose
    /// ratio is the overhead.
    pub ok_channel_rounds: u64,
    pub ok_protocol_rounds: u64,
    pub chunk_rounds: u64,
    pub owners_rounds: u64,
    pub verify_rounds: u64,
    pub rewinds: u64,
    pub budget_exhausted: u64,
    /// Owners calls whose table is invalid (`owners_phase` only).
    pub invalid: u64,
    /// Largest `SoaScratch::retained_words` seen (`million_party` only).
    pub window_words: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.units += o.units;
        self.failed += o.failed;
        self.errors += o.errors;
        self.channel_rounds += o.channel_rounds;
        self.corrupted_rounds += o.corrupted_rounds;
        self.ok_channel_rounds += o.ok_channel_rounds;
        self.ok_protocol_rounds += o.ok_protocol_rounds;
        self.chunk_rounds += o.chunk_rounds;
        self.owners_rounds += o.owners_rounds;
        self.verify_rounds += o.verify_rounds;
        self.rewinds += o.rewinds;
        self.budget_exhausted += o.budget_exhausted;
        self.invalid += o.invalid;
        self.window_words = self.window_words.max(o.window_words);
    }
}

/// One trial closure (or owners call): its digest, latency and counts.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub digest: u64,
    pub us: u64,
    pub counts: Counts,
}

impl Unit {
    /// Folds a simulation result — transcript, `SimStats` and error kind.
    fn of_sim<O>(result: &Result<SimOutcome<O>, SimError>, truth: &[bool]) -> Self {
        let mut h = Fnv::new();
        let mut c = Counts {
            units: 1,
            ..Counts::default()
        };
        match result {
            Ok(out) => {
                let s = out.stats();
                h.u64(0);
                h.bits(out.transcript());
                for x in [
                    s.channel_rounds,
                    s.phase_rounds.chunk,
                    s.phase_rounds.owners,
                    s.phase_rounds.verify,
                    s.protocol_rounds,
                    s.chunks_committed,
                    s.rewinds,
                    s.energy,
                    s.corrupted_rounds,
                    usize::from(s.agreement),
                ] {
                    h.u64(x as u64);
                }
                c.failed = u64::from(out.transcript() != truth);
                c.channel_rounds = s.channel_rounds as u64;
                c.corrupted_rounds = s.corrupted_rounds as u64;
                c.ok_channel_rounds = s.channel_rounds as u64;
                c.ok_protocol_rounds = s.protocol_rounds as u64;
                c.chunk_rounds = s.phase_rounds.chunk as u64;
                c.owners_rounds = s.phase_rounds.owners as u64;
                c.verify_rounds = s.phase_rounds.verify as u64;
                c.rewinds = s.rewinds as u64;
            }
            Err(SimError::BudgetExhausted {
                rounds_used,
                committed,
            }) => {
                h.u64(1);
                h.u64(*rounds_used as u64);
                h.u64(*committed as u64);
                c.failed = 1;
                c.errors = 1;
                c.budget_exhausted = 1;
                c.channel_rounds = *rounds_used as u64;
            }
            Err(SimError::UnsupportedNoise { .. }) => {
                h.u64(2);
                c.failed = 1;
                c.errors = 1;
            }
        }
        Unit {
            digest: h.finish(),
            us: 0,
            counts: c,
        }
    }
}

/// Twin-call estimates of costs the traffic never calls on their own.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calibration {
    /// The recording `simulate_with_metrics` adds, summed over samples.
    pub record_us: f64,
    pub record_samples: u64,
    /// `RandomCode::with_length` time per owners call, summed over calls
    /// of a pass.
    pub build_us_per_pass: f64,
}

/// A sweep point of a workload.
trait Cell: Sync {
    /// Runs the cell's trials once, appending one unit per trial in
    /// trial-index order and merging the run's metrics into `all`.
    fn run(
        &self,
        runner: &TrialRunner,
        traced: bool,
        id: u64,
        units: &mut Vec<Unit>,
        all: &mut MetricsRegistry,
    );

    /// Adds this cell's twin-call estimates.
    fn calibrate(&self, cal: &mut Calibration);
}

fn trial_id(cell: u64, trial: Trial) -> u64 {
    (cell << 32) | trial.index as u64
}

/// One scheme over one protocol and noise model, as the experiment
/// binaries drive it: inputs, `run_noiseless`, `simulate_with_metrics`.
struct SimCell<'p, P: Protocol, S> {
    protocol: &'p P,
    sim: S,
    model: NoiseModel,
    trials: usize,
    seed: u64,
    inputs: fn(&mut StdRng, usize) -> Vec<P::Input>,
}

impl<P, S> SimCell<'_, P, S>
where
    P: Protocol + Sync,
    S: Simulator<P::Input, P::Output> + Sync,
{
    /// What `simulate_with_metrics` does for independent noise, with the
    /// channel it builds wrapped in a timer: the same program plus the
    /// wrapper.
    fn simulate_timed(
        &self,
        inputs: &[P::Input],
        seed: u64,
        metrics: &mut MetricsRegistry,
        id: u64,
    ) -> Result<SimOutcome<P::Output>, SimError> {
        let _span = trace::span(Layer::Party, self.sim.name(), id);
        let start = monotonic_micros();
        let n = self.protocol.num_parties();
        let mut channel = TimedChannel::new(StochasticChannel::new(n, self.model, seed));
        let result = self.sim.simulate_over(inputs, self.model, &mut channel);
        let elapsed = Duration::from_micros(monotonic_micros() - start);
        trace::aggregate(Layer::Channel, channel.us, channel.calls);
        record_simulation(self.sim.name(), &result, metrics);
        metrics.record_wall(&format!("sim.{}.simulate", self.sim.name()), elapsed);
        result
    }
}

impl<P, S> Cell for SimCell<'_, P, S>
where
    P: Protocol + Sync,
    S: Simulator<P::Input, P::Output> + Sync,
{
    fn run(
        &self,
        runner: &TrialRunner,
        traced: bool,
        id: u64,
        units: &mut Vec<Unit>,
        all: &mut MetricsRegistry,
    ) {
        let n = self.protocol.num_parties();
        let (out, m) = runner.run_with_metrics(self.seed, self.trials, |trial, metrics| {
            let start = monotonic_micros();
            let tid = trial_id(id, trial);
            let root = traced.then(|| trace::span(Layer::Trial, "", tid));
            let inputs = (self.inputs)(&mut trial.sub_rng(0), n);
            let truth = {
                let _span = traced.then(|| trace::span(Layer::Oracle, "", tid));
                run_noiseless(self.protocol, &inputs)
            };
            let result = if !traced {
                self.sim
                    .simulate_with_metrics(&inputs, self.model, trial.seed, metrics)
            } else if self.model.is_shared() {
                Traced::new(&self.sim, Layer::Soa, tid)
                    .simulate_with_metrics(&inputs, self.model, trial.seed, metrics)
            } else {
                self.simulate_timed(&inputs, trial.seed, metrics, tid)
            };
            let mut unit = Unit::of_sim(&result, truth.transcript());
            drop(root);
            if traced {
                trace::flush();
            }
            unit.us = monotonic_micros() - start;
            unit
        });
        all.merge_from(&m);
        units.extend(out);
    }

    fn calibrate(&self, cal: &mut Calibration) {
        // What `simulate_with_metrics` adds to `simulate` is recording
        // the outcome; replay that on two sampled seeds' outcomes. Timing
        // the two calls against each other would bury a few microseconds
        // of recording in the spread of a many-millisecond trial.
        const REPS: usize = 256;
        let n = self.protocol.num_parties();
        let name = self.sim.name();
        for index in 0..self.trials.min(2) {
            let trial = Trial::new(self.seed, index);
            let inputs = (self.inputs)(&mut trial.sub_rng(0), n);
            let result = self.sim.simulate(&inputs, self.model, trial.seed);
            let mut registries: Vec<MetricsRegistry> =
                (0..REPS).map(|_| MetricsRegistry::new()).collect();
            let start = monotonic_micros();
            for metrics in &mut registries {
                record_simulation(name, &result, metrics);
                metrics.record_wall(&format!("sim.{name}.simulate"), Duration::ZERO);
            }
            cal.record_us += (monotonic_micros() - start) as f64;
            cal.record_samples += REPS as u64;
            black_box(&registries);
        }
    }
}

/// E4's traffic: one standalone owners phase per trial.
struct OwnersCell {
    n: usize,
    code_len: usize,
    trials: usize,
    seed: u64,
}

const OWNERS_MODEL: NoiseModel = NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 };

impl OwnersCell {
    fn bits(&self, trial: Trial) -> Vec<Vec<bool>> {
        let mut rng = trial.sub_rng(0);
        (0..self.n)
            .map(|_| (0..self.n).map(|_| rng.gen_bool(0.25)).collect())
            .collect()
    }
}

impl Cell for OwnersCell {
    fn run(
        &self,
        runner: &TrialRunner,
        traced: bool,
        id: u64,
        units: &mut Vec<Unit>,
        all: &mut MetricsRegistry,
    ) {
        let (n, code_len) = (self.n, self.code_len);
        let (out, m) = runner.run_with_metrics(self.seed, self.trials, |trial, metrics| {
            let start = monotonic_micros();
            let tid = trial_id(id, trial);
            let root = traced.then(|| trace::span(Layer::Trial, "", tid));
            let bits = self.bits(trial);
            let out = {
                let _span = traced.then(|| trace::span(Layer::Owners, "", tid));
                run_owners_phase(
                    &bits,
                    OWNERS_MODEL,
                    code_len,
                    trial.index as u64,
                    trial.seed,
                )
            };
            let invalid = !out.valid_for(&bits);
            let cell = format!("exp.owners.n.{n:03}.len.{code_len:03}");
            metrics.inc(&format!("{cell}.trials"), 1);
            if invalid {
                metrics.inc(&format!("{cell}.failures"), 1);
            }
            let mut h = Fnv::new();
            h.u64(out.channel_rounds as u64);
            for row in &out.owners {
                for owner in row {
                    h.u64(owner.map_or(u64::MAX, |o| o as u64));
                }
            }
            drop(root);
            if traced {
                trace::flush();
            }
            let rounds = out.channel_rounds as u64;
            Unit {
                digest: h.finish(),
                us: monotonic_micros() - start,
                counts: Counts {
                    units: 1,
                    failed: u64::from(invalid),
                    invalid: u64::from(invalid),
                    channel_rounds: rounds,
                    ok_channel_rounds: rounds,
                    ok_protocol_rounds: n as u64,
                    ..Counts::default()
                },
            }
        });
        all.merge_from(&m);
        units.extend(out);
    }

    fn calibrate(&self, cal: &mut Calibration) {
        // The code each call builds for itself: `len + 1` symbols at the
        // call's codeword length, seeded by the trial index.
        const BUILDS: usize = 64;
        let start = monotonic_micros();
        for index in 0..BUILDS {
            black_box(RandomCode::with_length(
                self.n + 1,
                self.code_len,
                index as u64,
            ));
        }
        let per_build = (monotonic_micros() - start) as f64 / BUILDS as f64;
        cal.build_us_per_pass += per_build * self.trials as f64;
    }
}

/// E15b's traffic: `fig_scale`'s scale regime on one reused scratch per
/// runner call.
struct ScaleCell<'p> {
    protocol: &'p Broadcast,
    sim: RewindSimulator<'p, Broadcast>,
    trials: usize,
    seed: u64,
    /// `run_noiseless` transcripts of every trial, computed at set-up.
    expected: Vec<Vec<bool>>,
}

const SCALE_WIDTH: usize = 16;
const SCALE_MODEL: NoiseModel = NoiseModel::Correlated { epsilon: 0.1 };

fn broadcast_inputs(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut inputs = vec![0usize; n];
    inputs[0] = rng.gen_range(0..1usize << SCALE_WIDTH);
    inputs
}

impl<'p> ScaleCell<'p> {
    fn new(protocol: &'p Broadcast, trials: usize, seed: u64) -> Self {
        let n = protocol.num_parties();
        let config = SimulatorConfig::builder(n)
            .model(SCALE_MODEL)
            .chunk_len(SCALE_WIDTH)
            .build();
        let expected = (0..trials)
            .map(|i| {
                let inputs = broadcast_inputs(&mut Trial::new(seed, i).sub_rng(0), n);
                run_noiseless(protocol, &inputs).transcript().to_vec()
            })
            .collect();
        Self {
            protocol,
            sim: RewindSimulator::new(protocol, config),
            trials,
            seed,
            expected,
        }
    }
}

impl Cell for ScaleCell<'_> {
    fn run(
        &self,
        runner: &TrialRunner,
        traced: bool,
        id: u64,
        units: &mut Vec<Unit>,
        _all: &mut MetricsRegistry,
    ) {
        let n = self.protocol.num_parties();
        let out = runner.run_with_scratch(
            self.seed,
            self.trials,
            SoaScratch::default,
            |trial, scratch| {
                let start = monotonic_micros();
                let tid = trial_id(id, trial);
                let root = traced.then(|| trace::span(Layer::Trial, "", tid));
                let inputs = broadcast_inputs(&mut trial.sub_rng(0), n);
                let result = {
                    let _span = traced.then(|| trace::span(Layer::Soa, "rewind", tid));
                    self.sim
                        .simulate_with_scratch(&inputs, SCALE_MODEL, trial.seed, scratch)
                };
                let mut unit = Unit::of_sim(&result, &self.expected[trial.index]);
                unit.counts.window_words = scratch.retained_words() as u64;
                drop(root);
                if traced {
                    trace::flush();
                }
                unit.us = monotonic_micros() - start;
                unit
            },
        );
        units.extend(out);
    }

    fn calibrate(&self, _cal: &mut Calibration) {}
}

/// The protocols a workload's cells borrow, built first at set-up.
#[derive(Default)]
pub struct Protocols {
    input_set: Vec<InputSet>,
    roll_call: Vec<RollCall>,
    pointer_chase: Vec<PointerChase>,
    broadcast: Vec<Broadcast>,
}

#[derive(Debug, Clone, Copy)]
enum Family {
    /// E1 / E13 / E14: rewind on `InputSet_n`, correlated ε = 0.1.
    Rewind,
    /// E10: hierarchical on `InputSet_n`, correlated ε = 0.1.
    Hierarchical,
    /// E12: owned rounds on `RollCall_n`, correlated ε = 0.1.
    OwnedRollCall,
    /// Owned rounds on a `PointerChase` of width 8 and depth `2n`.
    OwnedPointerChase,
    /// E3: one-to-zero on `InputSet_n` under `1→0` noise, ε = 1/3.
    OneToZero,
    /// E3: rewind on `InputSet_n` under `0→1` noise, ε = 1/3.
    RewindUp,
    /// E8: rewind on `InputSet_n` under independent noise, ε = 0.1.
    RewindIndependent,
}

const CORRELATED: NoiseModel = NoiseModel::Correlated { epsilon: 0.1 };
const DOWN: NoiseModel = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
const UP: NoiseModel = NoiseModel::OneSidedZeroToOne { epsilon: 1.0 / 3.0 };
const INDEPENDENT: NoiseModel = NoiseModel::Independent { epsilon: 0.1 };

/// `(family, n, trials per pass)` of the simulation workloads.
///
/// Cells get equal trial counts, as in the experiment binaries, except
/// that one cell per workload gets extra trials so the latency p50 and
/// p90 fall inside one cell's cluster of trial costs instead of on the
/// gap between two, where they would jump with the seed.
fn sim_points(w: Workload, size: Size) -> Vec<(Family, usize, usize)> {
    use Family::*;
    let full: &[(Family, usize, usize)] = match w {
        Workload::SharedSweep => &[
            (Rewind, 16, 48),
            (Rewind, 32, 48),
            (Rewind, 64, 48),
            (Rewind, 128, 96),
            (Hierarchical, 16, 48),
            (Hierarchical, 32, 48),
            (Hierarchical, 64, 48),
            (Hierarchical, 128, 48),
            (OwnedRollCall, 16, 48),
            (OwnedRollCall, 32, 48),
            (OwnedRollCall, 64, 48),
            (OwnedPointerChase, 8, 48),
            (OwnedPointerChase, 16, 48),
            (OneToZero, 16, 48),
            (OneToZero, 32, 48),
            (OneToZero, 64, 48),
            (RewindUp, 16, 48),
            (RewindUp, 32, 48),
            (RewindUp, 64, 48),
        ],
        Workload::IndependentRewind => &[
            (RewindIndependent, 16, 4),
            (RewindIndependent, 32, 8),
            (RewindIndependent, 64, 4),
        ],
        Workload::OwnersPhase | Workload::MillionParty => &[],
    };
    full.iter()
        .map(|&(f, n, trials)| match size {
            Size::Full => (f, n, trials),
            Size::Tiny => (f, n.min(16), 2),
        })
        .collect()
}

/// `(n, code_len, calls per pass)` of `owners_phase`: E4's grid, with
/// the `n = 16` row weighted up so the latency p50 falls inside a cell.
fn owners_points(size: Size) -> Vec<(usize, usize, usize)> {
    let mut points = Vec::new();
    for n in [4usize, 8, 16, 32] {
        for code_len in [8usize, 16, 32, 64] {
            let trials = match size {
                Size::Full if n == 16 => 64,
                Size::Full => 48,
                Size::Tiny => 2,
            };
            points.push((n, code_len, trials));
        }
    }
    points
}

/// `(n, trials per pass)` of `million_party`.
fn scale_points(size: Size) -> &'static [(usize, usize)] {
    match size {
        Size::Full => &[(1_000_000, 1), (100_000, 2)],
        Size::Tiny => &[(10_000, 1), (1_000, 2)],
    }
}

fn input_set_inputs(rng: &mut StdRng, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..2 * n)).collect()
}

fn roll_call_inputs(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen_bool(0.5)).collect()
}

const CHASE_WIDTH: usize = 8;

fn pointer_chase_inputs(rng: &mut StdRng, n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|_| {
            (0..CHASE_WIDTH)
                .map(|_| rng.gen_range(0..CHASE_WIDTH))
                .collect()
        })
        .collect()
}

impl Protocols {
    pub fn build(w: Workload, size: Size) -> Self {
        let mut p = Protocols::default();
        for (family, n, _) in sim_points(w, size) {
            match family {
                Family::OwnedRollCall => p.roll_call.push(RollCall::new(n)),
                Family::OwnedPointerChase => {
                    p.pointer_chase
                        .push(PointerChase::new(n, CHASE_WIDTH, 2 * n));
                }
                _ => p.input_set.push(InputSet::new(n)),
            }
        }
        if w == Workload::MillionParty {
            for &(n, _) in scale_points(size) {
                p.broadcast.push(Broadcast::new(n, 0, SCALE_WIDTH));
            }
        }
        p
    }
}

/// A built workload: its cells and worker count.
pub struct Plan<'p> {
    pub workers: usize,
    cells: Vec<Box<dyn Cell + 'p>>,
}

/// What one pass produced.
pub struct PassOut {
    pub wall_us: u64,
    pub digest: u64,
    pub units: Vec<Unit>,
    pub counts: Counts,
    pub spans: Vec<Span>,
}

impl<'p> Plan<'p> {
    /// Builds the cells of `w` over `protocols` (from
    /// [`Protocols::build`] with the same `w` and `size`).
    pub fn build(w: Workload, size: Size, seed: u64, protocols: &'p Protocols) -> Self {
        let mut cells: Vec<Box<dyn Cell + 'p>> = Vec::new();
        let (mut input_set, mut roll_call, mut chase) = (
            protocols.input_set.iter(),
            protocols.roll_call.iter(),
            protocols.pointer_chase.iter(),
        );
        // E1 and E10 share one code table per parameter tuple.
        let cache = Arc::new(CodeCache::new());
        let cached = |n: usize| {
            SimulatorConfig::builder(n)
                .model(CORRELATED)
                .code_cache(Arc::clone(&cache))
                .build()
        };
        for (i, (family, n, trials)) in sim_points(w, size).into_iter().enumerate() {
            let seed = trial_seed(trial_seed(seed, i as u64), n as u64);
            let mut next = || input_set.next().expect("one InputSet per point");
            let cell: Box<dyn Cell + 'p> = match family {
                Family::Rewind => {
                    let p = next();
                    Box::new(SimCell {
                        protocol: p,
                        sim: RewindSimulator::new(p, cached(n)),
                        model: CORRELATED,
                        trials,
                        seed,
                        inputs: input_set_inputs,
                    })
                }
                Family::Hierarchical => {
                    let p = next();
                    Box::new(SimCell {
                        protocol: p,
                        sim: HierarchicalSimulator::new(p, cached(n)),
                        model: CORRELATED,
                        trials,
                        seed,
                        inputs: input_set_inputs,
                    })
                }
                Family::OneToZero => {
                    let p = next();
                    Box::new(SimCell {
                        protocol: p,
                        sim: OneToZeroSimulator::new(p, 2, 32.0),
                        model: DOWN,
                        trials,
                        seed,
                        inputs: input_set_inputs,
                    })
                }
                Family::RewindUp | Family::RewindIndependent => {
                    let p = next();
                    let model = if matches!(family, Family::RewindUp) {
                        UP
                    } else {
                        INDEPENDENT
                    };
                    let config = SimulatorConfig::builder(n).model(model).build();
                    Box::new(SimCell {
                        protocol: p,
                        sim: RewindSimulator::new(p, config),
                        model,
                        trials,
                        seed,
                        inputs: input_set_inputs,
                    })
                }
                Family::OwnedRollCall => {
                    let p = roll_call.next().expect("one RollCall per point");
                    let config = SimulatorConfig::builder(n).model(CORRELATED).build();
                    Box::new(SimCell {
                        protocol: p,
                        sim: OwnedRoundsSimulator::new(p, config),
                        model: CORRELATED,
                        trials,
                        seed,
                        inputs: roll_call_inputs,
                    })
                }
                Family::OwnedPointerChase => {
                    let p = chase.next().expect("one PointerChase per point");
                    let config = SimulatorConfig::builder(n).model(CORRELATED).build();
                    Box::new(SimCell {
                        protocol: p,
                        sim: OwnedRoundsSimulator::new(p, config),
                        model: CORRELATED,
                        trials,
                        seed,
                        inputs: pointer_chase_inputs,
                    })
                }
            };
            cells.push(cell);
        }
        if w == Workload::OwnersPhase {
            for (n, code_len, trials) in owners_points(size) {
                let seed = trial_seed(trial_seed(seed, n as u64), code_len as u64);
                cells.push(Box::new(OwnersCell {
                    n,
                    code_len,
                    trials,
                    seed,
                }));
            }
        }
        for (p, &(n, trials)) in protocols.broadcast.iter().zip(scale_points(size)) {
            let seed = trial_seed(seed ^ 0xB00, n as u64);
            cells.push(Box::new(ScaleCell::new(p, trials, seed)));
        }
        Plan {
            workers: w.workers(),
            cells,
        }
    }

    /// Runs every cell once on `workers` workers.
    pub fn pass(&self, traced: bool, workers: usize) -> PassOut {
        let runner = TrialRunner::new(workers);
        if traced {
            trace::take();
        }
        let mut units = Vec::new();
        let mut all = MetricsRegistry::new();
        let start = monotonic_micros();
        for (id, cell) in self.cells.iter().enumerate() {
            cell.run(&runner, traced, id as u64, &mut units, &mut all);
        }
        let wall_us = monotonic_micros() - start;
        let spans = if traced { trace::take() } else { Vec::new() };
        let mut h = Fnv::new();
        let mut counts = Counts::default();
        for unit in &units {
            h.u64(unit.digest);
            counts.add(&unit.counts);
        }
        // The deterministic metrics the experiments log: a traced pass
        // must record the very same counters.
        for (name, value) in all.counters() {
            h.bytes(name.as_bytes());
            h.u64(value);
        }
        PassOut {
            wall_us,
            digest: h.finish(),
            units,
            counts,
            spans,
        }
    }

    /// Twin-call estimates, made outside any timed pass.
    pub fn calibrate(&self) -> Calibration {
        let mut cal = Calibration::default();
        for cell in &self.cells {
            cell.calibrate(&mut cal);
        }
        cal
    }
}

/// Times set-up — building the protocols and the plan — over at least
/// 5 ms of repeated builds, returning seconds per build.
pub fn time_setup(w: Workload, size: Size, seed: u64) -> f64 {
    let (start, mut builds) = (monotonic_micros(), 0u32);
    while builds == 0 || monotonic_micros() - start < 5_000 {
        let protocols = Protocols::build(w, size);
        black_box(Plan::build(w, size, seed, &protocols));
        builds += 1;
    }
    (monotonic_micros() - start) as f64 * 1e-6 / f64::from(builds)
}

/// Builds `w` and hands the plan and its build time in seconds to `f`.
pub fn with_plan<R>(w: Workload, size: Size, seed: u64, f: impl FnOnce(&Plan<'_>, f64) -> R) -> R {
    let start = monotonic_micros();
    let protocols = Protocols::build(w, size);
    let plan = Plan::build(w, size, seed, &protocols);
    f(&plan, (monotonic_micros() - start) as f64 * 1e-6)
}
