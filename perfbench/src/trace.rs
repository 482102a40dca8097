//! The traced run's side channel: spans recorded around the program's
//! public calls, from the benchmark's own code only.
//!
//! Each worker keeps the spans of the trial it is running in a
//! thread-local buffer and hands them to a shared store when the trial
//! ends, so workers never contend inside a trial. A span's self time is
//! its duration minus its children's; [`Accounting`] splits a pass's wall
//! time into the self times of every layer plus the runner's own time and
//! an explicit unattributed residue, and checks that they add up.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

use beeps_channel::{Channel, Delivery, NoiseModel};
use beeps_core::{SimError, SimOutcome, Simulator};
use beeps_metrics::MetricsRegistry;
use beeps_observe::clock::monotonic_micros;

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One trial closure run by `TrialRunner` (its self time is the
    /// benchmark's input generation and outcome checks: unattributed).
    Trial,
    /// `run_noiseless`, the reference transcript.
    Oracle,
    /// A scheme call served by the collapsed struct-of-arrays engines.
    Soa,
    /// A scheme call served by the per-party engines.
    Party,
    /// One `run_owners_phase` call.
    Owners,
    /// `Channel::transmit`, aggregated per scheme call.
    Channel,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trial => "runner.trial",
            Layer::Oracle => "protocols.oracle",
            Layer::Soa => "core.soa",
            Layer::Party => "core.party",
            Layer::Owners => "owners",
            Layer::Channel => "channel.transmit",
        }
    }
}

/// One recorded interval. `calls > 1` marks an aggregate of many short
/// calls (the channel's transmits) recorded as one child.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    /// `Simulator::name()` for scheme calls, empty otherwise.
    pub scheme: &'static str,
    pub start_us: u64,
    pub dur_us: u64,
    /// Index of the parent span in the same store.
    pub parent: Option<usize>,
    /// `(cell << 32) | trial index`: spans of one trial share it.
    pub trial: u64,
    pub calls: u64,
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static STORE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Closes its span when dropped.
pub struct Guard(usize);

impl Drop for Guard {
    fn drop(&mut self) {
        let now = monotonic_micros();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let span = &mut l.spans[self.0];
            span.dur_us = now - span.start_us;
            l.open.pop();
        });
    }
}

/// Opens a span, child of the innermost open span on this thread.
pub fn span(layer: Layer, scheme: &'static str, trial: u64) -> Guard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let index = l.spans.len();
        let parent = l.open.last().copied();
        l.spans.push(Span {
            layer,
            scheme,
            start_us: monotonic_micros(),
            dur_us: 0,
            parent,
            trial,
            calls: 1,
        });
        l.open.push(index);
        Guard(index)
    })
}

/// Records `calls` calls totalling `dur_us` as one child of the innermost
/// open span.
pub fn aggregate(layer: Layer, dur_us: u64, calls: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = *l.open.last().expect("aggregate needs an open parent span");
        let (start_us, trial) = (l.spans[parent].start_us, l.spans[parent].trial);
        l.spans.push(Span {
            layer,
            scheme: "",
            start_us,
            dur_us,
            parent: Some(parent),
            trial,
            calls,
        });
    });
}

/// Moves this thread's closed spans to the shared store; called at the
/// end of every traced trial.
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        assert!(l.open.is_empty(), "flush with an open span");
        let mut store = STORE.lock().expect("span store poisoned");
        let offset = store.len();
        store.extend(l.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    });
}

/// Empties the shared store, returning every span flushed so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *STORE.lock().expect("span store poisoned"))
}

/// A forwarding [`Simulator`] that opens a span around every `simulate`
/// and `simulate_with_metrics` call. It forwards `name()`, so the
/// `sim.<name>.*` counters it records are the wrapped scheme's own.
pub struct Traced<'s, S: ?Sized> {
    inner: &'s S,
    layer: Layer,
    trial: u64,
}

impl<'s, S: ?Sized> Traced<'s, S> {
    pub fn new(inner: &'s S, layer: Layer, trial: u64) -> Self {
        Self {
            inner,
            layer,
            trial,
        }
    }
}

impl<I, O, S: Simulator<I, O> + ?Sized> Simulator<I, O> for Traced<'_, S> {
    fn simulate(
        &self,
        inputs: &[I],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<O>, SimError> {
        let _span = span(self.layer, self.inner.name(), self.trial);
        self.inner.simulate(inputs, model, seed)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn simulate_over(
        &self,
        inputs: &[I],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<O>, SimError> {
        let _span = span(self.layer, self.inner.name(), self.trial);
        self.inner.simulate_over(inputs, model, channel)
    }

    fn simulate_with_metrics(
        &self,
        inputs: &[I],
        model: NoiseModel,
        seed: u64,
        metrics: &mut MetricsRegistry,
    ) -> Result<SimOutcome<O>, SimError> {
        let _span = span(self.layer, self.inner.name(), self.trial);
        self.inner
            .simulate_with_metrics(inputs, model, seed, metrics)
    }
}

/// A forwarding [`Channel`] that sums the time spent in `transmit`.
///
/// One transmit is far shorter than the clock's microsecond tick, so a
/// single reading is 0 or 1; but the call starts at a random phase of
/// the tick, so the expected reading equals the true duration and the
/// sum over a trial's many thousand calls is an unbiased estimate.
pub struct TimedChannel<C> {
    inner: C,
    pub us: u64,
    pub calls: u64,
}

impl<C> TimedChannel<C> {
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            us: 0,
            calls: 0,
        }
    }
}

impl<C: Channel> Channel for TimedChannel<C> {
    fn num_parties(&self) -> usize {
        self.inner.num_parties()
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        let start = monotonic_micros();
        let delivery = self.inner.transmit(true_or);
        self.us += monotonic_micros() - start;
        self.calls += 1;
        delivery
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn corrupted_rounds(&self) -> usize {
        self.inner.corrupted_rounds()
    }
}

/// One traced pass's wall time split into layer self times.
#[derive(Debug, Default, Clone)]
pub struct Accounting {
    pub wall_us: f64,
    /// Self time per layer, in wall-equivalent microseconds (summed
    /// over workers, divided by the worker count).
    pub self_us: BTreeMap<&'static str, f64>,
    /// Busy time (span duration, children included) per scheme name.
    pub scheme_us: BTreeMap<&'static str, f64>,
    /// Span duration and count per layer, over all workers.
    pub dur_us: BTreeMap<&'static str, (u64, u64)>,
    /// Wall minus the trial closures' share: claiming, spawning, merging.
    pub runner_self_us: f64,
    /// Self time of the trial closures themselves.
    pub unattributed_us: f64,
    /// Sum of trial-closure durations over workers.
    pub busy_us: f64,
}

impl Accounting {
    /// Splits `wall_us` of a pass run on `workers` workers.
    ///
    /// # Errors
    ///
    /// A span whose children outlast it (a span counted twice), a
    /// parentless span that is not a trial, or parts that fail to add up
    /// to the wall time.
    pub fn of(spans: &[Span], wall_us: u64, workers: usize) -> Result<Self, String> {
        let w = workers as f64;
        let mut child_us = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut acc = Accounting {
            wall_us: wall_us as f64,
            ..Accounting::default()
        };
        for (s, children) in spans.iter().zip(&child_us) {
            let Some(self_us) = s.dur_us.checked_sub(*children) else {
                return Err(format!(
                    "negative self time in {} (trial {:#x}): {} us of children in {} us",
                    s.layer.name(),
                    s.trial,
                    children,
                    s.dur_us
                ));
            };
            let entry = acc.dur_us.entry(s.layer.name()).or_default();
            entry.0 += s.dur_us;
            entry.1 += s.calls;
            match s.layer {
                Layer::Trial => {
                    if s.parent.is_some() {
                        return Err("nested trial span".into());
                    }
                    acc.busy_us += s.dur_us as f64;
                    acc.unattributed_us += self_us as f64 / w;
                }
                layer => {
                    if s.parent.is_none() {
                        return Err(format!("{} span outside a trial", layer.name()));
                    }
                    *acc.self_us.entry(layer.name()).or_default() += self_us as f64 / w;
                    if !s.scheme.is_empty() {
                        *acc.scheme_us.entry(s.scheme).or_default() += s.dur_us as f64 / w;
                    }
                }
            }
        }
        acc.runner_self_us = acc.wall_us - acc.busy_us / w;
        if acc.runner_self_us < 0.0 {
            return Err(format!(
                "trial closures ({} us over {workers} workers) outlast the pass ({wall_us} us)",
                acc.busy_us
            ));
        }
        let parts = acc.runner_self_us + acc.unattributed_us + acc.self_us.values().sum::<f64>();
        if (parts - acc.wall_us).abs() > 1e-6 * acc.wall_us.max(1.0) {
            return Err(format!(
                "layers add up to {parts} us, the pass took {wall_us} us"
            ));
        }
        Ok(acc)
    }

    /// Sums passes, so per-pass means are `total / passes`.
    pub fn add(&mut self, other: &Accounting) {
        self.wall_us += other.wall_us;
        for (k, v) in &other.self_us {
            *self.self_us.entry(k).or_default() += v;
        }
        for (k, v) in &other.scheme_us {
            *self.scheme_us.entry(k).or_default() += v;
        }
        for (k, (d, c)) in &other.dur_us {
            let e = self.dur_us.entry(k).or_default();
            e.0 += d;
            e.1 += c;
        }
        self.runner_self_us += other.runner_self_us;
        self.unattributed_us += other.unattributed_us;
        self.busy_us += other.busy_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: Layer, start_us: u64, dur_us: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            scheme: if layer == Layer::Soa { "rewind" } else { "" },
            start_us,
            dur_us,
            parent,
            trial: 0,
            calls: 1,
        }
    }

    #[test]
    fn layers_add_up_to_the_wall() {
        let spans = [
            s(Layer::Trial, 0, 10, None),
            s(Layer::Oracle, 1, 2, Some(0)),
            s(Layer::Soa, 3, 6, Some(0)),
            s(Layer::Trial, 10, 8, None),
            s(Layer::Soa, 11, 5, Some(3)),
        ];
        let acc = Accounting::of(&spans, 20, 1).expect("consistent spans");
        assert_eq!(acc.runner_self_us, 2.0);
        assert_eq!(acc.unattributed_us, 5.0);
        assert_eq!(acc.self_us["core.soa"], 11.0);
        assert_eq!(acc.scheme_us["rewind"], 11.0);
    }

    #[test]
    fn double_counted_child_is_refused() {
        let spans = [
            s(Layer::Trial, 0, 10, None),
            s(Layer::Soa, 0, 8, Some(0)),
            s(Layer::Soa, 0, 8, Some(0)),
        ];
        assert!(Accounting::of(&spans, 10, 1).is_err());
    }

    #[test]
    fn spans_survive_the_thread_store() {
        take();
        {
            let _t = span(Layer::Trial, "", 7);
            let _c = span(Layer::Party, "rewind", 7);
            aggregate(Layer::Channel, 0, 3);
        }
        flush();
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].calls, 3);
    }
}
