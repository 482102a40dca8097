//! Wall-clock phase profiling with Chrome trace-event export.
//!
//! [`PhaseProfiler`] aggregates every [`Observer::on_phase`] span into
//! per-`(phase, worker)` totals and keeps a bounded list of raw trace
//! events. Two renderings come out:
//!
//! * [`PhaseProfiler::write_chrome_trace`] — Chrome trace-event JSON
//!   (the `{"traceEvents": […]}` flavor), loadable in `chrome://tracing`,
//!   speedscope, and Perfetto; one `tid` per worker.
//! * [`PhaseProfiler::summary_table`] — an aligned text table in the
//!   style of `beeps metrics`' wall section, explicitly banner-marked
//!   non-deterministic.
//!
//! The profiler also derives chunk spans from the claim/complete hook
//! pair: chunks never interleave within a worker, so the claim
//! timestamp stored per worker brackets exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::ambient::MAIN_WORKER;
use crate::clock;
use crate::observer::Observer;

/// Default bound on retained raw trace events; past it events are
/// counted (`dropped_events`) but not stored, keeping memory bounded
/// on million-trial sweeps while per-phase totals stay exact.
pub const DEFAULT_MAX_TRACE_EVENTS: usize = 100_000;

/// Span name used for runner chunk executions derived from the
/// claim/complete hook pair.
pub const CHUNK_PHASE: &str = "runner.chunk";

#[derive(Debug, Clone, Copy, Default)]
struct PhaseTotal {
    calls: u64,
    micros: u64,
}

#[derive(Debug, Clone)]
struct TraceEvent {
    name: &'static str,
    worker: usize,
    ts: u64,
    /// `None` renders as an instantaneous event (`ph: "i"`).
    dur: Option<u64>,
    /// Chunk args: `(start, len)`.
    chunk: Option<(usize, usize)>,
}

#[derive(Debug, Default)]
struct ProfState {
    totals: BTreeMap<(&'static str, usize), PhaseTotal>,
    events: Vec<TraceEvent>,
    dropped: u64,
    /// Per-worker claim info for the currently open chunk:
    /// `(start, len, claimed_at_micros)`.
    open_chunks: BTreeMap<usize, (usize, usize, u64)>,
}

impl ProfState {
    fn record(&mut self, event: TraceEvent, max_events: usize) {
        let total = self.totals.entry((event.name, event.worker)).or_default();
        total.calls += 1;
        total.micros += event.dur.unwrap_or(0);
        if self.events.len() < max_events {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }
}

/// Aggregating wall-clock profiler; see the module docs.
#[derive(Debug)]
pub struct PhaseProfiler {
    state: Mutex<ProfState>,
    max_events: usize,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseProfiler {
    /// A profiler retaining up to [`DEFAULT_MAX_TRACE_EVENTS`] raw events.
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_events(DEFAULT_MAX_TRACE_EVENTS)
    }

    /// A profiler retaining up to `max_events` raw trace events
    /// (per-phase totals are unbounded and exact either way).
    #[must_use]
    pub fn with_max_events(max_events: usize) -> Self {
        Self {
            state: Mutex::new(ProfState::default()),
            max_events,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProfState> {
        // A poisoned lock means another observer hook panicked; the
        // profiler's data is simple enough to keep serving.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Raw trace events retained so far.
    #[must_use]
    pub fn events_retained(&self) -> usize {
        self.lock().events.len()
    }

    /// Raw trace events dropped by the retention bound.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Total recorded wall-clock micros for `phase` across all workers.
    #[must_use]
    pub fn phase_micros(&self, phase: &str) -> u64 {
        self.lock()
            .totals
            .iter()
            .filter(|((name, _), _)| *name == phase)
            .map(|(_, t)| t.micros)
            .sum()
    }

    /// Total recorded calls for `phase` across all workers.
    #[must_use]
    pub fn phase_calls(&self, phase: &str) -> u64 {
        self.lock()
            .totals
            .iter()
            .filter(|((name, _), _)| *name == phase)
            .map(|(_, t)| t.calls)
            .sum()
    }

    /// Serializes the profile as Chrome trace-event JSON.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_chrome_trace(&self, w: &mut dyn Write) -> io::Result<()> {
        let state = self.lock();
        w.write_all(b"{\"traceEvents\":[")?;
        let mut first = true;
        for ev in &state.events {
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            let tid = tid_of(ev.worker);
            write!(
                w,
                "\n{{\"name\":\"{}\",\"cat\":\"beeps\",\"pid\":1,\"tid\":{tid},\"ts\":{}",
                ev.name, ev.ts
            )?;
            match ev.dur {
                Some(dur) => write!(w, ",\"ph\":\"X\",\"dur\":{dur}")?,
                None => write!(w, ",\"ph\":\"i\",\"s\":\"t\"")?,
            }
            if let Some((start, len)) = ev.chunk {
                write!(w, ",\"args\":{{\"start\":{start},\"len\":{len}}}")?;
            }
            w.write_all(b"}")?;
        }
        write!(
            w,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":\"{}\"}}}}\n",
            state.dropped
        )?;
        Ok(())
    }

    /// Writes the Chrome trace to `path` (creating parent directories).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_chrome_trace(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut out = BufWriter::new(File::create(path)?);
        self.write_chrome_trace(&mut out)?;
        out.flush()
    }

    /// Renders per-phase totals, aggregated across workers, as an
    /// aligned table under a NON-DETERMINISTIC banner (the values are
    /// wall-clock times). Empty string when nothing was recorded.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let state = self.lock();
        if state.totals.is_empty() {
            return String::new();
        }
        // Aggregate across workers; count distinct workers per phase.
        let mut by_phase: BTreeMap<&'static str, (PhaseTotal, usize)> = BTreeMap::new();
        for ((name, _worker), total) in &state.totals {
            let entry = by_phase.entry(name).or_insert((PhaseTotal::default(), 0));
            entry.0.calls += total.calls;
            entry.0.micros += total.micros;
            entry.1 += 1;
        }
        let width = by_phase.keys().map(|n| n.len()).max().unwrap_or(5).max(5);
        let mut out = String::from(
            "phase profile (wall-clock, NON-DETERMINISTIC, excluded from reproducibility checks):\n",
        );
        let _ = writeln!(
            out,
            "  {:<width$}  {:>10}  {:>12}  {:>10}  {:>7}",
            "phase", "calls", "total_ms", "mean_us", "workers"
        );
        for (name, (total, workers)) in &by_phase {
            let mean = if total.calls > 0 {
                total.micros as f64 / total.calls as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {name:<width$}  {:>10}  {:>12.3}  {mean:>10.1}  {workers:>7}",
                total.calls,
                total.micros as f64 / 1e3,
            );
        }
        if state.dropped > 0 {
            let _ = writeln!(
                out,
                "  ({} raw trace event(s) dropped past the {}-event bound; totals stay exact)",
                state.dropped, self.max_events
            );
        }
        out
    }
}

/// Chrome trace `tid` for a worker index: the invoking thread
/// ([`MAIN_WORKER`]) renders as tid 0, pool workers as `worker + 1`.
fn tid_of(worker: usize) -> usize {
    if worker == MAIN_WORKER {
        0
    } else {
        worker + 1
    }
}

impl Observer for PhaseProfiler {
    fn on_phase(&self, worker: usize, name: &'static str, start_micros: u64, end_micros: u64) {
        let event = TraceEvent {
            name,
            worker,
            ts: start_micros,
            dur: Some(end_micros.saturating_sub(start_micros)),
            chunk: None,
        };
        self.lock().record(event, self.max_events);
    }

    fn on_mark(&self, worker: usize, name: &'static str, at_micros: u64) {
        let event = TraceEvent {
            name,
            worker,
            ts: at_micros,
            dur: None,
            chunk: None,
        };
        self.lock().record(event, self.max_events);
    }

    fn on_chunk_claimed(&self, worker: usize, start: usize, len: usize) {
        let now = clock::monotonic_micros();
        self.lock().open_chunks.insert(worker, (start, len, now));
    }

    fn on_chunk_completed(&self, worker: usize, start: usize, len: usize) {
        let now = clock::monotonic_micros();
        let mut state = self.lock();
        let Some((claim_start, claim_len, claimed_at)) = state.open_chunks.remove(&worker) else {
            return; // unmatched completion: drop rather than guess
        };
        debug_assert_eq!((claim_start, claim_len), (start, len));
        let event = TraceEvent {
            name: CHUNK_PHASE,
            worker,
            ts: claimed_at,
            dur: Some(now.saturating_sub(claimed_at)),
            chunk: Some((start, len)),
        };
        state.record(event, self.max_events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_aggregate_per_worker_and_phase() {
        let p = PhaseProfiler::new();
        p.on_phase(0, "sim.rewind.chunk", 0, 100);
        p.on_phase(1, "sim.rewind.chunk", 50, 250);
        p.on_phase(0, "channel.transmit", 10, 20);
        assert_eq!(p.phase_micros("sim.rewind.chunk"), 300);
        assert_eq!(p.phase_calls("sim.rewind.chunk"), 2);
        assert_eq!(p.phase_micros("channel.transmit"), 10);
    }

    #[test]
    fn chunk_pair_produces_a_span() {
        let p = PhaseProfiler::new();
        p.on_chunk_claimed(2, 64, 32);
        p.on_chunk_completed(2, 64, 32);
        assert_eq!(p.phase_calls(CHUNK_PHASE), 1);
        assert_eq!(p.events_retained(), 1);
    }

    #[test]
    fn event_bound_drops_but_totals_stay_exact() {
        let p = PhaseProfiler::with_max_events(2);
        for i in 0..5 {
            p.on_phase(0, "sim.rewind.verify", i * 10, i * 10 + 5);
        }
        assert_eq!(p.events_retained(), 2);
        assert_eq!(p.events_dropped(), 3);
        assert_eq!(p.phase_calls("sim.rewind.verify"), 5);
        assert_eq!(p.phase_micros("sim.rewind.verify"), 25);
    }

    #[test]
    fn chrome_trace_shape() {
        let p = PhaseProfiler::new();
        p.on_phase(0, "sim.rewind.chunk", 5, 25);
        p.on_mark(1, "sim.rewind.rewind", 30);
        p.on_chunk_claimed(MAIN_WORKER, 0, 4);
        p.on_chunk_completed(MAIN_WORKER, 0, 4);
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"sim.rewind.chunk\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"args\":{\"start\":0,\"len\":4}"));
        assert!(json.contains("\"tid\":0"), "main thread is tid 0: {json}");
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn summary_table_lists_phases() {
        let p = PhaseProfiler::new();
        assert!(p.summary_table().is_empty());
        p.on_phase(0, "runner.merge", 0, 1000);
        p.on_phase(1, "runner.merge", 0, 3000);
        let table = p.summary_table();
        assert!(table.contains("NON-DETERMINISTIC"), "{table}");
        assert!(table.contains("runner.merge"), "{table}");
        assert!(table.contains("2"), "{table}");
    }
}
