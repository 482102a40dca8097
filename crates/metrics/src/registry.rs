//! The [`MetricsRegistry`]: one ordered home for every measurement.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::events::{EventLog, DEFAULT_EVENT_CAPACITY};
use crate::histogram::Histogram;

/// Accumulated wall-clock time for one named span (non-deterministic
/// section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WallTiming {
    /// Times the span was entered.
    pub calls: u64,
    /// Total elapsed wall-clock time across all calls.
    pub total: Duration,
}

/// Named counters, histograms, a bounded event log, and (separately)
/// wall-clock timings.
///
/// All deterministic collections are `BTreeMap`-keyed, so iteration
/// order — and therefore every rendering — is a pure function of the
/// recorded names and values, never of insertion or scheduling order.
///
/// Equality (`PartialEq`) compares **only the deterministic section**
/// (counters, histograms, events); wall-clock timings are excluded, so
/// two runs of the same seeded workload compare equal even though their
/// wall times differ.
///
/// # Examples
///
/// ```
/// use beeps_metrics::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.inc("sim.rewind.rewinds", 0); // created at 0, and listed
/// for _ in 0..3 {
///     m.inc("sim.rewind.energy", 2);
/// }
/// assert_eq!(m.counter("sim.rewind.energy"), 6);
/// let names: Vec<_> = m.counters().map(|(name, _)| name).collect();
/// assert_eq!(names, ["sim.rewind.energy", "sim.rewind.rewinds"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    events: EventLog,
    wall: BTreeMap<String, WallTiming>,
}

impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.histograms == other.histograms
            && self.events == other.events
    }
}

impl MetricsRegistry {
    /// An empty registry with the default event-log capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An empty registry whose event ring retains `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            events: EventLog::with_capacity(capacity),
            wall: BTreeMap::new(),
        }
    }

    // --- deterministic section -------------------------------------

    /// Adds `by` to the counter `name` (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(value) => *value += by,
            None => {
                self.counters.insert(name.to_owned(), by);
            }
        }
    }

    /// Current value of counter `name` (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Records `value` into the histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    }

    /// The histogram `name`, if anything was observed into it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Records an event into the bounded ring (see [`EventLog`]).
    pub fn event(&mut self, label: impl Into<String>, round: u64, value: u64) {
        self.events.push(label, round, value);
    }

    /// The event log.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    // --- wall-clock (non-deterministic) section --------------------

    /// Folds one call's elapsed time (measured by the caller, e.g. with
    /// `beeps_observe::clock::Stopwatch`) into the wall timing `name`.
    pub fn record_wall(&mut self, name: &str, elapsed: Duration) {
        let t = self.wall.entry(name.to_owned()).or_default();
        t.calls += 1;
        t.total += elapsed;
    }

    /// All wall timings in name order (non-deterministic values).
    pub fn wall(&self) -> impl Iterator<Item = (&str, WallTiming)> {
        self.wall.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Zeroes every measurement in place while keeping counter and
    /// histogram keys and all allocations — so a scratch registry reused
    /// across trials records each trial exactly as a fresh registry
    /// would, minus the per-trial allocation.
    ///
    /// Observational equivalence to a fresh registry: counters reset to
    /// 0 (a zero counter merges and compares identically to an absent
    /// one once the key exists anywhere in the aggregate), histograms
    /// and wall timings empty in place, and the event ring restarts at
    /// zero recorded with its capacity unchanged.
    pub fn reset(&mut self) {
        for v in self.counters.values_mut() {
            *v = 0;
        }
        for h in self.histograms.values_mut() {
            h.reset();
        }
        self.events.reset();
        for t in self.wall.values_mut() {
            *t = WallTiming::default();
        }
    }

    // --- aggregation ------------------------------------------------

    /// Folds every measurement of `other` into `self`.
    ///
    /// Counter and histogram merging is commutative, so aggregate
    /// *values* cannot depend on merge order; the event ring and any
    /// rendering of it keep the order in which merges were applied, so
    /// callers wanting bitwise-stable output must merge in a canonical
    /// order (the trial runner merges in trial-index order).
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, &value) in &other.counters {
            self.inc(name, value);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge_from(h);
        }
        self.events.merge_from(&other.events);
        for (name, &t) in &other.wall {
            let mine = self.wall.entry(name.clone()).or_default();
            mine.calls += t.calls;
            mine.total += t.total;
        }
    }

    /// Whether the deterministic section is completely empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc("a", 2);
        m.inc("a", 3);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn interning_order_does_not_affect_equality_or_merge() {
        // Same logical content, created in a different order.
        let mut a = MetricsRegistry::new();
        a.inc("x", 1);
        a.inc("y", 2);
        let mut b = MetricsRegistry::new();
        b.inc("y", 2);
        b.inc("x", 1);
        assert_eq!(a, b);
        let mut merged = MetricsRegistry::new();
        merged.inc("y", 0); // create in yet another order
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.counter("x"), 2);
        assert_eq!(merged.counter("y"), 4);
    }

    #[test]
    fn interned_counter_starts_at_zero_and_lists() {
        let mut m = MetricsRegistry::new();
        m.inc("later", 0);
        assert_eq!(m.counter("later"), 0);
        assert!(!m.is_empty(), "zero counters are part of the registry");
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("later", 0)]);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 1);
        a.observe("h", 10);
        a.event("e", 1, 0);
        let mut b = MetricsRegistry::new();
        b.inc("x", 2);
        b.inc("y", 7);
        b.observe("h", 20);
        a.merge_from(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().sum(), 30);
        assert_eq!(a.events().recorded(), 1);
    }

    #[test]
    fn merge_order_cannot_change_aggregates() {
        let regs: Vec<MetricsRegistry> = (0..4)
            .map(|i| {
                let mut m = MetricsRegistry::new();
                m.inc("c", i + 1);
                m.observe("h", 10 * (i + 1));
                m
            })
            .collect();
        let mut fwd = MetricsRegistry::new();
        for r in &regs {
            fwd.merge_from(r);
        }
        let mut rev = MetricsRegistry::new();
        for r in regs.iter().rev() {
            rev.merge_from(r);
        }
        assert_eq!(fwd.counter("c"), rev.counter("c"));
        assert_eq!(fwd.histogram("h"), rev.histogram("h"));
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let mut a = MetricsRegistry::new();
        a.inc("c", 1);
        let mut b = a.clone();
        b.record_wall("span", Duration::from_millis(5));
        assert_eq!(a, b, "wall timings must not affect determinism checks");
        b.inc("c", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn reset_then_refill_aggregates_like_fresh_registries() {
        let record = |m: &mut MetricsRegistry, salt: u64| {
            m.inc("c", salt);
            if salt.is_multiple_of(2) {
                m.inc("even", 1);
            }
            m.observe("h", salt * 3);
            m.event("e", salt, 1);
            m.record_wall("w", Duration::from_micros(salt));
        };
        let mut fresh_merged = MetricsRegistry::new();
        for salt in 1..=4 {
            let mut fresh = MetricsRegistry::new();
            record(&mut fresh, salt);
            fresh_merged.merge_from(&fresh);
        }
        let mut scratch = MetricsRegistry::new();
        let mut reset_merged = MetricsRegistry::new();
        for salt in 1..=4 {
            scratch.reset();
            record(&mut scratch, salt);
            reset_merged.merge_from(&scratch);
        }
        assert_eq!(fresh_merged, reset_merged);
        // Event order, not just totals.
        let a: Vec<_> = fresh_merged.events().iter().collect();
        let b: Vec<_> = reset_merged.events().iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn reset_zeroes_counters_and_keeps_their_keys() {
        let mut m = MetricsRegistry::new();
        m.inc("c", 5);
        m.observe("hist", 9);
        m.reset();
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("c", 0)]);
        assert_eq!(m.histogram("hist").unwrap().count(), 0);
        m.inc("c", 2);
        assert_eq!(m.counter("c"), 2);
    }
}
