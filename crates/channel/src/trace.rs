//! Execution tracing: record what crossed the channel and render it as a
//! terminal timeline — the debugging view used by the `trace` example and
//! by humans staring at rewind storms.

use crate::channel::Channel;
use crate::noise::Delivery;

/// One traced round: the true OR that was sent and what came out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundTrace {
    /// OR of the bits the parties sent.
    pub sent_or: bool,
    /// What the channel delivered.
    pub delivery: Delivery,
}

impl RoundTrace {
    /// Whether any party received a bit different from the true OR.
    #[inline]
    pub fn corrupted(&self) -> bool {
        self.delivery.uniform() != Some(self.sent_or)
    }
}

/// Default number of retained [`RoundTrace`]s; beyond this the oldest
/// rounds are discarded (their totals survive in [`TraceSummary`]).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Whole-run totals maintained by [`TracingChannel`] even for rounds the
/// bounded log has already discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Rounds transmitted through the wrapper.
    pub rounds: usize,
    /// Rounds in which some party heard a bit different from the true OR.
    pub corrupted: usize,
    /// Corrupted rounds where a silent round was heard as a beep (0→1).
    pub flips_up: usize,
    /// Corrupted rounds where a beep was silenced for someone (1→0).
    pub flips_down: usize,
    /// Rounds still present in [`TracingChannel::log`].
    pub retained: usize,
    /// Rounds discarded by the capacity bound.
    pub dropped: usize,
}

/// A channel wrapper that records rounds into a bounded log.
///
/// The log keeps the **most recent** `capacity` rounds (default
/// [`DEFAULT_TRACE_CAPACITY`]), so tracing a week-long rewind storm can
/// no longer exhaust memory; exact whole-run totals — including the
/// rounds already discarded — stay available via
/// [`TracingChannel::summary`].
///
/// # Examples
///
/// ```
/// use beeps_channel::{Channel, NoiseModel, StochasticChannel, TracingChannel};
///
/// let inner = StochasticChannel::new(2, NoiseModel::Noiseless, 0);
/// let mut ch = TracingChannel::new(inner);
/// ch.transmit(true);
/// ch.transmit(false);
/// assert_eq!(ch.log().len(), 2);
/// assert!(!ch.log()[0].corrupted());
/// assert_eq!(ch.summary().rounds, 2);
/// assert_eq!(ch.summary().corrupted, 0);
/// ```
#[derive(Debug)]
pub struct TracingChannel<C> {
    inner: C,
    log: Vec<RoundTrace>,
    capacity: usize,
    rounds: usize,
    corrupted: usize,
    flips_up: usize,
    flips_down: usize,
}

impl<C: Channel> TracingChannel<C> {
    /// Wraps `inner`, retaining the most recent
    /// [`DEFAULT_TRACE_CAPACITY`] rounds.
    pub fn new(inner: C) -> Self {
        Self::with_capacity(inner, DEFAULT_TRACE_CAPACITY)
    }

    /// Wraps `inner`, retaining at most `capacity` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(inner: C, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Self {
            inner,
            log: Vec::new(),
            capacity,
            rounds: 0,
            corrupted: 0,
            flips_up: 0,
            flips_down: 0,
        }
    }

    /// The retained rounds, oldest first — the most recent
    /// `capacity` of everything transmitted.
    pub fn log(&self) -> &[RoundTrace] {
        let start = self.log.len().saturating_sub(self.capacity);
        &self.log[start..]
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whole-run totals, exact even for discarded rounds.
    pub fn summary(&self) -> TraceSummary {
        let retained = self.log().len();
        TraceSummary {
            rounds: self.rounds,
            corrupted: self.corrupted,
            flips_up: self.flips_up,
            flips_down: self.flips_down,
            retained,
            dropped: self.rounds - retained,
        }
    }

    /// Gives back the wrapped channel, dropping the log.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Renders the retained trace as a two-strip timeline (`#` beep,
    /// `.` silence), with a third strip marking corrupted rounds (`X`),
    /// wrapped at `width` columns. Rounds evicted by the capacity bound
    /// are not shown (see [`TracingChannel::summary`] for their totals).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn render(&self, width: usize) -> String {
        render_strips(self.log(), width)
    }
}

impl<C: Channel> Channel for TracingChannel<C> {
    fn num_parties(&self) -> usize {
        self.inner.num_parties()
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        let delivery = self.inner.transmit(true_or);
        let trace = RoundTrace {
            sent_or: true_or,
            delivery: delivery.clone(),
        };
        self.rounds += 1;
        if trace.corrupted() {
            self.corrupted += 1;
            if true_or {
                self.flips_down += 1;
            } else {
                self.flips_up += 1;
            }
        }
        self.log.push(trace);
        // Amortised compaction: let the buffer grow to 2x capacity, then
        // drop the stale half in one move, keeping pushes O(1) amortised
        // while `log()` always has `capacity` recent rounds to return.
        if self.log.len() >= self.capacity.saturating_mul(2) {
            self.log.drain(..self.log.len() - self.capacity);
        }
        delivery
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn corrupted_rounds(&self) -> usize {
        self.inner.corrupted_rounds()
    }
}

/// Renders a recorded trace; exposed for logs captured elsewhere.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn render_strips(log: &[RoundTrace], width: usize) -> String {
    assert!(width > 0, "width must be positive");
    let mut out = String::new();
    for (block_idx, block) in log.chunks(width).enumerate() {
        let offset = block_idx * width;
        let sent: String = block
            .iter()
            .map(|r| if r.sent_or { '#' } else { '.' })
            .collect();
        let heard: String = block
            .iter()
            .map(|r| {
                let bit = match &r.delivery {
                    Delivery::Shared(b) => *b,
                    Delivery::PerParty(bits) => bits.count_ones() * 2 >= bits.len(),
                };
                if bit {
                    '#'
                } else {
                    '.'
                }
            })
            .collect();
        let marks: String = block
            .iter()
            .map(|r| if r.corrupted() { 'X' } else { ' ' })
            .collect();
        out.push_str(&format!("round {offset:>6}  sent  {sent}\n"));
        out.push_str(&format!("              heard {heard}\n"));
        out.push_str(&format!("              noise {marks}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ScriptedChannel, StochasticChannel};
    use crate::noise::NoiseModel;

    #[test]
    fn records_rounds_and_corruption() {
        let inner = ScriptedChannel::new(2, vec![false, true, false]);
        let mut ch = TracingChannel::new(inner);
        ch.transmit(true);
        ch.transmit(true); // flipped to 0
        ch.transmit(false);
        assert_eq!(ch.log().len(), 3);
        assert!(!ch.log()[0].corrupted());
        assert!(ch.log()[1].corrupted());
        assert_eq!(ch.corrupted_rounds(), 1);
    }

    #[test]
    fn render_marks_flips() {
        let inner = ScriptedChannel::new(2, vec![true]);
        let mut ch = TracingChannel::new(inner);
        ch.transmit(false);
        let s = ch.render(16);
        assert!(s.contains("sent  ."));
        assert!(s.contains("heard #"));
        assert!(s.contains('X'));
    }

    #[test]
    fn render_wraps_long_traces() {
        let inner = StochasticChannel::new(2, NoiseModel::Noiseless, 0);
        let mut ch = TracingChannel::new(inner);
        for i in 0..70 {
            ch.transmit(i % 3 == 0);
        }
        let s = ch.render(32);
        // 70 rounds at width 32 -> 3 blocks of 3 lines.
        assert_eq!(s.lines().count(), 9);
        assert!(s.contains("round     32"));
        assert!(s.contains("round     64"));
    }

    #[test]
    fn per_party_delivery_renders_majority() {
        let trace = vec![RoundTrace {
            sent_or: true,
            delivery: Delivery::PerParty(crate::BitVec::from_bools(&[true, true, false])),
        }];
        let s = render_strips(&trace, 8);
        assert!(s.contains("heard #"));
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        render_strips(&[], 0);
    }

    #[test]
    fn bounded_log_keeps_recent_rounds_and_exact_totals() {
        let inner = ScriptedChannel::new(1, vec![true; 10]); // every round flipped
        let mut ch = TracingChannel::with_capacity(inner, 4);
        for i in 0..10 {
            ch.transmit(i % 2 == 0); // sent pattern: t f t f ...
        }
        assert!(ch.log().len() <= 4);
        // The retained tail always ends with the most recent round.
        assert!(!ch.log().last().unwrap().sent_or);
        let s = ch.summary();
        assert_eq!(s.rounds, 10);
        // Every round is flipped: the 5 beeping rounds are silenced (down)
        // and the 5 silent rounds fabricate a beep (up).
        assert_eq!(s.corrupted, 10);
        assert_eq!(s.flips_up, 5);
        assert_eq!(s.flips_down, 5);
        assert_eq!(s.retained, ch.log().len());
        assert_eq!(s.dropped, 10 - ch.log().len());
    }

    #[test]
    fn summary_counts_flip_directions() {
        // The script flips rounds 0 and 1: sent true heard false (down),
        // then sent false heard true (up); round 2 is clean.
        let inner = ScriptedChannel::new(1, vec![true, true, false]);
        let mut ch = TracingChannel::new(inner);
        ch.transmit(true);
        ch.transmit(false);
        ch.transmit(false);
        let s = ch.summary();
        assert_eq!((s.corrupted, s.flips_up, s.flips_down), (2, 1, 1));
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn compaction_is_invisible_through_the_api() {
        let inner = StochasticChannel::new(2, NoiseModel::Noiseless, 0);
        let mut ch = TracingChannel::with_capacity(inner, 8);
        for i in 0..100 {
            ch.transmit(i % 3 == 0);
        }
        assert_eq!(ch.log().len(), 8);
        // Rounds 92..100 survive: the pattern of the last 8 sends.
        let sent: Vec<bool> = ch.log().iter().map(|r| r.sent_or).collect();
        let want: Vec<bool> = (92..100).map(|i| i % 3 == 0).collect();
        assert_eq!(sent, want);
        assert_eq!(ch.summary().dropped, 92);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let inner = StochasticChannel::new(1, NoiseModel::Noiseless, 0);
        let _ = TracingChannel::with_capacity(inner, 0);
    }
}
