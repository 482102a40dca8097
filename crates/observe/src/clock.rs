//! The workspace's single sanctioned wall-clock module.
//!
//! The workspace-wide determinism contract bans wall-clock reads from
//! simulation code (beeps-lint `wall-clock`, clippy
//! `disallowed-methods`): elapsed time must never flow into
//! deterministic state. Observability legitimately needs the clock —
//! for throughput, ETA, phase spans, run-log timestamps, and the
//! benchmark and experiment binaries' elapsed-time columns — so this
//! module is the one place allowed to read it. Everything else calls
//! through [`monotonic_micros`], [`wall_unix_millis`] and
//! [`Stopwatch`], and the lint allowlists exactly this file.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Process-lifetime origin for the monotonic microsecond clock: fixed
/// on first read so every span and trace event shares one timebase.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Monotonic microseconds since the first clock read of this process.
///
/// All spans, marks, and trace events are stamped on this timebase, so
/// a Chrome trace's `ts` values are directly comparable across workers.
#[allow(clippy::disallowed_methods)] // the one sanctioned clock site
#[must_use]
pub fn monotonic_micros() -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    Instant::now().duration_since(origin).as_micros() as u64
}

/// A started elapsed-time measurement with the clock's full (sub-
/// microsecond) resolution, for timings too short for
/// [`monotonic_micros`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[allow(clippy::disallowed_methods)] // the one sanctioned clock site
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Milliseconds since the Unix epoch — for run-log timestamps only
/// (never compared, never deterministic). Returns 0 if the system
/// clock sits before the epoch.
#[allow(clippy::disallowed_methods)] // the one sanctioned clock site
#[must_use]
pub fn wall_unix_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Peak resident set size of this process in bytes, or 0 when the
/// platform doesn't expose it.
///
/// Linux publishes the high-water mark as the `VmHWM` line of
/// `/proc/self/status` (in kB); other platforms report 0 rather than
/// guessing. Like the clocks above this is observability-only: the
/// value goes into run-log summaries and experiment memory columns,
/// never into deterministic state.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_decreases() {
        let a = monotonic_micros();
        let b = monotonic_micros();
        assert!(b >= a);
    }

    #[test]
    fn wall_clock_is_past_2020() {
        // 2020-01-01 in unix millis; a sane system clock is later.
        assert!(wall_unix_millis() > 1_577_836_800_000);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // A running test binary has at least a page resident.
            assert!(rss > 0, "VmHWM parse returned 0 on linux");
        }
        // Reading twice never decreases (it's a high-water mark).
        assert!(peak_rss_bytes() >= rss);
    }
}
