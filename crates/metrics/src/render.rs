//! Text renderings of a [`MetricsRegistry`]: the aligned terminal
//! tables behind `beeps metrics` / `--metrics`, and a Prometheus-style
//! text exposition (`--metrics-format prom`) for future service
//! deployment.
//!
//! Every rendering covers only the deterministic section, so its
//! output is byte-identical for any thread count; no rendering shows
//! the wall-clock timings.

use std::fmt::Write as _;

use crate::registry::MetricsRegistry;

/// The simulation phases every scheme attributes rounds to, in display
/// order (mirrors `beeps_core`'s `PhaseRounds`).
const PHASES: [&str; 3] = ["chunk", "owners", "verify"];

impl MetricsRegistry {
    /// Renders the deterministic section (counters, histograms, event
    /// summary) as aligned `name value` lines.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters()
            .map(|(n, _)| n.len())
            .chain(self.histograms().map(|(n, _)| n.len() + "(p50..)".len()))
            .max()
            .unwrap_or(0);
        if self.counters().next().is_some() {
            out.push_str("counters:\n");
            for (name, v) in self.counters() {
                let _ = writeln!(out, "  {name:<width$}  {v}");
            }
        }
        if self.histograms().next().is_some() {
            out.push_str("histograms (count/min/mean/max):\n");
            for (name, h) in self.histograms() {
                let mean = h.mean().unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "  {name:<width$}  {} / {} / {mean:.1} / {}",
                    h.count(),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                );
            }
        }
        let ev = self.events();
        if ev.recorded() > 0 {
            let _ = writeln!(
                out,
                "events: {} recorded, {} retained, {} dropped (capacity {})",
                ev.recorded(),
                ev.len(),
                ev.dropped(),
                ev.capacity(),
            );
        }
        out
    }

    /// Renders a per-phase table over every scheme that recorded
    /// `sim.<scheme>.rounds.<phase>` counters:
    ///
    /// ```text
    /// scheme       chunk  owners  verify   total  rewinds  energy  corrupted
    /// rewind        1234     567      89    1890        3    4567         12
    /// ```
    ///
    /// Deterministic; returns an empty string when no scheme reported.
    #[must_use]
    pub fn render_phase_table(&self) -> String {
        let mut schemes: Vec<String> = Vec::new();
        for (name, _) in self.counters() {
            if let Some(rest) = name.strip_prefix("sim.") {
                if let Some(scheme) = rest.strip_suffix(".rounds.chunk") {
                    schemes.push(scheme.to_owned());
                }
            }
        }
        if schemes.is_empty() {
            return String::new();
        }
        let header = [
            "scheme",
            "chunk",
            "owners",
            "verify",
            "total",
            "rewinds",
            "energy",
            "corrupted",
        ];
        let mut rows: Vec<Vec<String>> = vec![header.iter().map(|s| (*s).to_owned()).collect()];
        for scheme in &schemes {
            let phase = |p: &str| self.counter(&format!("sim.{scheme}.rounds.{p}"));
            let mut row = vec![scheme.clone()];
            for p in PHASES {
                row.push(phase(p).to_string());
            }
            row.push(
                self.counter(&format!("sim.{scheme}.rounds.total"))
                    .to_string(),
            );
            for suffix in ["rewinds", "energy", "corrupted_rounds"] {
                row.push(self.counter(&format!("sim.{scheme}.{suffix}")).to_string());
            }
            rows.push(row);
        }
        let widths: Vec<usize> = (0..header.len())
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::from("per-phase rounds by scheme:\n");
        for row in &rows {
            out.push_str("  ");
            for (c, cell) in row.iter().enumerate() {
                let w = widths[c];
                if c == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "  {cell:>w$}");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (`--metrics-format prom`). Counters and histogram series carry a
    /// `beeps_` prefix with names sanitised to `[a-z0-9_]`. Wall-clock
    /// spans are deliberately absent — like the JSON `metrics` block,
    /// the exposition covers only the deterministic section, so it is
    /// byte-identical for any thread count.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE beeps_{metric}_total counter");
            let _ = writeln!(out, "beeps_{metric}_total {v}");
        }
        for (name, h) in self.histograms() {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE beeps_{metric} histogram");
            let mut cumulative = 0u64;
            for (bucket, count) in h.nonzero_buckets() {
                cumulative += count;
                let le = crate::histogram::Histogram::bucket_upper_bound(bucket);
                let _ = writeln!(out, "beeps_{metric}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "beeps_{metric}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "beeps_{metric}_sum {}", h.sum());
            let _ = writeln!(out, "beeps_{metric}_count {}", h.count());
        }
        // The event-ring totals are always present, even at zero: a
        // counter that only appears once events flow breaks rate() and
        // "did we drop anything?" alerts on scrapes taken before the
        // first storm.
        let ev = self.events();
        out.push_str("# TYPE beeps_events_recorded_total counter\n");
        let _ = writeln!(out, "beeps_events_recorded_total {}", ev.recorded());
        out.push_str("# TYPE beeps_events_dropped_total counter\n");
        let _ = writeln!(out, "beeps_events_dropped_total {}", ev.dropped());
        if !ev.is_empty() {
            let mut by_label: std::collections::BTreeMap<&str, u64> =
                std::collections::BTreeMap::new();
            for e in ev.iter() {
                *by_label.entry(e.label.as_str()).or_insert(0) += 1;
            }
            out.push_str("# TYPE beeps_events_retained gauge\n");
            for (label, count) in by_label {
                let _ = writeln!(
                    out,
                    "beeps_events_retained{{label=\"{}\"}} {count}",
                    prom_label_value(label),
                );
            }
        }
        out
    }
}

/// Escapes a string for use inside a Prometheus label value: the text
/// exposition format requires `\` → `\\`, `"` → `\"`, and a literal
/// newline → `\n` (carriage returns ride along as `\r` so values stay
/// one line).
fn prom_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

/// Sanitises a dotted metric name into a Prometheus-safe snake name.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.inc("sim.rewind.rounds.chunk", 100);
        m.inc("sim.rewind.rounds.owners", 40);
        m.inc("sim.rewind.rounds.verify", 10);
        m.inc("sim.rewind.rounds.total", 150);
        m.inc("sim.rewind.rewinds", 2);
        m.inc("sim.rewind.energy", 321);
        m.inc("sim.rewind.corrupted_rounds", 5);
        m.observe("sim.rewind.rounds", 150);
        m.event("sim.rewind.rewind_storm", 150, 2);
        m
    }

    #[test]
    fn table_lists_counters_and_events() {
        let s = sample().render_table();
        assert!(s.contains("sim.rewind.rewinds"));
        assert!(s.contains("events: 1 recorded"));
    }

    #[test]
    fn phase_table_has_one_row_per_scheme() {
        let s = sample().render_phase_table();
        assert!(s.contains("scheme"));
        assert!(s.contains("rewind"));
        assert!(s.contains("150"), "total column: {s}");
        assert_eq!(s.lines().count(), 3, "banner + header + one scheme: {s}");
    }

    #[test]
    fn phase_table_empty_without_schemes() {
        let mut m = MetricsRegistry::new();
        m.inc("unrelated", 1);
        assert!(m.render_phase_table().is_empty());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let s = sample().render_prometheus();
        assert!(s.contains("# TYPE beeps_sim_rewind_rewinds_total counter"));
        assert!(s.contains("beeps_sim_rewind_rewinds_total 2"));
        assert!(s.contains("beeps_sim_rewind_rounds_bucket{le=\"+Inf\"} 1"));
        assert!(s.contains("beeps_sim_rewind_rounds_sum 150"));
        assert!(s.contains("beeps_events_recorded_total 1"));
        assert!(s.contains("beeps_events_dropped_total 0"));
        assert!(s.contains("beeps_events_retained{label=\"sim.rewind.rewind_storm\"} 1"));
    }

    #[test]
    fn prometheus_event_totals_present_even_when_empty() {
        let s = MetricsRegistry::new().render_prometheus();
        assert!(s.contains("beeps_events_recorded_total 0"));
        assert!(s.contains("beeps_events_dropped_total 0"));
        assert!(
            !s.contains("beeps_events_retained{"),
            "no series at zero: {s}"
        );
    }

    #[test]
    fn prometheus_event_drop_accounting_survives_ring_eviction() {
        let mut m = MetricsRegistry::new();
        for i in 0..2000u64 {
            m.event("storm", i, 1);
        }
        let s = m.render_prometheus();
        assert!(s.contains("beeps_events_recorded_total 2000"));
        assert!(s.contains("beeps_events_dropped_total 976"), "{s}");
        assert!(s.contains("beeps_events_retained{label=\"storm\"} 1024"));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let mut m = MetricsRegistry::new();
        // Built outside the call so the lint's literal-key charset check
        // doesn't read this deliberately hostile label as a metric key.
        let hostile = "weird\"label\\with\nnewline\rcr".to_owned();
        m.event(hostile, 0, 1);
        let s = m.render_prometheus();
        assert!(
            s.contains(r#"beeps_events_retained{label="weird\"label\\with\nnewline\rcr"} 1"#),
            "{s}"
        );
        assert_eq!(
            s.matches("beeps_events_retained{").count(),
            1,
            "one series, not split by the raw newline: {s}"
        );
    }

    #[test]
    fn prometheus_exposition_excludes_wall() {
        let mut m = sample();
        m.record_wall("sim.rewind.simulate", std::time::Duration::from_millis(3));
        assert!(!m.render_prometheus().contains("wall"));
    }

    #[test]
    fn rendering_is_reproducible() {
        let m = sample();
        assert_eq!(m.render_table(), m.render_table());
        assert_eq!(m.render_prometheus(), m.render_prometheus());
    }
}
