//! The repository benchmark: the experiment traffic of *Noisy Beeps* in
//! four workloads, measured end to end with tracing off, and split into
//! per-layer self times by a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it print every metric by name and unit, and provenance. See
//! `perfbench/README.md` for what each workload and metric stands for.

mod speed;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;

use beeps_bench::Json;
use beeps_observe::clock::{monotonic_micros, peak_rss_bytes};

use crate::speed::{reference_us, NOMINAL_US};
use crate::stats::{median, Latencies};
use crate::trace::{Accounting, Span};
use crate::workloads::{time_setup, with_plan, Calibration, Counts, Plan, Size, Workload};

/// Core count of the host the numbers in `perfbench/README.md` came from.
const RECORDED_CORES: usize = 2;

/// Digests of every workload at the self-test size and seed, at any
/// worker count, traced or not.
const SELF_TEST_SEED: u64 = 1;
const PINNED: [(Workload, u64); 4] = [
    (Workload::SharedSweep, 0x26e8_ca89_6b36_1505),
    (Workload::IndependentRewind, 0xb678_b307_826e_17a9),
    (Workload::OwnersPhase, 0xa5e4_2394_bc55_d798),
    (Workload::MillionParty, 0x95a8_8583_51ca_9b82),
];

const USAGE: &str =
    "usage: perfbench --workload <shared_sweep|independent_rewind|owners_phase|million_party> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test";

/// Per-layer metrics: name, unit, and the end-to-end metric and workload
/// each should move. The first `IN_JSON` are measured on every workload
/// and make up the `--trace 1` result; the rest apply to some workloads
/// only and are printed beside them.
const LAYERS: [(&str, &str, &str); 27] = [
    (
        "runner.busy_frac",
        "ratio",
        "trials_per_s on shared_sweep; ~1 on 1-worker workloads",
    ),
    (
        "runner.self_s",
        "s",
        "trials_per_s on shared_sweep; ~0 on 1-worker workloads",
    ),
    (
        "core.self_s",
        "s",
        "wall_s on every workload (all engine self time)",
    ),
    ("core.us_per_unit", "us", "unit_ms_p50 on every workload"),
    (
        "core.useful_frac",
        "ratio",
        "overhead_x (its inverse) on every workload",
    ),
    (
        "core.rounds.chunk",
        "count",
        "channel_rounds_per_s, overhead_x on simulation workloads",
    ),
    (
        "core.rounds.owners",
        "count",
        "channel_rounds_per_s, overhead_x on simulation workloads",
    ),
    (
        "core.rounds.verify",
        "count",
        "channel_rounds_per_s, overhead_x on simulation workloads",
    ),
    (
        "core.rewinds",
        "count",
        "overhead_x on simulation workloads",
    ),
    (
        "core.budget_exhausted",
        "count",
        "failed_frac on simulation workloads",
    ),
    ("core.window_kib", "KiB", "peak_rss_mib on million_party"),
    (
        "channel.rounds",
        "count",
        "channel_rounds_per_s on every workload",
    ),
    (
        "channel.corrupted_rounds",
        "count",
        "failed_frac on simulation workloads",
    ),
    (
        "owners.invalid_frac",
        "ratio",
        "failed_frac on owners_phase",
    ),
    (
        "unattributed_s",
        "s",
        "wall_s (trial-closure self time: input generation, checks)",
    ),
    (
        "trace.overhead_frac",
        "ratio",
        "none: the cost of tracing itself",
    ),
    (
        "core.soa.us_per_trial",
        "us",
        "unit_ms_p50 on shared_sweep and million_party",
    ),
    (
        "core.party.self_s",
        "s",
        "trials_per_s and unit_ms_p50 on independent_rewind",
    ),
    (
        "channel.transmit_s",
        "s",
        "unit_ms_p50 on independent_rewind",
    ),
    (
        "channel.ns_per_round",
        "ns",
        "unit_ms_p50 on independent_rewind",
    ),
    (
        "owners.us_per_call",
        "us",
        "trials_per_s and unit_ms_p50 on owners_phase",
    ),
    (
        "ecc.code_build_us",
        "us",
        "unit_ms_p50 on owners_phase (twin estimate)",
    ),
    (
        "ecc.code_build_frac",
        "ratio",
        "unit_ms_p50 on owners_phase; caching codes saves at most this",
    ),
    ("protocols.oracle_s", "s", "wall_s on shared_sweep"),
    (
        "metrics.record_us_per_trial",
        "us",
        "unit_ms_p50 on shared_sweep (twin estimate)",
    ),
    (
        "core.<scheme>.busy_s",
        "s",
        "wall_s on shared_sweep (one per Simulator::name())",
    ),
    (
        "runner.passes",
        "count",
        "none: traced passes the figures above average over",
    ),
];
const IN_JSON: usize = 16;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--self-test"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Everything one run measured.
struct Outcome {
    workers: usize,
    digest: u64,
    problems: Vec<String>,
    /// Seconds per set-up, timed once before each untraced pass.
    setups_s: Vec<f64>,
    /// Host speed during each untraced pass, relative to the nominal
    /// speed (see `speed.rs`); each pass's times are multiplied by it.
    speeds: Vec<f64>,
    /// Untraced timed passes: wall time, the p50 and p90 of the pass's
    /// unit latencies, counts.
    walls_us: Vec<u64>,
    unit_p50_us: Vec<f64>,
    unit_p90_us: Vec<f64>,
    timed: Counts,
    /// One pass's counts (every pass has the same).
    per_pass: Counts,
    /// Traced passes, if any.
    traced_walls_us: Vec<u64>,
    layers: Accounting,
    calibration: Calibration,
    last_spans: Vec<Span>,
}

/// Runs `w` for `seconds` of timed passes (at least `min_passes`).
fn measure(
    w: Workload,
    size: Size,
    seed: u64,
    seconds: u64,
    traced: bool,
    min_passes: usize,
) -> Outcome {
    with_plan(w, size, seed, |plan: &Plan<'_>, _| {
        // The first pass lets lazy set-up finish and fixes the digest
        // every later pass must reproduce.
        let warm = plan.pass(false, plan.workers);
        // Each reference sample lasts at least a fortieth of a pass, so a
        // long pass is bracketed by more than a moment of the host.
        let reference_budget_us = warm.wall_us / 40;
        reference_us(plan.workers, 0);
        let mut out = Outcome {
            workers: plan.workers,
            digest: warm.digest,
            problems: Vec::new(),
            setups_s: Vec::new(),
            speeds: Vec::new(),
            walls_us: Vec::new(),
            unit_p50_us: Vec::new(),
            unit_p90_us: Vec::new(),
            timed: Counts::default(),
            per_pass: warm.counts,
            traced_walls_us: Vec::new(),
            layers: Accounting::default(),
            calibration: Calibration::default(),
            last_spans: Vec::new(),
        };
        let deadline = monotonic_micros() + seconds * 1_000_000;
        loop {
            // Set-up samples spread over the run, like the passes, so
            // their median sees the same machine as the passes do.
            let before = reference_us(plan.workers, reference_budget_us);
            out.setups_s.push(time_setup(w, size, seed));
            let pass = plan.pass(false, plan.workers);
            let after = reference_us(plan.workers, reference_budget_us);
            out.speeds.push(2.0 * NOMINAL_US / (before + after));
            out.check_digest("untraced pass", pass.digest);
            out.walls_us.push(pass.wall_us);
            let mut latencies = Latencies::default();
            pass.units.iter().for_each(|u| latencies.add(u.us));
            out.unit_p50_us.push(latencies.quantile_us(0.5));
            out.unit_p90_us.push(latencies.quantile_us(0.9));
            out.timed.add(&pass.counts);
            if traced {
                let pass = plan.pass(true, plan.workers);
                out.check_digest("traced pass", pass.digest);
                match Accounting::of(&pass.spans, pass.wall_us, plan.workers) {
                    Ok(acc) => out.layers.add(&acc),
                    Err(e) => out.problems.push(format!("layer sum: {e}")),
                }
                out.traced_walls_us.push(pass.wall_us);
                out.last_spans = pass.spans;
            }
            if out.walls_us.len() >= min_passes && monotonic_micros() >= deadline {
                break;
            }
        }
        if traced {
            if plan.workers > 1 {
                let serial = plan.pass(false, 1);
                out.check_digest("1-worker pass", serial.digest);
            }
            out.calibration = plan.calibrate();
        }
        out
    })
}

impl Outcome {
    fn check_digest(&mut self, what: &str, digest: u64) {
        if digest != self.digest {
            self.problems.push(format!(
                "{what} digest {digest:#018x} differs from {:#018x}",
                self.digest
            ));
        }
    }

    /// Every pass does the same work, so a time is a per-pass figure:
    /// each pass's value at the nominal host speed (times that pass's
    /// speed), then the median over the passes.
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let at_speed = |times: &[f64]| -> f64 {
            let scaled: Vec<f64> = times.iter().zip(&self.speeds).map(|(t, s)| t * s).collect();
            median(&scaled)
        };
        let wall_s = at_speed(&self.raw_walls_s());
        let c = &self.per_pass;
        vec![
            ("setup_s", at_speed(&self.setups_s), "s"),
            ("wall_s", wall_s, "s"),
            ("trials_per_s", c.units as f64 / wall_s, "1/s"),
            (
                "channel_rounds_per_s",
                c.channel_rounds as f64 / wall_s,
                "1/s",
            ),
            ("unit_ms_p50", at_speed(&self.unit_p50_us) * 1e-3, "ms"),
            ("unit_ms_p90", at_speed(&self.unit_p90_us) * 1e-3, "ms"),
            (
                "peak_rss_mib",
                peak_rss_bytes() as f64 / (1024.0 * 1024.0),
                "MiB",
            ),
            (
                "overhead_x",
                ratio(c.ok_channel_rounds, c.ok_protocol_rounds),
                "ratio",
            ),
        ]
    }

    fn raw_walls_s(&self) -> Vec<f64> {
        self.walls_us.iter().map(|&w| w as f64 * 1e-6).collect()
    }

    fn failed_frac(&self) -> f64 {
        ratio(self.timed.failed, self.timed.units)
    }

    /// Per-layer metrics in `LAYERS` order, then one busy time per scheme.
    fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let l = &self.layers;
        let passes = self.traced_walls_us.len().max(1) as f64;
        let s = |us: f64| us / passes * 1e-6;
        let self_us = |k: &str| l.self_us.get(k).copied().unwrap_or(0.0);
        let dur = |k: &str| l.dur_us.get(k).copied().unwrap_or((0, 0));
        let mean_us = |(d, calls): (u64, u64)| ratio(d, calls);
        let engines = ["core.soa", "core.party", "owners"];
        let engine_dur = engines.iter().fold((0, 0), |acc, k| {
            let (d, c) = dur(k);
            (acc.0 + d, acc.1 + c)
        });
        let c = &self.per_pass;
        let owners_us_per_pass = dur("owners").0 as f64 / passes;
        let values = [
            ratio_f(l.busy_us, self.workers as f64 * l.wall_us),
            s(l.runner_self_us),
            s(engines.iter().map(|k| self_us(k)).sum()),
            mean_us(engine_dur),
            ratio(c.ok_protocol_rounds, c.ok_channel_rounds),
            c.chunk_rounds as f64,
            c.owners_rounds as f64,
            c.verify_rounds as f64,
            c.rewinds as f64,
            c.budget_exhausted as f64,
            c.window_words as f64 * 8.0 / 1024.0,
            c.channel_rounds as f64,
            c.corrupted_rounds as f64,
            ratio(c.invalid, c.units),
            s(l.unattributed_us),
            median(&as_f64(&self.traced_walls_us)) / median(&as_f64(&self.walls_us)) - 1.0,
            mean_us(dur("core.soa")),
            s(self_us("core.party")),
            s(self_us("channel.transmit")),
            ratio(dur("channel.transmit").0 * 1000, dur("channel.transmit").1),
            mean_us(dur("owners")),
            ratio_f(self.calibration.build_us_per_pass, c.units as f64),
            ratio_f(self.calibration.build_us_per_pass, owners_us_per_pass),
            s(self_us("protocols.oracle")),
            ratio_f(
                self.calibration.record_us,
                self.calibration.record_samples as f64,
            ),
        ];
        let mut out: Vec<(String, f64, &'static str)> = LAYERS
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name.to_owned(), v, unit))
            .collect();
        for (scheme, us) in &l.scheme_us {
            out.push((format!("core.{scheme}.busy_s"), s(*us), "s"));
        }
        out.push(("runner.passes".to_owned(), passes, "count"));
        out
    }
}

fn as_f64(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

fn ratio(a: u64, b: u64) -> f64 {
    ratio_f(a as f64, b as f64)
}

fn ratio_f(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The result line. A non-finite value (a ratio over nothing) reads 0,
/// since the line must hold numbers only.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut values = Json::object();
    for &(name, value, unit) in metrics {
        let mut metric = Json::object();
        metric
            .set("value", if value.is_finite() { value } else { 0.0 })
            .set("unit", unit);
        values.set(name, metric);
    }
    let mut line = Json::object();
    line.set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", values);
    line.render()
}

/// Host core count, worker count, build profile and commit.
fn provenance(workers: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    if cores != RECORDED_CORES {
        eprintln!(
            "perfbench: warning: this host has {cores} cores; the recorded numbers came from \
             {RECORDED_CORES}, so absolute figures are not comparable"
        );
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host_cores={cores} workers={workers} profile={profile} commit={}",
        commit()
    )
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|sha| sha.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Writes the last traced pass's spans under `target/perfbench/`.
fn write_spans(w: Workload, seed: u64, spans: &[Span]) -> Result<String, String> {
    let dir = std::path::Path::new("target").join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{seed}.tsv", w.name()));
    let mut text = String::from("index\ttrial\tlayer\tscheme\tparent\tstart_us\tdur_us\tcalls\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{i}\t{:#x}\t{}\t{}\t{parent}\t{}\t{}\t{}",
            s.trial,
            s.layer.name(),
            s.scheme,
            s.start_us,
            s.dur_us,
            s.calls
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn print_end_to_end(o: &Outcome) {
    println!(
        "end-to-end ({} timed passes, {} units):",
        o.walls_us.len(),
        o.timed.units
    );
    for (name, value, unit) in o.end_to_end() {
        println!("  {name:<22} {value:>14.6} {unit}");
    }
    println!(
        "  {:<22} {:>14.6} ratio  ({} of {} units; {} returned an error)",
        "failed_frac",
        o.failed_frac(),
        o.timed.failed,
        o.timed.units,
        o.timed.errors
    );
    println!(
        "  unit latency samples: {} ({} per pass)",
        o.timed.units, o.per_pass.units
    );
    let series = |v: &[f64]| -> String {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let raw = o.raw_walls_s();
    println!(
        "  host speed: median {:.4} of nominal ({NOMINAL_US} us per reference run); \
         raw wall_s {:.6}",
        median(&o.speeds),
        median(&raw)
    );
    println!("  pass walls, raw (s): {}", series(&raw));
    println!("  unit p50 per pass, raw (us): {}", series(&o.unit_p50_us));
    println!("  unit p90 per pass, raw (us): {}", series(&o.unit_p90_us));
    println!("  host speed per pass: {}", series(&o.speeds));
}

fn print_per_layer(o: &Outcome) {
    println!(
        "per-layer ({} traced passes; times are per pass, summed over workers / {}):",
        o.traced_walls_us.len(),
        o.workers
    );
    for (name, value, unit) in o.per_layer() {
        let moves = LAYERS
            .iter()
            .find(|(n, _, _)| *n == name || (n.contains("<scheme>") && name.ends_with(".busy_s")))
            .map_or("", |(_, _, m)| m);
        println!("  {name:<28} {value:>14.6} {unit:<6} -> {moves}");
    }
    let l = &o.layers;
    let s = 1e-6 / o.traced_walls_us.len().max(1) as f64;
    println!(
        "  layer sum per pass: runner {:.6} + layers {:.6} + unattributed {:.6} = traced wall {:.6} s",
        l.runner_self_us * s,
        l.self_us.values().sum::<f64>() * s,
        l.unattributed_us * s,
        l.wall_us * s
    );
}

fn run(args: &Args) -> i32 {
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance: {}", provenance(w.workers()));
    let o = measure(w, Size::Full, args.seed, args.seconds, args.trace, 3);
    println!("digest: {:#018x}", o.digest);
    print_end_to_end(&o);
    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        print_per_layer(&o);
        match write_spans(w, args.seed, &o.last_spans) {
            Ok(path) => println!("spans: {path}"),
            Err(e) => eprintln!("perfbench: warning: spans not written: {e}"),
        }
        o.per_layer().into_iter().take(IN_JSON).collect()
    } else {
        o.end_to_end()
            .into_iter()
            .map(|(n, v, u)| (n.to_owned(), v, u))
            .collect()
    };
    for p in &o.problems {
        eprintln!("perfbench: {p}");
    }
    let correct = o.problems.is_empty();
    let borrowed: Vec<(&str, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .collect();
    println!(
        "{}",
        json_line(correct, o.timed.units, o.timed.errors, &borrowed)
    );
    i32::from(!correct)
}

/// Every workload at a tiny size: traced and untraced, at one and two
/// workers, with every metric printed and the digests checked against
/// the pinned ones.
fn self_test() -> i32 {
    let mut ok = true;
    for (w, pinned) in PINNED {
        println!("== self-test {} ==", w.name());
        let plain = measure(w, Size::Tiny, SELF_TEST_SEED, 0, false, 2);
        let traced = measure(w, Size::Tiny, SELF_TEST_SEED, 0, true, 2);
        let serial = with_plan(w, Size::Tiny, SELF_TEST_SEED, |plan, _| {
            [1, 2].map(|workers| plan.pass(false, workers).digest)
        });
        print_end_to_end(&plain);
        print_per_layer(&traced);
        let digests = [plain.digest, traced.digest, serial[0], serial[1]];
        let shown: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
        println!(
            "digests (untraced, traced, 1 worker, 2 workers): {} pinned {pinned:#018x}",
            shown.join(" ")
        );
        let problems: Vec<&String> = plain.problems.iter().chain(&traced.problems).collect();
        for p in &problems {
            println!("problem: {p}");
        }
        if !problems.is_empty() || digests.iter().any(|&d| d != pinned) {
            ok = false;
        }
    }
    println!("self-test: {}", if ok { "ok" } else { "FAILED" });
    i32::from(!ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(Some(args)) => run(&args),
        Ok(None) => self_test(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = json_line(
            true,
            3,
            0,
            &[("wall_s", 1.5, "s"), ("x", f64::NAN, "ratio")],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"},"x":{"value":0.0,"unit":"ratio"}}}"#
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload owners_phase --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid")
        .expect("not the self-test");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::OwnersPhase, 7, 3, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload owners_phase --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args(
            "--workload owners_phase --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
