//! `cargo xtask` — workspace automation. Subcommands:
//!
//! * `lint` — run the beeps-lint static-analysis pass (DESIGN.md §8)
//!   over every first-party source file. Exits nonzero on any
//!   unsuppressed finding.
//! * `observe-check` — validate the artifacts a `--progress --profile`
//!   run produces: the Chrome trace-event JSON and the JSONL run log.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::{jsonck, lint_workspace, sarif, LintReport, RuleId};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("observe-check") => observe_check(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
cargo xtask lint [options]

Static analysis enforcing the determinism and protocol-conformance
invariants over all first-party crates (see DESIGN.md §8).

Options:
  --root <dir>        lint this tree instead of the workspace root
  --format <fmt>      output format: text (default) or sarif (SARIF
                      2.1.0 on stdout; summary moves to stderr)
  --timings           print per-rule wall time to stderr
  --list-rules        print every rule ID with its rationale
  -h, --help          this help

cargo xtask observe-check <trace.json> <runlog.jsonl>

Validates the observability artifacts of a `--progress --profile` run:
the Chrome trace-event file must be one well-formed JSON object with a
`traceEvents` array, and every run-log line must be a well-formed JSON
object framed by a `meta` first line and a `summary` last line.
";

fn lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut timings = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = it.next().map(PathBuf::from),
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!(
                        "xtask lint: --format expects `text` or `sarif`, got {:?}\n\n{USAGE}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--timings" => timings = true,
            "--list-rules" => {
                for rule in RuleId::ALL {
                    println!("{:<18} {}", rule.as_str(), rule.rationale());
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("xtask lint: unknown option `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    // Under the cargo alias, cwd is the workspace root; `--root` serves
    // out-of-tree fixture runs.
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    let summary = format!(
        "beeps-lint: {} finding(s), {} suppressed, {} files scanned",
        report.findings.len(),
        report.suppressed,
        report.files_scanned
    );
    match format {
        Format::Text => {
            for finding in &report.findings {
                println!("{finding}");
            }
            println!("{summary}");
        }
        Format::Sarif => {
            // SARIF goes to stdout (so `> lint.sarif` captures exactly
            // the document); the human summary moves to stderr.
            print!("{}", sarif::render(&report));
            eprintln!("{summary}");
        }
    }
    if timings {
        print_timings(&report);
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Output format for `lint`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Sarif,
}

/// Prints the per-rule wall-time table to stderr, in pass order.
fn print_timings(report: &LintReport) {
    eprintln!("beeps-lint timings:");
    eprintln!(
        "  {:<24} {:>9.3} ms  (walk + lex + item discovery)",
        "scan",
        ms(report.scan_time)
    );
    for (rule, dur) in &report.timings {
        eprintln!("  {rule:<24} {:>9.3} ms", ms(*dur));
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn observe_check(args: &[String]) -> ExitCode {
    let [trace_path, runlog_path] = args else {
        eprintln!("xtask observe-check: expected <trace.json> <runlog.jsonl>\n\n{USAGE}");
        return ExitCode::from(2);
    };
    match check_trace(Path::new(trace_path)) {
        Ok(events) => println!("observe-check: trace OK ({trace_path}, {events} event(s))"),
        Err(e) => {
            eprintln!("xtask observe-check: trace {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match check_runlog(Path::new(runlog_path)) {
        Ok(lines) => println!("observe-check: run log OK ({runlog_path}, {lines} line(s))"),
        Err(e) => {
            eprintln!("xtask observe-check: run log {runlog_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Validates a Chrome trace-event file and returns how many events its
/// `traceEvents` array carries (counted by phase markers).
fn check_trace(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    jsonck::validate(&text).map_err(|e| e.to_string())?;
    if !text.trim_start().starts_with('{') {
        return Err("top-level value must be an object".to_owned());
    }
    if !text.contains("\"traceEvents\"") {
        return Err("missing the `traceEvents` key".to_owned());
    }
    Ok(text.matches("\"ph\":").count())
}

/// Validates a JSONL run log (one object per line, `meta` first,
/// `summary` last) and returns the line count.
fn check_runlog(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return Err("empty run log".to_owned());
    }
    for (i, line) in lines.iter().enumerate() {
        jsonck::validate(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if !line.starts_with('{') {
            return Err(format!("line {}: not a JSON object", i + 1));
        }
    }
    if !lines[0].contains("\"type\":\"meta\"") {
        return Err("first line must be the `meta` record".to_owned());
    }
    if !lines[lines.len() - 1].contains("\"type\":\"summary\"") {
        return Err("last line must be the `summary` record (run not sealed?)".to_owned());
    }
    Ok(lines.len())
}
