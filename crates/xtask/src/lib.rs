#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! `beeps-lint`: the workspace static-analysis pass behind
//! `cargo xtask lint`.
//!
//! The repo's core claim — bitwise-identical experiment output at any
//! thread count, wall-clock-free metrics equality — rests on invariants
//! that no compiler pass checks: nothing stops a future change from
//! calling `Instant::now()` in an aggregation path, iterating a
//! `HashMap` into a serialized log, or seeding from entropy. This crate
//! machine-checks those invariants (plus the cross-file protocol
//! contracts clippy cannot express) over every first-party source file.
//!
//! * Rules and rationale: [`rules::RuleId`] and DESIGN.md §8.
//! * Inline escapes: `// beeps-lint: allow(<rule>) -- <justification>`
//!   (justification mandatory; unknown rules and unused allows are
//!   themselves findings). There is no other escape hatch: every
//!   finding is either fixed or justified in place.
//!
//! The crate has zero dependencies and is excluded from its own scan
//! (its source embeds the forbidden patterns as detection strings; see
//! `scan::collect_sources`).

pub mod items;
pub mod jsonck;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod scan;
pub mod tokens;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Duration;

pub use rules::RuleId;

/// Wall-clock helper for `lint --timings`. This is diagnostic output
/// about the linter itself — per-pass wall time never feeds lint
/// results, reports, or exit codes, so the workspace's `Instant::now`
/// ban does not apply (the same carve-out as `beeps_observe::clock`).
mod timing {
    use std::time::Instant;

    #[allow(clippy::disallowed_methods)] // diagnostic-only --timings clock
    pub fn now() -> Instant {
        Instant::now()
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// File path relative to the lint root (`/` separators).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Outcome of one lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings (sorted by path, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified inline suppression.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-rule wall time, in pass order (shown by `lint --timings`;
    /// never part of lint results or exit codes).
    pub timings: Vec<(&'static str, Duration)>,
    /// Wall time of the scan + lex + item-discovery phase.
    pub scan_time: Duration,
}

impl LintReport {
    /// True when nothing unsuppressed was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints every first-party source under `root`.
///
/// # Errors
///
/// Propagates I/O errors from the source walk and file reads.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let scan_start = timing::now();
    let files = scan::collect_sources(root)?;
    let experiments_md = fs::read_to_string(root.join("EXPERIMENTS.md")).ok();
    let facts = rules::Facts::gather(&files, experiments_md.as_deref());
    let scan_time = scan_start.elapsed();

    let mut raw_findings = Vec::new();
    let mut timings = Vec::new();
    for pass in rules::passes() {
        let start = timing::now();
        (pass.run)(&files, &facts, &mut raw_findings);
        timings.push((pass.rule.as_str(), start.elapsed()));
    }

    let by_path: BTreeMap<String, &scan::SourceFile> = files
        .iter()
        .map(|f| (f.path.to_string_lossy().replace('\\', "/"), f))
        .collect();

    let mut report = LintReport {
        files_scanned: files.len(),
        scan_time,
        ..LintReport::default()
    };

    // (path, suppression line) pairs that silenced at least one finding.
    let mut used_suppressions: Vec<(String, usize)> = Vec::new();
    for finding in raw_findings {
        let file = by_path
            .get(&finding.path)
            .expect("finding references a scanned file");
        let idx = finding.line - 1;
        if let Some(sup_line) = file.suppressed_at(idx, finding.rule.as_str()) {
            report.suppressed += 1;
            used_suppressions.push((finding.path.clone(), sup_line));
            continue;
        }
        report.findings.push(finding);
    }

    // Police the suppression mechanism itself.
    let suppression_start = timing::now();
    for file in &files {
        let rel = file.path.to_string_lossy().replace('\\', "/");
        for (idx, line) in file.lines.iter().enumerate() {
            for sup in &line.suppressions {
                if sup.rules.is_empty() {
                    report.findings.push(Finding {
                        rule: RuleId::Suppression,
                        path: rel.clone(),
                        line: idx + 1,
                        message: "malformed beeps-lint comment: expected \
                                  `beeps-lint: allow(<rule>) -- <justification>`"
                            .to_string(),
                    });
                    continue;
                }
                let mut all_known = true;
                for rule_name in &sup.rules {
                    if RuleId::parse(rule_name).is_none() {
                        all_known = false;
                        report.findings.push(Finding {
                            rule: RuleId::Suppression,
                            path: rel.clone(),
                            line: idx + 1,
                            message: format!(
                                "unknown rule \"{rule_name}\" in beeps-lint allow \
                                 (see `cargo xtask lint --list-rules`)"
                            ),
                        });
                    }
                }
                if !all_known {
                    continue;
                }
                if sup.justification.is_empty() {
                    report.findings.push(Finding {
                        rule: RuleId::Suppression,
                        path: rel.clone(),
                        line: idx + 1,
                        message: "suppression without justification; append \
                                  `-- <why this is sound>`"
                            .to_string(),
                    });
                } else if !used_suppressions.contains(&(rel.clone(), idx)) {
                    report.findings.push(Finding {
                        rule: RuleId::Suppression,
                        path: rel.clone(),
                        line: idx + 1,
                        message: format!(
                            "unused suppression for {}; delete it (nothing fires here)",
                            sup.rules.join(", ")
                        ),
                    });
                }
            }
        }
    }

    timings.push((RuleId::Suppression.as_str(), suppression_start.elapsed()));
    report.timings = timings;

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}
