//! Fixture tests: every rule fires on its seeded violation and respects
//! suppressions. Each fixture under `tests/fixtures/<case>/` is a
//! miniature workspace tree.

use std::path::PathBuf;

use xtask::{lint_workspace, LintReport, RuleId};

fn fixture_root(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case)
}

fn run(case: &str) -> LintReport {
    lint_workspace(&fixture_root(case)).expect("fixture lints")
}

fn rules_of(report: &LintReport) -> Vec<RuleId> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wall_clock_fires_outside_span_module_only() {
    let report = run("wall_clock");
    assert_eq!(
        rules_of(&report),
        [RuleId::WallClock, RuleId::WallClock, RuleId::WallClock]
    );
    // The metrics registry keeps no clock of its own: its wall section
    // is fed by callers timing through `beeps_observe::clock`.
    assert_eq!(report.findings[0].path, "crates/metrics/src/registry.rs");
    assert_eq!(report.findings[0].line, 2);
    assert!(
        report.findings[1..].iter().all(|f| f.path == "src/lib.rs"),
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings[1].line, 2);
    assert_eq!(report.findings[2].line, 3);
}

#[test]
fn wall_clock_sanctions_exactly_one_observe_module() {
    let report = run("wall_clock_observe");
    assert_eq!(rules_of(&report), [RuleId::WallClock]);
    assert_eq!(
        report.findings[0].path, "crates/observe/src/progress.rs",
        "only observe/src/clock.rs is exempt; the rest of the observe \
         crate must go through it: {:?}",
        report.findings
    );
    assert_eq!(report.findings[0].line, 2);
}

#[test]
fn entropy_rng_fires_on_entropy_seeding_only() {
    let report = run("entropy_rng");
    assert_eq!(rules_of(&report), [RuleId::EntropyRng, RuleId::EntropyRng]);
    assert!(report.findings[0].message.contains("thread_rng"));
    assert!(report.findings[1].message.contains("from_entropy"));
}

#[test]
fn hash_collections_fires_on_hashmap_and_hashset() {
    let report = run("hash_collections");
    assert_eq!(
        rules_of(&report),
        [RuleId::HashCollections, RuleId::HashCollections]
    );
}

#[test]
fn env_read_allows_beeps_prefix_only() {
    let report = run("env_read");
    assert_eq!(rules_of(&report), [RuleId::EnvRead]);
    assert_eq!(report.findings[0].line, 2, "only the HOME read fires");
}

#[test]
fn sim_name_prefix_catches_typos() {
    let report = run("sim_name");
    assert_eq!(
        rules_of(&report),
        [RuleId::SimNamePrefix, RuleId::SimNamePrefix]
    );
    assert!(report.findings[0].message.contains("sim.rewnd"));
    // An inherent `fn name` names no scheme.
    assert!(report.findings[1].message.contains("sim.shared_sweep"));
    for finding in &report.findings {
        assert!(
            finding.message.ends_with("(known: rewind)"),
            "message lists the known names: {}",
            finding.message
        );
    }
}

#[test]
fn experiment_id_enforces_filename_match_and_uniqueness() {
    let report = run("experiment_id");
    assert_eq!(
        rules_of(&report),
        [RuleId::ExperimentId, RuleId::ExperimentId]
    );
    assert!(report
        .findings
        .iter()
        .all(|f| f.path.ends_with("tab9_bad.rs")));
    assert!(report.findings[0].message.contains("tab9_bad"));
    assert!(report.findings[1].message.contains("already used"));
}

#[test]
fn metric_key_format_checks_charset_and_family() {
    let report = run("metric_key");
    assert_eq!(
        rules_of(&report),
        [
            RuleId::MetricKeyFormat,
            RuleId::MetricKeyFormat,
            RuleId::MetricKeyFormat
        ]
    );
    assert!(report.findings[0].message.contains("exp.BadCase.trials"));
    assert!(report.findings[1].message.contains("unknown_family.x"));
    assert!(report.findings[2].message.contains("bare_key"));
    // The cfg(test) scratch key and the dynamic keys never fire.
}

#[test]
fn party_loop_alloc_fires_in_scaling_files_non_test_code_only() {
    let report = run("party_loop_alloc");
    assert_eq!(
        rules_of(&report),
        [
            RuleId::PartyLoopAlloc,
            RuleId::PartyLoopAlloc,
            RuleId::PartyLoopAlloc
        ]
    );
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.path == "crates/core/src/soa.rs"),
        "allocation outside the party-loop files must not fire: {:?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("vec!["));
    assert!(report.findings[1].message.contains(".collect"));
    // The collapsed-repetition-shaped per-chunk transcript clone.
    assert!(report.findings[2].message.contains(".to_vec"));
    // The cfg(test) vec! and the lib.rs collect never fire.
}

#[test]
fn trial_scope_precompute_fires_inside_trial_closures_only() {
    let report = run("trial_scope_precompute");
    assert_eq!(
        rules_of(&report),
        [
            RuleId::TrialScopePrecompute,
            RuleId::TrialScopePrecompute,
            RuleId::TrialScopePrecompute,
            RuleId::TrialScopePrecompute
        ]
    );
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.path.ends_with("fig9_sweep.rs")),
        "runner closures outside crates/bench/src/bin must not fire: {:?}",
        report.findings
    );
    // The hoisted build_code on line 4 never fires; the four
    // constructors inside the two runner closures do.
    assert_eq!(report.findings[0].line, 6);
    assert!(report.findings[0].message.contains("build_code"));
    assert_eq!(report.findings[1].line, 7);
    assert!(report.findings[1]
        .message
        .contains("RandomCode::with_length"));
    assert_eq!(report.findings[2].line, 11);
    assert!(report.findings[2]
        .message
        .contains("CodeTable::constant_weight"));
    assert_eq!(report.findings[3].line, 12);
    assert!(report.findings[3]
        .message
        .contains("CodeTable::with_length"));
}

#[test]
fn atomic_ordering_polices_relaxed_outside_observe_counters() {
    let report = run("atomic_ordering");
    assert_eq!(
        rules_of(&report),
        [RuleId::AtomicOrdering, RuleId::AtomicOrdering]
    );
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.path == "crates/core/src/cache.rs"),
        "the observe progress counter must stay exempt: {:?}",
        report.findings
    );
    // fetch_add is a read-modify-write: the fix direction is AcqRel.
    assert_eq!(report.findings[0].line, 2);
    assert!(report.findings[0].message.contains("`next.fetch_add`"));
    assert!(report.findings[0].message.contains("Ordering::AcqRel"));
    // A bare load needs Acquire.
    assert_eq!(report.findings[1].line, 6);
    assert!(report.findings[1].message.contains("`flag.load`"));
    assert!(report.findings[1].message.contains("Ordering::Acquire"));
    // The Release store, the documented-inert allow, and the cfg(test)
    // scratch access never fire.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn seed_provenance_requires_trial_seed_lineage() {
    let report = run("seed_provenance");
    assert_eq!(
        rules_of(&report),
        [
            RuleId::SeedProvenance, // integer-literal seed
            RuleId::SeedProvenance  // untraced expression
        ]
    );
    assert_eq!(report.findings[0].path, "crates/core/src/rng.rs");
    assert!(report.findings[0].message.contains("literal seed"));
    assert!(
        report.findings[1].message.contains("does not trace"),
        "{}",
        report.findings[1].message
    );
    assert!(
        report.findings[1].message.contains("trial_seed"),
        "message lists the Facts-discovered seed fns: {}",
        report.findings[1].message
    );
    // seed_from_u64(trial_seed(base, trial)) and the cfg(test) scratch
    // seed never fire.
    assert_eq!(report.suppressed, 0);
}

#[test]
fn observer_purity_scans_impls_and_hook_args_only() {
    let report = run("observer_purity");
    assert_eq!(
        rules_of(&report),
        [
            RuleId::ObserverPurity, // simulate_once in the Observer impl
            RuleId::ObserverPurity, // RNG type in the Observer impl
            RuleId::ObserverPurity  // simulate_once in the phase callsite args
        ]
    );
    assert!(report.findings[0].message.contains("simulate_once"));
    assert!(report.findings[0].message.contains("Observer"));
    assert!(report.findings[1].message.contains("StdRng"));
    assert_eq!(report.findings[2].line, 19);
    assert!(report.findings[2].message.contains("callsite"));
    // The registry write *outside* the hook args, the empty Quiet impl,
    // and the cfg(test) probe impl never fire.
}

#[test]
fn panic_path_budget_exempts_documented_and_test_sites() {
    let report = run("panic_path");
    assert_eq!(rules_of(&report), [RuleId::PanicPath]);
    assert_eq!(report.findings[0].line, 20);
    assert!(report.findings[0].message.contains("`panic!`"));
    assert!(
        report.findings[0].message.contains("site #3"),
        "the # Panics-documented expect must not consume budget: {}",
        report.findings[0].message
    );
    // Site #4 carries a justified allow; the documented and cfg(test)
    // sites are exempt rather than suppressed.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn suppressions_require_known_rule_and_justification() {
    let report = run("suppressed");
    assert_eq!(
        report.suppressed, 2,
        "the two justified allows silence their findings: {:?}",
        report.findings
    );
    assert_eq!(
        rules_of(&report),
        [
            RuleId::Suppression,     // missing justification
            RuleId::HashCollections, // …so the violation still fires
            RuleId::Suppression,     // unknown rule ID
            RuleId::Suppression,     // justified but unused
        ]
    );
    assert!(report.findings[0].message.contains("justification"));
    assert!(report.findings[2].message.contains("no-such-rule"));
    assert!(report.findings[3].message.contains("unused"));
}

#[test]
fn clean_fixture_is_clean() {
    let report = run("clean");
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
    assert_eq!(report.suppressed, 0);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn cli_exit_codes_reflect_findings() {
    let exit = |case: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["lint", "--root"])
            .arg(fixture_root(case))
            .output()
            .expect("xtask binary runs")
    };
    for case in [
        "wall_clock",
        "wall_clock_observe",
        "entropy_rng",
        "hash_collections",
        "env_read",
        "sim_name",
        "experiment_id",
        "metric_key",
        "party_loop_alloc",
        "trial_scope_precompute",
        "atomic_ordering",
        "seed_provenance",
        "observer_purity",
        "panic_path",
    ] {
        let out = exit(case);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{case} must fail the lint gate: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let out = exit("clean");
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean tree must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
