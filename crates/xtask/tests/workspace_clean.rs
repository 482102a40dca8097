//! The rollout gate: the live workspace must pass `cargo xtask lint`
//! with zero unsuppressed findings, and the cross-file facts the
//! conformance rules depend on must actually be discovered (a scanner
//! regression that found no simulators would otherwise pass vacuously).

use std::path::PathBuf;

use xtask::{lint_workspace, rules::Facts, scan};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn live_workspace_lints_clean() {
    let report = lint_workspace(&workspace_root()).expect("workspace lints");
    assert!(
        report.is_clean(),
        "beeps-lint found {} violation(s) in the live workspace:\n{}",
        report.findings.len(),
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

#[test]
fn facts_discovered_from_live_workspace() {
    let root = workspace_root();
    let files = scan::collect_sources(&root).expect("scan");
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let facts = Facts::gather(&files, Some(&experiments));

    for scheme in [
        "repetition",
        "rewind",
        "hierarchical",
        "one_to_zero",
        "owned_rounds",
        "naked",
    ] {
        assert!(
            facts.simulator_names.contains(scheme),
            "Simulator::name() \"{scheme}\" not discovered; found {:?}",
            facts.simulator_names
        );
    }
    for family in ["sim", "exp"] {
        assert!(
            facts.metric_families.contains(family),
            "metric family \"{family}\" missing from EXPERIMENTS.md schema table; found {:?}",
            facts.metric_families
        );
    }
    // seed-provenance needs the seed-deriving fns to be discoverable,
    // or every seeding site would demand an inline allow.
    assert!(
        facts.seed_fns.contains("trial_seed"),
        "per-trial splitmix derivation fn not discovered; found {:?}",
        facts.seed_fns
    );
    // The linter must never scan itself or the vendored deps.
    assert!(
        files.iter().all(|f| {
            let p = f.path.to_string_lossy().replace('\\', "/");
            !p.starts_with("crates/xtask") && !p.starts_with("vendor/") && !p.starts_with("target/")
        }),
        "scan set includes excluded paths"
    );
}
