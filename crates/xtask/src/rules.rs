//! The lint rules: IDs, the cross-file facts pass, and the analysis
//! passes (one per rule, individually timed by `lint --timings`).
//!
//! Rules come in four families (DESIGN.md §8):
//!
//! * **Determinism** (`wall-clock`, `entropy-rng`, `hash-collections`,
//!   `env-read`) — the invariants behind "bitwise-identical output at
//!   any thread count": no wall-clock reads outside the metrics span
//!   module, no entropy-seeded RNGs, BTree-only collections, no
//!   environment reads outside the documented `BEEPS_*` allowlist.
//! * **Conformance** (`sim-name-prefix`, `experiment-id`,
//!   `metric-key-format`, `deprecated-api`) — cross-file protocol
//!   contracts clippy cannot express: `sim.<scheme>.*` metric literals
//!   must name a real `Simulator::name()`, experiment IDs must match
//!   their binary's filename and be unique, metric keys must be
//!   lowercase dot-separated under a family documented in
//!   EXPERIMENTS.md, and `#[deprecated]` APIs slated for removal must
//!   not gain new call sites.
//! * **Performance** (`hot-path-alloc`, `party-loop-alloc`,
//!   `trial-scope-precompute`, `lane-seed-discipline`) — the
//!   executor's round loop is the innermost loop of every simulation;
//!   no `format!`/`String` allocation may creep back into it, the
//!   per-round per-party loops of the scaling engines must stay
//!   heap-allocation-free (scratch arenas and pooled rows only),
//!   code-table construction must not run per-trial, and lane-sliced
//!   code must draw every lane's noise from the per-trial splitmix
//!   stream (DESIGN.md §9–§10, §12).
//! * **Semantic** (`atomic-ordering`, `seed-provenance`,
//!   `observer-purity`, `panic-path`) — token-tree passes the old
//!   line lexer could not express: every `Ordering::*` use classified
//!   against a per-module policy, RNG seed arguments traced to the
//!   per-trial splitmix derivation, `Observer` impls and
//!   `observe::phase`/`mark` callsites kept side-effect-free, and an
//!   `unwrap`/`expect`/panic-macro budget in library crates.
//!
//! A meta-rule, `suppression`, polices the suppression mechanism
//! itself (unknown rule IDs, missing justifications, unused allows).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::lexer::{Delim, Tok, Token};
use crate::scan::SourceFile;
use crate::tokens::matching_close;
use crate::Finding;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `Instant::now` / `SystemTime::now` outside the metrics span module.
    WallClock,
    /// Entropy-seeded RNG constructors (`thread_rng`, `from_entropy`, …).
    EntropyRng,
    /// `HashMap` / `HashSet` (iteration order is not deterministic).
    HashCollections,
    /// `std::env::var` reads outside the `BEEPS_*` allowlist.
    EnvRead,
    /// `"sim.<scheme>…"` literals naming an unknown simulator.
    SimNamePrefix,
    /// Experiment IDs that do not match their binary filename / collide.
    ExperimentId,
    /// Metric keys that are not lowercase dot-separated in a documented family.
    MetricKeyFormat,
    /// Calls to first-party `#[deprecated]` APIs.
    DeprecatedApi,
    /// `format!` / `String` allocation in the executor's round loop.
    HotPathAlloc,
    /// Heap allocation in the scaling engines' per-round party loops.
    PartyLoopAlloc,
    /// Code-table construction inside a `TrialRunner` per-trial closure.
    TrialScopePrecompute,
    /// Direct RNG seeding inside lane-sliced executor code.
    LaneSeedDiscipline,
    /// `Ordering::Relaxed` outside the per-module atomics policy.
    AtomicOrdering,
    /// RNG seeds that do not trace to a per-trial splitmix derivation.
    SeedProvenance,
    /// Side effects inside `Observer` impls or `observe::phase`/`mark` args.
    ObserverPurity,
    /// Undocumented `unwrap`/`expect`/panic-macro sites beyond the budget.
    PanicPath,
    /// Malformed, unknown, or unused `beeps-lint: allow(…)` comments.
    Suppression,
}

impl RuleId {
    /// Every rule, in reporting order.
    pub const ALL: &'static [RuleId] = &[
        RuleId::WallClock,
        RuleId::EntropyRng,
        RuleId::HashCollections,
        RuleId::EnvRead,
        RuleId::SimNamePrefix,
        RuleId::ExperimentId,
        RuleId::MetricKeyFormat,
        RuleId::DeprecatedApi,
        RuleId::HotPathAlloc,
        RuleId::PartyLoopAlloc,
        RuleId::TrialScopePrecompute,
        RuleId::LaneSeedDiscipline,
        RuleId::AtomicOrdering,
        RuleId::SeedProvenance,
        RuleId::ObserverPurity,
        RuleId::PanicPath,
        RuleId::Suppression,
    ];

    /// The stable kebab-case ID used in reports, suppressions, and the
    /// baseline file.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::WallClock => "wall-clock",
            RuleId::EntropyRng => "entropy-rng",
            RuleId::HashCollections => "hash-collections",
            RuleId::EnvRead => "env-read",
            RuleId::SimNamePrefix => "sim-name-prefix",
            RuleId::ExperimentId => "experiment-id",
            RuleId::MetricKeyFormat => "metric-key-format",
            RuleId::DeprecatedApi => "deprecated-api",
            RuleId::HotPathAlloc => "hot-path-alloc",
            RuleId::PartyLoopAlloc => "party-loop-alloc",
            RuleId::TrialScopePrecompute => "trial-scope-precompute",
            RuleId::LaneSeedDiscipline => "lane-seed-discipline",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::SeedProvenance => "seed-provenance",
            RuleId::ObserverPurity => "observer-purity",
            RuleId::PanicPath => "panic-path",
            RuleId::Suppression => "suppression",
        }
    }

    /// One-line rationale shown by `cargo xtask lint --list-rules`.
    #[must_use]
    pub fn rationale(self) -> &'static str {
        match self {
            RuleId::WallClock => {
                "wall-clock reads outside beeps-metrics' span module and \
                 beeps-observe's clock module break bitwise-identical \
                 output; use MetricsRegistry wall spans or observe::clock"
            }
            RuleId::EntropyRng => {
                "entropy-seeded RNGs make trials unreproducible; derive all \
                 randomness from the per-trial splitmix seed"
            }
            RuleId::HashCollections => {
                "HashMap/HashSet iteration order is nondeterministic; use \
                 BTreeMap/BTreeSet so every rendering is a pure function of \
                 the data"
            }
            RuleId::EnvRead => {
                "environment reads outside the documented BEEPS_* knobs are \
                 hidden inputs that change results between machines"
            }
            RuleId::SimNamePrefix => {
                "sim.<scheme>.* metric literals must name a real \
                 Simulator::name() so dashboards and tests cannot drift"
            }
            RuleId::ExperimentId => {
                "ExperimentLog IDs must equal the binary filename and be \
                 unique so target/experiments/<id>.json maps 1:1 to sources"
            }
            RuleId::MetricKeyFormat => {
                "metric keys must be lowercase dot-separated under a family \
                 documented in EXPERIMENTS.md's schema section"
            }
            RuleId::DeprecatedApi => {
                "first-party #[deprecated] APIs slated for removal must \
                 not gain call sites"
            }
            RuleId::HotPathAlloc => {
                "the executor round loop runs once per channel round; \
                 format!/String allocation there dominates profiles — \
                 intern beeps_metrics::CounterHandle up front instead"
            }
            RuleId::PartyLoopAlloc => {
                "the collapsed engines and the sparse channel run their \
                 loops once per party per round at n up to 10^6; any \
                 heap constructor there turns O(1) amortized rounds \
                 into allocator traffic — reuse the SoaScratch arenas \
                 or the sampler's pooled rows instead"
            }
            RuleId::TrialScopePrecompute => {
                "code-table construction inside a TrialRunner per-trial \
                 closure repeats trial-invariant precomputation every \
                 trial; hoist it before the runner call or attach a \
                 shared CodeCache to the SimulatorConfig"
            }
            RuleId::LaneSeedDiscipline => {
                "lane-sliced executor code must draw every lane's noise \
                 from the per-trial splitmix seed stream; a direct \
                 StdRng::seed_from_u64 there silently breaks per-trial \
                 bitwise identity with the scalar path"
            }
            RuleId::AtomicOrdering => {
                "Ordering::Relaxed is reserved for the observe progress \
                 counters and documented inert-path loads; merge and \
                 claim-counter atomics synchronize real cross-thread \
                 state and must be acquire/release"
            }
            RuleId::SeedProvenance => {
                "every RNG seed in core/channel/bench must trace to the \
                 per-trial splitmix derivation (trial_seed) or a known \
                 seed-deriving fn; literal seeds and cross-lane reuse \
                 silently couple trials"
            }
            RuleId::ObserverPurity => {
                "observation is a pure side channel: Observer impls and \
                 observe::phase/mark callsite args must not run \
                 simulations, mutate registries, or construct RNGs"
            }
            RuleId::PanicPath => {
                "library crates budget undocumented unwrap/expect/panic \
                 sites per file; beyond it, return a Result, document a \
                 `# Panics` contract, or justify an allow"
            }
            RuleId::Suppression => {
                "beeps-lint: allow(…) comments must name known rules, carry \
                 a justification after --, and actually suppress something"
            }
        }
    }

    /// Parses a kebab-case rule ID.
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.as_str() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Files (relative, `/`-separated) where wall-clock reads are legal:
/// the metrics span module (see `beeps_metrics::Stopwatch`) and the
/// observability clock module (`beeps_observe::clock`, the single
/// timestamp source for progress, profiles, and run logs). Everything
/// else — including the rest of `crates/observe` — must go through
/// those two.
const WALL_CLOCK_ALLOWED: &[&str] = &[
    "crates/metrics/src/registry.rs",
    "crates/observe/src/clock.rs",
];

/// Substrings that indicate a wall-clock read. Matched against the
/// comment-stripped, string-blanked code view.
const WALL_CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime::now"];

/// Entropy-seeded RNG constructors. None of these exist in the
/// vendored `rand` subset today; the rule keeps them from ever being
/// (re-)introduced alongside a vendored upgrade.
const ENTROPY_PATTERNS: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

/// Methods whose first string argument is a deterministic metric key.
/// Wall-span methods (`time`, `record_wall`) are exempt: wall keys are
/// never serialized or compared.
const METRIC_METHODS: &[&str] = &[".inc(", ".observe(", ".event(", ".counter(", ".histogram("];

/// Files whose non-test code must stay allocation-free: these hold the
/// innermost per-round loops of every simulation, so a single `format!`
/// there shows up directly in wall-clock profiles.
const HOT_PATH_FILES: &[&str] = &["crates/channel/src/executor.rs"];

/// String-allocation constructors banned in hot-path files. Matched
/// against the comment-stripped code view of non-test lines.
const HOT_PATH_ALLOC_PATTERNS: &[&str] = &[
    "format!(",
    ".to_string(",
    ".to_owned(",
    "String::from(",
    "String::new(",
];

/// Files holding the per-round per-party loops of the scaling path:
/// the collapsed struct-of-arrays engines and the sparse delivery
/// representation. Steady-state simulation there must reuse scratch
/// arenas (`SoaScratch`, the sampler's pooled rows) — a heap
/// constructor inside these files runs up to `n = 10^6` times per
/// round.
const PARTY_LOOP_FILES: &[&str] = &["crates/core/src/soa.rs", "crates/channel/src/sparse.rs"];

/// Heap-allocating constructors banned in party-loop files. Broader
/// than the hot-path list: `Vec` growth is the dominant allocator in
/// these loops, not `String` formatting. Matched against the
/// comment-stripped code view of non-test lines.
const PARTY_LOOP_ALLOC_PATTERNS: &[&str] = &[
    "vec![",
    ".to_vec(",
    ".collect(",
    "format!(",
    ".to_string(",
    ".to_owned(",
    "String::",
    "Box::new(",
];

/// Directory (relative-path fragment) whose files hold the experiment
/// binaries: the only place `TrialRunner` per-trial closures live, and
/// the scope of the `trial-scope-precompute` rule.
const TRIAL_BIN_DIR: &str = "crates/bench/src/bin/";

/// `TrialRunner` entry points whose closure argument runs once per
/// trial. Matched as suffixes of the code up to an opening paren, so
/// `Executor::run(` (no dot) never opens a region.
const TRIAL_RUN_MARKERS: &[&str] = &[
    ".run(",
    ".run_records(",
    ".run_with_metrics(",
    ".run_with_scratch(",
];

/// Trial-invariant precomputation that must not run inside a per-trial
/// closure: code-table construction is the dominant fixed cost of a
/// simulator, and the same table is rebuilt identically every trial.
const TRIAL_PRECOMPUTE_PATTERNS: &[&str] = &[
    "build_code(",
    "RandomCode::with_length(",
    "ConstantWeightCode::new(",
];

/// Files holding lane-sliced (bit-sliced, 64-trials-per-word) executor
/// code. Every lane's randomness must come from that trial's splitmix
/// seed via the two sanctioned seeding sites — `LaneChannel::shared`
/// (shared noise) and `IndependentLaneChannel::new` (per-party flip
/// calendars), each fanning the per-trial splitmix seeds out to lanes;
/// any other direct seeding would let two lanes share (or skew) a
/// stream and break bitwise identity with the per-trial scalar path.
const LANE_SLICED_FILES: &[&str] = &["crates/channel/src/lanes.rs", "crates/core/src/lanes.rs"];

/// RNG seeding constructors banned in lane-sliced files outside the
/// sanctioned sites. `StochasticChannel::new` is on the list because
/// constructing a scalar channel seeds a fresh RNG stream internally:
/// lane engines must draw through `LaneChannel` /
/// `IndependentLaneChannel` (or take an already-seeded source), never
/// re-seed per lane themselves.
const LANE_SEED_PATTERNS: &[&str] = &[
    "seed_from_u64(",
    "SeedableRng::from_seed(",
    "StochasticChannel::new(",
];

/// The atomics policy table: files whose `Ordering::Relaxed` uses are
/// sanctioned wholesale. Exactly the observe progress counters —
/// monotone telemetry read by a reporter thread, where staleness is
/// harmless and the hot-path cost of a fence is not. Everywhere else,
/// `Relaxed` needs a documented `beeps-lint: allow(atomic-ordering)`
/// arguing the load/store is inert.
const ATOMIC_RELAXED_ALLOWED: &[&str] = &["crates/observe/src/progress.rs"];

/// The `std::sync::atomic::Ordering` variants.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Path prefixes in scope for `seed-provenance`: everywhere simulation
/// randomness is constructed. (`tests/` dirs and `#[cfg(test)]` regions
/// are exempt — tests pin fixed seeds on purpose.)
const SEED_SCOPE_PREFIXES: &[&str] = &[
    "crates/core/src",
    "crates/channel/src",
    "crates/bench/src",
    "examples/",
    "src/",
];

/// Seed-consuming constructors whose argument must trace to a
/// per-trial derivation.
const SEED_SINKS: &[&str] = &["seed_from_u64", "from_seed", "reseed"];

/// Maximum undocumented `unwrap`/`expect`/panic-macro sites per
/// library-crate file before `panic-path` starts firing. Sites inside
/// `#[cfg(test)]` regions or fns documenting a `# Panics` contract are
/// exempt.
const PANIC_PATH_BUDGET: usize = 2;

/// Methods that mutate a metrics registry — banned inside the
/// observation side channel.
const REGISTRY_MUTATORS: &[&str] = &["inc", "observe", "event", "merge", "record_simulation"];

/// Cross-file facts gathered before the analysis passes run.
#[derive(Debug, Default)]
pub struct Facts {
    /// `Simulator::name()` return literals (`rewind`, `naked`, …).
    pub simulator_names: BTreeSet<String>,
    /// First-party `#[deprecated]` function names and their defining file.
    pub deprecated: BTreeMap<String, String>,
    /// Metric families documented in EXPERIMENTS.md (`sim`, `exp`, …).
    pub metric_families: BTreeSet<String>,
    /// First-party seed-deriving fns (non-test fns whose name contains
    /// `seed` or `splitmix`, e.g. `trial_seed`), discovered by the item
    /// pass; `seed-provenance` accepts calls to them as provenance.
    pub seed_fns: BTreeSet<String>,
}

impl Facts {
    /// Gathers facts from the lexed sources plus the workspace's
    /// `EXPERIMENTS.md` (`experiments_md` is its content, if present).
    #[must_use]
    pub fn gather(files: &[SourceFile], experiments_md: Option<&str>) -> Self {
        let mut facts = Facts::default();
        if let Some(md) = experiments_md {
            facts.metric_families = parse_metric_families(md);
        }
        for file in files {
            for f in &file.items.fns {
                let lower = f.name.to_lowercase();
                if !f.is_test && (lower.contains("seed") || lower.contains("splitmix")) {
                    facts.seed_fns.insert(f.name.clone());
                }
            }
            for (idx, line) in file.lines.iter().enumerate() {
                // fn name(&self) -> &'static str { "rewind" }
                if line.code.contains("fn name(")
                    && line.code.contains("&'static str")
                    && !line.code.trim_end().ends_with(';')
                {
                    for look in file.lines.iter().skip(idx).take(4) {
                        if let Some(lit) = look.strings.first() {
                            facts.simulator_names.insert(lit.clone());
                            break;
                        }
                    }
                }
                // #[deprecated(…)] pub fn old_api(…)
                if line.code.contains("#[deprecated") {
                    for look in file.lines.iter().skip(idx).take(10) {
                        if let Some(name) = fn_ident(&look.code) {
                            facts
                                .deprecated
                                .insert(name, file.path.to_string_lossy().replace('\\', "/"));
                            break;
                        }
                    }
                }
            }
        }
        facts
    }
}

/// Extracts the identifier of a `fn` item declared on `code`.
fn fn_ident(code: &str) -> Option<String> {
    let at = code.find("fn ")?;
    // Reject matches inside a larger identifier (`often `).
    if at > 0
        && code[..at]
            .chars()
            .last()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    {
        return None;
    }
    let rest = &code[at + 3..];
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Parses the metric-family table out of EXPERIMENTS.md: the first
/// markdown table whose header row contains a `family` column; each
/// data row's first backticked token contributes its leading dot
/// component (`sim.<scheme>.*` → `sim`).
#[must_use]
pub fn parse_metric_families(md: &str) -> BTreeSet<String> {
    let mut families = BTreeSet::new();
    let mut in_table = false;
    for line in md.lines() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            in_table = false;
            continue;
        }
        if trimmed.to_lowercase().contains("| family") || trimmed.to_lowercase().contains("|family")
        {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        // A data (or separator) row of the family table.
        if let Some(tok) = trimmed.split('`').nth(1) {
            let family: String = tok
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            if !family.is_empty() && tok[family.len()..].starts_with('.') {
                families.insert(family);
            }
        }
    }
    families
}

/// One analysis pass: a single rule, run over every file. The engine
/// runs passes in order and times each one for `lint --timings`.
pub struct Pass {
    /// The rule this pass implements.
    pub rule: RuleId,
    /// Runs the pass, appending raw findings (suppression and baseline
    /// filtering happen in the caller).
    pub run: fn(&[SourceFile], &Facts, &mut Vec<Finding>),
}

/// Every analysis pass, in [`RuleId::ALL`] order. (`suppression` is a
/// meta-rule policed by the engine after suppressions are applied, so
/// it has no pass here.)
#[must_use]
pub fn passes() -> Vec<Pass> {
    vec![
        Pass {
            rule: RuleId::WallClock,
            run: pass_wall_clock,
        },
        Pass {
            rule: RuleId::EntropyRng,
            run: pass_entropy_rng,
        },
        Pass {
            rule: RuleId::HashCollections,
            run: pass_hash_collections,
        },
        Pass {
            rule: RuleId::EnvRead,
            run: pass_env_read,
        },
        Pass {
            rule: RuleId::SimNamePrefix,
            run: pass_sim_name_prefix,
        },
        Pass {
            rule: RuleId::ExperimentId,
            run: pass_experiment_id,
        },
        Pass {
            rule: RuleId::MetricKeyFormat,
            run: pass_metric_keys,
        },
        Pass {
            rule: RuleId::DeprecatedApi,
            run: pass_deprecated,
        },
        Pass {
            rule: RuleId::HotPathAlloc,
            run: pass_hot_path_alloc,
        },
        Pass {
            rule: RuleId::PartyLoopAlloc,
            run: pass_party_loop_alloc,
        },
        Pass {
            rule: RuleId::TrialScopePrecompute,
            run: pass_trial_scope_precompute,
        },
        Pass {
            rule: RuleId::LaneSeedDiscipline,
            run: pass_lane_seed_discipline,
        },
        Pass {
            rule: RuleId::AtomicOrdering,
            run: pass_atomic_ordering,
        },
        Pass {
            rule: RuleId::SeedProvenance,
            run: pass_seed_provenance,
        },
        Pass {
            rule: RuleId::ObserverPurity,
            run: pass_observer_purity,
        },
        Pass {
            rule: RuleId::PanicPath,
            run: pass_panic_path,
        },
    ]
}

/// Runs every analysis pass over `files`, appending raw findings.
pub fn check(files: &[SourceFile], facts: &Facts, out: &mut Vec<Finding>) {
    for pass in passes() {
        (pass.run)(files, facts, out);
    }
}

fn rel_path(file: &SourceFile) -> String {
    file.path.to_string_lossy().replace('\\', "/")
}

fn finding(rule: RuleId, rel: &str, line: usize, message: String) -> Finding {
    Finding {
        rule,
        path: rel.to_string(),
        line: line + 1,
        message,
    }
}

fn pass_wall_clock(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        if WALL_CLOCK_ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            for pat in WALL_CLOCK_PATTERNS {
                if line.code.contains(pat) {
                    out.push(finding(
                        RuleId::WallClock,
                        &rel,
                        idx,
                        format!(
                            "`{pat}` outside the metrics span module; route timing through \
                             `beeps_metrics::Stopwatch` / `MetricsRegistry::time` so wall-clock \
                             stays out of deterministic state"
                        ),
                    ));
                }
            }
        }
    }
}

fn pass_entropy_rng(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        for (idx, line) in file.lines.iter().enumerate() {
            for pat in ENTROPY_PATTERNS {
                if line.code.contains(pat) {
                    out.push(finding(
                        RuleId::EntropyRng,
                        &rel,
                        idx,
                        format!(
                            "`{pat}` seeds from entropy; derive all randomness from the \
                             per-trial seed (`trial_seed` / `StdRng::seed_from_u64`)"
                        ),
                    ));
                }
            }
        }
    }
}

fn pass_hash_collections(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        for (idx, line) in file.lines.iter().enumerate() {
            for pat in ["HashMap", "HashSet"] {
                if line.code.contains(pat) {
                    out.push(finding(
                        RuleId::HashCollections,
                        &rel,
                        idx,
                        format!(
                            "`{pat}` has nondeterministic iteration order; use the BTree \
                             equivalent (BTree-only rule)"
                        ),
                    ));
                }
            }
        }
    }
}

fn pass_env_read(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        for (idx, line) in file.lines.iter().enumerate() {
            if line.code.contains("env::var") {
                let allowlisted = line.strings.iter().any(|s| s.starts_with("BEEPS_"));
                if !allowlisted {
                    out.push(finding(
                        RuleId::EnvRead,
                        &rel,
                        idx,
                        "environment read outside the documented `BEEPS_*` allowlist is a \
                         hidden input; name the variable `BEEPS_*` and document it, or drop \
                         the read"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

fn pass_sim_name_prefix(files: &[SourceFile], facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        for (idx, line) in file.lines.iter().enumerate() {
            for lit in &line.strings {
                let Some(rest) = lit.strip_prefix("sim.") else {
                    continue;
                };
                let scheme: &str = rest.split('.').next().unwrap_or_default();
                if scheme.is_empty() || scheme.contains('{') {
                    continue; // dynamic (`sim.{scheme}.…`) or bare prefix
                }
                if !facts.simulator_names.contains(scheme) {
                    out.push(finding(
                        RuleId::SimNamePrefix,
                        &rel,
                        idx,
                        format!(
                            "`sim.{scheme}.*` does not match any `Simulator::name()` \
                             (known: {})",
                            facts
                                .simulator_names
                                .iter()
                                .cloned()
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    ));
                }
            }
        }
    }
}

/// Extracts the string literal passed as the first argument of the
/// call starting at `marker` on line `idx`, when that argument is
/// syntactically a literal (possibly through `&format!(…)`). Returns
/// `None` for variable arguments like `.inc(&key(…), 1)`.
fn literal_arg(file: &SourceFile, idx: usize, marker: &str) -> Option<(usize, String)> {
    let line = &file.lines[idx];
    let pos = line.code.find(marker)?;
    let after = line.code[pos + marker.len()..].trim_start();
    let is_literal_head = |s: &str| {
        s.starts_with('"')
            || s.starts_with("&\"")
            || s.starts_with("format!(\"")
            || s.starts_with("&format!(\"")
    };
    if is_literal_head(after) {
        return line.strings.first().map(|s| (idx, s.clone()));
    }
    if after.contains(')') {
        return None; // call closed on this line without a literal arg
    }
    // Call continues on the next line(s).
    for (off, next) in file.lines.iter().enumerate().skip(idx + 1).take(2) {
        if is_literal_head(next.code.trim_start()) {
            return next.strings.first().map(|s| (off, s.clone()));
        }
        if next.has_code {
            return None;
        }
    }
    None
}

fn pass_experiment_id(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for file in files {
        let rel = rel_path(file);
        if !rel.contains("src/bin/") {
            continue;
        }
        let stem = file.stem().to_string();
        for (idx, line) in file.lines.iter().enumerate() {
            if !line.code.contains("ExperimentLog::new") {
                continue;
            }
            let Some((_, id)) = literal_arg(file, idx, "ExperimentLog::new(") else {
                continue;
            };
            if id != stem {
                out.push(finding(
                    RuleId::ExperimentId,
                    &rel,
                    idx,
                    format!(
                        "experiment ID \"{id}\" must equal the binary filename stem \"{stem}\""
                    ),
                ));
            }
            if let Some(prev) = seen.insert(id.clone(), rel.clone()) {
                out.push(finding(
                    RuleId::ExperimentId,
                    &rel,
                    idx,
                    format!("experiment ID \"{id}\" already used by {prev}; IDs must be unique"),
                ));
            }
        }
    }
}

/// Charset check: lowercase dot-separated, digits/underscores allowed,
/// `{…}` interpolations (with `:` format specs) tolerated.
fn key_charset_ok(key: &str) -> bool {
    key.chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._{}:".contains(c))
}

fn pass_metric_keys(files: &[SourceFile], facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        let in_tests_dir = rel.contains("tests/");
        for (idx, line) in file.lines.iter().enumerate() {
            let Some(marker) = METRIC_METHODS.iter().find(|m| line.code.contains(*m)) else {
                continue;
            };
            let Some((key_idx, key)) = literal_arg(file, idx, marker) else {
                continue;
            };
            if key.is_empty() {
                continue;
            }
            if !key_charset_ok(&key) {
                out.push(finding(
                    RuleId::MetricKeyFormat,
                    &rel,
                    key_idx,
                    format!("metric key \"{key}\" must be lowercase dot-separated ([a-z0-9_.])"),
                ));
                continue;
            }
            // Family membership: shipping code only — unit tests and
            // integration tests may use throwaway keys.
            if line.in_test || in_tests_dir || facts.metric_families.is_empty() {
                continue;
            }
            let family: &str = key.split('.').next().unwrap_or_default();
            if family.contains('{') {
                continue; // dynamically assembled prefix
            }
            if !facts.metric_families.contains(family) {
                out.push(finding(
                    RuleId::MetricKeyFormat,
                    &rel,
                    key_idx,
                    format!(
                        "metric key \"{key}\" is not under a family documented in \
                         EXPERIMENTS.md (known: {})",
                        facts
                            .metric_families
                            .iter()
                            .cloned()
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                ));
            }
        }
    }
}

fn pass_deprecated(files: &[SourceFile], facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        for (idx, line) in file.lines.iter().enumerate() {
            for (symbol, def_file) in &facts.deprecated {
                let call = format!("{symbol}(");
                let def = format!("fn {symbol}(");
                if line.code.contains(call.as_str()) && !line.code.contains(def.as_str()) {
                    out.push(finding(
                        RuleId::DeprecatedApi,
                        &rel,
                        idx,
                        format!(
                            "call to `{symbol}` (marked #[deprecated] in {def_file}, slated \
                             for removal); migrate to the replacement named in its note"
                        ),
                    ));
                }
            }
        }
    }
}

fn pass_hot_path_alloc(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        if !HOT_PATH_FILES.contains(&rel.as_str()) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue; // unit tests may build diagnostic strings freely
            }
            for pat in HOT_PATH_ALLOC_PATTERNS {
                if line.code.contains(pat) {
                    out.push(finding(
                        RuleId::HotPathAlloc,
                        &rel,
                        idx,
                        format!(
                            "`{pat}…)` allocates inside the executor hot path; intern a \
                             `beeps_metrics::CounterHandle` before the round loop (or hoist \
                             the allocation out of this file)"
                        ),
                    ));
                }
            }
        }
    }
}

/// Flags heap-allocating constructors in the files holding per-round
/// per-party loops (`PARTY_LOOP_FILES`). File-scoped like
/// `hot-path-alloc` rather than loop-scoped: these files exist *for*
/// their party loops, and setup-time allocation belongs in the
/// `SoaScratch` constructors that live elsewhere, so a whole-file ban
/// is both simpler and the invariant we actually want.
fn pass_party_loop_alloc(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        if !PARTY_LOOP_FILES.contains(&rel.as_str()) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue; // unit tests may build expected-value vectors freely
            }
            for pat in PARTY_LOOP_ALLOC_PATTERNS {
                if line.code.contains(pat) {
                    out.push(finding(
                        RuleId::PartyLoopAlloc,
                        &rel,
                        idx,
                        format!(
                            "`{pat}…` allocates inside a per-round per-party file; reuse \
                             the SoaScratch arenas / pooled sampler rows, or hoist the \
                             allocation into setup code outside this file"
                        ),
                    ));
                }
            }
        }
    }
}

/// Flags direct RNG seeding in lane-sliced executor files. The two
/// sanctioned sites (`LaneChannel::shared` and
/// `IndependentLaneChannel::new`, which fan the per-trial splitmix
/// seeds out to lanes) carry justified suppressions; any new seeding —
/// including indirect seeding via `StochasticChannel::new` — must
/// either route through them or argue its case in a suppression
/// comment.
fn pass_lane_seed_discipline(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        if !LANE_SLICED_FILES.contains(&rel.as_str()) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue; // tests may seed scalar reference channels freely
            }
            for pat in LANE_SEED_PATTERNS {
                if line.code.contains(pat) {
                    out.push(finding(
                        RuleId::LaneSeedDiscipline,
                        &rel,
                        idx,
                        format!(
                            "`{pat}…)` seeds an RNG inside lane-sliced executor code; draw \
                             lane randomness from the per-trial splitmix seed stream via \
                             `LaneChannel::shared` / `IndependentLaneChannel::new` so lanes \
                             stay bitwise identical to per-trial runs"
                        ),
                    ));
                }
            }
        }
    }
}

/// Flags trial-invariant code-table construction inside the argument
/// list (in practice: the per-trial closure) of a [`TRIAL_RUN_MARKERS`]
/// call in an experiment binary. Regions are tracked by paren depth
/// across lines: a marker opens a region at its paren depth, and the
/// region closes when the depth drops back below it, so hoisted builds
/// before the runner call never fire.
fn pass_trial_scope_precompute(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        if !rel.contains(TRIAL_BIN_DIR) {
            continue;
        }
        let mut depth: i64 = 0;
        // Paren depths at which an (possibly nested) runner call is open.
        let mut regions: Vec<i64> = Vec::new();
        for (idx, line) in file.lines.iter().enumerate() {
            let code = line.code.as_str();
            for (pos, c) in code.char_indices() {
                match c {
                    '(' => {
                        depth += 1;
                        let head = &code[..pos + c.len_utf8()];
                        if TRIAL_RUN_MARKERS.iter().any(|m| head.ends_with(m)) {
                            regions.push(depth);
                        }
                    }
                    ')' => {
                        depth -= 1;
                        while regions.last().is_some_and(|&open| depth < open) {
                            regions.pop();
                        }
                    }
                    _ => {}
                }
                if regions.is_empty() {
                    continue;
                }
                if let Some(pat) = TRIAL_PRECOMPUTE_PATTERNS
                    .iter()
                    .find(|p| code[pos..].starts_with(**p))
                {
                    let name = pat.trim_end_matches('(');
                    out.push(finding(
                        RuleId::TrialScopePrecompute,
                        &rel,
                        idx,
                        format!(
                            "`{name}` inside a per-trial closure rebuilds the same \
                             code table every trial; hoist it before the TrialRunner \
                             call or attach a shared `CodeCache` to the config"
                        ),
                    ));
                }
            }
        }
    }
}

/// True when the token at `t` falls in a `#[cfg(test)]` region.
fn tok_in_test(file: &SourceFile, t: &Token) -> bool {
    file.lines.get(t.line).is_some_and(|l| l.in_test)
}

/// Walks backwards from the token at `at` (inside an argument list) to
/// the enclosing call: returns `(method, receiver)` — the identifier
/// before the depth-0 opening paren and, when the call is a method
/// call, the identifier before its dot.
fn enclosing_call(tokens: &[Token], at: usize) -> (Option<String>, Option<String>) {
    let mut depth = 0i64;
    let mut j = at;
    while j > 0 {
        j -= 1;
        match &tokens[j].tok {
            Tok::Close(Delim::Paren) => depth += 1,
            Tok::Open(Delim::Paren) => {
                if depth == 0 {
                    let method = j
                        .checked_sub(1)
                        .and_then(|m| tokens[m].tok.ident().map(str::to_string));
                    let receiver = j.checked_sub(3).and_then(|r| {
                        (tokens[r + 1].tok.is_punct('.'))
                            .then(|| tokens[r].tok.ident().map(str::to_string))
                            .flatten()
                    });
                    return (method, receiver);
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    (None, None)
}

/// The atomic-ordering audit: classifies every `Ordering::<variant>`
/// token sequence against the per-module policy. `Relaxed` is legal
/// only in [`ATOMIC_RELAXED_ALLOWED`] (observe progress counters) and
/// `#[cfg(test)]` regions; anywhere else it is a finding that names
/// the atomic and the ordering the call needs (`load` → `Acquire`,
/// `store` → `Release`, read-modify-write → `AcqRel`).
fn pass_atomic_ordering(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        if ATOMIC_RELAXED_ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].tok.is_ident("Ordering") {
                continue;
            }
            let Some(variant) = toks
                .get(i + 1)
                .filter(|t| t.tok.is_punct(':'))
                .and(toks.get(i + 2))
                .filter(|t| t.tok.is_punct(':'))
                .and(toks.get(i + 3))
                .and_then(|t| t.tok.ident())
            else {
                continue;
            };
            if !ATOMIC_ORDERINGS.contains(&variant) || variant != "Relaxed" {
                continue;
            }
            if tok_in_test(file, &toks[i]) {
                continue;
            }
            let (method, receiver) = enclosing_call(toks, i);
            let required = match method.as_deref() {
                Some("load") => "Acquire",
                Some("store") => "Release",
                Some(_) => "AcqRel",
                None => "Acquire/Release",
            };
            let site = match (&method, &receiver) {
                (Some(m), Some(r)) => format!("`{r}.{m}`"),
                (Some(m), None) => format!("`{m}`"),
                _ => "this atomic".to_string(),
            };
            out.push(finding(
                RuleId::AtomicOrdering,
                &rel,
                toks[i].line,
                format!(
                    "`Ordering::Relaxed` on {site} is outside the atomics policy \
                     (Relaxed is reserved for the observe progress counters); this \
                     site synchronizes cross-thread state and needs \
                     `Ordering::{required}`, or a `beeps-lint: allow(atomic-ordering)` \
                     documenting why the access is inert"
                ),
            ));
        }
    }
}

/// Renders an argument token slice to compact text (for cross-lane
/// seed-reuse comparison and messages).
fn render_args(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        match &t.tok {
            Tok::Ident(s) => {
                if !out.is_empty() && out.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    out.push(' ');
                }
                out.push_str(s);
            }
            Tok::Lifetime(s) => {
                out.push('\'');
                out.push_str(s);
            }
            Tok::Int(s) | Tok::Float(s) => {
                if !out.is_empty() && out.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    out.push(' ');
                }
                out.push_str(s);
            }
            Tok::Str(_) => out.push('"'),
            Tok::Char => out.push('\''),
            Tok::Punct(c) => out.push(*c),
            Tok::Open(Delim::Paren) => out.push('('),
            Tok::Open(Delim::Bracket) => out.push('['),
            Tok::Open(Delim::Brace) => out.push('{'),
            Tok::Close(Delim::Paren) => out.push(')'),
            Tok::Close(Delim::Bracket) => out.push(']'),
            Tok::Close(Delim::Brace) => out.push('}'),
        }
    }
    out
}

/// The seed-provenance pass: inside [`SEED_SCOPE_PREFIXES`], every
/// [`SEED_SINKS`] call's arguments must trace to a per-trial splitmix
/// derivation — an identifier carrying `seed`/`splitmix`, or a call to
/// a [`Facts::seed_fns`] deriver. Integer-literal seeds and argument
/// expressions with no traceable identifier are findings, as is the
/// same seed expression feeding two sinks in a lane-sliced file.
fn pass_seed_provenance(files: &[SourceFile], facts: &Facts, out: &mut Vec<Finding>) {
    let traced = |id: &str| {
        let lower = id.to_lowercase();
        lower.contains("seed") || lower.contains("splitmix") || facts.seed_fns.contains(id)
    };
    for file in files {
        let rel = rel_path(file);
        if !SEED_SCOPE_PREFIXES.iter().any(|p| rel.starts_with(p)) || rel.contains("tests/") {
            continue;
        }
        let lane_file = LANE_SLICED_FILES.contains(&rel.as_str());
        // seed expression text -> 0-based line of its first sink.
        let mut lane_seen: BTreeMap<String, usize> = BTreeMap::new();
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let Some(name) = toks[i].tok.ident() else {
                continue;
            };
            if !SEED_SINKS.contains(&name) {
                continue;
            }
            if !toks
                .get(i + 1)
                .is_some_and(|t| matches!(t.tok, Tok::Open(Delim::Paren)))
            {
                continue;
            }
            // Skip declarations (`fn from_seed(…)`) and test regions.
            if i > 0 && toks[i - 1].tok.is_ident("fn") {
                continue;
            }
            if tok_in_test(file, &toks[i]) {
                continue;
            }
            let close = matching_close(toks, i + 1);
            let args = &toks[i + 2..close];
            if args.is_empty() {
                continue;
            }
            let line = toks[i].line;
            let idents: Vec<&str> = args.iter().filter_map(|t| t.tok.ident()).collect();
            if idents.is_empty() {
                out.push(finding(
                    RuleId::SeedProvenance,
                    &rel,
                    line,
                    format!(
                        "literal seed in `{name}({})` couples every run to one RNG \
                         stream; derive it from the per-trial splitmix stream \
                         (`trial_seed(base, trial_index)`) or justify with \
                         `beeps-lint: allow(seed-provenance)`",
                        render_args(args)
                    ),
                ));
            } else if !idents.iter().any(|id| traced(id)) {
                out.push(finding(
                    RuleId::SeedProvenance,
                    &rel,
                    line,
                    format!(
                        "seed argument `{}` does not trace to a per-trial splitmix \
                         derivation or a known seed-deriving fn ({}); thread the \
                         trial seed through explicitly",
                        render_args(args),
                        if facts.seed_fns.is_empty() {
                            "none discovered".to_string()
                        } else {
                            facts
                                .seed_fns
                                .iter()
                                .cloned()
                                .collect::<Vec<_>>()
                                .join(", ")
                        }
                    ),
                ));
            }
            if lane_file {
                if let Some(&prev) = lane_seen.get(&render_args(args)) {
                    out.push(finding(
                        RuleId::SeedProvenance,
                        &rel,
                        line,
                        format!(
                            "seed expression `{}` already feeds a lane sink on line {}; \
                             reusing one seed across lanes collapses their noise \
                             streams into lockstep",
                            render_args(args),
                            prev + 1
                        ),
                    ));
                } else {
                    lane_seen.insert(render_args(args), line);
                }
            }
        }
    }
}

/// Scans the token range `[lo, hi]` for constructs banned inside the
/// observation side channel and reports them under `observer-purity`.
fn scan_purity(
    file: &SourceFile,
    rel: &str,
    (lo, hi): (usize, usize),
    context: &str,
    out: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    let mut i = lo;
    while i <= hi.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if tok_in_test(file, t) {
            i += 1;
            continue;
        }
        let next_is_call = |k: usize| {
            toks.get(k + 1)
                .is_some_and(|n| matches!(n.tok, Tok::Open(Delim::Paren)))
        };
        if let Some(name) = t.tok.ident() {
            if name.starts_with("simulate") && next_is_call(i) {
                out.push(finding(
                    RuleId::ObserverPurity,
                    rel,
                    t.line,
                    format!(
                        "`{name}(…)` inside {context}: observation is a pure side \
                         channel and must never run simulations"
                    ),
                ));
            } else if matches!(name, "StdRng" | "SeedableRng" | "seed_from_u64") {
                out.push(finding(
                    RuleId::ObserverPurity,
                    rel,
                    t.line,
                    format!(
                        "`{name}` inside {context}: observers must not construct RNGs — \
                         any draw would perturb or fork the deterministic seed streams"
                    ),
                ));
            } else if name == "MetricsRegistry" {
                out.push(finding(
                    RuleId::ObserverPurity,
                    rel,
                    t.line,
                    format!(
                        "`MetricsRegistry` inside {context}: observers must not touch \
                         the metrics registry (metrics are part of deterministic output; \
                         observation is not)"
                    ),
                ));
            } else if i > 0
                && toks[i - 1].tok.is_punct('.')
                && REGISTRY_MUTATORS.contains(&name)
                && next_is_call(i)
            {
                out.push(finding(
                    RuleId::ObserverPurity,
                    rel,
                    t.line,
                    format!(
                        "`.{name}(…)` inside {context} mutates a metrics registry; \
                         observers may read hook arguments but never write back into \
                         deterministic state"
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// Path identifiers that qualify a `phase`/`mark` call as the observe
/// side channel (`beeps_observe::phase(…)`, `observe::mark(…)`, or the
/// crate-internal `ambient::phase(…)`).
const OBSERVE_PATHS: &[&str] = &["beeps_observe", "observe", "ambient"];

/// The observer-purity pass: bodies of non-test `impl Observer for …`
/// blocks, plus the argument lists of `observe::phase`/`mark` calls,
/// are scanned for simulation calls, registry mutation, and RNG
/// construction.
fn pass_observer_purity(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    for file in files {
        let rel = rel_path(file);
        for imp in &file.items.impls {
            if imp.is_test || imp.trait_name.as_deref() != Some("Observer") {
                continue;
            }
            scan_purity(file, &rel, imp.body_tokens, "an `Observer` impl", out);
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let is_hook = toks[i]
                .tok
                .ident()
                .is_some_and(|n| n == "phase" || n == "mark");
            if !is_hook || tok_in_test(file, &toks[i]) {
                continue;
            }
            // Require a `<observe-path>::phase(` shape so unrelated
            // `phase`/`mark` identifiers never open a region.
            let qualified = i >= 3
                && toks[i - 1].tok.is_punct(':')
                && toks[i - 2].tok.is_punct(':')
                && toks[i - 3]
                    .tok
                    .ident()
                    .is_some_and(|p| OBSERVE_PATHS.contains(&p));
            if !qualified
                || !toks
                    .get(i + 1)
                    .is_some_and(|t| matches!(t.tok, Tok::Open(Delim::Paren)))
            {
                continue;
            }
            let close = matching_close(toks, i + 1);
            scan_purity(
                file,
                &rel,
                (i + 2, close.saturating_sub(1)),
                "an `observe::phase`/`mark` callsite",
                out,
            );
        }
    }
}

/// The panic-path audit: counts undocumented `unwrap`/`expect`/
/// panic-macro sites per library-crate file and reports every site
/// beyond [`PANIC_PATH_BUDGET`]. Sites in `#[cfg(test)]` regions or
/// inside fns documenting a `# Panics` contract are exempt; binaries
/// (`src/bin/`, `examples/`) and test dirs are out of scope. Slice
/// indexing is deliberately excluded: the hot loops index packed words
/// structurally, and a budget there would be all noise.
fn pass_panic_path(files: &[SourceFile], _facts: &Facts, out: &mut Vec<Finding>) {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for file in files {
        let rel = rel_path(file);
        if !rel.starts_with("crates/")
            || !rel.contains("/src/")
            || rel.contains("/src/bin/")
            || rel.contains("tests/")
        {
            continue;
        }
        let toks = &file.tokens;
        let mut sites: Vec<(usize, String)> = Vec::new();
        for i in 0..toks.len() {
            let Some(name) = toks[i].tok.ident() else {
                continue;
            };
            let site = if matches!(name, "unwrap" | "expect")
                && i > 0
                && toks[i - 1].tok.is_punct('.')
                && toks
                    .get(i + 1)
                    .is_some_and(|t| matches!(t.tok, Tok::Open(Delim::Paren)))
            {
                Some(format!(".{name}()"))
            } else if PANIC_MACROS.contains(&name)
                && toks.get(i + 1).is_some_and(|t| t.tok.is_punct('!'))
            {
                Some(format!("{name}!"))
            } else {
                None
            };
            let Some(kind) = site else {
                continue;
            };
            let line = toks[i].line;
            if tok_in_test(file, &toks[i]) || file.items.docs_panics_at(line) {
                continue;
            }
            sites.push((line, kind));
        }
        for (n, (line, kind)) in sites.iter().enumerate().skip(PANIC_PATH_BUDGET) {
            out.push(finding(
                RuleId::PanicPath,
                &rel,
                *line,
                format!(
                    "`{kind}` is undocumented panic site #{} in this library file \
                     (budget {PANIC_PATH_BUDGET}); return a `Result`, document a \
                     `# Panics` contract on the enclosing fn, or add \
                     `beeps-lint: allow(panic-path)` with justification",
                    n + 1
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn rule_ids_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.as_str()), Some(*rule));
            assert!(!rule.rationale().is_empty());
        }
        assert_eq!(RuleId::parse("nope"), None);
    }

    #[test]
    fn passes_cover_all_rules_but_suppression() {
        let covered: Vec<RuleId> = passes().iter().map(|p| p.rule).collect();
        for rule in RuleId::ALL {
            if *rule == RuleId::Suppression {
                assert!(!covered.contains(rule));
            } else {
                assert!(covered.contains(rule), "no pass for {rule}");
            }
        }
    }

    #[test]
    fn family_table_parses() {
        let md = "intro\n\n| family | meaning |\n|---|---|\n| `sim.<scheme>.*` | per-scheme |\n| `exp.*` | ad-hoc |\n\nafter\n";
        let fams = parse_metric_families(md);
        assert_eq!(
            fams.iter().cloned().collect::<Vec<_>>(),
            vec!["exp".to_string(), "sim".to_string()]
        );
    }

    #[test]
    fn fn_ident_extraction() {
        assert_eq!(
            fn_ident("    pub fn old_entry_point(n: usize) -> Self {"),
            Some("old_entry_point".to_string())
        );
        assert_eq!(fn_ident("let often = 3;"), None);
        assert_eq!(fn_ident("fn x()"), Some("x".to_string()));
    }

    fn lint_one(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::lex(PathBuf::from(path), src);
        let files = vec![file];
        let facts = Facts::gather(&files, None);
        let mut out = Vec::new();
        check(&files, &facts, &mut out);
        out
    }

    #[test]
    fn atomic_relaxed_fires_with_required_ordering() {
        let src = "pub fn claim(next: &AtomicUsize) -> usize {\n    next.fetch_add(1, Ordering::Relaxed)\n}\n";
        let out = lint_one("crates/bench/src/runner.rs", src);
        let f = out
            .iter()
            .find(|f| f.rule == RuleId::AtomicOrdering)
            .expect("atomic finding");
        assert_eq!(f.line, 2);
        assert!(f.message.contains("`next.fetch_add`"), "{}", f.message);
        assert!(f.message.contains("Ordering::AcqRel"), "{}", f.message);
    }

    #[test]
    fn atomic_relaxed_load_requires_acquire() {
        let src = "pub fn peek(done: &AtomicU64) -> u64 {\n    done.load(Ordering::Relaxed)\n}\n";
        let out = lint_one("crates/core/src/code_cache.rs", src);
        let f = out
            .iter()
            .find(|f| f.rule == RuleId::AtomicOrdering)
            .expect("atomic finding");
        assert!(f.message.contains("Ordering::Acquire"), "{}", f.message);
    }

    #[test]
    fn atomic_policy_allows_observe_progress_and_tests() {
        let src = "pub fn tick(n: &AtomicU64) {\n    n.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_one("crates/observe/src/progress.rs", src)
            .iter()
            .all(|f| f.rule != RuleId::AtomicOrdering));
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(n: &AtomicU64) { n.load(Ordering::Relaxed); }\n}\n";
        assert!(lint_one("crates/core/src/owners.rs", test_src)
            .iter()
            .all(|f| f.rule != RuleId::AtomicOrdering));
    }

    #[test]
    fn seed_literal_and_untraced_fire_traced_passes() {
        let lit = "fn go() { let rng = StdRng::seed_from_u64(42); }\n";
        let out = lint_one("crates/channel/src/channel.rs", lit);
        assert!(out
            .iter()
            .any(|f| f.rule == RuleId::SeedProvenance && f.message.contains("literal seed")));

        let untraced = "fn go(idx: u64) { let rng = StdRng::seed_from_u64(idx); }\n";
        let out = lint_one("crates/channel/src/channel.rs", untraced);
        assert!(out
            .iter()
            .any(|f| f.rule == RuleId::SeedProvenance && f.message.contains("does not trace")));

        let traced = "fn go(trial_seed_v: u64) { let rng = StdRng::seed_from_u64(trial_seed_v ^ 0x9E37); }\n";
        assert!(lint_one("crates/channel/src/channel.rs", traced)
            .iter()
            .all(|f| f.rule != RuleId::SeedProvenance));
    }

    #[test]
    fn seed_rule_skips_tests_and_out_of_scope_paths() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let r = StdRng::seed_from_u64(7); }\n}\n";
        assert!(lint_one("crates/core/src/owners.rs", src)
            .iter()
            .all(|f| f.rule != RuleId::SeedProvenance));
        let src2 = "fn t() { let r = StdRng::seed_from_u64(7); }\n";
        assert!(lint_one("crates/metrics/src/registry.rs", src2)
            .iter()
            .all(|f| f.rule != RuleId::SeedProvenance));
    }

    #[test]
    fn cross_lane_seed_reuse_fires_in_lane_files() {
        let src = "fn lanes(seed: u64) {\n    let a = StdRng::seed_from_u64(seed);\n    let b = StdRng::seed_from_u64(seed);\n}\n";
        let out = lint_one("crates/channel/src/lanes.rs", src);
        let reuse: Vec<_> = out
            .iter()
            .filter(|f| f.rule == RuleId::SeedProvenance && f.message.contains("already feeds"))
            .collect();
        assert_eq!(reuse.len(), 1);
        assert_eq!(reuse[0].line, 3);
    }

    #[test]
    fn observer_impl_purity() {
        let src = "impl Observer for Bad {\n    fn on_run_start(&self) {\n        let r = StdRng::seed_from_u64(1);\n        self.registry.inc(\"exp.x\", 1);\n    }\n}\nimpl Observer for Good {\n    fn on_run_start(&self) { let x = 1 + 1; }\n}\n";
        let out = lint_one("crates/observe/src/custom.rs", src);
        let purity: Vec<_> = out
            .iter()
            .filter(|f| f.rule == RuleId::ObserverPurity)
            .collect();
        assert!(purity.iter().any(|f| f.message.contains("RNG")));
        assert!(purity.iter().any(|f| f.message.contains(".inc(")));
        assert!(purity.iter().all(|f| f.line <= 6), "good impl flagged");
    }

    #[test]
    fn observe_callsite_args_scanned() {
        let src = "fn run(sim: &dyn Simulator) {\n    beeps_observe::phase(\"merge\", simulate_once(sim));\n}\n";
        let out = lint_one("crates/bench/src/glue.rs", src);
        assert!(out
            .iter()
            .any(|f| f.rule == RuleId::ObserverPurity && f.message.contains("simulate_once")));
    }

    #[test]
    fn panic_budget_counts_only_undocumented_sites() {
        let src = "\
/// Runs.\n\
///\n\
/// # Panics\n\
/// Panics when poisoned.\n\
pub fn documented(m: &Mutex<u32>) -> u32 {\n\
    *m.lock().expect(\"poisoned\")\n\
}\n\
pub fn a(x: Option<u32>) -> u32 { x.unwrap() }\n\
pub fn b(x: Option<u32>) -> u32 { x.expect(\"b\") }\n\
pub fn c(x: Option<u32>) -> u32 { x.unwrap() }\n\
pub fn d() { panic!(\"d\") }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t(x: Option<u32>) { x.unwrap(); }\n\
}\n";
        let out = lint_one("crates/core/src/thing.rs", src);
        let hits: Vec<_> = out.iter().filter(|f| f.rule == RuleId::PanicPath).collect();
        // Sites: a, b, c, d (documented + test exempt). Budget 2 → c, d fire.
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 10);
        assert_eq!(hits[1].line, 11);
        // Out of scope: same source as a binary.
        assert!(lint_one("crates/bench/src/bin/fig_x.rs", src)
            .iter()
            .all(|f| f.rule != RuleId::PanicPath));
    }
}
