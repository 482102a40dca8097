#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   scripts/tier1.sh
#
# Runs the release build, the full test suite, the benchmark's pinned
# digest self-test, clippy with warnings denied, the beeps-lint
# static-analysis pass, the formatting check,
# a one-iteration smoke run of the hot-path benchmark harness plus
# its baseline-comparison plumbing, and observed smoke runs of
# fig6_phase_breakdown and fig_scale — the same sequence CI runs.
set -euo pipefail
cd "$(dirname "$0")/.."

# Build output stays out of git: `.gitignore` lists every `target/`,
# but ignore rules do not cover paths already in the index.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  if git ls-files | grep -E '(^|/)target/'; then
    echo "tier-1: build output is tracked (git rm -r --cached it)" >&2
    exit 1
  fi
fi
cargo build --release
cargo test -q
# The repository benchmark (perfbench/, a workspace of its own) checks
# every workload's digest against its pinned value, E4's owners tables
# included: a change that moves any bit of the benchmarked experiment
# traffic fails here.
cargo test --release --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
cargo xtask lint
# Same findings as SARIF: proves the emitter stays valid on every run
# (CI uploads this file for PR annotations).
cargo xtask lint --format sarif > target/beeps-lint.sarif
cargo fmt --check
# Smoke-run the pinned benchmark harness (1 iteration, tiny rounds)
# through the regression-gate script: catches bit-rot in the bench
# binary and the comparison plumbing — including the bit-sliced
# "lanes" and collapsed-engine "soa" sections the ratio gates read,
# and the presence of every required gated key (executor.lanes.*,
# scheme.*.batch, scheme.repetition.soa, channel.lanes.sparse.*): a
# renamed or dropped gated row fails the smoke, not just the full run.
# Run `scripts/bench_compare.sh` without --smoke for the real >25%
# regression gate plus the >=4x lane / >=3x soa engine floors.
scripts/bench_compare.sh --smoke
# Observability smoke: a real experiment run under --progress --profile
# must produce a loadable Chrome trace and a sealed JSONL run log
# (validated by the dependency-free observe-check parser).
BEEPS_EXPERIMENTS_DIR=target/observe-smoke \
  cargo run --release -q -p beeps-bench --bin fig6_phase_breakdown -- \
  --threads 2 --progress --profile target/observe-smoke/fig6.trace.json \
  >/dev/null
cargo xtask observe-check \
  target/observe-smoke/fig6.trace.json \
  target/observe-smoke/fig6_phase_breakdown.runlog.jsonl
# Scaling smoke: fig_scale's --smoke sweep (n up to 10^4) exercises the
# collapsed struct-of-arrays engines, the sparse channel, and windowed
# transcript retention end to end; the sealed run log (with the
# peak_rss_bytes summary field) must validate like any other.
BEEPS_EXPERIMENTS_DIR=target/observe-smoke \
  cargo run --release -q -p beeps-bench --bin fig_scale -- \
  --smoke --threads 2 --progress \
  --profile target/observe-smoke/fig_scale.trace.json >/dev/null
cargo xtask observe-check \
  target/observe-smoke/fig_scale.trace.json \
  target/observe-smoke/fig_scale.runlog.jsonl
echo "tier-1: all green"
