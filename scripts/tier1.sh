#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   scripts/tier1.sh
#
# Runs the release build, the full test suite, the vendored rand
# crate's own tests (debug and release), the benchmark's pinned digest
# self-test, clippy with warnings denied and the formatting check (both
# on the workspace and on vendored rand), the beeps-lint
# static-analysis pass, rustdoc with warnings denied (broken intra-doc
# links fail), a one-iteration smoke run of the hot-path ratio gate,
# observed smoke runs of fig6_phase_breakdown and fig_scale, the full
# fig_scale sweep at one and two workers, whose JSON must match, and the
# pinned hashes of every experiment's JSON — the same sequence CI runs.
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
# vendor/rand is excluded from the workspace, so the line above skips
# its own tests: the ChaCha20 keystream vector of RFC 7539, the SSE2
# refill against the scalar block function, known stream words and the
# rand_core block-buffer straddle rule, which every seeded golden rests
# on. The release run checks the optimized SSE2 refill the binaries use.
cargo test -q --manifest-path vendor/rand/Cargo.toml
cargo test -q --release --manifest-path vendor/rand/Cargo.toml
# The repository benchmark (perfbench/, a workspace of its own) checks
# every workload's digest against its pinned value, E4's owners tables
# included: a change that moves any bit of the benchmarked experiment
# traffic fails here.
cargo test --release --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# The workspace commands skip vendor/rand, which holds the repository's
# one `unsafe` block.
cargo clippy --manifest-path vendor/rand/Cargo.toml --all-targets -- -D warnings
cargo xtask lint
# Same findings as SARIF: proves the emitter stays valid on every run
# (CI uploads this file for PR annotations).
cargo xtask lint --format sarif > target/beeps-lint.sarif
cargo fmt --check
cargo fmt --check --manifest-path vendor/rand/Cargo.toml
# Docs build with warnings denied: an intra-doc link left dangling by a
# rename or deletion fails here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# Smoke-run the hot-path ratio gate (one iteration per pair, small
# sizes): every collapsed engine and its per-party twin must run and
# give a finite, positive ratio, and a dropped pair fails. Run it without --smoke for the real
# gate, a median ratio of at least 3x per pair over 5 iterations.
cargo run --release -q -p beeps-bench --bin bench_hotpaths -- --smoke
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
# collapsed struct-of-arrays engines under correlated noise, whose
# deliveries are one shared bit per round, and their verification stack
# end to end; the sealed run log (with the peak_rss_bytes summary field)
# must validate like any other.
BEEPS_EXPERIMENTS_DIR=target/observe-smoke \
  cargo run --release -q -p beeps-bench --bin fig_scale -- \
  --smoke --threads 2 --progress \
  --profile target/observe-smoke/fig_scale.trace.json >/dev/null
cargo xtask observe-check \
  target/observe-smoke/fig_scale.trace.json \
  target/observe-smoke/fig_scale.runlog.jsonl
# Thread invariance at scale: the full fig_scale sweep runs the n = 10^6
# collapsed body, which the smoke run above never reaches, and must
# write the same JSON at one worker and at two (~1 s each).
for t in 1 2; do
  BEEPS_EXPERIMENTS_DIR=target/scale-threads-$t \
    cargo run --release -q -p beeps-bench --bin fig_scale -- --threads $t >/dev/null
done
cmp target/scale-threads-1/fig_scale.json target/scale-threads-2/fig_scale.json
# No bit moves unseen: the 14 JSON files all_experiments writes (E1-E14)
# and the one-worker fig_scale.json above must hash to the values pinned
# in crates/bench/experiments.sha256. A change that moves an experiment
# on purpose updates that file in the same change. The JSON carries
# floats from the host's `ln` and `exp`, so the pin holds for x86-64
# Linux, where CI runs; perfbench's digests assume the same.
rm -rf target/experiments-pin
BEEPS_EXPERIMENTS_DIR=target/experiments-pin \
  cargo run --release -q -p beeps-bench --bin all_experiments -- --threads 2 >/dev/null
sha256sum --strict --quiet -c crates/bench/experiments.sha256
echo "tier-1: all green"
