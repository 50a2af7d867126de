#!/usr/bin/env bash
# Full local gate: formatting, static analysis, build, tests.
#
# This is the same sequence CI (and the tier-1 acceptance check) runs;
# a clean `./scripts/check.sh` means the tree is mergeable.
#
# Every step runs even when an earlier one fails: statuses are collected
# explicitly and the script exits non-zero if ANY step failed, naming
# the failures in a summary. (`set -e` alone is not enough here — the
# one-shot goal is to see every broken gate, and an `if !`-guarded or
# trailing-`||` step would silently swallow its status.)
#
# The per-line lints are clippy's: the `cargo test -q` step runs
# tests/lint.rs, which runs `cargo clippy` over the ff-* crates and the
# root package with warnings denied (and fails if clippy is missing).
# The ff-lint step checks the three cross-file families
# (panic-reachability, const-provenance, arith-safety). It writes its
# JSON report to results/lint-report.json so CI can upload it as an
# artifact, and runs with --forbid-stale so a
# baseline listing already-fixed debt fails the gate instead of rotting.
# On failure it re-runs in human-readable mode — in GitHub Actions (or
# with FF_LINT_GITHUB=1) that re-run also emits ::error annotations that
# render inline on the PR diff.
set -uo pipefail
cd "$(dirname "$0")/.."

failed_steps=()

# run_step <label> <cmd...> — run a step, record its status.
run_step() {
    local label="$1"
    shift
    echo "==> ${label}"
    if ! "$@"; then
        echo "==> ${label} FAILED"
        failed_steps+=("${label}")
        return 1
    fi
}

lint_step() {
    mkdir -p results
    if cargo run -q -p ff-lint -- --json --forbid-stale \
        --sarif results/lint.sarif \
        > results/lint-report.json; then
        echo "    report: results/lint-report.json"
        echo "    sarif: results/lint.sarif"
        return 0
    fi
    echo "==> ff-lint FAILED — human-readable report follows"
    rerun_args=()
    if [[ "${GITHUB_ACTIONS:-}" == "true" || "${FF_LINT_GITHUB:-}" == "1" ]]; then
        rerun_args+=(--github)
    fi
    cargo run -q -p ff-lint -- --forbid-stale "${rerun_args[@]+"${rerun_args[@]}"}" || true
    echo "error: ff-lint found new findings or a stale baseline;" >&2
    echo "       see results/lint-report.json, and run" >&2
    echo "       'cargo run -p ff-lint -- --update-baseline' only for" >&2
    echo "       debt you are deliberately accepting." >&2
    return 1
}

doc_step() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

# Check the handbook: every SUMMARY.md chapter exists, every relative
# link resolves, every code fence closes (stock mdBook checks none of
# these).
handbook_step() {
    cargo run -q -p ff-book -- check docs
}

# The mutation engine's ratchet gate: regenerate the kill-score matrix
# at the committed seed and fail when any family's kill rate falls
# below its recorded floor (the binary exits non-zero on a violation).
# The matrix lands in results/ so CI can upload it next to the lint
# report.
killscore_step() {
    mkdir -p results
    if cargo run -q -p ff-lint -- --killscore results/lint-killscore.json; then
        echo "    kill matrix: results/lint-killscore.json"
        return 0
    fi
    echo "error: a rule family's mutation kill rate fell below its" >&2
    echo "       recorded floor; see results/lint-killscore.json" >&2
    return 1
}

# The parallel sweep engine's acceptance gate: the full benchsim grid
# serially vs on 8 workers must serialise byte-identically (benchpar
# exits non-zero otherwise). The honest speedup is wall-clock noise, so
# the gate writes it to results/ (untracked) rather than dirtying the
# committed bench/BENCH_parallel.json.
parallel_step() {
    mkdir -p results
    cargo run --release -q -p ff-bench --bin ffbench -- benchpar --jobs 8 \
        --out results/BENCH_parallel.json
}

# Every committed deterministic artifact (the figures, tables and
# studies in results/, the BENCH_sim/BENCH_faults matrices and the
# JSONL traces in bench/) must be what the code prints today:
# regenerate them all in place and fail on any difference.
artifacts_step() {
    cargo run --release -q -p ff-bench --bin ffbench -- all &&
        git diff --exit-code -- results bench
}

run_step "cargo fmt --all --check" cargo fmt --all --check
run_step "ff-lint (ratchet vs crates/ff-lint/baseline.json)" lint_step
run_step "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)" doc_step
run_step "cargo build --release" cargo build --release
# The default members' tests (the root package and every crate) include
# the clippy gate (tests/lint.rs), the chaos suite, the device machine walks, the absint soundness properties,
# the mutation matrix and the doctests; the vendored shims are not
# default members, so their tests run as a step of their own.
run_step "cargo test -q" cargo test -q
run_step "vendored shims (cargo test -p rand -p proptest -p crossbeam)" \
    cargo test -q -p rand -p proptest -p crossbeam
# bench/hot is a package of its own (empty [workspace]), so the step
# above never builds it: a library change that breaks the benchmark's
# build or its seed-42 fingerprints (expected_json_is_current) fails here.
run_step "benchmark package (cargo test bench/hot)" \
    cargo test --release --offline --locked --manifest-path bench/hot/Cargo.toml
run_step "mutation-killscore (kill-rate ratchet vs recorded floors)" killscore_step
run_step "handbook check" handbook_step
run_step "parallel-determinism (benchpar: jobs=1 vs jobs=8 byte-identical)" parallel_step
run_step "artifacts-fresh (ffbench all, then git diff results bench)" artifacts_step

if (( ${#failed_steps[@]} > 0 )); then
    echo "==> ${#failed_steps[@]} check(s) FAILED:" >&2
    for step in "${failed_steps[@]}"; do
        echo "    - ${step}" >&2
    done
    exit 1
fi
echo "==> all checks passed"
