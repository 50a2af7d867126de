#!/usr/bin/env bash
# Compare benchhot between a parent revision and the working tree.
#
# Builds PARENT_REV from `git archive` into a temporary directory with a
# target of its own, builds the working tree's benchhot into a second
# target there, then runs PAIRS parent/change pairs per workload. Each
# pair runs on a new seed, and the side that runs first alternates. For
# every end-to-end metric in BENCHMARK.json it prints the parent and
# change medians, the parent's interquartile range, the pairs the change
# won (ties count for neither side) and whether the change is worse than
# the metric's bound; then each side's failed-cell count. A gain holds
# when at least ten pairs ran, the change wins at least nine tenths of
# them and the medians differ by more than the parent's interquartile
# range (bench/hot/README.md, "Claiming a gain").
#
# Nothing is written inside the repository: sources, targets and raw run
# outputs live under one mktemp directory, removed on exit unless KEEP=1.
#
# Usage: scripts/benchpair.sh PARENT_REV [WORKLOAD...]
#   (default workloads: every workload in BENCHMARK.json)
# Environment:
#   PAIRS=10          pairs per workload
#   RUN_SECONDS=S     benchhot --seconds (default: BENCHMARK.json run_seconds)
#   SEED_BASE=3000    pair i (1-based) runs at --seed SEED_BASE + i
#   KEEP=1            keep the temporary directory and print its path
#
# Exit status: 0 when every run passed its checks, 1 when any cell run
# failed, 2 on a usage or build error.
set -euo pipefail
cd "$(dirname "$0")/.."

if (($# < 1)); then
    sed -n '19,25p' "$0" >&2
    exit 2
fi
parent_rev="$1"
shift
if ! git rev-parse --verify --quiet "${parent_rev}^{commit}" >/dev/null; then
    echo "benchpair: ${parent_rev} is not a commit" >&2
    exit 2
fi

# The body of one top-level array of BENCHMARK.json, one entry per line.
bench_section() {
    awk -v key="\"$1\"" '
        index($0, key) { inside = 1; next }
        inside && /^[[:space:]]*\]/ { exit }
        inside { print }
    ' BENCHMARK.json
}
# The string or number value of field `$1` on each input line.
field() {
    sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p"
}

workloads=("$@")
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <(bench_section workloads | field name)
fi
pairs="${PAIRS:-10}"
seconds="${RUN_SECONDS:-$(field run_seconds < BENCHMARK.json)}"
seed_base="${SEED_BASE:-3000}"
mapfile -t metric_lines < <(bench_section end_to_end)

tmp="$(mktemp -d)"
if [[ "${KEEP:-0}" == "1" ]]; then
    echo "benchpair: keeping ${tmp}"
else
    trap 'rm -rf "${tmp}"' EXIT
fi

echo "==> building parent ${parent_rev} and the working tree"
mkdir -p "${tmp}/parent" "${tmp}/runs"
git archive "${parent_rev}" | tar -x -C "${tmp}/parent"
build() {
    cargo build -q --offline --locked --release --manifest-path "$1/bench/hot/Cargo.toml" \
        --target-dir "$2" || { echo "benchpair: build of $1 failed" >&2; exit 2; }
}
build "${tmp}/parent" "${tmp}/parent-target"
build "${PWD}" "${tmp}/change-target"

# run <side> <workload> <pair> — one benchhot run, from its own tree.
run() {
    local side="$1" workload="$2" i="$3" dir bin status=0
    if [[ "${side}" == parent ]]; then
        dir="${tmp}/parent" bin="${tmp}/parent-target/release/benchhot"
    else
        dir="${PWD}" bin="${tmp}/change-target/release/benchhot"
    fi
    (cd "${dir}" && "${bin}" --workload "${workload}" --seconds "${seconds}" \
        --seed $((seed_base + i))) > "${tmp}/runs/${workload}.${side}.${i}" 2>&1 || status=$?
    if ((status == 2)); then
        cat "${tmp}/runs/${workload}.${side}.${i}" >&2
        exit 2
    fi
}

any_failed=0
for workload in "${workloads[@]}"; do
    echo "==> ${workload}: ${pairs} pairs of ${seconds} s runs"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run parent "${workload}" "${i}"
            run change "${workload}" "${i}"
        else
            run change "${workload}" "${i}"
            run parent "${workload}" "${i}"
        fi
    done
    printf '%-13s %14s %14s %8s %12s %6s  %s\n' \
        metric parent change ratio "parent IQR" wins verdict
    for line in "${metric_lines[@]}"; do
        name="$(field name <<< "${line}")"
        better="$(field better <<< "${line}")"
        bound="$(field bound <<< "${line}")"
        for ((i = 1; i <= pairs; i++)); do
            for side in parent change; do
                awk -v m="${name}" -v s="${side}" -v i="${i}" \
                    '$1 == m { print s, i, $2 }' "${tmp}/runs/${workload}.${side}.${i}"
            done
        done | awk -v name="${name}" -v better="${better}" -v bound="${bound}" -v n="${pairs}" '
            function sort(a, k,    i, j, t) {
                for (i = 2; i <= k; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            # Linear-interpolated quantile q of the sorted a[1..k].
            function quantile(a, k, q,    h, lo) {
                h = (k - 1) * q + 1; lo = int(h)
                return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
            }
            function wins_for_change(p, c) { return better == "higher" ? c > p : c < p }
            { v[$1, $2] = $3 }
            END {
                k = 0
                for (i = 1; i <= n; i++) {
                    if (!(("parent", i) in v) || !(("change", i) in v)) continue
                    k++; p[k] = v["parent", i]; c[k] = v["change", i]
                    won += wins_for_change(p[k], c[k])
                }
                if (k == 0) { printf "%-13s (no values)\n", name; exit }
                sort(p, k); sort(c, k)
                pm = quantile(p, k, 0.5); cm = quantile(c, k, 0.5)
                iqr = quantile(p, k, 0.75) - quantile(p, k, 0.25)
                worse = better == "higher" ? cm < pm * (1 - bound) : cm > pm * (1 + bound)
                gain = k >= 10 && wins_for_change(pm, cm) && won * 10 >= k * 9 && (cm - pm) ^ 2 > iqr ^ 2
                verdict = worse ? "WORSE than bound " bound : (gain ? "gain" : "within bound " bound)
                printf "%-13s %14.6g %14.6g %7.3fx %12.4g %3d/%-2d  %s\n",
                    name, pm, cm, pm == 0 ? 0 : cm / pm, iqr, won, k, verdict
            }'
    done
    for side in parent change; do
        cat "${tmp}/runs/${workload}.${side}".* | awk -v side="${side}" '
            $1 == "failed_frac" { gsub(/[()]/, ""); failed += $4; runs += $6 }
            END { printf "failed cells (%s): %d of %d cell runs\n", side, failed, runs; exit (failed > 0) }
        ' || any_failed=1
    done
done
exit "${any_failed}"
