#!/usr/bin/env bash
# Repeat benchhot's traced passes and summarise the per-layer metrics.
#
# One `benchhot --trace 1` run reads its per-layer metrics (cache.*,
# policy.*, sim.*, ...) from five traced passes, and two runs of one
# unchanged build can differ by a fifth. This script runs it RUNS times
# per workload and prints, for every per-layer metric, the median and
# the interquartile range over the runs. Given a parent revision it
# builds that revision (from `git archive`) as well, alternates the two
# binaries run by run (the side that goes first alternates too), and
# prints both sides and their ratio.
#
# Nothing is written inside the repository: sources, targets and raw run
# outputs live under one mktemp directory, removed on exit unless KEEP=1.
#
# Usage: scripts/benchlayers.sh [--parent REV] [WORKLOAD...]
#   (default workloads: every workload in BENCHMARK.json)
# Environment:
#   RUNS=7            traced runs per side and workload
#   RUN_SECONDS=2     benchhot --seconds (the timed loop before the
#                     traced passes; it does not feed these metrics)
#   SEED=42           benchhot --seed (the same on every run, so counts
#                     match between the sides)
#   KEEP=1            keep the temporary directory and print its path
#
# Exit status: 0 when every run passed its checks, 1 when any cell run
# failed, 2 on a usage or build error.
set -euo pipefail
cd "$(dirname "$0")/.."

parent_rev=""
if (($# >= 1)) && [[ "$1" == "--parent" ]]; then
    if (($# < 2)); then
        sed -n '16,24p' "$0" >&2
        exit 2
    fi
    parent_rev="$2"
    shift 2
    if ! git rev-parse --verify --quiet "${parent_rev}^{commit}" >/dev/null; then
        echo "benchlayers: ${parent_rev} is not a commit" >&2
        exit 2
    fi
fi
workloads=("$@")
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <(awk '
        /"workloads"/ { inside = 1; next }
        inside && /^[[:space:]]*\]/ { exit }
        inside { sub(/.*"name": *"/, ""); sub(/".*/, ""); print }
    ' BENCHMARK.json)
fi
runs="${RUNS:-7}"
seconds="${RUN_SECONDS:-2}"
seed="${SEED:-42}"

tmp="$(mktemp -d)"
if [[ "${KEEP:-0}" == "1" ]]; then
    echo "benchlayers: keeping ${tmp}"
else
    trap 'rm -rf "${tmp}"' EXIT
fi
mkdir -p "${tmp}/runs"

build() {
    cargo build -q --offline --locked --release --manifest-path "$1/bench/hot/Cargo.toml" \
        --target-dir "$2" || { echo "benchlayers: build of $1 failed" >&2; exit 2; }
}
sides=(change)
if [[ -n "${parent_rev}" ]]; then
    echo "==> building parent ${parent_rev} and the working tree"
    mkdir -p "${tmp}/parent"
    git archive "${parent_rev}" | tar -x -C "${tmp}/parent"
    build "${tmp}/parent" "${tmp}/parent-target"
    sides=(parent change)
else
    echo "==> building the working tree"
fi
build "${PWD}" "${tmp}/change-target"

# run <side> <workload> <i> — one traced benchhot run, from its own tree.
run() {
    local side="$1" workload="$2" i="$3" dir="${PWD}" status=0
    [[ "${side}" == parent ]] && dir="${tmp}/parent"
    (cd "${dir}" && "${tmp}/${side}-target/release/benchhot" --workload "${workload}" \
        --seconds "${seconds}" --seed "${seed}" --trace 1) \
        > "${tmp}/runs/${workload}.${side}.${i}" 2>&1 || status=$?
    if ((status == 2)); then
        cat "${tmp}/runs/${workload}.${side}.${i}" >&2
        exit 2
    fi
}

any_failed=0
for workload in "${workloads[@]}"; do
    echo "==> ${workload}: ${runs} traced runs per side, seed ${seed}"
    for ((i = 1; i <= runs; i++)); do
        if ((${#sides[@]} == 1)); then
            run change "${workload}" "${i}"
        elif ((i % 2)); then
            run parent "${workload}" "${i}"
            run change "${workload}" "${i}"
        else
            run change "${workload}" "${i}"
            run parent "${workload}" "${i}"
        fi
    done
    # Per-layer metrics are the `layer.metric value unit` lines.
    for side in "${sides[@]}"; do
        for ((i = 1; i <= runs; i++)); do
            awk -v s="${side}" '$1 ~ /\./ && NF >= 3 { print s, $1, $2, $3 }' \
                "${tmp}/runs/${workload}.${side}.${i}"
        done
    done | awk -v two="$((${#sides[@]} == 2))" '
        function sort(a, k,    i, j, t) {
            for (i = 2; i <= k; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Linear-interpolated quantile q of the sorted a[1..k].
        function quantile(a, k, q,    h, lo) {
            h = (k - 1) * q + 1; lo = int(h)
            return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        # Median and IQR of side s for metric m, as "median iqr".
        function stats(s, m,    k, a, i) {
            k = n[s, m]
            for (i = 1; i <= k; i++) a[i] = v[s, m, i]
            sort(a, k)
            return quantile(a, k, 0.5) " " (quantile(a, k, 0.75) - quantile(a, k, 0.25))
        }
        {
            if (!($2 in unit)) { order[++metrics] = $2; unit[$2] = $4 }
            v[$1, $2, ++n[$1, $2]] = $3
        }
        END {
            if (two) printf "%-28s %14s %10s %14s %10s %8s  %s\n", "metric", "parent", "IQR", "change", "IQR", "ratio", "unit"
            else printf "%-28s %14s %10s  %s\n", "metric", "median", "IQR", "unit"
            for (j = 1; j <= metrics; j++) {
                m = order[j]
                split(stats("change", m), c, " ")
                if (two) {
                    split(stats("parent", m), p, " ")
                    printf "%-28s %14.6g %10.4g %14.6g %10.4g %7.3fx  %s\n",
                        m, p[1], p[2], c[1], c[2], p[1] == 0 ? 0 : c[1] / p[1], unit[m]
                } else {
                    printf "%-28s %14.6g %10.4g  %s\n", m, c[1], c[2], unit[m]
                }
            }
        }'
    for side in "${sides[@]}"; do
        cat "${tmp}/runs/${workload}.${side}".* | awk -v side="${side}" '
            $1 == "failed_frac" { gsub(/[()]/, ""); failed += $4; runs += $6 }
            END { printf "failed cells (%s): %d of %d cell runs\n", side, failed, runs; exit (failed > 0) }
        ' || any_failed=1
    done
done
exit "${any_failed}"
