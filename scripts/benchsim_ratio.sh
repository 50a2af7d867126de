#!/usr/bin/env bash
# Repeat `ffbench benchsim --jobs 1` and summarise its per-cell wall times.
#
# benchsim times each workload x policy cell once, so one run's ratio of
# two cells moves with host noise. This script runs ROUNDS rounds and
# prints, for every cell, the median wall time and its interquartile
# range over the rounds; then, for make, xmms and mplayer, the ratio of
# adaptive FlexFetch to FlexFetch-static in wall time per event: the
# median over rounds, with the smallest and largest round.
#
# Nothing is written inside the repository: the build (unless FFBENCH
# names a binary), each round's artifact and its output live under one
# mktemp directory, removed on exit unless KEEP=1.
#
# Usage: scripts/benchsim_ratio.sh
# Environment:
#   ROUNDS=9          benchsim runs
#   FFBENCH=PATH      use this ffbench binary instead of building one
#   KEEP=1            keep the temporary directory and print its path
#
# Exit status: 0 on success, 2 on a usage, build or run error.
set -euo pipefail
cd "$(dirname "$0")/.."

if (($# > 0)); then
    sed -n '15,19p' "$0" >&2
    exit 2
fi
rounds="${ROUNDS:-9}"
if ! [[ "${rounds}" =~ ^[1-9][0-9]*$ ]]; then
    echo "benchsim_ratio: ROUNDS must be a positive integer" >&2
    exit 2
fi

tmp="$(mktemp -d)"
if [[ "${KEEP:-0}" == "1" ]]; then
    echo "benchsim_ratio: keeping ${tmp}"
else
    trap 'rm -rf "${tmp}"' EXIT
fi

bin="${FFBENCH:-}"
if [[ -z "${bin}" ]]; then
    echo "==> building ffbench"
    cargo build -q --offline --locked --release -p ff-bench --bin ffbench \
        --target-dir "${tmp}/target" || { echo "benchsim_ratio: build failed" >&2; exit 2; }
    bin="${tmp}/target/release/ffbench"
fi

echo "==> ${rounds} rounds of benchsim --jobs 1"
for ((r = 1; r <= rounds; r++)); do
    "${bin}" benchsim --jobs 1 --out "${tmp}/BENCH_sim.${r}.json" > "${tmp}/round.${r}" 2> "${tmp}/round.${r}.err" ||
        { cat "${tmp}/round.${r}.err" >&2; exit 2; }
done

# Each round's table: workload policy events sim(s) wall(ms) events/s sim/wall.
for ((r = 1; r <= rounds; r++)); do
    awk -v r="${r}" 'NR > 1 && NF == 7 { print r, $1, $2, $3, $5 }' "${tmp}/round.${r}"
done | awk -v rounds="${rounds}" '
    function sort(a, k,    i, j, t) {
        for (i = 2; i <= k; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Linear-interpolated quantile q of the sorted a[1..k].
    function quantile(a, k, q,    h, lo) {
        h = (k - 1) * q + 1; lo = int(h)
        return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    {
        cell = $2 " " $3
        if (!(cell in seen)) { seen[cell] = 1; order[++cells] = cell }
        wall[cell, $1] = $5; events[cell, $1] = $4
    }
    END {
        printf "%-14s %-18s %10s %10s\n", "workload", "policy", "median ms", "IQR ms"
        for (c = 1; c <= cells; c++) {
            k = 0
            for (r = 1; r <= rounds; r++) if ((order[c], r) in wall) w[++k] = wall[order[c], r]
            sort(w, k)
            split(order[c], name, " ")
            printf "%-14s %-18s %10.1f %10.1f\n", name[1], name[2],
                quantile(w, k, 0.5), quantile(w, k, 0.75) - quantile(w, k, 0.25)
        }
        printf "\nadaptive/static wall time per event, over %d rounds\n", rounds
        printf "%-10s %8s %8s %8s\n", "workload", "median", "min", "max"
        n = split("make xmms mplayer", workloads, " ")
        for (i = 1; i <= n; i++) {
            a = workloads[i] " flexfetch"; s = workloads[i] " flexfetch-static"; k = 0
            for (r = 1; r <= rounds; r++) {
                if (!((a, r) in wall) || !((s, r) in wall) || wall[s, r] == 0 || events[a, r] == 0) continue
                q[++k] = (wall[a, r] / events[a, r]) / (wall[s, r] / events[s, r])
            }
            if (k == 0) { printf "%-10s (no values)\n", workloads[i]; continue }
            sort(q, k)
            printf "%-10s %7.2fx %7.2fx %7.2fx\n", workloads[i], quantile(q, k, 0.5), q[1], q[k]
        }
    }'
