#!/usr/bin/env bash
# Repeatability gate for benchhot.
#
# Builds the benchmark in release mode, runs its tests, then runs every
# workload in BENCHMARK.json twice back to back. Exits non-zero if a run
# fails a correctness check (failed > 0, i.e. failed_frac > 0) or if any
# end-to-end metric differs between the two runs by more than its bound
# in BENCHMARK.json.
#
#   bench/hot/check.sh [SEED]      (default seed 42)
#
# Needs cargo and python3. Takes about 3.5 minutes at the default run
# length on a 2-vCPU host.
set -euo pipefail
cd "$(dirname "$0")/../.."

seed="${1:-42}"
manifest=bench/hot/Cargo.toml
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

cargo build --quiet --offline --release --manifest-path "$manifest"
cargo test --quiet --offline --release --manifest-path "$manifest"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for w in $workloads; do
    for run in 1 2; do
        echo "== $w run $run (seed $seed, ${seconds}s)"
        status=0
        cargo run --quiet --offline --release --manifest-path "$manifest" -- \
            --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            > "$out/$w.$run.txt" || status=$?
        grep -E '^(calls_per_s|pass_ms_p50|pass_ms_p90|setup_s|peak_rss_mib|failed_frac) ' \
            "$out/$w.$run.txt" || true
        if [ "$status" -ne 0 ]; then
            echo "FAIL: $w run $run exited with $status" >&2
            exit 1
        fi
    done
done

python3 - "$out" $workloads <<'EOF'
import json, sys

out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = []
for w in workloads:
    a, b = (json.loads(open(f"{out}/{w}.{r}.txt").read().splitlines()[-1]) for r in (1, 2))
    for run in (a, b):
        if run["failed"] > 0 or not run["correct"]:
            bad.append(f"{w}: {run['failed']} of {run['attempted']} cell runs failed")
    for name, bound in bounds.items():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        moved = abs(y - x) / x
        flag = "FAIL" if moved > bound else "ok"
        print(f"{flag:4} {w:12} {name:14} {x:12.6g} -> {y:12.6g}  {moved:7.2%} (bound {bound:.0%})")
        if moved > bound:
            bad.append(f"{w}: {name} moved {moved:.2%}, bound {bound:.0%}")
if bad:
    print("\n".join(bad), file=sys.stderr)
    sys.exit(1)
print("benchhot repeatable: every end-to-end metric within its bound")
EOF
