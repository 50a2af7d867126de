#!/usr/bin/env bash
# Non-test source lines, per file and per crate.
#
# Each crates/<crate>/src/**/*.rs counts up to (not including) its first
# `#[cfg(test)]` attribute at column 0, so in-file test modules drop out
# while a doc comment that mentions the attribute does not end the count;
# tests/, benches and examples are not counted at all. Blank and comment
# lines count.
#
# Usage: scripts/loc.sh [CRATE...]    (default: every crate under crates/)
#        scripts/loc.sh ff-device ff-profile ff-policy ff-sim
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if ((${#crates[@]} == 0)); then
    for dir in crates/*/; do
        crates+=("$(basename "$dir")")
    done
fi

total=0
for crate in "${crates[@]}"; do
    if [[ ! -d "crates/$crate/src" ]]; then
        echo "loc.sh: no crate named $crate" >&2
        exit 2
    fi
    sum=0
    while IFS= read -r file; do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        printf '%7d  %s\n' "$n" "$file"
        sum=$((sum + n))
    done < <(find "crates/$crate/src" -name '*.rs' | LC_ALL=C sort)
    printf '%7d  %s (crate)\n\n' "$sum" "$crate"
    total=$((total + sum))
done
printf '%7d  total\n' "$total"
