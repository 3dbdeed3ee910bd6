#!/usr/bin/env bash
# Non-test line count of the library and binary sources.
#
#   scripts/loc.sh
#
# Counts every line of every `crates/*/src/**/*.rs` file up to (not
# including) the file's first `#[cfg(test)]`: the rule the ROADMAP's
# line targets are measured by. Prints one line per crate and the
# total.

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate="${dir#crates/}"
    crate="${crate%/src}"
    n=$(find "$dir" -name '*.rs' -print0 | sort -z \
        | xargs -0 awk 'FNR == 1 { cut = 0 } /#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
