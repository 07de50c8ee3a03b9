#!/usr/bin/env bash
# Non-test line counts: for every crate under crates/, the lines of its
# src/ files that come before each file's first `#[cfg(test)]`, then the
# total. ROADMAP size gates and CHANGES entries quote these numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
  lines=$(find "$crate/src" -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} +)
  printf '%-8s %6d\n' "$(basename "$crate")" "$lines"
  total=$((total + lines))
done
printf '%-8s %6d\n' total "$total"
