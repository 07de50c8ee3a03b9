#!/usr/bin/env bash
# Non-test sizes: for every crate under crates/, the lines of its src/
# files that come before each file's first `#[cfg(test)]`, and the public
# item declarations among them (`pub fn|struct|enum|const|static|trait|
# type|mod|use` at the start of a line, plus `#[macro_export]`;
# `pub(crate)` and public fields do not count), then the totals. ROADMAP
# size gates and CHANGES entries quote these numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
total_pub=0
printf '%-8s %6s %6s\n' crate lines pub
for crate in crates/*/; do
  counts=$(find "$crate/src" -name '*.rs' -exec awk '
    /#\[cfg\(test\)\]/ { nextfile }
    { n++ }
    /^[[:space:]]*pub (fn|struct|enum|const|static|trait|type|mod|use)[[:space:]]/ { p++ }
    /#\[macro_export\]/ { p++ }
    END { print n + 0, p + 0 }' {} +)
  read -r lines pubs <<< "$counts"
  printf '%-8s %6d %6d\n' "$(basename "$crate")" "$lines" "$pubs"
  total=$((total + lines))
  total_pub=$((total_pub + pubs))
done
printf '%-8s %6d %6d\n' total "$total" "$total_pub"
