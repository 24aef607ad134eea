#!/bin/sh
# Audit companion to loc-report.sh: per product source tree, the `pub fn`s
# whose name is used nowhere in non-test code — every caller, if there is
# one, sits in a `#[cfg(test)]` module or a `tests/` directory. Candidates
# for deletion, not verdicts: matching is by bare name (a function that
# shares its name with any other used item is never listed), whole-line
# comments are ignored, and the benchmark, the harness crates and the
# examples count as callers. Always exits 0; CI's size report fails when
# the number of names listed grows past the count it records (a ratchet).
# Usage: scripts/unused-pub.sh [PATH...]   (default: the product crates)
set -eu
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/mdw-rdf/src crates/mdw-reason/src crates/mdw-sparql/src \
    crates/mdw-core/src crates/mdw-serve/src src/bin/mdwh.rs

# Non-test, non-comment lines of every .rs file under the given paths, each
# file up to its first top-level `#[cfg(test)]` (the loc-report.sh recipe).
live() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -exec awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*\/\// { print }' {} +
}

uses=$(mktemp)
trap 'rm -f "$uses"' EXIT
# Every identifier in non-test code that is not the name in a `fn` item.
live crates src examples bench/src | awk '
    { gsub(/fn [A-Za-z_][A-Za-z0-9_]*/, "fn")
      n = split($0, words, /[^A-Za-z0-9_]+/)
      for (i = 1; i <= n; i++) if (words[i] != "") seen[words[i]] = 1 }
    END { for (w in seen) print w }' > "$uses"

printf '%-24s %s\n' path 'pub fns with no non-test caller'
for path in "$@"; do
    live "$path" |
        sed -nE 's/^[[:space:]]*pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' |
        sort -u |
        grep -vxFf "$uses" |
        tr '\n' ' ' |
        { read -r names || true; printf '%-24s %s\n' "$path" "${names:--}"; }
done
