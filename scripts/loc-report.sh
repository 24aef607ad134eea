#!/bin/sh
# Size report every simplicity PR quotes: per source tree, the public-item
# count and the non-test, non-comment line count (each file up to its first top-level
# `#[cfg(test)]`, minus blank lines and `//` comment lines).
# Usage: scripts/loc-report.sh [PATH...]   (default: the product crates)
set -eu
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/mdw-rdf/src crates/mdw-reason/src crates/mdw-sparql/src \
    crates/mdw-core/src crates/mdw-serve/src src/bin/mdwh.rs
printf '%-24s %8s %8s\n' path pub-items loc
total=0
for path in "$@"; do
    items=$(grep -rhE '^\s*pub (fn|struct|enum|trait|const|type|mod)' --include='*.rs' "$path" | wc -l)
    loc=$(find "$path" -name '*.rs' -exec awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }' {} +)
    printf '%-24s %8d %8d\n' "$path" "$items" "$loc"
    total=$((total + loc))
done
printf '%-24s %8s %8d\n' total '' "$total"
