#!/bin/sh
# The LOC ledger of ROADMAP item 13: lines before the first `#[cfg(test)]`
# of each .rs file under crates/<c>/src (binaries under src/bin too),
# summed per crate.
cd "$(dirname "$0")/.." || exit 1
for c in crates/*/; do
    find "$c"src -name '*.rs' | sort | xargs awk -v c="$(basename "$c")" '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print c, n }'
done | awk '{ print } /^(endpoint|service|net) / { sum += $2 } END { print "endpoint+service+net", sum }'
