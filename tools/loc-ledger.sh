#!/bin/sh
# The LOC ledger of ROADMAP item 11: lines before the first `#[cfg(test)]`
# of each crates/<c>/src/*.rs, summed per crate.
cd "$(dirname "$0")/.." || exit 1
for c in crates/*/; do
    awk -v c="$(basename "$c")" '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print c, n }' "$c"src/*.rs
done | awk '{ print } /^(endpoint|service|net) / { sum += $2 } END { print "endpoint+service+net", sum }'
