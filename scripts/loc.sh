#!/bin/sh
# Prints the non-test lines of each crate under crates/, then their
# total. A file's non-test lines are the lines above the `#[cfg(test)]`
# that opens its `mod tests` (attributes between the two, such as an
# `#[allow(...)]`, belong to the module), or the whole file when it has
# no such module. `#[cfg(test)]` items above the module (helpers,
# test-only methods) count as non-test lines: the rule marks where the
# tests start, not every gated item.
#
# Run from the repository root: `make loc`.
set -eu

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | sort |
        while read -r f; do
            awk '
                /^#\[cfg\(test\)\]/ { if (!cfg) cfg = NR; next }
                /^#\[/ { next }
                /^mod tests \{/ { if (cfg) { print cfg - 1; found = 1; exit } }
                { cfg = 0 }
                END { if (!found) print NR }
            ' "$f"
        done | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
