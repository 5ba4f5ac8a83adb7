#!/bin/sh
# Runs perfbench on a parent revision and on the working tree in
# alternating pairs and compares three end-to-end metrics.
#
#   scripts/perf-pairs.sh <parent-rev> <workload> <seed> <pairs>
#
# The parent's source is exported with `git archive` into
# target/perf-pairs/<rev>/ and its perfbench is built there with its own
# target dir; the working tree's perfbench builds as usual. Pair i runs
# both binaries back to back, the parent first in odd pairs and the
# change first in even ones, each with `--trace 0` and the `run_seconds`
# of BENCHMARK.json. For sim_speed, setup_s and peak_rss_mb it prints
# each side's median and q1-q3 and how many pairs the change won (higher
# sim_speed, lower setup_s and peak_rss_mb). Every run's fingerprint
# must match its partner's, and a run whose fingerprint or metrics cannot
# be read stops the script; either exits 1.
#
# Run from the repository root: `make pairs PARENT=<rev> WORKLOAD=<name>
# SEED=<n> PAIRS=<n>`. It is a measuring tool, not a CI gate; it starts
# no background process and removes the exported tree when it exits.
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <seed> <pairs>" >&2
    exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\),*$/\1/p' BENCHMARK.json)
if [ -z "$seconds" ]; then
    echo "no run_seconds in BENCHMARK.json" >&2
    exit 1
fi

sha=$(git rev-parse --short "$rev^{commit}")
root=target/perf-pairs
src=$root/$sha
out=$root/runs-$sha-$workload-$seed.txt
trap 'rm -rf "$src"' EXIT INT TERM

rm -rf "$src"
mkdir -p "$src"
git archive "$sha" | tar -x -C "$src"
echo "building perfbench at $sha and in the working tree" >&2
CARGO_TARGET_DIR=$root/target-parent \
    cargo build -q --release --offline --manifest-path "$src/perfbench/Cargo.toml"
cargo build -q --release --offline --manifest-path perfbench/Cargo.toml
parent_bin=$root/target-parent/release/perfbench
change_bin=perfbench/target/release/perfbench

unreadable() {
    echo "perfbench ($1): no $2 in its output" >&2
    cat "$root/run.out" >&2
    exit 1
}

# One run: prints "<side> <pair> <fingerprint> <sim_speed> <setup_s> <peak_rss_mb>".
run() {
    side=$1 pair=$2 bin=$3
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "$root/run.out" 2> "$root/run.err" || {
        cat "$root/run.err" >&2
        echo "perfbench ($side) failed" >&2
        exit 1
    }
    fp=$(sed -n 's/^workload .* fingerprint \([0-9a-f][0-9a-f]*\), .*/\1/p' "$root/run.out")
    [ -n "$fp" ] || unreadable "$side" fingerprint
    json=$(tail -n 1 "$root/run.out")
    vals=""
    for m in sim_speed setup_s peak_rss_mb; do
        v=$(printf '%s\n' "$json" | sed -n "s/.*\"$m\": {\"value\": \([^,]*\),.*/\1/p")
        [ -n "$v" ] || unreadable "$side" "$m"
        vals="$vals $v"
    done
    echo "$side $pair $fp$vals"
    echo "pair $pair $side:$vals" >&2
}

: > "$out"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i" "$parent_bin" >> "$out"
        run change "$i" "$change_bin" >> "$out"
    else
        run change "$i" "$change_bin" >> "$out"
        run parent "$i" "$parent_bin" >> "$out"
    fi
    i=$((i + 1))
done
rm -f "$root/run.out" "$root/run.err"

echo "workload $workload seed $seed, $pairs pairs, parent $sha vs working tree"
awk '
    function sortv(a, n,   i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Linear interpolation between closest ranks of sorted a[1..n].
    function pct(a, n, p,   h, l) {
        h = (n - 1) * p + 1
        l = int(h)
        return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
    }
    {
        side = $1; pair = $2; fp[side, pair] = $3
        for (k = 1; k <= 3; k++) v[side, pair, k] = $(3 + k)
        if (pair > n) n = pair
    }
    END {
        split("sim_speed setup_s peak_rss_mb", name, " ")
        split("1 -1 -1", dir, " ")
        for (i = 1; i <= n; i++)
            if (fp["parent", i] != fp["change", i]) {
                printf "pair %d: fingerprint %s (parent) != %s (change)\n", i, fp["parent", i], fp["change", i]
                bad = 1
            }
        printf "%-12s %-28s %-28s %s\n", "metric", "parent median [q1-q3]", "change median [q1-q3]", "won"
        for (k = 1; k <= 3; k++) {
            won = 0
            for (i = 1; i <= n; i++) {
                p[i] = v["parent", i, k]; c[i] = v["change", i, k]
                won += (dir[k] * (c[i] - p[i]) > 0)
            }
            sortv(p, n); sortv(c, n)
            printf "%-12s %-28s %-28s %d/%d\n", name[k],
                sprintf("%.4g [%.4g-%.4g]", pct(p, n, 0.5), pct(p, n, 0.25), pct(p, n, 0.75)),
                sprintf("%.4g [%.4g-%.4g]", pct(c, n, 0.5), pct(c, n, 0.25), pct(c, n, 0.75)),
                won, n
        }
        exit bad
    }
' "$out"
