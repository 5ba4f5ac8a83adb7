# Convenience targets for the CRAS reproduction.

.PHONY: all build test bench figures figures-quick fingerprints unused-pub loc examples clippy fmt clean

all: build

build:
	cargo build --workspace --release

test:
	cargo test --workspace

bench:
	cargo bench --workspace

# Regenerate every paper figure/table (rewrites the root BENCH_*.json
# baselines plus results/*.json); --quick writes only under results/.
figures:
	cargo run -p cras-bench --release --bin all

figures-quick:
	cargo run -p cras-bench --release --bin all -- --quick

# Run every perfbench workload on seeds 1 and 7 and diff each run's
# fingerprint and event count against tests/perfbench_fingerprints.txt.
fingerprints:
	@mkdir -p target
	@for s in 1 7; do for w in catalog_storm net_fanout degraded_rebuild; do \
	  cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
	    --workload $$w --seed $$s --seconds 1 --trace 0 > target/perfbench-run.txt 2> target/perfbench-run.err \
	    || { cat target/perfbench-run.err; echo "perfbench $$w seed $$s failed"; exit 1; }; \
	  sed -n 's/^workload \([a-z_]*\) seed \([0-9]*\) .* fingerprint \([0-9a-f]*\), \([0-9]*\) events$$/\1 \2 \3 \4/p' \
	    target/perfbench-run.txt; \
	done; done > target/perfbench-fingerprints.txt
	grep -v '^#' tests/perfbench_fingerprints.txt | diff -u - target/perfbench-fingerprints.txt

# List every `pub` item (fn, const fn, struct, enum, type, const, static,
# trait) under crates/ that no non-test code names and that is not on the
# script's commented allow-list; print nothing and succeed when there is
# none.
unused-pub:
	@sh scripts/unused-pub.sh

# Print each crate's non-test lines (every file above the `#[cfg(test)]`
# that opens its `mod tests`, or the whole file) and their total.
loc:
	@sh scripts/loc.sh

examples:
	cargo run --release --example quickstart
	cargo run --release --example movie_player
	cargo run --release --example qos_player
	cargo run --release --example admission_probe
	cargo run --release --example recorder
	cargo run --release --example fast_forward
	cargo run --release --example distributed_player

clippy:
	cargo clippy --workspace --all-targets

fmt:
	cargo fmt --all

clean:
	cargo clean
	rm -rf results
