# Convenience targets for the CRAS reproduction.

.PHONY: all build test bench figures figures-quick examples clippy fmt clean

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
