//! Regenerates the rotating-parity failover experiment.
//!
//! ```text
//! cargo run --release -p cras-bench --bin parity_failover [-- --quick] [-- --check [--strict]]
//! ```
//!
//! With `--check`, both artifacts are compared against the committed
//! `BENCH_parity_failover.json` and `BENCH_parity_failover_rebuild.json` (written by
//! `--bin all`) instead of being rewritten. Adding `--strict` turns
//! drift past ±20% into a nonzero exit.

use cras_bench::{check_bench, check_mode, quick_mode, strict_mode, write_result};
use cras_sim::Duration;
use cras_workload::parity_failover::sweep;

fn main() {
    let quick = quick_mode();
    let (counts, measure): (&[usize], Duration) = if quick {
        (&[2, 4], Duration::from_secs(10))
    } else {
        (&[2, 4, 8, 12], Duration::from_secs(20))
    };
    let (t, f, _outs) = sweep(counts, 4, measure, 0x9417);
    println!("{}", t.render());
    println!("{}", f.render());
    let artifacts = [
        ("parity_failover", t.to_json()),
        ("parity_failover_rebuild", f.to_json()),
    ];
    if check_mode() {
        let drifted = artifacts
            .iter()
            .filter(|(name, json)| !check_bench(name, json, quick))
            .count();
        if drifted > 0 && strict_mode() {
            std::process::exit(1);
        }
        return;
    }
    for (name, json) in &artifacts {
        write_result(name, json);
    }
}
