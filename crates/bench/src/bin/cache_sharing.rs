//! Regenerates the interval-cache sharing experiment.
//!
//! ```text
//! cargo run --release -p cras-bench --bin cache_sharing [-- --quick] [-- --check [--strict]]
//! ```
//!
//! With `--check`, both artifacts are compared against the committed
//! `BENCH_cache_sharing.json` and `BENCH_cache_sharing_admitted.json`
//! (written by `--bin all`, whose configuration this full run shares)
//! instead of being rewritten. Adding `--strict` turns drift past ±20%
//! into a nonzero exit.

use cras_bench::{check_bench, check_mode, quick_mode, strict_mode, write_result};
use cras_sim::Duration;
use cras_workload::cache_sharing::sweep;

fn main() {
    let quick = quick_mode();
    let budgets: &[u64] = if quick {
        &[0, 64 << 20]
    } else {
        &[0, 16 << 20, 32 << 20, 64 << 20, 128 << 20]
    };
    let (requested, measure) = if quick {
        (24, Duration::from_secs(10))
    } else {
        (30, Duration::from_secs(20))
    };
    let (t, f, outs) = sweep(
        budgets,
        requested,
        10,
        Duration::from_millis(1500),
        measure,
        0xCA5E,
    );
    println!("{}", t.render());
    println!("{}", f.render());
    let artifacts = [
        ("cache_sharing", t.to_json()),
        ("cache_sharing_admitted", f.to_json()),
    ];
    if check_mode() {
        let drifted = artifacts
            .iter()
            .filter(|(name, json)| !check_bench(name, json, quick))
            .count();
        if drifted > 0 && strict_mode() {
            std::process::exit(1);
        }
    } else {
        for (name, json) in &artifacts {
            write_result(name, json);
        }
    }
    // Smoke contract for CI: the cache admitted extra viewers and every
    // admitted stream kept every deadline.
    let base = outs.first().expect("budget 0 ran");
    let best = outs.last().expect("budgeted run");
    assert_eq!(base.cache_admitted, 0, "budget 0 must be the baseline");
    assert!(
        best.cache_admitted > 0 && best.admitted > base.admitted,
        "cache never admitted past the disk bound: {outs:?}"
    );
    assert!(
        outs.iter().all(|o| o.dropped == 0 && o.overruns == 0),
        "deadline violations: {outs:?}"
    );
}
