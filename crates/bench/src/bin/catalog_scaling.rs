//! Regenerates the catalog-scaling experiment (DESIGN §16): a fixed
//! 2-shard × 2-volume cluster, a 64-title Zipf(1) catalog, the viewer
//! count swept three orders of magnitude. Admitted viewers must keep
//! growing while the peak disk-charged stream count stays pinned near
//! the measured spindle bound — the popularity-aware cache manager
//! (prefix residency, batched joins, interval chaining, gateway retry
//! queue) carries the difference in memory.
//!
//! ```text
//! cargo run --release -p cras-bench --bin catalog_scaling [-- --quick] [-- --check [--strict]]
//! ```
//!
//! With `--check`, the run is compared against the committed
//! `BENCH_catalog_scaling.json` at the repo root: numeric fields are
//! compared pairwise and drift past ±20% prints a `WARN` line. Adding
//! `--strict` turns that drift into a nonzero exit.

use cras_bench::{check_bench, check_mode, quick_mode, strict_mode, write_bench};
use cras_workload::catalog_scaling::{bench_shape, points_json, spindle_bound, sweep};

fn main() {
    let quick = quick_mode();
    let check = check_mode();
    let (p, counts) = bench_shape(quick);
    let bound = spindle_bound(&p);
    let (t, f, outs) = sweep(&p, &counts);
    println!("{}", t.render());
    println!("{}", f.render());

    let json = points_json(bound, &outs);
    if check {
        if !check_bench("catalog_scaling", &json, quick) && strict_mode() {
            std::process::exit(1);
        }
        return;
    }

    // The experiment's acceptance bar, enforced on regeneration.
    let first = outs.first().expect("sweep is nonempty");
    let last = outs.last().expect("sweep is nonempty");
    for o in &outs {
        assert_eq!(o.dropped, 0, "dropped frames at {} viewers", o.requested);
        assert!(
            o.peak_disk_streams as f64 <= 1.2 * bound as f64,
            "disk streams past the spindle bound at {} viewers",
            o.requested
        );
    }
    assert!(
        last.admitted as f64 >= 5.0 * first.admitted as f64,
        "admitted viewers failed to grow 5x: {} -> {}",
        first.admitted,
        last.admitted
    );
    assert!(
        (last.peak_disk_streams as f64) >= 0.8 * bound as f64,
        "the sweep never loaded the spindles: peak {} vs bound {bound}",
        last.peak_disk_streams
    );
    write_bench("catalog_scaling", &json, quick);
}
