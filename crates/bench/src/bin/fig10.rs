//! Regenerates Figure 10: fixed priority vs round robin under CPU load.
//!
//! ```text
//! cargo run --release -p cras-bench --bin fig10 [-- --quick] [-- --check [--strict]]
//! ```
//!
//! With `--check`, the run is compared against the committed
//! `BENCH_fig10.json` at the repo root (written by the `all` binary,
//! whose full run uses this binary's configuration) instead of writing
//! `results/fig10.json`. The figure is the paper's evidence for the
//! Real-Time Mach scheduler, so any change to the CPU model shows up
//! here first. Adding `--strict` turns drift past ±20% into a nonzero
//! exit.

use cras_bench::{check_bench, check_mode, quick_mode, strict_mode, write_result};
use cras_sim::Duration;
use cras_workload::fig10::{run, Fig10Config};

fn main() {
    let quick = quick_mode();
    let cfg = if quick {
        Fig10Config {
            trace: Duration::from_secs(15),
            ..Fig10Config::default()
        }
    } else {
        Fig10Config::default()
    };
    let (fig, fp, rr) = run(&cfg);
    println!("{}", fig.render());
    println!("# FixedPriority delay: mean {:.4}s max {:.4}s", fp.0, fp.1);
    println!("# RoundRobin    delay: mean {:.4}s max {:.4}s", rr.0, rr.1);
    if check_mode() {
        if !check_bench("fig10", &fig.to_json(), quick) && strict_mode() {
            std::process::exit(1);
        }
        return;
    }
    write_result("fig10", &fig.to_json());
}
