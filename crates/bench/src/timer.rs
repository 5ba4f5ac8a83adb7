//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds with no third-party crates, so the `benches/`
//! targets (declared with `harness = false`) use this instead of
//! Criterion: each benchmark warms up once, then runs batches until a
//! small time budget is spent and reports the mean iteration time.

use std::time::{Duration, Instant};

/// Per-benchmark time budget after warm-up.
const BUDGET: Duration = Duration::from_millis(200);

/// Runs `f` repeatedly for about 200 ms (`BUDGET`) and prints the mean
/// iteration time as one aligned row.
pub fn bench<F: FnMut()>(name: &str, mut f: F) {
    f(); // Warm-up (also surfaces panics before timing starts).
    let start = Instant::now();
    let mut iters = 0u64;
    let mut batch = 1u64;
    while start.elapsed() < BUDGET {
        for _ in 0..batch {
            f();
        }
        iters += batch;
        // Grow batches so cheap closures are not dominated by the clock.
        batch = batch.saturating_mul(2).min(4096);
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<45} {:>12}  ({iters} iters)", fmt_time(per_iter));
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fmt_time_picks_unit() {
        assert_eq!(super::fmt_time(5e-9), "5.0 ns");
        assert_eq!(super::fmt_time(5e-6), "5.00 us");
        assert_eq!(super::fmt_time(5e-3), "5.00 ms");
        assert_eq!(super::fmt_time(5.0), "5.000 s");
    }
}
