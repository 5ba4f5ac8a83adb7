//! The reference kernel: a fixed piece of memory-bound work whose host
//! time tracks the speed of the host's memory hierarchy at that moment.
//!
//! On a shared host the speed of cached memory changes by up to 1.5×
//! within seconds (another tenant on the same core or last-level cache),
//! while a pure arithmetic loop keeps its speed. The workloads run the
//! kernel between their steps, so it samples the same host state as the
//! step beside it, and the benchmark scales each run's host time by the
//! kernel's measured time over its nominal time.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one call takes at nominal speed: about its median on the
/// 2-vCPU Xeon VM the bounds were set on. It only scales the normalised
/// metrics.
pub const NOMINAL_S: f64 = 50e-6;

/// Read-modify-writes per buffer per call.
const ACCESSES: usize = 1500;

/// A 1 MiB and a 16 MiB buffer of words: one mostly in a core's own
/// cache, one in the shared last-level cache.
const WORDS: [usize; 2] = [1 << 17, 1 << 21];

thread_local! {
    static BUFFERS: RefCell<[Vec<u64>; 2]> =
        RefCell::new(WORDS.map(|n| vec![1u64; n]));
}

/// [`ACCESSES`] pseudo-random read-modify-writes on `v`, continuing the
/// walk from where the last call on `v` stopped (kept in `v[0]`).
fn walk(v: &mut [u64]) -> u64 {
    let len = v.len();
    let mut i = v[0] as usize % len;
    let mut sum = 0u64;
    for _ in 0..ACCESSES {
        i = i
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
            % len;
        sum = sum.wrapping_add(v[i]);
        v[i] = sum;
    }
    v[0] = i as u64;
    sum
}

/// Runs the kernel once and returns its host seconds.
pub fn call() -> f64 {
    BUFFERS.with(|b| {
        let mut b = b.borrow_mut();
        let t = Instant::now();
        let [small, large] = &mut *b;
        black_box(walk(small) ^ walk(large));
        t.elapsed().as_secs_f64()
    })
}

/// Runs the kernel `n` times and returns the mean host seconds per call.
pub fn mean_call(n: usize) -> f64 {
    (0..n).map(|_| call()).sum::<f64>() / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_take_time_and_continue_the_walk() {
        let before = BUFFERS.with(|b| b.borrow()[1][0]);
        assert!(call() > 0.0);
        assert!(mean_call(3) > 0.0);
        let after = BUFFERS.with(|b| b.borrow()[1][0]);
        assert_ne!(before, after);
    }

    #[test]
    fn walk_stays_in_bounds() {
        let mut v = vec![u64::MAX; 8];
        walk(&mut v);
        assert!((v[0] as usize) < v.len());
    }
}
