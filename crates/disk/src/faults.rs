//! Fault injection: transient retry stalls.
//!
//! Real drives occasionally retry a read (thermal recalibration, ECC
//! retries, bad-sector remapping) and stall the operation for tens of
//! milliseconds. The paper's deadline-manager thread exists exactly for
//! such events ("executes the recovery action from a missed deadline");
//! injecting them exercises that path and the time-driven buffer's
//! tolerance. Whole-volume loss is not injected here; it is an explicit
//! `fail_volume` on the device's volume set.
//!
//! A seeded PRNG decides each stall, so runs reproduce bit for bit.

use cras_sim::{Duration, Rng};

/// A deterministic fault injector.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    /// Probability that an operation takes a retry penalty.
    prob: f64,
    /// Penalty added to a faulted operation (e.g. one or two extra
    /// revolutions plus recalibration).
    penalty: Duration,
    rng: Rng,
    injected: u64,
}

impl FaultInjector {
    /// Creates an injector.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    pub fn new(prob: f64, penalty: Duration, seed: u64) -> FaultInjector {
        assert!((0.0..=1.0).contains(&prob), "bad fault probability");
        FaultInjector {
            prob,
            penalty,
            rng: Rng::new(seed),
            injected: 0,
        }
    }

    /// Decides the extra delay (possibly zero) for the next operation.
    pub(crate) fn next_op(&mut self) -> Duration {
        if self.prob > 0.0 && self.rng.chance(self.prob) {
            self.injected += 1;
            return self.penalty;
        }
        Duration::ZERO
    }

    /// Operations that took the transient penalty.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_faults() {
        let mut f = FaultInjector::new(0.0, Duration::from_millis(25), 1);
        for _ in 0..1000 {
            assert_eq!(f.next_op(), Duration::ZERO);
        }
        assert_eq!(f.injected(), 0);
    }

    #[test]
    fn certain_probability_always_faults() {
        let mut f = FaultInjector::new(1.0, Duration::from_millis(10), 2);
        for _ in 0..100 {
            assert_eq!(f.next_op(), Duration::from_millis(10));
        }
        assert_eq!(f.injected(), 100);
    }

    #[test]
    fn rate_is_approximately_honoured() {
        let mut f = FaultInjector::new(0.05, Duration::from_millis(25), 3);
        let ops = 20_000;
        for _ in 0..ops {
            f.next_op();
        }
        let rate = f.injected() as f64 / ops as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut f = FaultInjector::new(0.1, Duration::from_millis(5), seed);
            (0..64).map(|_| f.next_op().as_nanos()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "bad fault probability")]
    fn invalid_probability_panics() {
        FaultInjector::new(1.5, Duration::ZERO, 1);
    }
}
