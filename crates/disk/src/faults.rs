//! Fault injection: transient slowdowns and per-operation media errors.
//!
//! Real drives occasionally retry a read (thermal recalibration, ECC
//! retries, bad-sector remapping) and stall the operation for tens of
//! milliseconds. The paper's deadline-manager thread exists exactly for
//! such events ("executes the recovery action from a missed deadline");
//! injecting them exercises that path and the time-driven buffer's
//! tolerance. A **media error** is a harder failure: a specific operation
//! exhausts its retries and returns failure ([`FaultInjector::fail_at`]).
//! Whole-volume loss is not injected here; it is an explicit
//! `fail_volume` on the device's volume set.
//!
//! All faults are deterministic: a seeded PRNG decides transient stalls,
//! and media errors are scheduled by operation ordinal, so runs reproduce
//! bit for bit.

use std::collections::BTreeSet;

use cras_sim::{Duration, Rng};

/// What the injector decided for one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Extra positioning delay (retries); zero for a clean operation.
    pub delay: Duration,
    /// The operation fails with a media error after its retries.
    pub media_error: bool,
}

impl Fault {
    /// A clean operation: no delay, no error.
    pub const NONE: Fault = Fault {
        delay: Duration::ZERO,
        media_error: false,
    };
}

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
    ops_seen: u64,
    /// Operation ordinals (1-based, by [`FaultInjector::ops_seen`]) that
    /// return a media error.
    fail_ops: BTreeSet<u64>,
    media_errors: u64,
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
            ops_seen: 0,
            fail_ops: BTreeSet::new(),
            media_errors: 0,
        }
    }

    /// Schedules a media error on the `op_n`-th operation this injector
    /// sees (1-based). Idempotent per ordinal.
    pub fn fail_at(&mut self, op_n: u64) {
        self.fail_ops.insert(op_n);
    }

    /// Decides the fault outcome of the next operation.
    pub fn next_op(&mut self) -> Fault {
        self.ops_seen += 1;
        let mut f = Fault::NONE;
        if self.prob > 0.0 && self.rng.chance(self.prob) {
            self.injected += 1;
            f.delay = self.penalty;
        }
        if self.fail_ops.contains(&self.ops_seen) {
            self.media_errors += 1;
            // An error return still pays the retry penalty: the drive
            // retried before giving up.
            f.delay = self.penalty;
            f.media_error = true;
        }
        f
    }

    /// Decides the extra delay (possibly zero) for the next operation.
    ///
    /// Shorthand for [`FaultInjector::next_op`] when the caller only
    /// models transient stalls.
    pub fn sample(&mut self) -> Duration {
        self.next_op().delay
    }

    /// Operations that took the transient penalty.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Media errors returned.
    pub fn media_errors(&self) -> u64 {
        self.media_errors
    }

    /// Operations observed.
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_faults() {
        let mut f = FaultInjector::new(0.0, Duration::from_millis(25), 1);
        for _ in 0..1000 {
            assert_eq!(f.sample(), Duration::ZERO);
        }
        assert_eq!(f.injected(), 0);
        assert_eq!(f.ops_seen(), 1000);
    }

    #[test]
    fn certain_probability_always_faults() {
        let mut f = FaultInjector::new(1.0, Duration::from_millis(10), 2);
        for _ in 0..100 {
            assert_eq!(f.sample(), Duration::from_millis(10));
        }
        assert_eq!(f.injected(), 100);
    }

    #[test]
    fn rate_is_approximately_honoured() {
        let mut f = FaultInjector::new(0.05, Duration::from_millis(25), 3);
        for _ in 0..20_000 {
            f.sample();
        }
        let rate = f.injected() as f64 / f.ops_seen() as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut f = FaultInjector::new(0.1, Duration::from_millis(5), seed);
            (0..64).map(|_| f.sample().as_nanos()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "bad fault probability")]
    fn invalid_probability_panics() {
        FaultInjector::new(1.5, Duration::ZERO, 1);
    }

    #[test]
    fn scheduled_media_error_fires_once() {
        let mut f = FaultInjector::new(0.0, Duration::ZERO, 7);
        f.fail_at(3);
        let outcomes: Vec<Fault> = (0..5).map(|_| f.next_op()).collect();
        assert!(!outcomes[0].media_error && !outcomes[1].media_error);
        assert!(outcomes[2].media_error, "third op must fail");
        assert!(!outcomes[3].media_error && !outcomes[4].media_error);
        assert_eq!(f.media_errors(), 1);
        // No transient penalty configured, so the error costs no delay.
        assert_eq!(outcomes[2].delay, Duration::ZERO);
    }

    #[test]
    fn media_error_pays_retry_penalty() {
        let mut f = FaultInjector::new(0.0, Duration::from_millis(25), 7);
        f.fail_at(1);
        let o = f.next_op();
        assert!(o.media_error);
        assert_eq!(o.delay, Duration::from_millis(25));
    }
}
