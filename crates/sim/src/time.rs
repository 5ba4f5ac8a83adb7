//! Virtual time: [`Instant`] and [`Duration`] newtypes with nanosecond
//! resolution.
//!
//! The paper measures with an AM9513 timer board "with accuracy to the
//! nearest 1 micro second"; the simulation keeps nanoseconds internally so
//! that rounding never perturbs event ordering, and exposes µs/ms/s
//! constructors for the paper's parameters.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Number of nanoseconds in one microsecond.
pub(crate) const NANOS_PER_MICRO: u64 = 1_000;
/// Number of nanoseconds in one millisecond.
pub(crate) const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds in one second.
pub(crate) const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A span of virtual time, in integer nanoseconds.
///
/// `Duration` is `Copy`, totally ordered, and supports saturating-free
/// checked-by-construction arithmetic: additions that would overflow `u64`
/// nanoseconds panic, which at ~584 years of simulated time is treated as a
/// logic error rather than a recoverable condition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration (used as an "infinite" sentinel).
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Creates a duration from integer microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * NANOS_PER_MICRO)
    }

    /// Creates a duration from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * NANOS_PER_MILLI)
    }

    /// Creates a duration from integer seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Duration {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Returns the duration as integer nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero rather than wrapping.
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by an integer factor.
    pub const fn mul_u64(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }

    /// Scales the duration by a non-negative float, rounding to nanoseconds.
    pub fn mul_f64(self, k: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("Duration overflow"))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("Duration underflow"))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.checked_mul(rhs).expect("Duration overflow"))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = u64;
    /// Integer division of two durations: how many `rhs` fit in `self`.
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// A point in virtual time, measured from simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The simulation epoch (t = 0).
    pub const ZERO: Instant = Instant(0);
    /// The farthest representable instant.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Creates an instant at `ns` nanoseconds after the epoch.
    pub const fn from_nanos(ns: u64) -> Instant {
        Instant(ns)
    }

    /// Creates an instant at fractional seconds after the epoch.
    pub fn from_secs_f64(s: f64) -> Instant {
        Instant(Duration::from_secs_f64(s).as_nanos())
    }

    /// Returns nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; use
    /// [`Instant::saturating_since`] for a clamping variant.
    pub fn since(self, earlier: Instant) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("Instant::since: earlier is in the future"),
        )
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    pub const fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(
            self.0
                .checked_add(rhs.as_nanos())
                .expect("Instant overflow"),
        )
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(
            self.0
                .checked_sub(rhs.as_nanos())
                .expect("Instant underflow"),
        )
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", format_ns(self.0))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Formats a nanosecond count with a human-readable unit.
fn format_ns(ns: u64) -> String {
    if ns == 0 {
        "0s".to_string()
    } else if ns < NANOS_PER_MICRO {
        format!("{ns}ns")
    } else if ns < NANOS_PER_MILLI {
        format!("{:.3}us", ns as f64 / NANOS_PER_MICRO as f64)
    } else if ns < NANOS_PER_SEC {
        format!("{:.3}ms", ns as f64 / NANOS_PER_MILLI as f64)
    } else {
        format!("{:.6}s", ns as f64 / NANOS_PER_SEC as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn duration_f64_roundtrip() {
        let d = Duration::from_secs_f64(1.234567891);
        assert!((d.as_secs_f64() - 1.234567891).abs() < 1e-9);
    }

    #[test]
    fn duration_from_f64_clamps_bad_input() {
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NEG_INFINITY), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(10);
        let b = Duration::from_millis(4);
        assert_eq!(a + b, Duration::from_millis(14));
        assert_eq!(a - b, Duration::from_millis(6));
        assert_eq!(a * 3, Duration::from_millis(30));
        assert_eq!(a / 2, Duration::from_millis(5));
        assert_eq!(a / b, 2);
        assert_eq!(a % b, Duration::from_millis(2));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = Duration::from_millis(1) - Duration::from_millis(2);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant::ZERO;
        let t1 = t0 + Duration::from_secs(2);
        assert_eq!(t1.since(t0), Duration::from_secs(2));
        assert_eq!(t1 - t0, Duration::from_secs(2));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
        assert_eq!(t1 - Duration::from_secs(1), t0 + Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn instant_since_future_panics() {
        let t0 = Instant::ZERO;
        let t1 = t0 + Duration::from_secs(1);
        let _ = t0.since(t1);
    }

    mod properties {
        use super::*;
        use crate::rng::Rng;

        /// Duration add/sub round-trips.
        #[test]
        fn add_sub_roundtrip() {
            let mut rng = Rng::new(0xADD5);
            for _ in 0..1000 {
                let da = Duration::from_nanos(rng.below(u64::MAX / 4));
                let db = Duration::from_nanos(rng.below(u64::MAX / 4));
                assert_eq!((da + db) - db, da);
                assert_eq!((da + db).saturating_sub(da), db);
            }
        }

        /// f64 conversion round-trips within a nanosecond per second
        /// of magnitude.
        #[test]
        fn f64_roundtrip() {
            let mut rng = Rng::new(0xF64);
            for _ in 0..1000 {
                let ns = rng.below(1u64 << 53);
                let d = Duration::from_nanos(ns);
                let back = Duration::from_secs_f64(d.as_secs_f64());
                let err = back.as_nanos().abs_diff(ns);
                assert!(err <= 1 + ns / 1_000_000_000, "err {err}");
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", Duration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Duration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Duration::from_secs(5)), "5.000000s");
        assert_eq!(format!("{}", Duration::ZERO), "0s");
    }
}
