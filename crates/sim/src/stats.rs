//! Measurement collection: online summary statistics, percentile samples
//! and time series.
//!
//! These are the building blocks for the paper's reported quantities:
//! throughput (bytes over a window), per-frame delay traces (Figures 7/10),
//! and the average/maximum admission-accuracy ratios (Figures 8/9).

use crate::time::Instant;

/// Online mean/max accumulator.
#[derive(Clone, Debug)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats {
            n: 0,
            mean: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        if x > self.max {
            self.max = x;
        }
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Maximum observation, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl Default for OnlineStats {
    fn default() -> OnlineStats {
        OnlineStats::new()
    }
}

/// A full-sample reservoir for exact percentiles (fine for the sizes the
/// experiments produce: at most a few million f64s).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Exact percentile `p` in [0, 100] by nearest-rank; 0 if empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.values.len() - 1) as f64).round() as usize;
        self.values[rank]
    }
}

/// A `(time, value)` trace, e.g. per-frame delay over a run (Fig 7/10).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(Instant, f64)>,
}

impl TimeSeries {
    /// Appends a point; times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous point.
    pub fn push(&mut self, t: Instant, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "TimeSeries: non-monotone time");
        }
        self.points.push((t, v));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(Instant, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_is_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn samples_percentiles() {
        let mut s = Samples::new();
        for i in (1..=100).rev() {
            s.add(i as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert!((s.percentile(50.0) - 50.0).abs() <= 1.0);
    }

    #[test]
    fn samples_empty() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn time_series_keeps_points_in_order() {
        let mut ts = TimeSeries::default();
        for i in 0..100u64 {
            ts.push(Instant::from_nanos(i * 1000), i as f64);
        }
        assert_eq!(ts.points().len(), 100);
        assert_eq!(ts.points()[99], (Instant::from_nanos(99_000), 99.0));
    }

    #[test]
    fn online_stats_default_is_empty() {
        let mut s = OnlineStats::default();
        s.add(-1.0);
        assert_eq!((s.mean(), s.max()), (-1.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn time_series_rejects_backwards_time() {
        let mut ts = TimeSeries::default();
        ts.push(Instant::from_nanos(10), 1.0);
        ts.push(Instant::from_nanos(5), 2.0);
    }
}
