//! Measurement collection: online summary statistics, percentile samples,
//! fixed-bin histograms, time series and time-weighted averages.
//!
//! These are the building blocks for the paper's reported quantities:
//! throughput (bytes over a window), per-frame delay traces (Figures 7/10),
//! and the average/maximum admission-accuracy ratios (Figures 8/9).

use crate::time::{Duration, Instant};

/// Online mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 if fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
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

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
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

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Mean of the sample, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum, or 0 if empty.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Read-only view of the raw values (insertion order not preserved
    /// after a percentile query).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `nbins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `nbins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Histogram {
        assert!(nbins > 0, "Histogram: zero bins");
        assert!(lo < hi, "Histogram: empty range");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of observations, including out-of-range ones.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Counts per bin.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// A `(time, value)` trace, e.g. per-frame delay over a run (Fig 7/10).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(Instant, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

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

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Summary statistics over the values.
    pub fn summary(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &(_, v) in &self.points {
            s.add(v);
        }
        s
    }
}

/// Time-weighted average of a piecewise-constant quantity (e.g. buffer
/// occupancy, disk-queue depth).
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_t: Instant,
    last_v: f64,
    weighted_sum: f64,
    total: Duration,
    max: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        TimeWeighted::new()
    }
}

impl TimeWeighted {
    /// Creates an empty accumulator.
    pub fn new() -> TimeWeighted {
        TimeWeighted {
            last_t: Instant::ZERO,
            last_v: 0.0,
            weighted_sum: 0.0,
            total: Duration::ZERO,
            max: 0.0,
            started: false,
        }
    }

    /// Records that the quantity changed to `v` at time `t`.
    pub fn set(&mut self, t: Instant, v: f64) {
        if self.started {
            let dt = t.saturating_since(self.last_t);
            self.weighted_sum += self.last_v * dt.as_secs_f64();
            self.total += dt;
        }
        self.started = true;
        self.last_t = t;
        self.last_v = v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Closes the interval at `t` and returns the time-weighted mean.
    pub fn finish(&mut self, t: Instant) -> f64 {
        self.set(t, self.last_v);
        if self.total.is_zero() {
            self.last_v
        } else {
            self.weighted_sum / self.total.as_secs_f64()
        }
    }

    /// Maximum value observed.
    pub fn max(&self) -> f64 {
        self.max
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
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_is_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn samples_percentiles() {
        let mut s = Samples::new();
        for i in (1..=100).rev() {
            s.add(i as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert!((s.median() - 50.0).abs() <= 1.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn samples_empty() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.9, -1.0, 10.0, 11.0] {
            h.add(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn time_series_summary() {
        let mut ts = TimeSeries::new();
        for i in 0..100u64 {
            ts.push(Instant::from_nanos(i * 1000), i as f64);
        }
        assert_eq!(ts.len(), 100);
        let s = ts.summary();
        assert!((s.mean() - 49.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn time_series_rejects_backwards_time() {
        let mut ts = TimeSeries::new();
        ts.push(Instant::from_nanos(10), 1.0);
        ts.push(Instant::from_nanos(5), 2.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.set(Instant::ZERO, 1.0);
        tw.set(Instant::from_secs_f64(1.0), 3.0);
        // 1.0 for 1s, then 3.0 for 1s => mean 2.0.
        let mean = tw.finish(Instant::from_secs_f64(2.0));
        assert!((mean - 2.0).abs() < 1e-9);
        assert_eq!(tw.max(), 3.0);
    }

    #[test]
    fn time_weighted_zero_span() {
        let mut tw = TimeWeighted::new();
        tw.set(Instant::ZERO, 5.0);
        let mean = tw.finish(Instant::ZERO);
        assert_eq!(mean, 5.0);
    }
}
