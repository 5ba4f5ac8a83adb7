//! Small numeric helpers: percentiles, quartiles, the `VmHWM` parser and
//! the fingerprint hash.

/// Percentiles the tail report may pick from, lowest first.
const TAIL_LADDER: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it may be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.5).
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// Nearest-rank percentile of sorted samples: the smallest value with at
/// least `pct` percent of the samples at or below it. Returns the value
/// and how many samples lie beyond its rank.
fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// Median of the samples (nearest rank); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile on the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With too few samples for even
/// the median to qualify, reports the median with what it has.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mut best = None;
    for pct in TAIL_LADDER {
        let (value, beyond) = nearest_rank(&v, pct);
        if beyond >= TAIL_MIN_BEYOND || best.is_none() {
            best = Some(Tail {
                pct,
                value,
                beyond,
                samples: v.len(),
            });
        }
    }
    best
}

/// Nearest-rank percentile of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, pct).0
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// computes them (the default "exclusive" method). Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = samples.len();
    if ld < 2 {
        return None;
    }
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let m = ld + 1;
    let n = 4;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
    };
    Some((q(1), q(2), q(3)))
}

/// Peak resident set size in kB from the text of `/proc/<pid>/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// This process's peak resident set size in MB, read at call time.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// FNV-1a over a byte stream: the run fingerprint.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hash.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes `bytes` in.
    pub fn add(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes a number in.
    pub fn add_u64(&mut self, x: u64) -> &mut Fnv {
        self.add(&x.to_le_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=2400).map(f64::from).collect();
        let t = tail(&v).expect("samples");
        // 99.5 leaves 12 beyond; 99.9 would leave only 2.
        assert_eq!(t.pct, 99.5);
        assert_eq!(t.value, 2388.0);
        assert_eq!(t.beyond, 12);
        assert_eq!(t.samples, 2400);
    }

    #[test]
    fn tail_at_exactly_ten_beyond_qualifies() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("samples");
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
    }

    #[test]
    fn tail_with_few_samples_falls_back_to_the_median() {
        let v = [5.0, 1.0, 3.0];
        let t = tail(&v).expect("samples");
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 3.0, 1, 3));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (0..500).map(|i| f64::from((i * 7919) % 500)).collect();
        let a = tail(&v);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, tail(&v));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 50.0), 20.0);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 99.0), 40.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  912340 kB\nVmHWM:\t  501234 kB\nVmRSS:\t  400000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(501_234));
        assert_eq!(vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let mb = peak_rss_mb().expect("procfs VmHWM");
        assert!(mb > 0.0);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let a = Fnv::new().add(b"ab").finish();
        let b = Fnv::new().add(b"ba").finish();
        assert_ne!(a, b);
        assert_eq!(a, Fnv::new().add(b"a").add(b"b").finish());
    }
}
