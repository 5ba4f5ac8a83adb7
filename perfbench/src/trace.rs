//! Host-time spans around the benchmark's calls into each layer, peak
//! gauges sampled between those calls, and the reference kernel run at
//! the end of every workload step.
//!
//! The tracer measures each layer from outside: it times the public
//! function the benchmark calls and reads public counters after it
//! returns. When off, a span is a plain call and a gauge closure is never
//! evaluated, so untraced runs pay one branch per call. The reference
//! kernel runs in traced and untraced runs alike.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::reference;
use crate::stats::percentile;

/// A timed call site, named after the layer and the function called.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Span {
    /// `Cluster::open`: routing, admission, retry-queue entry.
    ClusterOpen,
    /// `Cluster::close`.
    ClusterClose,
    /// `Cluster::run_for` over one arrival gap: shard stepping plus the
    /// barrier's `drain_pending` and `resume_parked`.
    ClusterStep,
    /// `System::add_cras_player`: admission and stream open.
    SysOpen,
    /// `System::start_playback`.
    SysStart,
    /// `System::run_until` / `System::run_for`.
    SysRun,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 6] = [
        Span::ClusterOpen,
        Span::ClusterClose,
        Span::ClusterStep,
        Span::SysOpen,
        Span::SysStart,
        Span::SysRun,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Span::ClusterOpen => "cluster.open",
            Span::ClusterClose => "cluster.close",
            Span::ClusterStep => "cluster.step",
            Span::SysOpen => "sys.open",
            Span::SysStart => "sys.start",
            Span::SysRun => "sys.run",
        }
    }
}

/// Span durations and gauge peaks of one traced run, and the reference
/// kernel's time in any run.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<Span, Vec<f64>>,
    peaks: BTreeMap<&'static str, f64>,
    ref_s: f64,
    ref_calls: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Whether this run is traced.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording its host duration under `span` when tracing.
    pub fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.spans.entry(span).or_default().push(secs);
        r
    }

    /// Raises gauge `name` to `f()` when tracing; `f` is not called
    /// otherwise.
    pub fn peak(&mut self, name: &'static str, f: impl FnOnce() -> f64) {
        if self.on {
            let v = f();
            let e = self.peaks.entry(name).or_insert(v);
            *e = e.max(v);
        }
    }

    /// Ends a workload step: runs the reference kernel once and adds its
    /// host time to the run's reference total.
    pub fn step(&mut self) {
        self.ref_s += reference::call();
        self.ref_calls += 1;
    }

    /// Host seconds spent in the reference kernel, and its calls.
    pub fn reference(&self) -> (f64, u64) {
        (self.ref_s, self.ref_calls)
    }

    /// Host seconds spent inside all spans.
    pub fn busy_total(&self) -> f64 {
        self.spans.values().flatten().fold(0.0, |a, b| a + b)
    }

    /// Per-layer metrics: `calls`, `busy_s`, `p50_us` and `p99_us` for
    /// every span (zeros for spans this workload never entered), then
    /// every gauge peak.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for s in Span::ALL {
            let d = self.spans.get(&s).map(Vec::as_slice).unwrap_or(&[]);
            let p = s.name();
            out.push((format!("{p}.calls"), d.len() as f64));
            out.push((format!("{p}.busy_s"), d.iter().fold(0.0, |a, b| a + b)));
            out.push((format!("{p}.p50_us"), percentile(d, 50.0) * 1e6));
            out.push((format!("{p}.p99_us"), percentile(d, 99.0) * 1e6));
        }
        for (&k, &v) in &self.peaks {
            out.push((k.to_string(), v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_forwards_calls_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(Span::SysRun, || 7), 7);
        t.peak("g", || panic!("gauge evaluated while off"));
        assert_eq!(t.busy_total(), 0.0);
        assert!(t.metrics().iter().all(|(_, v)| *v == 0.0));
    }

    #[test]
    fn on_tracer_counts_calls_and_keeps_the_peak() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            t.span(Span::ClusterOpen, || ());
        }
        t.peak("g", || 2.0);
        t.peak("g", || 5.0);
        t.peak("g", || 1.0);
        let m: BTreeMap<String, f64> = t.metrics().into_iter().collect();
        assert_eq!(m["cluster.open.calls"], 3.0);
        assert_eq!(m["sys.run.calls"], 0.0);
        assert_eq!(m["g"], 5.0);
        assert!(m["cluster.open.busy_s"] >= 0.0);
    }

    #[test]
    fn steps_run_the_reference_kernel_traced_or_not() {
        for on in [false, true] {
            let mut t = Tracer::new(on);
            t.step();
            t.step();
            let (secs, calls) = t.reference();
            assert_eq!(calls, 2);
            assert!(secs > 0.0);
            assert_eq!(t.busy_total(), 0.0);
        }
    }
}
