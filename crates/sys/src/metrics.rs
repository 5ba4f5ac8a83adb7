//! Measurement collection for the experiments.
//!
//! The admission-accuracy figures (8/9) compare, per interval, the
//! *actual* disk I/O time (first request issued → last request completed,
//! including blocking by an in-progress non-real-time operation — exactly
//! what a timestamping benchmark would see) against the admission test's
//! *calculated* time.
//!
//! Each CRAS read is counted on its volume's [`IntervalIo`] record and
//! its interval's [`IntervalWall`] record. [`Metrics::on_interval`]
//! hands back those records' positions as one [`ReadSlot`] per volume
//! batch; the slot rides in the read's disk tag
//! ([`DiskTag::Cras`]), and a failed read's retries inherit it, so a
//! completion settles on its records without a lookup.

use std::collections::BTreeMap;

use cras_core::IntervalReport;
use cras_disk::Completed;
use cras_sim::{Duration, Instant};

use crate::tags::DiskTag;

/// Per-interval, per-volume disk I/O accounting. With one volume there is
/// exactly one record per non-empty interval; with several, each volume
/// that received requests gets its own record so its actual I/O time is
/// compared against *its* calculated time (admission is per spindle).
#[derive(Clone, Debug)]
pub struct IntervalIo {
    /// Interval index.
    pub index: u64,
    /// Volume the requests went to.
    pub volume: u32,
    /// When the requests were issued.
    pub issued_at: Instant,
    /// Calculated I/O time from the admission test (seconds).
    pub calculated: f64,
    /// Requests issued.
    pub total_reqs: usize,
    /// Requests not yet completed.
    pub remaining: usize,
    /// Completion time of the last finished request.
    pub last_done: Instant,
    /// Sum of pure service time of this interval's requests (seconds).
    pub service_sum: f64,
}

impl IntervalIo {
    /// Actual disk I/O time consumed by the interval's requests: the sum
    /// of their service times (what a timestamping driver reports).
    /// `None` while requests remain outstanding or if nothing was issued.
    pub fn actual(&self) -> Option<f64> {
        if self.total_reqs == 0 || self.remaining > 0 {
            None
        } else {
            Some(self.service_sum)
        }
    }

    /// Wall-clock span from issue to last completion — includes waiting
    /// behind other traffic and earlier intervals (diagnostic).
    pub(crate) fn span(&self) -> Option<f64> {
        if self.total_reqs == 0 || self.remaining > 0 {
            None
        } else {
            Some(self.last_done.since(self.issued_at).as_secs_f64())
        }
    }

    /// Ratio of actual to calculated I/O time (the Figure 8/9 quantity).
    pub(crate) fn ratio(&self) -> Option<f64> {
        match (self.actual(), self.calculated) {
            (Some(a), c) if c > 0.0 => Some(a / c),
            _ => None,
        }
    }
}

/// Cross-volume wall-clock accounting for one interval: from the issue
/// of the interval's per-volume batches to the completion of the *last*
/// read on *any* volume. Where [`IntervalIo`] judges each spindle
/// against its own calculated time, this record judges the pipelined
/// issue path: with every spindle draining its batch concurrently the
/// span should track `calc_max` (the admission bound); a serialized
/// path degrades it toward `calc_sum`.
#[derive(Clone, Debug)]
pub struct IntervalWall {
    /// Interval index.
    pub index: u64,
    /// When the batches were issued.
    pub issued_at: Instant,
    /// Requests issued across all volumes.
    pub total_reqs: usize,
    /// Requests not yet completed.
    pub remaining: usize,
    /// Completion time of the last finished request on any volume.
    pub last_done: Instant,
    /// Sum of pure service time across all volumes (seconds).
    pub service_sum: f64,
    /// Max over volumes of the calculated per-volume I/O time (seconds)
    /// — the admission test's bound on the interval.
    pub calc_max: f64,
    /// Sum over volumes of the calculated per-volume I/O time (seconds)
    /// — what a fully serialized issue path would be held to.
    pub calc_sum: f64,
    /// Volumes that received requests this interval.
    pub volumes: usize,
}

impl IntervalWall {
    /// Wall-clock span from issue to the last completion across all
    /// volumes. `None` while requests remain outstanding.
    pub fn span(&self) -> Option<f64> {
        if self.total_reqs == 0 || self.remaining > 0 {
            None
        } else {
            Some(self.last_done.since(self.issued_at).as_secs_f64())
        }
    }

    /// Cross-volume overlap factor: total disk service time over the
    /// wall span. 1.0 means no overlap (one spindle at a time);
    /// `volumes` means every spindle busy the whole span.
    pub fn overlap(&self) -> Option<f64> {
        match self.span() {
            Some(s) if s > 0.0 => Some(self.service_sum / s),
            _ => None,
        }
    }
}

/// Where a CRAS read is counted: the positions of its volume's
/// [`IntervalIo`] and its interval's [`IntervalWall`] in [`Metrics`].
/// Both lists only ever grow, so a slot stays valid for the whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadSlot {
    interval: usize,
    wall: usize,
}

/// System-wide measurement state.
#[derive(Default, Debug)]
pub struct Metrics {
    intervals: Vec<IntervalIo>,
    walls: Vec<IntervalWall>,
    /// Bytes completed for CRAS real-time reads.
    pub cras_read_bytes: u64,
    /// Total disk service time consumed by CRAS reads.
    pub cras_read_busy: Duration,
    /// Bytes completed for CRAS real-time writes (recordings).
    pub cras_write_bytes: u64,
    /// Deadline overruns reported by the server.
    pub overruns: u64,
    /// CRAS reads that came back failed and were re-issued against a
    /// surviving replica.
    pub degraded_reads: u64,
    /// CRAS reads that came back failed with no surviving replica, and
    /// failed recording writes.
    pub lost_reads: u64,
    /// Intervals in which at least one stream read from its mirror
    /// because the primary volume was down.
    pub degraded_intervals: u64,
    /// Intervals in which at least one parity stream's direct read was
    /// steered to a `g−1` reconstruction fan-out (coded-read steering,
    /// DESIGN §17).
    pub steered_intervals: u64,
    /// Stream-intervals steered (one count per steered stream per
    /// interval tick).
    pub steered_stream_intervals: u64,
    /// Stream batches dropped at plan time because no live replica
    /// could serve them (every copy's volume down).
    pub plan_lost_streams: u64,
    /// When a volume failure was declared (first one, if several).
    pub volume_failed_at: Option<Instant>,
    /// When the rebuild started copying.
    pub rebuild_started_at: Option<Instant>,
    /// When the rebuild finished and capacity was restored.
    pub rebuild_finished_at: Option<Instant>,
    /// Bytes copied by the rebuild manager.
    pub rebuild_bytes: u64,
    /// Stream-intervals fed from the interval cache instead of disk
    /// (one count per cached stream per interval tick).
    pub cache_served_stream_intervals: u64,
    /// Deferred-admission streams whose disk share was reserved at
    /// prefix drain (reserve-at-drain successes).
    pub deferred_reserved_streams: u64,
    /// Streams parked by a failed cache/deferred re-admission, counted
    /// per title — the per-title cost of the eviction policy. A
    /// `BTreeMap` so every report (and the canonical JSON) is
    /// deterministic.
    pub cache_rejects_by_title: BTreeMap<String, u64>,
    /// Streams parked (viewer rebuffering) by a failed cache/deferred
    /// re-admission.
    pub parked_streams: u64,
    /// Parked streams whose retry found a feed and resumed playback.
    pub resumed_streams: u64,
    /// Streams parked by delivery backpressure (DESIGN §18): the
    /// client's playout buffer crossed its high watermark, so the
    /// feeding stream released its feed until the buffer drained.
    pub net_parks: u64,
}

/// A shard's load snapshot, exported for cluster-level routing: the
/// gateway compares these across a title's replicas and sends the open
/// to the least-loaded live one.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardLoad {
    /// Streams currently admitted (open, reservation held).
    pub streams: usize,
    /// Spare fraction of recent interval walls (1.0 = idle, 0.0 = the
    /// interval time is fully consumed) — `Metrics::recent_slack`.
    pub recent_slack: f64,
    /// Worst per-volume recent completion lag in seconds
    /// (`Metrics::recent_volume_lag`, max over volumes): how far
    /// behind its admission bound the shard's busiest spindle has been
    /// finishing. 0.0 when every volume keeps up. A direct measurement
    /// of overload, where the stream count is only a proxy for it.
    pub recent_lag: f64,
}

impl Metrics {
    /// Creates empty metrics.
    pub(crate) fn new() -> Metrics {
        Metrics::default()
    }

    /// Records an interval tick: one record per volume that received
    /// requests (the report's requests are sorted by volume, so volumes
    /// form consecutive runs). Returns the slot of each of
    /// [`IntervalReport::volume_batches`], in order, for the batch's
    /// reads to carry.
    pub fn on_interval(&mut self, rep: &IntervalReport, now: Instant) -> Vec<ReadSlot> {
        if rep.overran {
            self.overruns += 1;
        }
        if rep.degraded_streams > 0 {
            self.degraded_intervals += 1;
        }
        if rep.steered_streams > 0 {
            self.steered_intervals += 1;
        }
        self.steered_stream_intervals += rep.steered_streams as u64;
        self.plan_lost_streams += rep.lost_streams as u64;
        self.cache_served_stream_intervals += rep.cache_served_streams as u64;
        // Consumed before the empty-interval early return below: a tick
        // can reserve drained shares or park streams without issuing
        // any reads of its own.
        self.deferred_reserved_streams += rep.deferred_reserved_streams as u64;
        for title in &rep.cache_rejected_titles {
            *self
                .cache_rejects_by_title
                .entry(title.clone())
                .or_insert(0) += 1;
        }
        self.parked_streams += rep.parked_streams.len() as u64;
        if rep.reqs.is_empty() {
            return Vec::new();
        }
        let wall = self.walls.len();
        self.walls.push(IntervalWall {
            index: rep.index,
            issued_at: now,
            total_reqs: rep.reqs.len(),
            remaining: rep.reqs.len(),
            last_done: now,
            service_sum: 0.0,
            calc_max: rep
                .per_volume_calculated
                .iter()
                .fold(0.0f64, |a, &c| if c > a { c } else { a }),
            calc_sum: rep.per_volume_calculated.iter().sum(),
            volumes: 0,
        });
        let mut slots = Vec::new();
        for (vol, batch) in rep.volume_batches() {
            let calculated = rep
                .per_volume_calculated
                .get(vol.index())
                .copied()
                .unwrap_or(rep.calculated_io_time);
            slots.push(ReadSlot {
                interval: self.intervals.len(),
                wall,
            });
            self.intervals.push(IntervalIo {
                index: rep.index,
                volume: vol.0,
                issued_at: now,
                calculated,
                total_reqs: batch.len(),
                remaining: batch.len(),
                last_done: now,
                service_sum: 0.0,
            });
            self.walls[wall].volumes += 1;
        }
        slots
    }

    /// Records the completion of a CRAS read counted at `slot`, or of a
    /// recording's write (its tag says which).
    pub fn on_cras_read_done(&mut self, slot: ReadSlot, done: &Completed<DiskTag>) {
        match done.req.tag {
            DiskTag::Cras(io, _) if io.write => self.cras_write_bytes += done.req.bytes(),
            _ => {
                self.cras_read_bytes += done.req.bytes();
                self.cras_read_busy += done.breakdown.total();
            }
        }
        self.settle(slot, done, 0);
    }

    /// Records a CRAS read counted at `slot` that came back failed and
    /// was replaced by `retries` reads against a surviving replica (0 if
    /// the data is lost). The retries inherit the slot, so the interval
    /// record's actual I/O time still converges; the error's service
    /// time (the fast-error command overhead) is charged to the interval
    /// like any other service time.
    pub(crate) fn on_cras_read_failed(
        &mut self,
        slot: ReadSlot,
        done: &Completed<DiskTag>,
        retries: usize,
    ) {
        if retries == 0 {
            self.lost_reads += 1;
        } else {
            self.degraded_reads += 1;
        }
        self.settle(slot, done, retries);
    }

    /// Settles one read on its interval and wall records: charges its
    /// service time and completion, and counts the `retries` reads that
    /// take its place (0 for a completion or a lost read).
    fn settle(&mut self, slot: ReadSlot, done: &Completed<DiskTag>, retries: usize) {
        let service = done.breakdown.total().as_secs_f64();
        let io = &mut self.intervals[slot.interval];
        io.service_sum += service;
        io.last_done = io.last_done.max(done.finished_at);
        io.remaining = io.remaining - 1 + retries;
        io.total_reqs += retries;
        let wall = &mut self.walls[slot.wall];
        wall.service_sum += service;
        wall.last_done = wall.last_done.max(done.finished_at);
        wall.remaining = wall.remaining - 1 + retries;
        wall.total_reqs += retries;
    }

    /// Average spare fraction of the interval over the last `window`
    /// completed interval walls: `1 − span/interval` per wall, clamped
    /// to `[0, 1]`, averaged. 1.0 with no completed walls — an idle
    /// system has all its slack. The load-aware rebuild pacing scales
    /// its rate cap by this.
    pub(crate) fn recent_slack(&self, interval: Duration, window: usize) -> f64 {
        let t = interval.as_secs_f64();
        if t <= 0.0 || window == 0 {
            return 1.0;
        }
        let spans: Vec<f64> = self
            .walls
            .iter()
            .rev()
            .filter_map(IntervalWall::span)
            .take(window)
            .collect();
        if spans.is_empty() {
            return 1.0;
        }
        spans
            .iter()
            .map(|s| (1.0 - s / t).clamp(0.0, 1.0))
            .sum::<f64>()
            / spans.len() as f64
    }

    /// Per-volume recent completion lag: for each of `volumes` volumes,
    /// the mean over its last `window` *completed* [`IntervalIo`]
    /// records of `span − calculated`, clamped at zero (seconds). A
    /// volume with no completed records — or one that has been keeping
    /// up — reports 0.0. This is the feedback half of the read-steering
    /// load signal: a spindle whose intervals keep finishing behind
    /// their admission bound is carrying load the planner cannot see
    /// (background I/O, rebuild traffic) and is worth bypassing.
    pub(crate) fn recent_volume_lag(&self, volumes: usize, window: usize) -> Vec<f64> {
        let mut sums = vec![0.0f64; volumes];
        let mut counts = vec![0usize; volumes];
        if window == 0 {
            return sums;
        }
        for rec in self.intervals.iter().rev() {
            let v = rec.volume as usize;
            if v >= volumes || counts[v] >= window {
                continue;
            }
            let Some(span) = rec.span() else {
                continue;
            };
            sums[v] += (span - rec.calculated).max(0.0);
            counts[v] += 1;
            if counts.iter().all(|&c| c >= window) {
                break;
            }
        }
        for (s, c) in sums.iter_mut().zip(&counts) {
            if *c > 0 {
                *s /= *c as f64;
            }
        }
        sums
    }

    /// Rebuild copy time, once the rebuild has finished.
    pub fn rebuild_time(&self) -> Option<Duration> {
        match (self.rebuild_started_at, self.rebuild_finished_at) {
            (Some(s), Some(f)) => Some(f.since(s)),
            _ => None,
        }
    }

    /// All completed per-interval records.
    pub fn intervals(&self) -> &[IntervalIo] {
        &self.intervals
    }

    /// Cross-volume wall records, one per non-empty interval.
    pub fn interval_walls(&self) -> &[IntervalWall] {
        &self.walls
    }

    /// Accuracy ratios for completed intervals, skipping the first
    /// `warmup` of them.
    pub fn admission_ratios(&self, warmup: usize) -> Vec<f64> {
        self.intervals
            .iter()
            .skip(warmup)
            .filter_map(IntervalIo::ratio)
            .collect()
    }

    /// Average and maximum accuracy ratio over completed intervals.
    pub fn ratio_summary(&self, warmup: usize) -> (f64, f64) {
        let rs = self.admission_ratios(warmup);
        if rs.is_empty() {
            return (0.0, 0.0);
        }
        let avg = rs.iter().sum::<f64>() / rs.len() as f64;
        let max = rs.iter().copied().fold(0.0, f64::max);
        (avg, max)
    }

    /// Serializes the deterministic portion of the metrics to a canonical
    /// JSON string: fixed key order, instants as integer nanoseconds,
    /// floats via Rust's shortest round-trip formatting (`{:?}`). Two
    /// identically-behaving runs produce byte-identical output, so the
    /// replay-determinism and interleaving-fuzzer tests compare this
    /// string directly.
    pub fn canonical_json(&self) -> String {
        fn f(x: f64) -> String {
            format!("{x:?}")
        }
        fn opt_instant(t: Option<Instant>) -> String {
            match t {
                Some(t) => t.as_nanos().to_string(),
                None => "null".to_string(),
            }
        }
        let mut out = String::new();
        out.push('{');
        out.push_str("\"intervals\":[");
        for (i, r) in self.intervals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"volume\":{},\"issued_at\":{},\"calculated\":{},\
                 \"total_reqs\":{},\"remaining\":{},\"last_done\":{},\"service_sum\":{}}}",
                r.index,
                r.volume,
                r.issued_at.as_nanos(),
                f(r.calculated),
                r.total_reqs,
                r.remaining,
                r.last_done.as_nanos(),
                f(r.service_sum),
            ));
        }
        out.push_str("],\"walls\":[");
        for (i, w) in self.walls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"issued_at\":{},\"total_reqs\":{},\"remaining\":{},\
                 \"last_done\":{},\"service_sum\":{},\"calc_max\":{},\"calc_sum\":{},\
                 \"volumes\":{}}}",
                w.index,
                w.issued_at.as_nanos(),
                w.total_reqs,
                w.remaining,
                w.last_done.as_nanos(),
                f(w.service_sum),
                f(w.calc_max),
                f(w.calc_sum),
                w.volumes,
            ));
        }
        out.push_str(&format!(
            "],\"cras_read_bytes\":{},\"cras_read_busy_ns\":{},\"cras_write_bytes\":{},\
             \"overruns\":{},\"degraded_reads\":{},\"lost_reads\":{},\
             \"degraded_intervals\":{},\"steered_intervals\":{},\
             \"steered_stream_intervals\":{},\"plan_lost_streams\":{},\
             \"volume_failed_at\":{},\"rebuild_started_at\":{},\
             \"rebuild_finished_at\":{},\"rebuild_bytes\":{},\
             \"cache_served_stream_intervals\":{},\"deferred_reserved_streams\":{},\
             \"parked_streams\":{},\"resumed_streams\":{},\"net_parks\":{}",
            self.cras_read_bytes,
            self.cras_read_busy.as_nanos(),
            self.cras_write_bytes,
            self.overruns,
            self.degraded_reads,
            self.lost_reads,
            self.degraded_intervals,
            self.steered_intervals,
            self.steered_stream_intervals,
            self.plan_lost_streams,
            opt_instant(self.volume_failed_at),
            opt_instant(self.rebuild_started_at),
            opt_instant(self.rebuild_finished_at),
            self.rebuild_bytes,
            self.cache_served_stream_intervals,
            self.deferred_reserved_streams,
            self.parked_streams,
            self.resumed_streams,
            self.net_parks,
        ));
        out.push_str(",\"cache_rejects_by_title\":{");
        for (i, (title, n)) in self.cache_rejects_by_title.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{title:?}:{n}"));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_core::{ReadReq, StreamId};
    use cras_disk::{DiskRequest, ServiceBreakdown, VolumeId};
    use cras_ufs::fs::FetchRun;

    fn read(volume: u32, block: u64) -> ReadReq {
        ReadReq {
            stream: StreamId(0),
            batch: 0,
            logical: Some(0),
            volume: VolumeId(volume),
            block,
            nblocks: 8,
            write: false,
        }
    }

    /// A one-volume interval of `reads` reads.
    fn report(reads: u64, calc: f64) -> IntervalReport {
        IntervalReport {
            reqs: (0..reads).map(|i| read(0, i * 100)).collect(),
            calculated_io_time: calc,
            per_volume_calculated: vec![calc],
            ..IntervalReport::default()
        }
    }

    /// An interval with reads on volume 0 and on volume 1, calculated
    /// at 0.1 s and 0.2 s.
    fn two_volume_report(on_0: u64, on_1: u64) -> IntervalReport {
        let reqs = (0..on_0)
            .map(|i| read(0, 100 + i))
            .chain((0..on_1).map(|i| read(1, 50 + i * 40)))
            .collect();
        IntervalReport {
            index: 3,
            reqs,
            calculated_io_time: 0.2,
            per_volume_calculated: vec![0.1, 0.2],
            ..IntervalReport::default()
        }
    }

    fn completed(at_ms: u64, service_ms: u64) -> Completed<DiskTag> {
        Completed {
            req: DiskRequest::rt_read(
                0,
                8,
                DiskTag::UfsWriteback(0, FetchRun { start: 0, len: 1 }),
            ),
            submitted_at: Instant::ZERO,
            started_at: Instant::ZERO,
            finished_at: Instant::ZERO + Duration::from_millis(at_ms),
            breakdown: ServiceBreakdown {
                command: Duration::from_millis(service_ms),
                ..ServiceBreakdown::default()
            },
            failed: false,
        }
    }

    fn failed(at_ms: u64, service_ms: u64) -> Completed<DiskTag> {
        Completed {
            failed: true,
            ..completed(at_ms, service_ms)
        }
    }

    /// Records a one-volume interval and returns its one slot.
    fn interval(m: &mut Metrics, reads: u64) -> ReadSlot {
        let slots = m.on_interval(&report(reads, 0.1), Instant::ZERO);
        assert_eq!(slots.len(), 1, "one volume, one slot");
        slots[0]
    }

    #[test]
    fn ratio_computed_when_all_done() {
        let mut m = Metrics::new();
        let slot = interval(&mut m, 2);
        m.on_cras_read_done(slot, &completed(20, 10));
        assert!(m.admission_ratios(0).is_empty(), "still outstanding");
        m.on_cras_read_done(slot, &completed(50, 10));
        let rs = m.admission_ratios(0);
        assert_eq!(rs.len(), 1);
        // Actual = 10 + 10 ms of service, calculated = 100 ms => 0.2.
        assert!((rs[0] - 0.2).abs() < 1e-9);
        // The wall-clock span is 50 ms.
        assert!((m.intervals()[0].span().unwrap() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn empty_interval_not_recorded() {
        let mut m = Metrics::new();
        assert!(m.on_interval(&report(0, 0.1), Instant::ZERO).is_empty());
        assert!(m.intervals().is_empty());
        assert!(m.interval_walls().is_empty());
    }

    #[test]
    fn summary_avg_and_max() {
        let mut m = Metrics::new();
        let slot = interval(&mut m, 1);
        m.on_cras_read_done(slot, &completed(20, 5));
        let slot = interval(&mut m, 1);
        m.on_cras_read_done(slot, &completed(60, 8));
        let (avg, max) = m.ratio_summary(0);
        assert!((avg - 0.065).abs() < 1e-9, "avg {avg}");
        assert!((max - 0.08).abs() < 1e-9, "max {max}");
        // Warmup skipping.
        let (avg1, _) = m.ratio_summary(1);
        assert!((avg1 - 0.08).abs() < 1e-9);
    }

    #[test]
    fn multi_volume_interval_splits_records() {
        let mut m = Metrics::new();
        let slots = m.on_interval(&two_volume_report(1, 2), Instant::ZERO);
        assert_eq!(slots.len(), 2, "one slot per volume batch");
        assert_eq!(m.intervals().len(), 2, "one record per volume");
        assert_eq!(m.intervals()[0].volume, 0);
        assert_eq!(m.intervals()[0].total_reqs, 1);
        assert!((m.intervals()[0].calculated - 0.1).abs() < 1e-12);
        assert_eq!(m.intervals()[1].volume, 1);
        assert_eq!(m.intervals()[1].total_reqs, 2);
        assert!((m.intervals()[1].calculated - 0.2).abs() < 1e-12);
        // Completions land on their own volume's record.
        m.on_cras_read_done(slots[1], &completed(10, 4));
        m.on_cras_read_done(slots[1], &completed(30, 4));
        assert_eq!(m.intervals()[1].remaining, 0);
        assert_eq!(m.intervals()[0].remaining, 1);
        let rs = m.admission_ratios(0);
        assert_eq!(rs.len(), 1, "only volume 1 is complete");
        assert!((rs[0] - 0.04).abs() < 1e-9, "ratio {}", rs[0]);
    }

    #[test]
    fn wall_tracks_the_last_completion_across_volumes() {
        let mut m = Metrics::new();
        let slots = m.on_interval(&two_volume_report(1, 1), Instant::ZERO);
        assert_eq!(m.interval_walls().len(), 1, "one wall per interval");
        let w = &m.interval_walls()[0];
        assert_eq!(w.volumes, 2);
        assert!((w.calc_max - 0.2).abs() < 1e-12);
        assert!((w.calc_sum - 0.3).abs() < 1e-12);
        assert!(w.span().is_none(), "reads outstanding");
        m.on_cras_read_done(slots[1], &completed(10, 4));
        assert!(m.interval_walls()[0].span().is_none());
        m.on_cras_read_done(slots[0], &completed(40, 4));
        let w = &m.interval_walls()[0];
        // Span runs to the last completion on any volume: 40 ms.
        assert!((w.span().unwrap() - 0.04).abs() < 1e-9);
        // 8 ms of service over a 40 ms span.
        assert!((w.overlap().unwrap() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn wall_inherits_retry_slots_from_failed_reads() {
        let mut m = Metrics::new();
        let slot = interval(&mut m, 1);
        m.on_cras_read_failed(slot, &failed(5, 1), 1);
        assert!(m.interval_walls()[0].span().is_none(), "retry outstanding");
        m.on_cras_read_done(slot, &completed(20, 10));
        let w = &m.interval_walls()[0];
        assert_eq!(w.total_reqs, 2);
        assert!((w.span().unwrap() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn failed_read_hands_its_interval_slot_to_the_retries() {
        let mut m = Metrics::new();
        let slot = interval(&mut m, 1);
        m.on_cras_read_failed(slot, &failed(5, 1), 1);
        assert_eq!(m.degraded_reads, 1);
        assert!(m.admission_ratios(0).is_empty(), "retry still outstanding");
        m.on_cras_read_done(slot, &completed(20, 10));
        let rs = m.admission_ratios(0);
        assert_eq!(rs.len(), 1);
        // 1 ms fast error + 10 ms retry service over 100 ms calculated.
        assert!((rs[0] - 0.11).abs() < 1e-9, "ratio {}", rs[0]);
    }

    #[test]
    fn lost_read_completes_the_interval_record() {
        let mut m = Metrics::new();
        let slot = interval(&mut m, 1);
        m.on_cras_read_failed(slot, &failed(5, 1), 0);
        assert_eq!(m.lost_reads, 1);
        assert_eq!(m.intervals()[0].remaining, 0);
        assert_eq!(m.admission_ratios(0).len(), 1);
    }

    #[test]
    fn a_retry_chain_settles_on_the_first_reads_slot() {
        let mut m = Metrics::new();
        // Of three reads, one completes, one fails and hands its slot to
        // a retry, and that retry fails and hands it to another.
        let slot = interval(&mut m, 3);
        m.on_cras_read_done(slot, &completed(10, 4));
        m.on_cras_read_failed(slot, &failed(5, 1), 1);
        m.on_cras_read_failed(slot, &failed(5, 1), 1);
        assert_eq!(m.degraded_reads, 2);
        // The third read and the last retry are out.
        assert_eq!(m.intervals()[0].remaining, 2);
        assert_eq!(m.interval_walls()[0].remaining, 2);
        // A later interval takes new records; the chain still settles on
        // the first one.
        let later = interval(&mut m, 1);
        assert_ne!(later, slot);
        m.on_cras_read_done(slot, &completed(20, 4));
        m.on_cras_read_done(slot, &completed(30, 4));
        for (i, total) in [(0, 5), (1, 1)] {
            assert_eq!(m.intervals()[i].total_reqs, total, "record {i}");
            assert_eq!(m.interval_walls()[i].total_reqs, total, "wall {i}");
        }
        assert_eq!(m.intervals()[0].remaining, 0);
        assert_eq!(m.intervals()[1].remaining, 1);
        // 4 + 1 + 1 + 4 + 4 ms of service over 100 ms calculated.
        assert!((m.admission_ratios(0)[0] - 0.14).abs() < 1e-9);
        assert!((m.interval_walls()[0].span().unwrap() - 0.03).abs() < 1e-9);
    }

    #[test]
    fn recent_slack_tracks_interval_spans() {
        let mut m = Metrics::new();
        let t = Duration::from_millis(100);
        assert_eq!(m.recent_slack(t, 8), 1.0, "idle system has all its slack");
        // One completed wall spanning 40 ms of a 100 ms interval.
        let slot = interval(&mut m, 1);
        m.on_cras_read_done(slot, &completed(40, 10));
        assert!((m.recent_slack(t, 8) - 0.6).abs() < 1e-9);
        // A second wall using the whole interval drags the average down;
        // an over-long span clamps at zero slack rather than going
        // negative.
        let slot = interval(&mut m, 1);
        m.on_cras_read_done(slot, &completed(150, 10));
        assert!((m.recent_slack(t, 8) - 0.3).abs() < 1e-9);
        // Window 1 sees only the latest wall.
        assert!(m.recent_slack(t, 1).abs() < 1e-9);
    }

    #[test]
    fn canonical_json_is_stable_and_reflects_state() {
        let mut m = Metrics::new();
        let slot = interval(&mut m, 1);
        m.on_cras_read_done(slot, &completed(20, 10));
        m.volume_failed_at = Some(Instant::from_secs_f64(2.5));
        let a = m.canonical_json();
        let b = m.canonical_json();
        assert_eq!(a, b, "serialization is a pure function of state");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"volume_failed_at\":2500000000"));
        assert!(a.contains("\"rebuild_started_at\":null"));
        assert!(a.contains("\"service_sum\":0.01"));
        // A state change changes the bytes.
        m.overruns += 1;
        assert_ne!(m.canonical_json(), a);
    }

    #[test]
    fn bytes_and_busy_accumulate() {
        let mut m = Metrics::new();
        let slot = interval(&mut m, 2);
        m.on_cras_read_done(slot, &completed(10, 3));
        assert_eq!(m.cras_read_bytes, 8 * 512);
        assert_eq!(m.cras_read_busy, Duration::from_millis(3));
        // A recording's write counts as written, and in the interval.
        let write = ReadReq {
            write: true,
            ..read(0, 100)
        };
        let done = Completed {
            req: DiskRequest::rt_write(100, 16, DiskTag::Cras(write, slot)),
            ..completed(20, 4)
        };
        m.on_cras_read_done(slot, &done);
        assert_eq!(m.cras_write_bytes, 16 * 512);
        assert_eq!(m.cras_read_bytes, 8 * 512);
        assert_eq!(m.cras_read_busy, Duration::from_millis(3));
        assert!((m.intervals()[0].actual().unwrap() - 0.007).abs() < 1e-12);
    }
}
