//! Measurement collection for the experiments.
//!
//! The admission-accuracy figures (8/9) compare, per interval, the
//! *actual* disk I/O time (first request issued → last request completed,
//! including blocking by an in-progress non-real-time operation — exactly
//! what a timestamping benchmark would see) against the admission test's
//! *calculated* time.

use std::collections::{BTreeMap, HashMap};

use cras_core::{IntervalReport, ReadId};
use cras_disk::Completed;
use cras_sim::{Duration, Instant};

use crate::tags::DiskTag;

// Re-export friendly aliases used throughout the crate.
pub use cras_sim::stats::{OnlineStats, Samples, TimeSeries};

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
    pub fn span(&self) -> Option<f64> {
        if self.total_reqs == 0 || self.remaining > 0 {
            None
        } else {
            Some(self.last_done.since(self.issued_at).as_secs_f64())
        }
    }

    /// Ratio of actual to calculated I/O time (the Figure 8/9 quantity).
    pub fn ratio(&self) -> Option<f64> {
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

/// Where an outstanding read is counted: its volume's [`IntervalIo`]
/// and its interval's [`IntervalWall`].
#[derive(Clone, Copy, Debug)]
struct ReadSlot {
    interval: usize,
    wall: usize,
}

/// System-wide measurement state.
#[derive(Default, Debug)]
pub struct Metrics {
    intervals: Vec<IntervalIo>,
    walls: Vec<IntervalWall>,
    /// Outstanding reads by id; a read leaves when it settles, so the
    /// map is empty at quiescence.
    reads: HashMap<u64, ReadSlot>,
    /// Bytes completed for CRAS real-time reads.
    pub cras_read_bytes: u64,
    /// Total disk service time consumed by CRAS reads.
    pub cras_read_busy: Duration,
    /// Bytes completed for CRAS real-time writes. Always 0: no path
    /// submits a CRAS write (the recorder runs standalone, outside the
    /// system). Kept because the canonical JSON and the benchmark's
    /// `disk.cras_write_mb` read it.
    pub cras_write_bytes: u64,
    /// Deadline overruns reported by the server.
    pub overruns: u64,
    /// CRAS reads that came back failed and were re-issued against a
    /// surviving replica.
    pub degraded_reads: u64,
    /// CRAS reads that came back failed with no surviving replica.
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
    /// interval time is fully consumed) — [`Metrics::recent_slack`].
    pub recent_slack: f64,
    /// Worst per-volume recent completion lag in seconds
    /// ([`Metrics::recent_volume_lag`], max over volumes): how far
    /// behind its admission bound the shard's busiest spindle has been
    /// finishing. 0.0 when every volume keeps up. A direct measurement
    /// of overload, where the stream count is only a proxy for it.
    pub recent_lag: f64,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records an interval tick and indexes its reads: one record per
    /// volume that received requests (the report's requests are sorted by
    /// volume, so volumes form consecutive runs).
    pub fn on_interval(&mut self, rep: &IntervalReport, now: Instant) {
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
        self.deferred_reserved_streams += rep.deferred_reserved.len() as u64;
        for title in &rep.cache_rejected_titles {
            *self
                .cache_rejects_by_title
                .entry(title.clone())
                .or_insert(0) += 1;
        }
        self.parked_streams += rep.parked_streams.len() as u64;
        if rep.reqs.is_empty() {
            return;
        }
        let wall_idx = self.walls.len();
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
        for (vol, batch) in rep.volume_batches() {
            let calculated = rep
                .per_volume_calculated
                .get(vol.index())
                .copied()
                .unwrap_or(rep.calculated_io_time);
            let idx = self.intervals.len();
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
            for r in batch {
                let slot = ReadSlot {
                    interval: idx,
                    wall: wall_idx,
                };
                self.reads.insert(r.id.0, slot);
            }
            self.walls[wall_idx].volumes += 1;
        }
    }

    /// Records the completion of a CRAS read.
    pub fn on_cras_read_done(&mut self, rid: ReadId, done: &Completed<DiskTag>) {
        self.cras_read_bytes += done.req.bytes();
        self.cras_read_busy += done.breakdown.total();
        self.settle(rid, done, &[]);
    }

    /// Records a CRAS read that came back failed and was replaced by
    /// `retries` reads against a surviving replica (empty if the data is
    /// lost). The interval record inherits the retries so its actual I/O
    /// time still converges; the error's service time (the fast-error
    /// command overhead) is charged to the interval like any other
    /// service time.
    pub fn on_cras_read_failed(
        &mut self,
        rid: ReadId,
        done: &Completed<DiskTag>,
        retries: &[ReadId],
    ) {
        if retries.is_empty() {
            self.lost_reads += 1;
        } else {
            self.degraded_reads += 1;
        }
        self.settle(rid, done, retries);
    }

    /// Settles read `rid` on its interval and wall records, if it is
    /// outstanding: charges its service time and completion, and hands
    /// its slot to `retries` (empty for a completion or a lost read).
    fn settle(&mut self, rid: ReadId, done: &Completed<DiskTag>, retries: &[ReadId]) {
        let Some(slot) = self.reads.remove(&rid.0) else {
            return;
        };
        let service = done.breakdown.total().as_secs_f64();
        let io = &mut self.intervals[slot.interval];
        io.service_sum += service;
        io.last_done = io.last_done.max(done.finished_at);
        io.remaining = io.remaining - 1 + retries.len();
        io.total_reqs += retries.len();
        let wall = &mut self.walls[slot.wall];
        wall.service_sum += service;
        wall.last_done = wall.last_done.max(done.finished_at);
        wall.remaining = wall.remaining - 1 + retries.len();
        wall.total_reqs += retries.len();
        for r in retries {
            self.reads.insert(r.0, slot);
        }
    }

    /// Average spare fraction of the interval over the last `window`
    /// completed interval walls: `1 − span/interval` per wall, clamped
    /// to `[0, 1]`, averaged. 1.0 with no completed walls — an idle
    /// system has all its slack. The load-aware rebuild pacing scales
    /// its rate cap by this.
    pub fn recent_slack(&self, interval: Duration, window: usize) -> f64 {
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
    pub fn recent_volume_lag(&self, volumes: usize, window: usize) -> Vec<f64> {
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
    /// string directly. The internal read-id lookup map (iteration-order
    /// dependent and empty at quiescence anyway) is deliberately
    /// excluded.
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

    fn report(reads: &[u64], calc: f64) -> IntervalReport {
        IntervalReport {
            index: 0,
            reqs: reads
                .iter()
                .map(|&i| ReadReq {
                    id: ReadId(i),
                    stream: StreamId(0),
                    volume: VolumeId(0),
                    block: i * 100,
                    nblocks: 8,
                })
                .collect(),
            posted_chunks: 0,
            overran: false,
            calculated_io_time: calc,
            per_volume_calculated: vec![calc],
            degraded_streams: 0,
            steered_streams: 0,
            lost_streams: 0,
            cache_served_streams: 0,
            deferred_reserved: Vec::new(),
            cache_rejected_titles: Vec::new(),
            parked_streams: Vec::new(),
        }
    }

    fn completed(at_ms: u64, service_ms: u64) -> Completed<DiskTag> {
        Completed {
            req: DiskRequest::rt_read(0, 8, DiskTag::Raw(0)),
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

    #[test]
    fn ratio_computed_when_all_done() {
        let mut m = Metrics::new();
        m.on_interval(&report(&[1, 2], 0.1), Instant::ZERO);
        m.on_cras_read_done(ReadId(1), &completed(20, 10));
        assert!(m.admission_ratios(0).is_empty(), "still outstanding");
        m.on_cras_read_done(ReadId(2), &completed(50, 10));
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
        m.on_interval(&report(&[], 0.1), Instant::ZERO);
        assert!(m.intervals().is_empty());
    }

    #[test]
    fn summary_avg_and_max() {
        let mut m = Metrics::new();
        m.on_interval(&report(&[1], 0.1), Instant::ZERO);
        m.on_cras_read_done(ReadId(1), &completed(20, 5));
        m.on_interval(&report(&[2], 0.1), Instant::ZERO);
        m.on_cras_read_done(ReadId(2), &completed(60, 8));
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
        let rep = IntervalReport {
            index: 3,
            reqs: vec![
                ReadReq {
                    id: ReadId(1),
                    stream: StreamId(0),
                    volume: VolumeId(0),
                    block: 100,
                    nblocks: 8,
                },
                ReadReq {
                    id: ReadId(2),
                    stream: StreamId(1),
                    volume: VolumeId(1),
                    block: 50,
                    nblocks: 8,
                },
                ReadReq {
                    id: ReadId(3),
                    stream: StreamId(2),
                    volume: VolumeId(1),
                    block: 90,
                    nblocks: 8,
                },
            ],
            posted_chunks: 0,
            overran: false,
            calculated_io_time: 0.2,
            per_volume_calculated: vec![0.1, 0.2],
            degraded_streams: 0,
            steered_streams: 0,
            lost_streams: 0,
            cache_served_streams: 0,
            deferred_reserved: Vec::new(),
            cache_rejected_titles: Vec::new(),
            parked_streams: Vec::new(),
        };
        m.on_interval(&rep, Instant::ZERO);
        assert_eq!(m.intervals().len(), 2, "one record per volume");
        assert_eq!(m.intervals()[0].volume, 0);
        assert_eq!(m.intervals()[0].total_reqs, 1);
        assert!((m.intervals()[0].calculated - 0.1).abs() < 1e-12);
        assert_eq!(m.intervals()[1].volume, 1);
        assert_eq!(m.intervals()[1].total_reqs, 2);
        assert!((m.intervals()[1].calculated - 0.2).abs() < 1e-12);
        // Completions land on their own volume's record.
        m.on_cras_read_done(ReadId(2), &completed(10, 4));
        m.on_cras_read_done(ReadId(3), &completed(30, 4));
        assert_eq!(m.intervals()[1].remaining, 0);
        assert_eq!(m.intervals()[0].remaining, 1);
        let rs = m.admission_ratios(0);
        assert_eq!(rs.len(), 1, "only volume 1 is complete");
        assert!((rs[0] - 0.04).abs() < 1e-9, "ratio {}", rs[0]);
    }

    #[test]
    fn wall_tracks_the_last_completion_across_volumes() {
        let mut m = Metrics::new();
        let rep = IntervalReport {
            index: 3,
            reqs: vec![
                ReadReq {
                    id: ReadId(1),
                    stream: StreamId(0),
                    volume: VolumeId(0),
                    block: 100,
                    nblocks: 8,
                },
                ReadReq {
                    id: ReadId(2),
                    stream: StreamId(1),
                    volume: VolumeId(1),
                    block: 50,
                    nblocks: 8,
                },
            ],
            posted_chunks: 0,
            overran: false,
            calculated_io_time: 0.2,
            per_volume_calculated: vec![0.1, 0.2],
            degraded_streams: 0,
            steered_streams: 0,
            lost_streams: 0,
            cache_served_streams: 0,
            deferred_reserved: Vec::new(),
            cache_rejected_titles: Vec::new(),
            parked_streams: Vec::new(),
        };
        m.on_interval(&rep, Instant::ZERO);
        assert_eq!(m.interval_walls().len(), 1, "one wall per interval");
        let w = &m.interval_walls()[0];
        assert_eq!(w.volumes, 2);
        assert!((w.calc_max - 0.2).abs() < 1e-12);
        assert!((w.calc_sum - 0.3).abs() < 1e-12);
        assert!(w.span().is_none(), "reads outstanding");
        m.on_cras_read_done(ReadId(2), &completed(10, 4));
        assert!(m.interval_walls()[0].span().is_none());
        m.on_cras_read_done(ReadId(1), &completed(40, 4));
        let w = &m.interval_walls()[0];
        // Span runs to the last completion on any volume: 40 ms.
        assert!((w.span().unwrap() - 0.04).abs() < 1e-9);
        // 8 ms of service over a 40 ms span.
        assert!((w.overlap().unwrap() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn wall_inherits_retry_slots_from_failed_reads() {
        let mut m = Metrics::new();
        m.on_interval(&report(&[1], 0.1), Instant::ZERO);
        let mut err = completed(5, 1);
        err.failed = true;
        m.on_cras_read_failed(ReadId(1), &err, &[ReadId(9)]);
        assert!(m.interval_walls()[0].span().is_none(), "retry outstanding");
        m.on_cras_read_done(ReadId(9), &completed(20, 10));
        let w = &m.interval_walls()[0];
        assert_eq!(w.total_reqs, 2);
        assert!((w.span().unwrap() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn failed_read_hands_its_interval_slot_to_the_retries() {
        let mut m = Metrics::new();
        m.on_interval(&report(&[1], 0.1), Instant::ZERO);
        let mut err = completed(5, 1);
        err.failed = true;
        m.on_cras_read_failed(ReadId(1), &err, &[ReadId(9)]);
        assert_eq!(m.degraded_reads, 1);
        assert!(m.admission_ratios(0).is_empty(), "retry still outstanding");
        m.on_cras_read_done(ReadId(9), &completed(20, 10));
        let rs = m.admission_ratios(0);
        assert_eq!(rs.len(), 1);
        // 1 ms fast error + 10 ms retry service over 100 ms calculated.
        assert!((rs[0] - 0.11).abs() < 1e-9, "ratio {}", rs[0]);
    }

    #[test]
    fn lost_read_completes_the_interval_record() {
        let mut m = Metrics::new();
        m.on_interval(&report(&[1], 0.1), Instant::ZERO);
        let mut err = completed(5, 1);
        err.failed = true;
        m.on_cras_read_failed(ReadId(1), &err, &[]);
        assert_eq!(m.lost_reads, 1);
        assert_eq!(m.intervals()[0].remaining, 0);
        assert_eq!(m.admission_ratios(0).len(), 1);
    }

    #[test]
    fn settled_reads_leave_the_read_index() {
        let mut m = Metrics::new();
        // Read 2 fails and hands its slot to retry 9, which fails again
        // and hands it to 10; reads 1 and 3 complete plainly.
        m.on_interval(&report(&[1, 2, 3], 0.1), Instant::ZERO);
        let mut err = completed(5, 1);
        err.failed = true;
        m.on_cras_read_done(ReadId(1), &completed(10, 4));
        m.on_cras_read_failed(ReadId(2), &err, &[ReadId(9)]);
        m.on_cras_read_failed(ReadId(9), &err, &[ReadId(10)]);
        let outstanding = |m: &Metrics| {
            let mut ids: Vec<u64> = m.reads.keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(outstanding(&m), vec![3, 10]);
        m.on_cras_read_done(ReadId(3), &completed(20, 4));
        m.on_cras_read_done(ReadId(10), &completed(30, 4));
        assert!(outstanding(&m).is_empty());
        assert_eq!(m.intervals()[0].remaining, 0);
        assert_eq!(m.intervals()[0].total_reqs, 5);
        assert_eq!(m.interval_walls()[0].total_reqs, 5);
        // 4 + 1 + 1 + 4 + 4 ms of service over 100 ms calculated.
        assert!((m.admission_ratios(0)[0] - 0.14).abs() < 1e-9);
        // A read the index does not know (a second report of a settled
        // one) changes nothing.
        m.on_cras_read_done(ReadId(1), &completed(40, 4));
        assert_eq!(m.intervals()[0].remaining, 0);
        assert!((m.interval_walls()[0].span().unwrap() - 0.03).abs() < 1e-9);
    }

    #[test]
    fn recent_slack_tracks_interval_spans() {
        let mut m = Metrics::new();
        let t = Duration::from_millis(100);
        assert_eq!(m.recent_slack(t, 8), 1.0, "idle system has all its slack");
        // One completed wall spanning 40 ms of a 100 ms interval.
        m.on_interval(&report(&[1], 0.1), Instant::ZERO);
        m.on_cras_read_done(ReadId(1), &completed(40, 10));
        assert!((m.recent_slack(t, 8) - 0.6).abs() < 1e-9);
        // A second wall using the whole interval drags the average down;
        // an over-long span clamps at zero slack rather than going
        // negative.
        m.on_interval(&report(&[2], 0.1), Instant::ZERO);
        m.on_cras_read_done(ReadId(2), &completed(150, 10));
        assert!((m.recent_slack(t, 8) - 0.3).abs() < 1e-9);
        // Window 1 sees only the latest wall.
        assert!(m.recent_slack(t, 1).abs() < 1e-9);
    }

    #[test]
    fn canonical_json_is_stable_and_reflects_state() {
        let mut m = Metrics::new();
        m.on_interval(&report(&[1], 0.1), Instant::ZERO);
        m.on_cras_read_done(ReadId(1), &completed(20, 10));
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
        m.on_interval(&report(&[7], 0.1), Instant::ZERO);
        m.on_cras_read_done(ReadId(7), &completed(10, 3));
        assert_eq!(m.cras_read_bytes, 8 * 512);
        assert_eq!(m.cras_read_busy, Duration::from_millis(3));
    }
}
