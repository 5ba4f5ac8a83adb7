//! The disk device state machine: dual C-SCAN queues, one operation in
//! flight, and a physical service-time model (command overhead + seek +
//! rotational positioning + zoned media transfer).
//!
//! The device never schedules events itself; [`DiskDevice::submit`] and
//! [`DiskDevice::complete`] return the completion time of any operation
//! they start, and the orchestrator turns that into an engine event. The
//! 1996 SCSI stack had no overlapping/tagged commands in this path, so a
//! single in-flight operation is faithful.

use cras_sim::{Duration, Instant};

use crate::faults::FaultInjector;
use crate::geometry::{BlockNo, DiskGeometry, BLOCK_SIZE};
use crate::policy::{DiskQueue, QueuePolicy};
use crate::request::{Completed, DiskRequest, IoClass, ServiceBreakdown};
use crate::seek::SeekModel;

/// Configuration knobs of the service-time model.
#[derive(Clone, Debug)]
pub struct DiskTimings {
    /// Per-command controller overhead (the paper's `T_cmd` = 2 ms).
    pub command_overhead: Duration,
    /// Head-switch time when a transfer crosses to the next track in the
    /// same cylinder (electronic switch + settle).
    pub head_switch: Duration,
    /// Track-to-track seek used when a transfer spills into the next
    /// cylinder.
    pub cyl_switch: Duration,
}

impl Default for DiskTimings {
    fn default() -> Self {
        DiskTimings::st32550n()
    }
}

impl DiskTimings {
    /// Timings calibrated for the ST32550N (Table 4: `T_cmd` = 2 ms).
    pub fn st32550n() -> DiskTimings {
        DiskTimings {
            command_overhead: Duration::from_millis(2),
            head_switch: Duration::from_micros(800),
            cyl_switch: Duration::from_micros(1_500),
        }
    }

    /// An idealized zero-overhead model (useful in unit tests).
    pub fn zero() -> DiskTimings {
        DiskTimings {
            command_overhead: Duration::ZERO,
            head_switch: Duration::ZERO,
            cyl_switch: Duration::ZERO,
        }
    }
}

/// Aggregate statistics maintained by the device.
#[derive(Clone, Debug, Default)]
pub struct DiskStats {
    /// Completed operations per class: `(real-time, normal)`.
    pub ops: (u64, u64),
    /// Bytes transferred per class: `(real-time, normal)`.
    pub bytes: (u64, u64),
    /// Total time the device spent servicing operations.
    pub busy: Duration,
    /// Total seek time spent.
    pub seek_time: Duration,
    /// Total rotational latency spent.
    pub rotation_time: Duration,
    /// Total media transfer time spent.
    pub transfer_time: Duration,
}

impl DiskStats {
    /// Total completed operations.
    pub fn total_ops(&self) -> u64 {
        self.ops.0 + self.ops.1
    }

    /// Total bytes across both classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.0 + self.bytes.1
    }
}

struct Inflight<T> {
    req: DiskRequest<T>,
    submitted_at: Instant,
    started_at: Instant,
    finishes_at: Instant,
    breakdown: ServiceBreakdown,
    failed: bool,
}

/// How long a downed volume takes to return an error for an operation:
/// the controller answers the command, the drive never does. Public so
/// failure-path timing models (error-queue drain time, the property
/// test's overhead margin) can reference the same constant.
pub const ERROR_LATENCY: Duration = Duration::from_millis(1);

/// The simulated disk: queues + head position + spindle + service model.
pub struct DiskDevice<T> {
    geom: DiskGeometry,
    seek: SeekModel,
    timings: DiskTimings,
    head_cyl: u32,
    rt_queue: DiskQueue<DiskRequest<T>>,
    normal_queue: DiskQueue<DiskRequest<T>>,
    inflight: Option<Inflight<T>>,
    stats: DiskStats,
    faults: Option<FaultInjector>,
    down: bool,
}

impl<T> DiskDevice<T> {
    /// Creates a device with the given geometry, seek model and timings.
    pub fn new(geom: DiskGeometry, seek: SeekModel, timings: DiskTimings) -> DiskDevice<T> {
        DiskDevice {
            geom,
            seek,
            timings,
            head_cyl: 0,
            rt_queue: DiskQueue::new(QueuePolicy::CScan),
            normal_queue: DiskQueue::new(QueuePolicy::CScan),
            inflight: None,
            stats: DiskStats::default(),
            faults: None,
            down: false,
        }
    }

    /// Marks the volume permanently failed (or revived). While down,
    /// every operation — including the one currently in flight —
    /// completes with `failed = true`; queued and future operations are
    /// answered with a fast error return instead of being serviced.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
        if down {
            if let Some(infl) = &mut self.inflight {
                // The spindle died under the in-flight op: it still
                // "completes" at its scheduled time, as an error.
                infl.failed = true;
            }
        }
    }

    /// Whether the volume is marked down.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Installs a transient-fault injector (None disables injection).
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// Replaces the head-scheduling policy of both queues (must be done
    /// while the queues are empty; used by the scheduling ablation).
    ///
    /// # Panics
    ///
    /// Panics if requests are pending.
    pub fn set_queue_policy(&mut self, policy: QueuePolicy) {
        assert!(
            self.rt_queue.is_empty() && self.normal_queue.is_empty(),
            "cannot change policy with pending requests"
        );
        self.rt_queue = DiskQueue::new(policy);
        self.normal_queue = DiskQueue::new(policy);
    }

    /// The installed injector, if any (for its counters).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Mutable access to the installed injector (for scheduling faults
    /// on an already-installed carrier).
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_mut()
    }

    /// The calibrated ST32550N device used by the paper's evaluation, with
    /// the measured (non-linear) seek curve.
    pub fn st32550n() -> DiskDevice<T> {
        DiskDevice::new(
            DiskGeometry::st32550n(),
            SeekModel::st32550n_measured(),
            DiskTimings::st32550n(),
        )
    }

    /// The disk geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geom
    }

    /// The timing configuration.
    pub fn timings(&self) -> &DiskTimings {
        &self.timings
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Current head cylinder.
    pub fn head_cyl(&self) -> u32 {
        self.head_cyl
    }

    /// Whether an operation is being serviced.
    pub fn is_busy(&self) -> bool {
        self.inflight.is_some()
    }

    /// Queue depths `(real-time, normal)`, excluding the in-flight op.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.rt_queue.len(), self.normal_queue.len())
    }

    /// Total commands outstanding on the device: queued in either class
    /// plus any in-flight operation — the device-side half of the
    /// read-steering load signal.
    pub fn outstanding(&self) -> usize {
        self.rt_queue.len() + self.normal_queue.len() + usize::from(self.inflight.is_some())
    }

    /// Submits a request. If the device is idle the operation starts
    /// immediately and its completion time is returned; otherwise the
    /// request waits in its class queue and `None` is returned.
    ///
    /// # Panics
    ///
    /// Panics if the request extends beyond the disk capacity or transfers
    /// zero blocks.
    pub fn submit(&mut self, now: Instant, req: DiskRequest<T>) -> Option<Instant> {
        assert!(req.nblocks > 0, "zero-length disk request");
        assert!(
            req.block + req.nblocks as u64 <= self.geom.total_blocks(),
            "request beyond capacity: block {} + {}",
            req.block,
            req.nblocks
        );
        let cyl = self.geom.cylinder_of(req.block);
        match req.class {
            IoClass::RealTime => self.rt_queue.push(cyl, now, req),
            IoClass::Normal => self.normal_queue.push(cyl, now, req),
        }
        if self.inflight.is_none() {
            self.start_next(now)
        } else {
            None
        }
    }

    /// Completes the in-flight operation (the orchestrator calls this when
    /// the completion event fires) and starts the next queued one.
    ///
    /// Returns the completed operation and, if another op started, its
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight or the completion time disagrees
    /// with the event time (both indicate orchestrator bugs).
    pub fn complete(&mut self, now: Instant) -> (Completed<T>, Option<Instant>) {
        let fin = self.inflight.take().expect("complete: nothing in flight");
        assert_eq!(
            fin.finishes_at, now,
            "complete: event fired at the wrong time"
        );
        let done = Completed {
            req: fin.req,
            submitted_at: fin.submitted_at,
            started_at: fin.started_at,
            finished_at: fin.finishes_at,
            breakdown: fin.breakdown,
            failed: fin.failed,
        };
        // Failed operations count as ops but transfer no bytes.
        let bytes = if done.failed { 0 } else { done.req.bytes() };
        match done.req.class {
            IoClass::RealTime => {
                self.stats.ops.0 += 1;
                self.stats.bytes.0 += bytes;
            }
            IoClass::Normal => {
                self.stats.ops.1 += 1;
                self.stats.bytes.1 += bytes;
            }
        }
        let next = self.start_next(now);
        (done, next)
    }

    /// Computes the service breakdown an op would have if started at `now`
    /// with the head where it is. Pure; used by calibration and tests.
    pub fn service_preview(&self, now: Instant, block: BlockNo, nblocks: u32) -> ServiceBreakdown {
        self.service_breakdown(now, self.head_cyl, block, nblocks)
    }

    fn service_breakdown(
        &self,
        now: Instant,
        head_cyl: u32,
        block: BlockNo,
        nblocks: u32,
    ) -> ServiceBreakdown {
        let target_cyl = self.geom.cylinder_of(block);
        let distance = head_cyl.abs_diff(target_cyl);
        let command = self.timings.command_overhead;
        let seek = self.seek.time(distance);

        // Rotational latency: the spindle turns continuously; wait for the
        // first target sector to come under the head after command+seek.
        let rot = Duration::from_secs_f64(self.geom.rotation_secs());
        let ready_at = now + command + seek;
        let spindle_angle = (ready_at.as_nanos() % rot.as_nanos()) as f64 / rot.as_nanos() as f64;
        let target_angle = self.geom.angle_of(block);
        let mut wait = target_angle - spindle_angle;
        if wait < 0.0 {
            wait += 1.0;
        }
        let rotation = rot.mul_f64(wait);

        // Media transfer at the zone's rate, plus head/cylinder switches.
        let mut transfer = Duration::ZERO;
        let mut remaining = nblocks as u64;
        let mut cur_block = block;
        while remaining > 0 {
            let cyl = self.geom.cylinder_of(cur_block);
            let spt = self.geom.sectors_per_track(cyl) as u64;
            let rate = self.geom.transfer_rate_at(cyl);
            let within_cyl = cur_block - self.geom.first_block_of(cyl);
            let track_left = spt - (within_cyl % spt);
            let take = remaining.min(track_left);
            transfer += Duration::from_secs_f64(take as f64 * BLOCK_SIZE as f64 / rate);
            remaining -= take;
            cur_block += take;
            if remaining > 0 {
                let next_cyl = self.geom.cylinder_of(cur_block);
                transfer += if next_cyl != cyl {
                    self.timings.cyl_switch
                } else {
                    self.timings.head_switch
                };
            }
        }

        ServiceBreakdown {
            command,
            seek,
            rotation,
            transfer,
        }
    }

    fn start_next(&mut self, now: Instant) -> Option<Instant> {
        debug_assert!(self.inflight.is_none());
        // Real-time queue has strict priority.
        let pending = self
            .rt_queue
            .pop_next(self.head_cyl)
            .or_else(|| self.normal_queue.pop_next(self.head_cyl))?;
        let req = pending.item;
        if let Some(f) = &self.faults {
            if f.volume_down(now) {
                self.down = true;
            }
        }
        let (breakdown, failed) = if self.down {
            // A dead volume answers each command with a fast error; the
            // head never moves and no media time is spent.
            let b = ServiceBreakdown {
                command: ERROR_LATENCY,
                seek: Duration::ZERO,
                rotation: Duration::ZERO,
                transfer: Duration::ZERO,
            };
            (b, true)
        } else {
            let mut b = self.service_breakdown(now, self.head_cyl, req.block, req.nblocks);
            let mut failed = false;
            if let Some(f) = &mut self.faults {
                // Retry stalls show up as extra rotational/positioning
                // time; a media error pays them and then fails.
                let fault = f.next_op();
                b.rotation += fault.delay;
                failed = fault.media_error;
            }
            let end_block = req.block + req.nblocks as u64 - 1;
            self.head_cyl = self.geom.cylinder_of(end_block);
            (b, failed)
        };
        let finishes_at = now + breakdown.total();
        self.stats.busy += breakdown.total();
        self.stats.seek_time += breakdown.seek;
        self.stats.rotation_time += breakdown.rotation;
        self.stats.transfer_time += breakdown.transfer;

        self.inflight = Some(Inflight {
            req,
            submitted_at: pending.submitted_at,
            started_at: now,
            finishes_at,
            breakdown,
            failed,
        });
        Some(finishes_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DiskGeometry;

    type Dev = DiskDevice<u32>;

    fn small_dev() -> Dev {
        // 100 cylinders, 2 heads, 100 sectors/track, 6000 rpm (10 ms/rev).
        DiskDevice::new(
            DiskGeometry::uniform(100, 2, 100, 6000),
            SeekModel::from_min_max(0.001, 0.010, 100),
            DiskTimings::zero(),
        )
    }

    #[test]
    fn idle_submit_starts_immediately() {
        let mut d = small_dev();
        let t0 = Instant::ZERO;
        let fin = d.submit(t0, DiskRequest::read(0, 1, 1));
        assert!(fin.is_some());
        assert!(d.is_busy());
        let (done, next) = d.complete(fin.unwrap());
        assert_eq!(done.req.tag, 1);
        assert!(next.is_none());
        assert!(!d.is_busy());
    }

    #[test]
    fn busy_submit_queues() {
        let mut d = small_dev();
        let t0 = Instant::ZERO;
        let fin1 = d.submit(t0, DiskRequest::read(0, 1, 1)).unwrap();
        let fin2 = d.submit(t0, DiskRequest::read(1000, 1, 2));
        assert!(fin2.is_none());
        assert_eq!(d.queue_depths(), (0, 1));
        let (done1, next) = d.complete(fin1);
        assert_eq!(done1.req.tag, 1);
        let fin2 = next.expect("queued op should start");
        let (done2, _) = d.complete(fin2);
        assert_eq!(done2.req.tag, 2);
    }

    #[test]
    fn rt_queue_has_priority() {
        let mut d = small_dev();
        let t0 = Instant::ZERO;
        let fin1 = d.submit(t0, DiskRequest::read(0, 1, 1)).unwrap();
        d.submit(t0, DiskRequest::read(500, 1, 2));
        d.submit(t0, DiskRequest::rt_read(9000, 1, 3));
        let (_, next) = d.complete(fin1);
        let (done, next2) = d.complete(next.unwrap());
        assert_eq!(done.req.tag, 3, "real-time request must jump the queue");
        let (done, _) = d.complete(next2.unwrap());
        assert_eq!(done.req.tag, 2);
    }

    #[test]
    fn service_time_grows_with_distance() {
        let d = small_dev();
        let near = d.service_preview(Instant::ZERO, 0, 1);
        // Block on the far side of the disk.
        let far_block = d.geometry().first_block_of(99);
        let far = d.service_preview(Instant::ZERO, far_block, 1);
        assert!(far.seek > near.seek);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let d = small_dev();
        let one = d.service_preview(Instant::ZERO, 0, 1).transfer;
        let many = d.service_preview(Instant::ZERO, 0, 100).transfer;
        assert!(many > one * 50);
    }

    #[test]
    fn rotation_below_one_revolution() {
        let d = small_dev();
        let rev = Duration::from_secs_f64(d.geometry().rotation_secs());
        for blk in [0u64, 7, 55, 120, 9999] {
            let b = d.service_preview(Instant::from_nanos(12345), blk, 1);
            assert!(b.rotation < rev, "rotation {:?} >= rev", b.rotation);
        }
    }

    #[test]
    fn head_moves_to_end_of_transfer() {
        let mut d = small_dev();
        let t0 = Instant::ZERO;
        // 100 cyl * 200 blk/cyl; a 400-block read from 0 ends in cylinder 1.
        let fin = d.submit(t0, DiskRequest::read(0, 400, 1)).unwrap();
        d.complete(fin);
        assert_eq!(d.head_cyl(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = small_dev();
        let t0 = Instant::ZERO;
        let fin = d.submit(t0, DiskRequest::rt_read(0, 16, 1)).unwrap();
        let (_, _) = d.complete(fin);
        let fin = d.submit(fin, DiskRequest::read(0, 16, 2)).unwrap();
        let (_, _) = d.complete(fin);
        assert_eq!(d.stats().ops, (1, 1));
        assert_eq!(d.stats().bytes, (16 * 512, 16 * 512));
        assert!(d.stats().busy > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_request_panics() {
        let mut d = small_dev();
        d.submit(Instant::ZERO, DiskRequest::read(0, 0, 1));
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn oversized_request_panics() {
        let mut d = small_dev();
        let total = d.geometry().total_blocks();
        d.submit(Instant::ZERO, DiskRequest::read(total - 1, 2, 1));
    }

    #[test]
    #[should_panic(expected = "nothing in flight")]
    fn complete_when_idle_panics() {
        let mut d = small_dev();
        d.complete(Instant::ZERO);
    }

    #[test]
    fn cscan_order_between_queued_requests() {
        let mut d = small_dev();
        let t0 = Instant::ZERO;
        // Occupy the device, then queue normal requests out of order.
        let fin = d.submit(t0, DiskRequest::read(0, 1, 0)).unwrap();
        let blk = |cyl: u32| d.geometry().first_block_of(cyl);
        let b50 = blk(50);
        let b10 = blk(10);
        let b90 = blk(90);
        d.submit(t0, DiskRequest::read(b50, 1, 50));
        d.submit(t0, DiskRequest::read(b10, 1, 10));
        d.submit(t0, DiskRequest::read(b90, 1, 90));
        let mut order = Vec::new();
        let (_, mut next) = d.complete(fin);
        while let Some(f) = next {
            let (done, n) = d.complete(f);
            order.push(done.req.tag);
            next = n;
        }
        // Head at cylinder 0 after first op: inward sweep 10, 50, 90.
        assert_eq!(order, vec![10, 50, 90]);
    }

    #[test]
    fn down_volume_fails_fast() {
        let mut d = small_dev();
        d.set_down(true);
        let t0 = Instant::ZERO;
        let fin = d.submit(t0, DiskRequest::rt_read(0, 64, 1)).unwrap();
        assert_eq!(fin, t0 + ERROR_LATENCY, "error returns are fast");
        let (done, _) = d.complete(fin);
        assert!(done.failed);
        assert_eq!(d.stats().bytes.0, 0, "no bytes transfer on failure");
        assert_eq!(d.stats().ops.0, 1, "the op itself is still counted");
    }

    #[test]
    fn set_down_fails_the_inflight_op() {
        let mut d = small_dev();
        let t0 = Instant::ZERO;
        let fin = d.submit(t0, DiskRequest::rt_read(0, 64, 1)).unwrap();
        d.set_down(true);
        // The op still completes at its already-scheduled time, as an
        // error.
        let (done, _) = d.complete(fin);
        assert!(done.failed);
    }

    #[test]
    fn scheduled_volume_failure_via_injector() {
        let mut d = small_dev();
        let mut f = FaultInjector::none(1);
        f.fail_volume_at(Instant::ZERO + Duration::from_secs(1));
        d.set_fault_injector(Some(f));
        let fin = d.submit(Instant::ZERO, DiskRequest::read(0, 8, 1)).unwrap();
        let (done, _) = d.complete(fin);
        assert!(!done.failed, "before the schedule fires");
        let late = Instant::ZERO + Duration::from_secs(2);
        let fin = d.submit(late, DiskRequest::read(0, 8, 2)).unwrap();
        let (done, _) = d.complete(fin);
        assert!(done.failed, "after the schedule fires");
        assert!(d.is_down());
    }

    #[test]
    fn media_error_fails_one_op_only() {
        let mut d = small_dev();
        let mut f = FaultInjector::none(1);
        f.fail_at(2);
        d.set_fault_injector(Some(f));
        let mut now = Instant::ZERO;
        let mut failures = Vec::new();
        for i in 0..3 {
            let fin = d.submit(now, DiskRequest::read(0, 8, i)).unwrap();
            now = fin;
            let (done, _) = d.complete(now);
            failures.push(done.failed);
        }
        assert_eq!(failures, vec![false, true, false]);
        assert!(!d.is_down(), "a media error does not down the volume");
        assert_eq!(d.fault_injector().unwrap().media_errors(), 1);
    }

    #[test]
    fn sequential_read_throughput_is_near_media_rate() {
        // Reading a whole cylinder sequentially should approach the zone's
        // media rate (minus switch overheads).
        let mut d: DiskDevice<u32> = DiskDevice::st32550n();
        let mut now = Instant::ZERO;
        let chunk = 256; // 128 KB.
        let total_blocks = 20_000u64;
        let mut blk = 0u64;
        let start = now;
        while blk < total_blocks {
            let fin = d
                .submit(now, DiskRequest::read(blk, chunk, 0))
                .expect("idle");
            now = fin;
            d.complete(now);
            blk += chunk as u64;
        }
        let secs = now.since(start).as_secs_f64();
        let rate = total_blocks as f64 * 512.0 / secs;
        // Sustained rate should be within a plausible band of 6.5 MB/s
        // (command overhead per 128 KB costs ~10%).
        assert!((4.0e6..8.0e6).contains(&rate), "sequential rate {rate} B/s");
    }
}
