//! The volume layer: a set of independent disks addressed by
//! [`VolumeId`].
//!
//! The paper's server manages one ST32550N, but §4 ("one variation of
//! the system includes several disk devices") anticipates scaling
//! capacity by adding spindles. A [`VolumeSet`] models that variation
//! faithfully to the 1996 hardware: each volume is its own
//! [`DiskDevice`] with its own dual C-SCAN queues, head position,
//! spindle phase, and at most one operation in flight — volumes share
//! nothing and overlap freely, so N volumes give N-way I/O parallelism
//! while every per-disk timing assumption of the admission test still
//! holds per volume.

use cras_sim::Instant;

use crate::device::DiskDevice;
use crate::request::{Completed, DiskRequest};

/// Identifies one disk within a [`VolumeSet`].
///
/// Volume ids are dense: a set of `n` volumes uses ids `0..n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VolumeId(pub u32);

impl VolumeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VolumeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vol{}", self.0)
    }
}

/// Why [`VolumeSet::try_replace_volume`] refused to swap a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplaceError {
    /// The old device still has an operation in flight — typically a
    /// fast error return still draining from a downed volume. Its
    /// completion event would fire against the new device (and panic
    /// the single-op state machine), so the swap must wait.
    InFlight,
}

impl std::fmt::Display for ReplaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplaceError::InFlight => write!(f, "an operation is still in flight"),
        }
    }
}

impl std::error::Error for ReplaceError {}

/// A fixed-size array of independent [`DiskDevice`]s.
///
/// The set is purely an addressing layer: submissions and completions
/// name a volume and are forwarded to that device unchanged, so every
/// invariant of the single-disk state machine (strict real-time
/// priority, C-SCAN order, one in-flight op) holds within each volume.
pub struct VolumeSet<T> {
    disks: Vec<DiskDevice<T>>,
}

impl<T> VolumeSet<T> {
    /// Builds a set from pre-configured devices (ids follow Vec order).
    ///
    /// # Panics
    ///
    /// Panics on an empty set.
    pub fn new(disks: Vec<DiskDevice<T>>) -> VolumeSet<T> {
        assert!(!disks.is_empty(), "a volume set needs at least one disk");
        VolumeSet { disks }
    }

    /// Number of volumes.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Always false: a set holds at least one volume.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The device behind `vol`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn volume(&self, vol: VolumeId) -> &DiskDevice<T> {
        &self.disks[vol.index()]
    }

    /// Mutable access to the device behind `vol`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn volume_mut(&mut self, vol: VolumeId) -> &mut DiskDevice<T> {
        &mut self.disks[vol.index()]
    }

    /// Submits a request to one volume; see [`DiskDevice::submit`].
    pub fn submit(&mut self, vol: VolumeId, now: Instant, req: DiskRequest<T>) -> Option<Instant> {
        self.volume_mut(vol).submit(now, req)
    }

    /// Submits one volume's whole batch in issue order, returning the
    /// completion time of the operation that started (the first request,
    /// and only if the volume was idle — at most one op is ever in
    /// flight per spindle, the rest queue behind it in C-SCAN order).
    /// This is the per-spindle half of the pipelined interval issue
    /// path: the caller hands each volume its batch and every spindle
    /// drains its own chain concurrently.
    pub fn submit_batch(
        &mut self,
        vol: VolumeId,
        now: Instant,
        reqs: impl IntoIterator<Item = DiskRequest<T>>,
    ) -> Option<Instant> {
        let dev = self.volume_mut(vol);
        let mut started = None;
        for req in reqs {
            let at = dev.submit(now, req);
            started = started.or(at);
        }
        started
    }

    /// Completes the in-flight operation on one volume; see
    /// [`DiskDevice::complete`].
    pub fn complete(&mut self, vol: VolumeId, now: Instant) -> (Completed<T>, Option<Instant>) {
        self.volume_mut(vol).complete(now)
    }

    /// Per-volume outstanding command counts (queued in either class
    /// plus any in-flight operation), indexed by volume id — the
    /// device-side half of the read-steering load signal
    /// (`DiskDevice::outstanding`).
    pub fn outstanding_depths(&self) -> impl Iterator<Item = usize> + '_ {
        self.disks.iter().map(|d| d.outstanding())
    }

    /// Marks a volume permanently down: its in-flight operation fails
    /// and all further operations are answered with fast error returns.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn fail_volume(&mut self, vol: VolumeId) {
        self.volume_mut(vol).set_down(true);
    }

    /// Swaps in a replacement device for `vol` (a fresh spindle after a
    /// failure), refusing while the old device still has an operation in
    /// flight — its completion event would otherwise fire against the
    /// new device. Error returns on a downed volume drain in
    /// `ERROR_LATENCY` each, so callers
    /// retry until the error queue has emptied. The old device's
    /// statistics are discarded with it.
    pub fn try_replace_volume(
        &mut self,
        vol: VolumeId,
        device: DiskDevice<T>,
    ) -> Result<(), ReplaceError> {
        if self.volume(vol).is_busy() {
            return Err(ReplaceError::InFlight);
        }
        self.disks[vol.index()] = device;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DiskTimings;
    use crate::geometry::DiskGeometry;
    use crate::seek::SeekModel;

    fn small() -> DiskDevice<u32> {
        DiskDevice::new(
            DiskGeometry::uniform(100, 2, 100, 6000),
            SeekModel::from_min_max(0.001, 0.010, 100),
            DiskTimings::zero(),
        )
    }

    #[test]
    fn volumes_are_independent() {
        let mut set = VolumeSet::new(vec![small(), small()]);
        let t0 = Instant::ZERO;
        // Both volumes accept an op immediately: neither sees the other's
        // in-flight state.
        let f0 = set.submit(VolumeId(0), t0, DiskRequest::read(0, 1, 10));
        let f1 = set.submit(VolumeId(1), t0, DiskRequest::read(0, 1, 11));
        assert!(f0.is_some() && f1.is_some());
        assert!(set.volume(VolumeId(0)).is_busy());
        assert!(set.volume(VolumeId(1)).is_busy());
        let (done0, _) = set.complete(VolumeId(0), f0.unwrap());
        let (done1, _) = set.complete(VolumeId(1), f1.unwrap());
        assert_eq!((done0.req.tag, done1.req.tag), (10, 11));
        assert!(!set.volume(VolumeId(0)).is_busy() && !set.volume(VolumeId(1)).is_busy());
    }

    #[test]
    fn queues_do_not_cross_volumes() {
        let mut set = VolumeSet::new(vec![small(), small()]);
        let t0 = Instant::ZERO;
        let f0 = set
            .submit(VolumeId(0), t0, DiskRequest::read(0, 1, 1))
            .unwrap();
        // A second request to volume 0 queues there, volume 1 stays idle.
        assert!(set
            .submit(VolumeId(0), t0, DiskRequest::read(500, 1, 2))
            .is_none());
        assert_eq!(set.volume(VolumeId(0)).queue_depths(), (0, 1));
        assert_eq!(set.volume(VolumeId(1)).queue_depths(), (0, 0));
        assert!(!set.volume(VolumeId(1)).is_busy());
        let (_, next) = set.complete(VolumeId(0), f0);
        assert!(next.is_some(), "queued op starts on its own volume");
    }

    #[test]
    fn single_volume_set_matches_bare_device() {
        // N=1 must be a pure pass-through: same completion times as a
        // bare DiskDevice fed the same sequence.
        let mut set: VolumeSet<u32> = VolumeSet::new(vec![DiskDevice::st32550n()]);
        let mut dev: DiskDevice<u32> = DiskDevice::st32550n();
        let mut now_set = Instant::ZERO;
        let mut now_dev = Instant::ZERO;
        for (i, blk) in [0u64, 9_000, 40_000, 123].into_iter().enumerate() {
            let fs = set
                .submit(
                    VolumeId(0),
                    now_set,
                    DiskRequest::rt_read(blk, 64, i as u32),
                )
                .unwrap();
            let fd = dev
                .submit(now_dev, DiskRequest::rt_read(blk, 64, i as u32))
                .unwrap();
            assert_eq!(fs, fd);
            set.complete(VolumeId(0), fs);
            dev.complete(fd);
            now_set = fs;
            now_dev = fd;
        }
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn empty_set_panics() {
        let _: VolumeSet<u32> = VolumeSet::new(vec![]);
    }

    #[test]
    fn submit_batch_starts_first_and_queues_the_rest() {
        let mut set = VolumeSet::new(vec![small(), small()]);
        let t0 = Instant::ZERO;
        let f0 = set.submit_batch(
            VolumeId(0),
            t0,
            [
                DiskRequest::rt_read(0, 1, 1),
                DiskRequest::rt_read(500, 1, 2),
                DiskRequest::rt_read(900, 1, 3),
            ],
        );
        assert!(f0.is_some(), "idle volume starts its first request");
        assert_eq!(set.volume(VolumeId(0)).queue_depths(), (2, 0));
        // A batch handed to a busy volume queues entirely.
        let f1 = set.submit_batch(VolumeId(0), t0, [DiskRequest::rt_read(100, 1, 4)]);
        assert!(f1.is_none());
        assert_eq!(set.volume(VolumeId(1)).queue_depths(), (0, 0));
        // The chain drains in order, one op in flight at a time.
        let mut next = Some(f0.unwrap());
        let mut tags = Vec::new();
        while let Some(at) = next {
            let (done, n) = set.complete(VolumeId(0), at);
            tags.push(done.req.tag);
            next = n;
        }
        assert_eq!(tags.len(), 4, "batch conserved");
    }

    #[test]
    fn try_replace_refuses_while_an_op_is_in_flight() {
        let mut set = VolumeSet::new(vec![small(), small()]);
        let t0 = Instant::ZERO;
        let fin = set
            .submit(VolumeId(0), t0, DiskRequest::read(0, 1, 1))
            .unwrap();
        assert_eq!(
            set.try_replace_volume(VolumeId(0), small()),
            Err(ReplaceError::InFlight)
        );
        set.complete(VolumeId(0), fin);
        assert_eq!(set.try_replace_volume(VolumeId(0), small()), Ok(()));
        assert_eq!(set.volume(VolumeId(0)).stats().ops, (0, 0));
    }
}
