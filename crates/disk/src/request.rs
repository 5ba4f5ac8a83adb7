//! Disk request and completion types.
//!
//! Requests are generic over a caller-supplied `tag` so the orchestrator
//! can route completions back to their owner (UFS block fetch, CRAS stream
//! read, calibration probe) without this crate knowing about any of them.

use cras_sim::{Duration, Instant};

use crate::geometry::BlockNo;

/// Which driver queue a request goes to.
///
/// The paper modifies the Real-Time Mach disk driver to keep *two* queues:
/// "one for normal activities, and another for real-time activities ...
/// If there are any requests in the real-time queue, the requests are
/// processed before the request in the non real-time queue."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum IoClass {
    /// CRAS interval pre-fetches: strict priority.
    RealTime,
    /// Unix file system and all other traffic.
    Normal,
}

/// A request submitted to the disk.
#[derive(Clone, Debug)]
pub struct DiskRequest<T> {
    /// Starting block.
    pub block: BlockNo,
    /// Number of 512-byte blocks to transfer.
    pub nblocks: u32,
    /// Scheduling class (queue selection).
    pub(crate) class: IoClass,
    /// Caller routing tag.
    pub tag: T,
}

/// The request constructors name the transfer's direction for the
/// reader; the disk model times reads and writes alike, so a request
/// keeps only its class.
impl<T> DiskRequest<T> {
    fn new(block: BlockNo, nblocks: u32, class: IoClass, tag: T) -> DiskRequest<T> {
        DiskRequest {
            block,
            nblocks,
            class,
            tag,
        }
    }

    /// Convenience constructor for a real-time read.
    pub fn rt_read(block: BlockNo, nblocks: u32, tag: T) -> DiskRequest<T> {
        DiskRequest::new(block, nblocks, IoClass::RealTime, tag)
    }

    /// Convenience constructor for a normal-class read.
    pub fn read(block: BlockNo, nblocks: u32, tag: T) -> DiskRequest<T> {
        DiskRequest::new(block, nblocks, IoClass::Normal, tag)
    }

    /// Convenience constructor for a real-time write.
    pub fn rt_write(block: BlockNo, nblocks: u32, tag: T) -> DiskRequest<T> {
        DiskRequest::new(block, nblocks, IoClass::RealTime, tag)
    }

    /// Convenience constructor for a normal-class write.
    pub fn write(block: BlockNo, nblocks: u32, tag: T) -> DiskRequest<T> {
        DiskRequest::new(block, nblocks, IoClass::Normal, tag)
    }

    /// Bytes transferred by this request.
    pub fn bytes(&self) -> u64 {
        self.nblocks as u64 * crate::geometry::BLOCK_SIZE as u64
    }
}

/// Per-phase timing of one serviced operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceBreakdown {
    /// Controller command processing overhead (the paper's `T_cmd`).
    pub command: Duration,
    /// Head seek travel time.
    pub seek: Duration,
    /// Rotational latency waiting for the first sector.
    pub rotation: Duration,
    /// Media transfer time, including track/cylinder switch overheads.
    pub transfer: Duration,
}

impl ServiceBreakdown {
    /// Total service time (the op occupies the disk for this long).
    pub fn total(&self) -> Duration {
        self.command + self.seek + self.rotation + self.transfer
    }
}

/// A completed operation with its full timing history.
#[derive(Clone, Debug)]
pub struct Completed<T> {
    /// The original request.
    pub req: DiskRequest<T>,
    /// When the request entered the driver.
    pub submitted_at: Instant,
    /// When the disk started servicing it.
    pub started_at: Instant,
    /// When the transfer finished.
    pub finished_at: Instant,
    /// Phase timing.
    pub breakdown: ServiceBreakdown,
    /// The operation failed (its volume is down); no data was
    /// transferred.
    pub failed: bool,
}

impl<T> Completed<T> {
    /// Total latency from submission to completion.
    pub fn latency(&self) -> Duration {
        self.finished_at.since(self.submitted_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_class() {
        let r = DiskRequest::rt_read(10, 4, ());
        assert_eq!(r.class, IoClass::RealTime);
        let w = DiskRequest::write(10, 4, ());
        assert_eq!(w.class, IoClass::Normal);
    }

    #[test]
    fn bytes_counts_blocks() {
        let r = DiskRequest::read(0, 16, ());
        assert_eq!(r.bytes(), 16 * 512);
    }

    #[test]
    fn breakdown_total() {
        let b = ServiceBreakdown {
            command: Duration::from_millis(2),
            seek: Duration::from_millis(5),
            rotation: Duration::from_millis(4),
            transfer: Duration::from_millis(1),
        };
        assert_eq!(b.total(), Duration::from_millis(12));
    }

    #[test]
    fn completed_latency_accounting() {
        let c = Completed {
            req: DiskRequest::read(0, 1, ()),
            submitted_at: Instant::from_nanos(100),
            started_at: Instant::from_nanos(300),
            finished_at: Instant::from_nanos(900),
            breakdown: ServiceBreakdown::default(),
            failed: false,
        };
        assert_eq!(c.latency(), Duration::from_nanos(800));
    }
}
