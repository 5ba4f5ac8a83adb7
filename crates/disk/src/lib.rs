//! `cras-disk` — the storage substrate: a calibrated model of the paper's
//! Seagate ST32550N SCSI disk with the modified Real-Time Mach driver.
//!
//! The paper's two driver modifications are both here:
//!
//! 1. **Dual request queues** — a real-time queue (used by CRAS) with
//!    strict priority over the normal queue (used by the Unix file
//!    system), each sorted C-SCAN ([`cscan`]).
//! 2. **Large raw transfers** — requests carry explicit block extents of
//!    any size (CRAS reads up to 256 KB per command), rather than
//!    kernel-allocated per-block buffers.
//!
//! The service-time model ([`device`]) charges command overhead, seek
//! ([`seek`], with both the measured curve and the paper's linear
//! approximation), rotational positioning against a continuously spinning
//! platter, and zoned media transfer ([`geometry`]). [`calibrate`]
//! re-measures the model the way the paper's Appendix A does, producing
//! Table 4 and the Figure 12 seek curve. [`volume`] groups several
//! independent devices into a multi-disk [`VolumeSet`] (the §4
//! "several disk devices" variation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod cscan;
pub mod device;
pub mod faults;
pub mod geometry;
pub mod policy;
pub mod request;
pub mod seek;
pub mod volume;
pub mod xor;

pub use calibrate::{Calibration, DiskParams};
pub use device::DiskDevice;
pub use faults::FaultInjector;
pub use geometry::{BlockNo, DiskGeometry};
pub use policy::{modeled_travel, QueuePolicy, SweepCursor};
pub use request::{Completed, DiskRequest, ServiceBreakdown};
pub use seek::SeekModel;
pub use volume::{VolumeId, VolumeSet};
pub use xor::{parity_of, xor_into};
