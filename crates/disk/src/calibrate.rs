//! Disk parameter calibration — the paper's Appendix A reproduced.
//!
//! The authors measured `D`, `T_seek_max`, `T_seek_min` and `T_cmd` "using
//! small benchmark programs" and derived `T_rot` from the spindle speed.
//! This module runs the same micro-benchmarks against a [`DiskDevice`]:
//!
//! * a seek sweep producing the Figure 12 curve plus its linear fit,
//! * a sequential-read sweep measuring the sustained transfer rate `D`,
//! * a same-sector re-read isolating the command overhead `T_cmd`.
//!
//! The result is a [`DiskParams`] — Table 4 of the paper — which the
//! admission test consumes. Calibrating *through* the device (instead of
//! reading the model's constants) keeps the reproduction honest: the
//! admission test only sees what a real system could measure.

use cras_sim::{Duration, Instant};

use crate::device::DiskDevice;
use crate::request::DiskRequest;
use crate::seek::SeekModel;

/// The measured disk parameters of Table 4 (plus `B_other`, set by system
/// configuration rather than measurement).
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Sustained data transfer rate `D`, bytes/second.
    pub transfer_rate: f64,
    /// Maximum head seek time `T_seek_max` (linear fit at full stroke).
    pub t_seek_max: Duration,
    /// Minimum head seek time `T_seek_min` (linear fit intercept).
    pub t_seek_min: Duration,
    /// Disk rotational latency `T_rot` (one full revolution).
    pub t_rot: Duration,
    /// Disk command overhead `T_cmd`.
    pub t_cmd: Duration,
    /// Maximum block size of other disk traffic `B_other`, bytes.
    pub b_other: u64,
    /// Number of cylinders (for the seek-bound formula).
    pub n_cyl: u32,
}

impl DiskParams {
    /// The paper's Table 4 values, verbatim.
    pub fn paper_table4() -> DiskParams {
        DiskParams {
            transfer_rate: 6.5e6,
            t_seek_max: Duration::from_millis(17),
            t_seek_min: Duration::from_millis(4),
            t_rot: Duration::from_micros(8_330),
            t_cmd: Duration::from_millis(2),
            b_other: 64 * 1024,
            n_cyl: 3510,
        }
    }
}

/// One point of the Figure 12 seek sweep.
#[derive(Clone, Copy, Debug)]
pub struct SeekSample {
    /// Cylinder distance of the seek.
    pub distance_cyl: u32,
    /// Equivalent distance in 512-byte blocks (the paper's "Mblock" axis).
    pub distance_blocks: u64,
    /// Measured seek time.
    pub time: Duration,
    /// The linear approximation at this distance.
    pub approx: Duration,
}

/// Output of a full calibration run.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Measured parameters (Table 4).
    pub params: DiskParams,
    /// Seek curve samples (Figure 12).
    pub seek_curve: Vec<SeekSample>,
    /// Fitted line `(alpha_secs_per_cyl, beta_secs)`.
    pub fit: (f64, f64),
}

/// Runs one op to completion on an otherwise-idle device, returning its
/// completion instant.
fn run_one<T>(dev: &mut DiskDevice<T>, now: Instant, req: DiskRequest<T>) -> Instant {
    let fin = dev.submit(now, req).expect("calibration device busy");
    let (_, next) = dev.complete(fin);
    assert!(next.is_none(), "calibration device not drained");
    fin
}

/// Measures the seek curve: for each probe distance, previews the service
/// breakdown of a seek-dominated access and isolates the seek phase.
pub(crate) fn measure_seek_curve<T>(dev: &DiskDevice<T>, points: usize) -> Vec<(u32, f64)> {
    let n_cyl = dev.geometry().cylinders();
    let step = (n_cyl as usize / points.max(1)).max(1);
    let mut samples = Vec::new();
    let mut distance = 1u32;
    while distance < n_cyl {
        // Preview a read at `distance` cylinders from a head parked at 0;
        // the breakdown separates the seek phase exactly like a
        // measurement rig that subtracts rotation + transfer would.
        let block = dev.geometry().first_block_of(distance);
        let b = dev.service_preview(Instant::ZERO, block, 1);
        samples.push((distance, b.seek.as_secs_f64()));
        distance = distance.saturating_add(step as u32);
    }
    samples
}

/// Measures the sustained sequential transfer rate by timing a long
/// sequence of 128 KB reads (command overhead is subtracted, as a raw-rate
/// benchmark that issues one large command per track would see).
pub(crate) fn measure_transfer_rate<T: Default>(dev: &mut DiskDevice<T>) -> f64 {
    let chunk_blocks = 256u32; // 128 KB per command.
    let span = dev.geometry().total_blocks();
    // Sample the start, middle and end zones for a capacity-weighted rate.
    let starts = [
        0u64,
        span / 2 / chunk_blocks as u64 * chunk_blocks as u64,
        (span - 40 * chunk_blocks as u64) / chunk_blocks as u64 * chunk_blocks as u64,
    ];
    let mut total_bytes = 0.0;
    let mut total_secs = 0.0;
    let mut now = Instant::ZERO;
    for &start in &starts {
        let mut blk = start;
        for _ in 0..32 {
            let preview = dev.service_preview(now, blk, chunk_blocks);
            let fin = run_one(dev, now, DiskRequest::read(blk, chunk_blocks, T::default()));
            // Pure transfer phase only; rotation and command overhead are
            // positioning costs, not rate.
            total_secs += preview.transfer.as_secs_f64();
            total_bytes += chunk_blocks as f64 * 512.0;
            now = fin;
            blk += chunk_blocks as u64;
        }
    }
    total_bytes / total_secs
}

/// Measures the command overhead by re-reading the sector currently under
/// the head: with zero seek, the best-case service time over many aligned
/// attempts converges to `T_cmd` + one sector of transfer.
pub(crate) fn measure_command_overhead<T: Default>(dev: &mut DiskDevice<T>) -> Duration {
    let mut best = Duration::MAX;
    let mut now = Instant::ZERO;
    for i in 0..64 {
        // Walk start times across the rotation to find the aligned case.
        now += Duration::from_micros(130 * (i + 1));
        let b = dev.service_preview(now, 0, 1);
        let candidate = b.command + b.rotation;
        if candidate < best {
            best = candidate;
        }
    }
    best
}

/// Full calibration: the Appendix A procedure.
pub fn calibrate<T: Default>(dev: &mut DiskDevice<T>, b_other: u64) -> Calibration {
    let n_cyl = dev.geometry().cylinders();
    let raw = measure_seek_curve(dev, 64);
    let (alpha, beta) = SeekModel::linear_fit(&raw);
    let t_seek_min = Duration::from_secs_f64(beta.max(0.0));
    let t_seek_max = Duration::from_secs_f64(alpha * n_cyl as f64 + beta);
    let transfer_rate = measure_transfer_rate(dev);
    let t_cmd = measure_command_overhead(dev);
    let t_rot = Duration::from_secs_f64(dev.geometry().rotation_secs());

    let blocks_per_cyl_avg = dev.geometry().total_blocks() / n_cyl as u64;
    let seek_curve = raw
        .iter()
        .map(|&(d, t)| SeekSample {
            distance_cyl: d,
            distance_blocks: d as u64 * blocks_per_cyl_avg,
            time: Duration::from_secs_f64(t),
            approx: Duration::from_secs_f64(alpha * d as f64 + beta),
        })
        .collect();

    Calibration {
        params: DiskParams {
            transfer_rate,
            t_seek_max,
            t_seek_min,
            t_rot,
            t_cmd,
            b_other,
            n_cyl,
        },
        seek_curve,
        fit: (alpha, beta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DiskDevice<u8> {
        DiskDevice::st32550n()
    }

    #[test]
    fn calibration_matches_table4() {
        let mut d = dev();
        let cal = calibrate(&mut d, 64 * 1024);
        let p = cal.params;
        let paper = DiskParams::paper_table4();
        // Transfer rate within 15% of 6.5 MB/s.
        assert!(
            (p.transfer_rate - paper.transfer_rate).abs() / paper.transfer_rate < 0.15,
            "D = {} B/s",
            p.transfer_rate
        );
        // Seek fit near 4 ms / 17 ms.
        assert!(
            (p.t_seek_min.as_secs_f64() - 0.004).abs() < 0.0015,
            "T_seek_min = {:?}",
            p.t_seek_min
        );
        assert!(
            (p.t_seek_max.as_secs_f64() - 0.017).abs() < 0.002,
            "T_seek_max = {:?}",
            p.t_seek_max
        );
        // Rotation 8.33 ms.
        assert!((p.t_rot.as_secs_f64() - 0.00833).abs() < 1e-4);
        // Command overhead 2 ms (plus sub-ms rotation residue at best).
        let cmd_ms = p.t_cmd.as_millis_f64();
        assert!((1.9..3.2).contains(&cmd_ms), "T_cmd = {cmd_ms} ms");
    }

    #[test]
    fn seek_curve_is_monotone_and_covers_disk() {
        let mut d = dev();
        let cal = calibrate(&mut d, 64 * 1024);
        assert!(cal.seek_curve.len() >= 32);
        let mut prev = Duration::ZERO;
        for s in &cal.seek_curve {
            assert!(s.time >= prev);
            prev = s.time;
        }
        let last = cal.seek_curve.last().unwrap();
        assert!(last.distance_cyl > 3000);
    }

    #[test]
    fn approx_brackets_measured_curve() {
        // The linear fit must cross the concave measured curve: above it
        // for short seeks, below it in the middle region.
        let mut d = dev();
        let cal = calibrate(&mut d, 64 * 1024);
        let first = &cal.seek_curve[0];
        assert!(
            first.approx > first.time,
            "fit should overestimate short seeks"
        );
        let mid = &cal.seek_curve[cal.seek_curve.len() / 2];
        assert!(mid.approx < mid.time + Duration::from_millis(3));
    }

    #[test]
    fn paper_table4_constants() {
        let p = DiskParams::paper_table4();
        assert_eq!(p.b_other, 65_536);
        assert_eq!(p.t_cmd, Duration::from_millis(2));
        assert_eq!(p.n_cyl, 3510);
    }
}
