//! The admission test — the paper's Section 2.3 and Appendices B/C,
//! implemented formula by formula.
//!
//! For an interval time `T`, disk parameters (Table 4) and a set of
//! streams with worst-case rates `R_i` and chunk sizes `C_i`:
//!
//! * data per interval (B.3): `A_i = T·R_i + C_i`
//! * feasibility (B.5 / paper (1)):
//!   `T ≥ (O_total·D + C_total) / (D − R_total)`
//! * buffer bound (B.8 / paper (2)): `B_total = 2·(T·R_total + C_total)`
//! * overheads (C.9–C.15):
//!   `O_other = T_cmd + T_seek_max + T_rot + B_other/D`,
//!   `O_cmd = N·T_cmd`, `O_rot = N·T_rot`,
//!   `O_seek(1) = T_seek_max`,
//!   `O_seek(N≥2) = 2·T_seek_max + (N−2)·T_seek_min`.
//!
//! Everything is evaluated in f64 seconds/bytes; callers convert at the
//! edges. The [`AdmissionModel::MultiCommand`] variant is an *ablation*
//! (not in the paper): it charges command and rotation overheads per
//! 256 KB read rather than per stream, quantifying how much of the
//! measured pessimism (Figures 8/9) comes from that simplification.

use cras_disk::calibrate::DiskParams;

/// CRAS reads at most this many bytes per disk command.
pub(crate) const MAX_READ_BYTES: u64 = 256 * 1024;

/// Per-stream admission parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamParams {
    /// Worst-case data rate `R_i`, bytes/second.
    pub rate: f64,
    /// Chunk size `C_i`, bytes (the largest chunk of the stream).
    pub chunk: f64,
}

impl StreamParams {
    /// Convenience constructor.
    pub fn new(rate: f64, chunk: f64) -> StreamParams {
        assert!(rate > 0.0 && chunk >= 0.0, "bad stream parameters");
        StreamParams { rate, chunk }
    }

    /// `A_i = T·R_i + C_i` (B.3): bytes to retrieve per interval.
    pub(crate) fn data_per_interval(&self, interval: f64) -> f64 {
        interval * self.rate + self.chunk
    }

    /// `B_i = 2·A_i` (B.7): buffer bytes.
    pub(crate) fn buffer(&self, interval: f64) -> u64 {
        (2.0 * self.data_per_interval(interval)).ceil() as u64
    }
}

/// A stream set folded into the sums the admission test reads: `n`,
/// `Σ R_i`, `Σ C_i`, the 256 KB read commands `Σ ⌈A_i / 256 KB⌉` and
/// the buffer demand `Σ B_i`, all at one interval `T`.
///
/// Streams are added one at a time in the caller's order, so a fold
/// over a set does exactly the floating-point additions that
/// [`Load::of`] does over the same set collected into a slice, and the
/// two decide identically.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Load {
    /// Streams (or per-spindle read commands) charged: `n`.
    pub n: usize,
    /// `Σ R_i`, bytes/second.
    pub rate: f64,
    /// `Σ C_i`, bytes.
    pub chunk: f64,
    /// `Σ ⌈A_i / 256 KB⌉`: the commands [`AdmissionModel::MultiCommand`]
    /// charges.
    pub reads: f64,
    /// `Σ B_i`, bytes.
    pub buffer: u64,
}

impl Load {
    /// The load of a stream set at interval `interval`.
    pub(crate) fn of(interval: f64, streams: &[StreamParams]) -> Load {
        let mut load = Load::default();
        for s in streams {
            load.add(interval, s);
        }
        load
    }

    /// Adds one stream at interval `interval`.
    pub(crate) fn add(&mut self, interval: f64, s: &StreamParams) {
        self.n += 1;
        self.rate += s.rate;
        self.chunk += s.chunk;
        self.reads += (s.data_per_interval(interval) / MAX_READ_BYTES as f64).ceil();
        self.buffer += s.buffer(interval);
    }
}

/// Which overhead model to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AdmissionModel {
    /// The paper's formulas: one command/rotation per stream.
    #[default]
    Paper,
    /// Ablation: one command/rotation per 256 KB read.
    MultiCommand,
}

/// Why admission failed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionError {
    /// Total stream rate reaches the disk transfer rate.
    RateSaturated {
        /// Σ R_i, bytes/second.
        total_rate: f64,
    },
    /// Calculated I/O time exceeds the interval.
    IntervalTooShort {
        /// The calculated per-interval disk time, seconds.
        needed: f64,
        /// The interval, seconds.
        interval: f64,
    },
    /// Buffer memory demand exceeds the budget.
    OutOfMemory {
        /// Required bytes.
        needed: u64,
        /// Budget bytes.
        budget: u64,
    },
    /// Every volume holding the stream's data is failed — no replica
    /// can serve it.
    VolumeFailed,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::RateSaturated { total_rate } => {
                write!(f, "total rate {total_rate} B/s saturates the disk")
            }
            AdmissionError::IntervalTooShort { needed, interval } => {
                write!(
                    f,
                    "needs {needed:.4}s of disk time per {interval:.4}s interval"
                )
            }
            AdmissionError::OutOfMemory { needed, budget } => {
                write!(f, "needs {needed} B of buffer, budget {budget} B")
            }
            AdmissionError::VolumeFailed => {
                write!(f, "every volume holding the stream's data is failed")
            }
        }
    }
}

/// The admission test evaluator.
///
/// # Examples
///
/// ```
/// use cras_core::{Admission, AdmissionModel, StreamParams};
/// use cras_disk::calibrate::DiskParams;
///
/// let adm = Admission::new(DiskParams::paper_table4(), AdmissionModel::Paper);
/// let mpeg1 = StreamParams::new(187_500.0, 6_250.0);
/// // 5 MPEG-1 streams fit comfortably in a 0.5 s interval...
/// assert!(adm.admit(0.5, &vec![mpeg1; 5], 8 << 20).is_ok());
/// // ...but 20 do not.
/// assert!(adm.admit(0.5, &vec![mpeg1; 20], 8 << 20).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct Admission {
    params: DiskParams,
    model: AdmissionModel,
}

impl Admission {
    /// Creates an evaluator over measured disk parameters.
    pub fn new(params: DiskParams, model: AdmissionModel) -> Admission {
        Admission { params, model }
    }

    /// The disk parameters.
    pub(crate) fn disk_params(&self) -> &DiskParams {
        &self.params
    }

    /// `O_other` (C.9): worst-case delay from one in-progress
    /// non-real-time operation.
    pub fn o_other(&self) -> f64 {
        self.params.t_cmd.as_secs_f64()
            + self.params.t_seek_max.as_secs_f64()
            + self.params.t_rot.as_secs_f64()
            + self.params.b_other as f64 / self.params.transfer_rate
    }

    /// Number of disk commands the model charges for.
    fn command_count(&self, load: &Load) -> f64 {
        match self.model {
            AdmissionModel::Paper => load.n as f64,
            AdmissionModel::MultiCommand => load.reads,
        }
    }

    /// `O_cmd` (C.10).
    pub fn o_cmd(&self, interval: f64, streams: &[StreamParams]) -> f64 {
        self.command_count(&Load::of(interval, streams)) * self.params.t_cmd.as_secs_f64()
    }

    /// `O_seek` (C.11/C.12): the C-SCAN sweep bound. Seeks are charged per
    /// *stream* in both models — consecutive reads of one stream are
    /// sequential.
    pub fn o_seek(&self, streams: &[StreamParams]) -> f64 {
        self.seek_bound(streams.len())
    }

    /// `O_seek` for `n` streams.
    fn seek_bound(&self, n: usize) -> f64 {
        let t_max = self.params.t_seek_max.as_secs_f64();
        let t_min = self.params.t_seek_min.as_secs_f64();
        match n {
            0 => 0.0,
            1 => t_max,
            n => 2.0 * t_max + (n as f64 - 2.0) * t_min,
        }
    }

    /// `O_rot` (C.13).
    pub fn o_rot(&self, interval: f64, streams: &[StreamParams]) -> f64 {
        self.command_count(&Load::of(interval, streams)) * self.params.t_rot.as_secs_f64()
    }

    /// `O_total` (C.14/C.15).
    pub fn o_total(&self, interval: f64, streams: &[StreamParams]) -> f64 {
        self.o_total_load(&Load::of(interval, streams))
    }

    /// `O_total` of a folded stream set.
    fn o_total_load(&self, load: &Load) -> f64 {
        if load.n == 0 {
            return 0.0;
        }
        let commands = self.command_count(load);
        self.o_other()
            + self.seek_bound(load.n)
            + commands * self.params.t_rot.as_secs_f64()
            + commands * self.params.t_cmd.as_secs_f64()
    }

    /// The calculated per-interval disk I/O time:
    /// `O_total + A_total / D` — the denominator of the Figure 8/9
    /// accuracy ratio.
    pub fn calculated_io_time(&self, interval: f64, streams: &[StreamParams]) -> f64 {
        self.io_time(interval, &Load::of(interval, streams))
    }

    /// [`Admission::calculated_io_time`] of a stream set folded at
    /// `interval`.
    pub(crate) fn io_time(&self, interval: f64, load: &Load) -> f64 {
        if load.n == 0 {
            return 0.0;
        }
        let a_total = interval * load.rate + load.chunk;
        self.o_total_load(load) + a_total / self.params.transfer_rate
    }

    /// The minimum feasible interval (paper (1)), or an error if the rates
    /// alone saturate the disk.
    ///
    /// Only exact under [`AdmissionModel::Paper`], where `O_total` does
    /// not depend on `T`; under the ablation model use
    /// [`Admission::admit`] with a concrete interval.
    #[cfg(test)]
    fn min_interval(&self, streams: &[StreamParams]) -> Result<f64, AdmissionError> {
        let d = self.params.transfer_rate;
        // Paper-model O_total is interval-independent; fold at T = 0.
        let load = Load::of(0.0, streams);
        if load.rate >= d {
            return Err(AdmissionError::RateSaturated {
                total_rate: load.rate,
            });
        }
        Ok((self.o_total_load(&load) * d + load.chunk) / (d - load.rate))
    }

    /// `B_total = 2·(T·R_total + C_total)` (B.8 / paper (2)).
    pub fn buffer_total(&self, interval: f64, streams: &[StreamParams]) -> u64 {
        Load::of(interval, streams).buffer
    }

    /// The full admission decision for a stream set at interval `T` with a
    /// buffer-memory budget.
    pub fn admit(
        &self,
        interval: f64,
        streams: &[StreamParams],
        memory_budget: u64,
    ) -> Result<(), AdmissionError> {
        self.admit_load(interval, &Load::of(interval, streams), memory_budget)
    }

    /// [`Admission::admit`] of a stream set folded at `interval`: rate
    /// saturation, then interval feasibility, then the buffer budget.
    pub(crate) fn admit_load(
        &self,
        interval: f64,
        load: &Load,
        memory_budget: u64,
    ) -> Result<(), AdmissionError> {
        if load.rate >= self.params.transfer_rate {
            return Err(AdmissionError::RateSaturated {
                total_rate: load.rate,
            });
        }
        let needed = self.io_time(interval, load);
        if needed > interval {
            return Err(AdmissionError::IntervalTooShort { needed, interval });
        }
        if load.buffer > memory_budget {
            return Err(AdmissionError::OutOfMemory {
                needed: load.buffer,
                budget: memory_budget,
            });
        }
        Ok(())
    }

    /// Maximum number of identical streams admitted at interval `T` with
    /// the given budget (used by the capacity experiment).
    pub fn capacity(
        &self,
        interval: f64,
        proto: StreamParams,
        memory_budget: u64,
        limit: usize,
    ) -> usize {
        let mut load = Load::default();
        for n in 1..=limit {
            load.add(interval, &proto);
            if self.admit_load(interval, &load, memory_budget).is_err() {
                return n - 1;
            }
        }
        limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adm() -> Admission {
        Admission::new(DiskParams::paper_table4(), AdmissionModel::Paper)
    }

    fn mpeg1(n: usize) -> Vec<StreamParams> {
        vec![StreamParams::new(187_500.0, 6_250.0); n]
    }

    const BIG_MEM: u64 = 1 << 30;

    #[test]
    fn o_other_matches_hand_calc() {
        // 2ms + 17ms + 8.33ms + 64KiB/6.5MB/s = 0.02733 + 0.010082 s.
        let o = adm().o_other();
        let expect = 0.002 + 0.017 + 0.00833 + 65_536.0 / 6.5e6;
        assert!((o - expect).abs() < 1e-9, "o_other = {o}");
    }

    #[test]
    fn o_seek_piecewise() {
        let a = adm();
        assert_eq!(a.o_seek(&[]), 0.0);
        assert!((a.o_seek(&mpeg1(1)) - 0.017).abs() < 1e-12);
        assert!((a.o_seek(&mpeg1(2)) - 0.034).abs() < 1e-12);
        // N=5: 2*17 + 3*4 = 46 ms.
        assert!((a.o_seek(&mpeg1(5)) - 0.046).abs() < 1e-12);
    }

    #[test]
    fn o_total_formula_14() {
        // O_total(1) = B_other/D + 2*(Tsm + Trot + Tcmd).
        let a = adm();
        let expect = 65_536.0 / 6.5e6 + 2.0 * (0.017 + 0.00833 + 0.002);
        assert!((a.o_total(0.5, &mpeg1(1)) - expect).abs() < 1e-9);
    }

    #[test]
    fn o_total_formula_15() {
        // O_total(N) = B_other/D + 3*Tsm + (N-2)*Tsmin + (N+1)*(Trot+Tcmd).
        let a = adm();
        let n = 7;
        let expect = 65_536.0 / 6.5e6
            + 3.0 * 0.017
            + (n as f64 - 2.0) * 0.004
            + (n as f64 + 1.0) * (0.00833 + 0.002);
        assert!((a.o_total(0.5, &mpeg1(n)) - expect).abs() < 1e-9);
    }

    #[test]
    fn buffer_is_double_interval_demand() {
        let a = adm();
        // One MPEG1 stream at T = 0.5: A = 93 750 + 6 250 = 100 000;
        // B = 200 000.
        assert_eq!(mpeg1(1)[0].buffer(0.5), 200_000);
        assert_eq!(a.buffer_total(0.5, &mpeg1(4)), 800_000);
    }

    #[test]
    fn paper_capacity_at_half_second_interval() {
        // Hand calculation: O_total(N) + A_total(N)/D <= 0.5 s admits
        // N = 14 MPEG1 streams (the measured Figure 6 throughput goes
        // higher because the test is pessimistic — that is Figure 8).
        let a = adm();
        let cap = a.capacity(0.5, mpeg1(1)[0], BIG_MEM, 50);
        assert!(
            (13..=16).contains(&cap),
            "capacity at 0.5 s = {cap} streams"
        );
        let frac = cap as f64 * 187_500.0 / 6.5e6;
        assert!((0.35..0.50).contains(&frac), "fraction = {frac}");
    }

    #[test]
    fn longer_interval_admits_more_streams() {
        // §3.1: "with 3 seconds initial delay, it can support more than 25
        // MPEG1 streams whose total throughput is 4.6MB/s (70% of disk
        // bandwidth)". 3 s initial delay = 1.5 s interval (double buffer);
        // the formulas admit 24-25 streams at ~70% of the disk rate.
        let a = adm();
        let cap = a.capacity(1.5, mpeg1(1)[0], BIG_MEM, 50);
        assert!((23..=27).contains(&cap), "capacity at 1.5 s = {cap}");
        let frac = cap as f64 * 187_500.0 / 6.5e6;
        assert!(frac > 0.66, "fraction = {frac}");
    }

    #[test]
    fn mpeg2_capacity_is_several() {
        let a = adm();
        let p = StreamParams::new(750_000.0, 25_000.0);
        let cap = a.capacity(0.5, p, BIG_MEM, 20);
        assert!((4..=7).contains(&cap), "MPEG2 capacity = {cap}");
    }

    #[test]
    fn min_interval_matches_admit_boundary() {
        let a = adm();
        let streams = mpeg1(10);
        let t_min = a.min_interval(&streams).unwrap();
        assert!(a.admit(t_min * 1.001, &streams, BIG_MEM).is_ok());
        let err = a.admit(t_min * 0.95, &streams, BIG_MEM);
        assert!(matches!(err, Err(AdmissionError::IntervalTooShort { .. })));
    }

    #[test]
    fn saturation_detected() {
        let a = adm();
        let heavy = vec![StreamParams::new(3.5e6, 25_000.0); 2];
        assert!(matches!(
            a.min_interval(&heavy),
            Err(AdmissionError::RateSaturated { .. })
        ));
    }

    #[test]
    fn memory_budget_enforced() {
        let a = adm();
        // 4 streams need 800 000 B at T = 0.5.
        let err = a.admit(0.5, &mpeg1(4), 700_000);
        assert!(matches!(err, Err(AdmissionError::OutOfMemory { .. })));
        assert!(a.admit(0.5, &mpeg1(4), 800_000).is_ok());
    }

    #[test]
    fn multicommand_model_charges_more_overhead() {
        let paper = adm();
        let multi = Admission::new(DiskParams::paper_table4(), AdmissionModel::MultiCommand);
        // MPEG2 at T = 1.0: A ≈ 775 KB ≈ 3 commands of 256 KB.
        let s = vec![StreamParams::new(750_000.0, 25_000.0); 3];
        let t_paper = paper.calculated_io_time(1.0, &s);
        let t_multi = multi.calculated_io_time(1.0, &s);
        assert!(t_multi > t_paper, "{t_multi} <= {t_paper}");
    }

    #[test]
    fn calculated_io_time_scales_with_interval() {
        let a = adm();
        let s = mpeg1(5);
        let t1 = a.calculated_io_time(0.5, &s);
        let t2 = a.calculated_io_time(1.0, &s);
        // Doubling the interval doubles the transfer term only.
        let transfer_delta = 0.5 * Load::of(0.5, &s).rate / 6.5e6;
        assert!((t2 - t1 - transfer_delta).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_set_is_free() {
        let a = adm();
        assert_eq!(a.calculated_io_time(0.5, &[]), 0.0);
        assert_eq!(a.buffer_total(0.5, &[]), 0);
        assert!(a.admit(0.5, &[], 0).is_ok());
    }
}
