//! VBR buffer-waste ablation — §3.2 problem 1.
//!
//! "The sizes of video data compressed by JPEG or MPEG varies
//! significantly. In this case, the rate of a stream is not constant.
//! CRAS allocates buffers for retrieving within each interval time based
//! on worst case bandwidth. If the average bandwidth is much less than
//! the worst case bandwidth, much of the buffer space may not be used."
//!
//! The experiment plays one CBR and one VBR stream of equal *average*
//! rate and reports allocated buffer capacity vs the maximum occupancy
//! actually reached.

use cras_media::StreamProfile;
use cras_sim::Duration;
use cras_sys::{PlayerMode, SysConfig, System};

use crate::result::KvTable;

/// Buffer usage of one stream type.
#[derive(Clone, Copy, Debug)]
pub struct BufferUsage {
    /// Worst-case rate the stream was admitted with (B/s).
    pub admitted_rate: f64,
    /// Average rate actually delivered (B/s).
    pub avg_rate: f64,
    /// Allocated buffer capacity `B_i` (bytes).
    pub allocated: u64,
    /// Maximum occupancy reached (bytes).
    pub max_used: u64,
}

impl BufferUsage {
    /// Fraction of the allocation never used.
    pub(crate) fn waste(&self) -> f64 {
        if self.allocated == 0 {
            0.0
        } else {
            1.0 - self.max_used as f64 / self.allocated as f64
        }
    }
}

fn run_one(profile: StreamProfile, measure: Duration, seed: u64) -> BufferUsage {
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    let mut sys = System::new(cfg);
    let movie = sys.record_movie("m.mov", profile, measure.as_secs_f64() + 8.0);
    let admitted_rate = movie.worst_rate();
    let avg_rate = movie.avg_rate();
    let client = sys.add_cras_player(&movie, 1).expect("one stream fits");
    let start = sys.start_playback(client);
    sys.run_until(start + measure);
    let PlayerMode::Cras { stream } = sys.players[&client.0].mode else {
        unreachable!("cras player");
    };
    let buf = &sys.cras.stream(stream).buffer;
    BufferUsage {
        admitted_rate,
        avg_rate,
        allocated: buf.capacity(),
        max_used: buf.stats().max_bytes,
    }
}

/// Runs the CBR/VBR comparison.
pub fn run(measure: Duration, seed: u64) -> (KvTable, BufferUsage, BufferUsage) {
    let cbr = run_one(StreamProfile::mpeg1(), measure, seed);
    let vbr = run_one(StreamProfile::jpeg_vbr(187_500.0), measure, seed);
    let mut t = KvTable::new("vbr", "§3.2 VBR buffer-waste ablation");
    for (label, u) in [("CBR", &cbr), ("VBR", &vbr)] {
        t.row(
            &format!("{label} admitted (worst) rate"),
            format!("{:.0}", u.admitted_rate),
            "B/s",
        );
        t.row(
            &format!("{label} average rate"),
            format!("{:.0}", u.avg_rate),
            "B/s",
        );
        t.row(
            &format!("{label} buffer allocated"),
            format!("{}", u.allocated),
            "B",
        );
        t.row(
            &format!("{label} buffer max used"),
            format!("{}", u.max_used),
            "B",
        );
        t.row(
            &format!("{label} waste"),
            format!("{:.1}", u.waste() * 100.0),
            "%",
        );
    }
    (t, cbr, vbr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vbr_wastes_more_buffer_than_cbr() {
        let (_t, cbr, vbr) = run(Duration::from_secs(10), 31);
        // VBR admission uses the worst-case rate, well above average.
        assert!(
            vbr.admitted_rate > 1.3 * vbr.avg_rate,
            "worst {} vs avg {}",
            vbr.admitted_rate,
            vbr.avg_rate
        );
        assert!(
            vbr.waste() > cbr.waste() + 0.05,
            "VBR waste {} vs CBR waste {}",
            vbr.waste(),
            cbr.waste()
        );
        // Both stayed within allocation (the admission guarantee).
        assert!(cbr.max_used <= cbr.allocated);
        assert!(vbr.max_used <= vbr.allocated);
    }
}
