//! The paper's stream classes and rate constants.
//!
//! "The data rate of each stream is 1.5Mbps. This rate corresponds to a
//! MPEG1 data stream" and "6Mbps ... corresponds to MPEG2". Rates are
//! decimal megabits per second.

use cras_sim::Duration;

/// Bytes per second of an MPEG-1 stream (1.5 Mbps).
pub(crate) const MPEG1_RATE: f64 = 1_500_000.0 / 8.0;

/// Bytes per second of an MPEG-2 stream (6 Mbps).
pub(crate) const MPEG2_RATE: f64 = 6_000_000.0 / 8.0;

/// The paper's standard video frame rate.
pub(crate) const FPS_30: f64 = 30.0;

/// Converts megabits/second to bytes/second.
pub fn mbps(m: f64) -> f64 {
    m * 1_000_000.0 / 8.0
}

/// A stream profile: frame rate plus data rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamProfile {
    /// Frames (chunks) per second.
    pub fps: f64,
    /// Average data rate, bytes/second.
    pub rate: f64,
    /// Coefficient of variation of frame sizes (0 = CBR).
    pub size_cv: f64,
}

impl StreamProfile {
    /// The paper's MPEG-1-like benchmark stream: 1.5 Mbps at 30 fps, CBR.
    pub fn mpeg1() -> StreamProfile {
        StreamProfile {
            fps: FPS_30,
            rate: MPEG1_RATE,
            size_cv: 0.0,
        }
    }

    /// The paper's MPEG-2-like benchmark stream: 6 Mbps at 30 fps, CBR.
    pub fn mpeg2() -> StreamProfile {
        StreamProfile {
            fps: FPS_30,
            rate: MPEG2_RATE,
            size_cv: 0.0,
        }
    }

    /// A motion-JPEG-like VBR profile (§3.2: "the sizes of video data
    /// compressed by JPEG or MPEG varies significantly").
    pub fn jpeg_vbr(rate: f64) -> StreamProfile {
        StreamProfile {
            fps: FPS_30,
            rate,
            size_cv: 0.35,
        }
    }

    /// Mean bytes per frame.
    pub(crate) fn bytes_per_frame(&self) -> f64 {
        self.rate / self.fps
    }

    /// Frame period.
    pub(crate) fn frame_period(&self) -> Duration {
        Duration::from_secs_f64(1.0 / self.fps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates() {
        assert_eq!(MPEG1_RATE, 187_500.0);
        assert_eq!(MPEG2_RATE, 750_000.0);
        assert_eq!(mbps(1.5), MPEG1_RATE);
    }

    #[test]
    fn profile_arithmetic() {
        let p = StreamProfile::mpeg1();
        assert!((p.bytes_per_frame() - 6250.0).abs() < 1e-9);
        assert_eq!(p.frame_period(), Duration::from_secs_f64(1.0 / 30.0));
    }

    #[test]
    fn vbr_has_variance() {
        assert!(StreamProfile::jpeg_vbr(MPEG1_RATE).size_cv > 0.0);
        assert_eq!(StreamProfile::mpeg2().size_cv, 0.0);
    }
}
