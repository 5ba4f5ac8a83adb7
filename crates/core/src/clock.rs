//! Per-stream logical clocks.
//!
//! "Our system uses a logical clock per stream to control retrieval; this
//! clock is distinct from the system clock. The speed of a stream
//! determines the rate of advance of the associated logical clock. At the
//! time when a stream is opened, the logical clock is set to zero, and its
//! rate of advance is set to the original recording data rate of the
//! stream."
//!
//! `crs_start` / `crs_stop` / `crs_seek` manipulate this clock; clients
//! keep their *own* logical clocks at whatever rate they like, which is
//! the decoupling behind dynamic QOS control.

use cras_sim::{Duration, Instant};

/// A pausable, rate-scalable mapping from real time to media time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LogicalClock {
    /// Real time at which the current segment began (None = stopped).
    anchor_real: Option<Instant>,
    /// Media time at the anchor.
    anchor_media: Duration,
    /// Media seconds per real second.
    rate: f64,
}

impl LogicalClock {
    /// A stopped clock at media time zero, rate 1.
    pub(crate) fn new() -> LogicalClock {
        LogicalClock {
            anchor_real: None,
            anchor_media: Duration::ZERO,
            rate: 1.0,
        }
    }

    /// Whether the clock is advancing.
    pub(crate) fn is_running(&self) -> bool {
        self.anchor_real.is_some()
    }

    /// The rate multiplier.
    pub(crate) fn rate(&self) -> f64 {
        self.rate
    }

    /// The real-time anchor of the current running segment (`None` when
    /// stopped). For a freshly started stream this is its playback
    /// begin; batched joins use it to anchor a follower's clock on its
    /// leader's.
    pub(crate) fn anchor(&self) -> Option<Instant> {
        self.anchor_real
    }

    /// Media time at real time `now` (clamped to the anchor for `now`
    /// before the anchor).
    pub(crate) fn media_time(&self, now: Instant) -> Duration {
        match self.anchor_real {
            None => self.anchor_media,
            Some(t0) => {
                let real = now.saturating_since(t0);
                self.anchor_media + real.mul_f64(self.rate)
            }
        }
    }

    /// Starts (or restarts) the clock at real time `start` — `crs_start`.
    /// Starting an already running clock re-anchors it (a no-op for the
    /// media position).
    pub(crate) fn start(&mut self, start: Instant) {
        self.anchor_media = self.media_time(start);
        self.anchor_real = Some(start);
    }

    /// Stops the clock at `now`, freezing media time — `crs_stop`.
    pub(crate) fn stop(&mut self, now: Instant) {
        self.anchor_media = self.media_time(now);
        self.anchor_real = None;
    }

    /// Sets the media position — `crs_seek`. Keeps the running/stopped
    /// state.
    pub(crate) fn seek(&mut self, now: Instant, to: Duration) {
        let running = self.anchor_real.is_some();
        self.anchor_media = to;
        self.anchor_real = if running { Some(now) } else { None };
    }

    /// Changes the rate (fast-forward support) without disturbing the
    /// current media position.
    pub(crate) fn set_rate(&mut self, now: Instant, rate: f64) {
        assert!(rate >= 0.0 && rate.is_finite(), "bad clock rate");
        self.anchor_media = self.media_time(now);
        if self.anchor_real.is_some() {
            self.anchor_real = Some(now);
        }
        self.rate = rate;
    }
}

impl Default for LogicalClock {
    fn default() -> Self {
        LogicalClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> Duration {
        Duration::from_secs_f64(v)
    }
    fn at(v: f64) -> Instant {
        Instant::from_secs_f64(v)
    }

    #[test]
    fn stopped_clock_holds() {
        let c = LogicalClock::new();
        assert!(!c.is_running());
        assert_eq!(c.media_time(at(100.0)), Duration::ZERO);
    }

    #[test]
    fn running_clock_advances_at_rate_one() {
        let mut c = LogicalClock::new();
        c.start(at(10.0));
        assert_eq!(c.media_time(at(10.0)), Duration::ZERO);
        assert_eq!(c.media_time(at(12.5)), s(2.5));
    }

    #[test]
    fn media_time_clamps_before_start() {
        let mut c = LogicalClock::new();
        c.start(at(10.0));
        assert_eq!(c.media_time(at(5.0)), Duration::ZERO);
    }

    #[test]
    fn stop_freezes() {
        let mut c = LogicalClock::new();
        c.start(at(0.0));
        c.stop(at(3.0));
        assert_eq!(c.media_time(at(100.0)), s(3.0));
        c.start(at(200.0));
        assert_eq!(c.media_time(at(201.0)), s(4.0));
    }

    #[test]
    fn seek_repositions() {
        let mut c = LogicalClock::new();
        c.start(at(0.0));
        c.seek(at(5.0), s(60.0));
        assert!(c.is_running());
        assert_eq!(c.media_time(at(7.0)), s(62.0));
        c.stop(at(8.0));
        c.seek(at(9.0), s(10.0));
        assert!(!c.is_running());
        assert_eq!(c.media_time(at(20.0)), s(10.0));
    }

    #[test]
    fn rate_change_scales_advance() {
        let mut c = LogicalClock::new();
        c.start(at(0.0));
        c.set_rate(at(10.0), 2.0); // Fast forward after 10 s.
        assert_eq!(c.media_time(at(10.0)), s(10.0));
        assert_eq!(c.media_time(at(13.0)), s(16.0));
        c.set_rate(at(13.0), 0.5);
        assert_eq!(c.media_time(at(15.0)), s(17.0));
    }

    #[test]
    #[should_panic(expected = "bad clock rate")]
    fn negative_rate_panics() {
        let mut c = LogicalClock::new();
        c.set_rate(at(0.0), -1.0);
    }
}
