//! Player applications: the QtPlay-like clients that fetch frames on
//! their own schedule and measure per-frame delay.
//!
//! A player consumes frame `k` at `playback_start + timestamp(k)`; the
//! measured delay of a frame is how long past that point the frame was
//! actually decoded and "displayed" (Figures 7 and 10 plot this over
//! time). A `stride` of 3 consumes every third frame — the paper's
//! dynamic-QOS scenario of playing a 30 fps stream at 10 fps without
//! telling the server.

use cras_core::StreamId;
use cras_media::ChunkTable;
use cras_rtmach::ThreadId;
use cras_sim::stats::{OnlineStats, TimeSeries};
use cras_sim::Instant;
use cras_ufs::Ino;

use crate::tags::ClientId;

/// How the player reaches its media data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlayerMode {
    /// Through CRAS: `crs_get` from the time-driven buffer.
    Cras {
        /// The open CRAS stream.
        stream: StreamId,
    },
    /// Through the Unix file system: a synchronous read per frame.
    Ufs {
        /// The movie file.
        ino: Ino,
        /// Volume the file lives on.
        vol: u32,
    },
}

/// Player measurement counters.
#[derive(Clone, Debug, Default)]
pub struct PlayerStats {
    /// Frames decoded and displayed.
    pub frames_shown: u64,
    /// Frames abandoned because their time had passed before data arrived.
    pub frames_dropped: u64,
    /// Media bytes consumed.
    pub bytes_consumed: u64,
    /// Buffer polls that found no data yet.
    pub polls: u64,
    /// `(time, delay_seconds)` per displayed frame with
    /// `SysConfig::frame_trace` on; otherwise the first displayed
    /// frame's point only.
    pub delays: TimeSeries,
    /// Running mean and max over every displayed frame's delay.
    delay: OnlineStats,
}

/// One player application.
#[derive(Clone, Debug)]
pub struct Player {
    /// Client id.
    pub id: ClientId,
    /// Data path.
    pub mode: PlayerMode,
    /// The movie's chunk table (frame schedule).
    pub table: ChunkTable,
    /// Real time of media time zero.
    pub playback_start: Instant,
    /// Next frame to consume.
    pub next_frame: u32,
    /// Consume every `stride`-th frame (1 = all frames).
    pub stride: u32,
    /// Real seconds per media second of the presentation schedule
    /// (1.0 = normal speed, 0.5 = fast-forward at 2x).
    pub time_scale: f64,
    /// The player's CPU thread.
    pub tid: ThreadId,
    /// Polls spent on the current frame (drop safeguard).
    pub polls_this_frame: u32,
    /// Whether playback has finished.
    pub done: bool,
    /// Whether the viewer is paused (rebuffering) because its stream
    /// was parked by a failed re-admission. A paused player absorbs
    /// queued frame/poll events without rescheduling; resuming the
    /// stream schedules a fresh frame event.
    pub paused: bool,
    /// Measurements.
    pub stats: PlayerStats,
}

impl Player {
    /// Creates a player; playback does not begin until
    /// [`Player::playback_start`] is set by the system.
    pub(crate) fn new(
        id: ClientId,
        mode: PlayerMode,
        table: ChunkTable,
        stride: u32,
        tid: ThreadId,
    ) -> Player {
        assert!(stride >= 1, "zero stride");
        Player {
            id,
            mode,
            table,
            playback_start: Instant::ZERO,
            next_frame: 0,
            stride,
            time_scale: 1.0,
            tid,
            polls_this_frame: 0,
            done: false,
            paused: false,
            stats: PlayerStats::default(),
        }
    }

    /// Absolute due time of frame `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub(crate) fn due(&self, k: u32) -> Instant {
        let ts = self.table.get(k).expect("frame in range").timestamp;
        self.playback_start + ts.mul_f64(self.time_scale)
    }

    /// Records a displayed frame and advances; returns the next frame's
    /// due time, or `None` at end of stream. The frame's delay enters
    /// the summary; it enters `delays` if `trace` is on or it is the
    /// first frame shown.
    pub(crate) fn frame_shown(&mut self, k: u32, now: Instant, trace: bool) -> Option<Instant> {
        let chunk = self.table.get(k).expect("frame in range");
        let delay = now.saturating_since(self.due(k)).as_secs_f64();
        self.stats.frames_shown += 1;
        self.stats.bytes_consumed += chunk.size as u64;
        self.stats.delay.add(delay);
        if trace || self.stats.frames_shown == 1 {
            self.stats.delays.push(now, delay);
        }
        self.advance(now)
    }

    /// Records a dropped frame and advances; returns the next frame's due
    /// time, or `None` at end of stream.
    pub(crate) fn frame_dropped(&mut self, now: Instant) -> Option<Instant> {
        self.stats.frames_dropped += 1;
        self.advance(now)
    }

    fn advance(&mut self, _now: Instant) -> Option<Instant> {
        self.polls_this_frame = 0;
        let next = self.next_frame + self.stride;
        if (next as usize) < self.table.len() {
            self.next_frame = next;
            Some(self.due(next))
        } else {
            self.done = true;
            None
        }
    }

    /// Mean and maximum displayed-frame delay (seconds).
    pub fn delay_summary(&self) -> (f64, f64) {
        (self.stats.delay.mean(), self.stats.delay.max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_media::StreamProfile;
    use cras_rtmach::{Cpu, SchedPolicy};
    use cras_sim::Rng;

    fn table() -> ChunkTable {
        let mut rng = Rng::new(5);
        cras_media::generate_chunks(&StreamProfile::mpeg1(), 2.0, &mut rng)
    }

    fn player(stride: u32) -> Player {
        Player::new(
            ClientId(0),
            PlayerMode::Ufs { ino: 0, vol: 0 },
            table(),
            stride,
            Cpu::<()>::new().create(SchedPolicy::FixedPriority { prio: 1 }),
        )
    }

    #[test]
    fn due_times_follow_schedule() {
        let mut p = player(1);
        p.playback_start = Instant::from_secs_f64(10.0);
        assert_eq!(p.due(0), Instant::from_secs_f64(10.0));
        let d30 = p.due(30); // Frame 30 of a 30 fps stream = +1 s.
        assert!((d30.as_secs_f64() - 11.0).abs() < 1e-6);
    }

    #[test]
    fn frame_shown_records_delay_and_advances() {
        let mut p = player(1);
        p.playback_start = Instant::ZERO;
        let next = p.frame_shown(0, Instant::from_secs_f64(0.010), false);
        assert!(next.is_some());
        assert_eq!(p.next_frame, 1);
        assert_eq!(p.stats.frames_shown, 1);
        let (mean, max) = p.delay_summary();
        assert!((mean - 0.010).abs() < 1e-9);
        assert_eq!(mean, max);
        p.frame_shown(1, Instant::from_secs_f64(0.060), false);
        assert!(p.delay_summary().1 > max);
        assert_eq!(
            p.stats.delays.points().len(),
            1,
            "untraced: first frame only"
        );
    }

    #[test]
    fn stride_skips_frames() {
        let mut p = player(3);
        p.playback_start = Instant::ZERO;
        p.frame_shown(0, Instant::ZERO, false);
        assert_eq!(p.next_frame, 3);
        p.frame_shown(3, Instant::from_secs_f64(0.2), false);
        assert_eq!(p.next_frame, 6);
    }

    #[test]
    fn end_of_stream_sets_done() {
        let mut p = player(1);
        p.playback_start = Instant::ZERO;
        let last = (p.table.len() - 1) as u32;
        p.next_frame = last;
        let next = p.frame_shown(last, Instant::from_secs_f64(2.0), false);
        assert!(next.is_none());
        assert!(p.done);
    }

    #[test]
    fn shown_and_dropped_frames_are_counted() {
        let mut p = player(1);
        p.playback_start = Instant::ZERO;
        p.frame_shown(0, Instant::ZERO, false);
        p.frame_dropped(Instant::from_secs_f64(0.1));
        assert_eq!((p.stats.frames_shown, p.stats.frames_dropped), (1, 1));
    }

    #[test]
    fn time_scale_compresses_schedule() {
        let mut p = player(1);
        p.playback_start = Instant::ZERO;
        p.time_scale = 0.5;
        // Frame 30 (media 1 s) is due at 0.5 s in fast-forward.
        let d = p.due(30);
        assert!((d.as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "zero stride")]
    fn zero_stride_panics() {
        player(0);
    }
}
