//! Per-client delivery sessions with bounded playout buffers.
//!
//! A session numbers the frames the server hands to the network in
//! send order (`ord` 0, 1, 2, …), keeps each unplayed one in a ring
//! with whether it has arrived, and runs a playout cursor that
//! consumes frames strictly in order at deadline instants.
//! The playout anchor is set at the session's first transmission —
//! playout of that frame happens `playout_delay` later, and every
//! subsequent frame at its media timestamp scaled by `drain_scale`
//! (a scale above 1.0 models a client that consumes slower than the
//! presentation rate — the classic misbehaving receiver).
//!
//! The buffer gauge counts arrived-but-unplayed bytes. Crossing the
//! high watermark asks the sys layer to *park* the feeding stream
//! (credit exhausted); draining below the low watermark while parked
//! asks it to resume (credit restored). Between the two, the client's
//! slack is exactly the buffered data — which is also the window the
//! NAK/retransmit machinery has to repair a loss in.
//!
//! A session's state is bounded by its frames in flight: the ring
//! holds ordinals `cursor..` up to the last registered one, and a
//! played frame leaves only its bit in the registered-frame bitset,
//! ⌈(highest frame + 1)/64⌉ words.

use std::collections::{BTreeSet, VecDeque};

use cras_sim::{Duration, Instant};

/// Configuration of one delivery session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionCfg {
    /// Startup buffering: playout of the first transmitted frame
    /// happens this long after the transmission.
    pub playout_delay: Duration,
    /// Park the feeding stream when the playout buffer exceeds this
    /// many bytes.
    pub high_watermark: u64,
    /// Resume a parked stream when the buffer drains below this.
    pub low_watermark: u64,
    /// Real seconds per media second of the client's consumption
    /// (1.0 = nominal; 1.25 = a client playing 25% slow).
    pub drain_scale: f64,
}

impl Default for SessionCfg {
    fn default() -> SessionCfg {
        SessionCfg {
            playout_delay: Duration::from_millis(500),
            high_watermark: u64::MAX,
            low_watermark: 0,
            drain_scale: 1.0,
        }
    }
}

/// One frame handed to the network and not yet played.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct SentFrame {
    /// Frame index in the movie's chunk table.
    pub frame: u32,
    /// Frame size in bytes.
    pub bytes: u64,
    /// Media timestamp of the frame.
    pub ts: Duration,
    /// Whether a copy has arrived at the client.
    pub arrived: bool,
    /// Whether the client has NAK'd it (one NAK per loss).
    pub naked: bool,
}

/// Per-session delivery counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionStats {
    /// Frames this session transmitted itself (packets enqueued,
    /// retransmits not counted).
    pub frames_sent: u64,
    /// Frames suppressed because a multicast group packet carries them.
    pub frames_suppressed: u64,
    /// Frames played on time.
    pub frames_played: u64,
    /// Bytes played.
    pub bytes_played: u64,
    /// Frames that missed their playout deadline — the counted drops.
    pub late_frames: u64,
    /// Frames that arrived after their playout deadline but before the
    /// cursor passed them (played late by the chain's catch-up).
    pub arrived_late: u64,
    /// Total arrival lateness of those frames, nanoseconds.
    pub lateness_ns: u64,
    /// Arrivals discarded because playout had already skipped the frame.
    pub discarded_late: u64,
    /// Duplicate arrivals ignored.
    pub dup_arrivals: u64,
    /// NAKs issued on gap detection.
    pub naks_sent: u64,
    /// Retransmissions enqueued for this session.
    pub retransmits: u64,
    /// Backpressure parks of the feeding stream.
    pub parks: u64,
    /// Resumes after a backpressure park.
    pub resumes: u64,
    /// High-water mark of buffered bytes.
    pub max_buffered: u64,
    /// `(frame, playout instant ns, late)` per playout event, in order —
    /// the delivery fingerprint the equivalence property tests compare.
    /// Every playout with `SysConfig::frame_trace` on; otherwise the
    /// playouts up to and including the first on-time one.
    pub playout_log: Vec<(u32, u64, bool)>,
}

/// One client's delivery session.
#[derive(Clone, Debug)]
pub struct Session {
    /// Client id (equal to the sys layer's `ClientId`).
    pub id: u32,
    /// Link this session transmits on.
    pub link: u32,
    /// Configuration.
    pub cfg: SessionCfg,
    /// Playout anchor: real time of media time zero under the drain
    /// scale. `None` until the first transmission (and again after a
    /// rebuffer — the next transmission re-anchors).
    pub anchor: Option<Instant>,
    /// Next ordinal to play: the ordinal of the ring's front.
    pub cursor: u32,
    /// Whether a playout event for `cursor` is outstanding.
    pub chain_armed: bool,
    /// Whether a net-initiated park of the feeding stream is in force.
    pub paused: bool,
    /// Arrived-but-unplayed bytes.
    pub buffered: u64,
    /// Whether a resume-retry timer is outstanding.
    pub retry_armed: bool,
    /// Counters.
    pub stats: SessionStats,
    /// Frames handed to the network and not yet played: ordinals
    /// `cursor..cursor + len`, in send order, so their frame indices
    /// never decrease.
    ring: VecDeque<SentFrame>,
    /// Bit `f` is set once frame `f` has registered; grown on demand.
    registered: Vec<u64>,
    /// Group-packet payloads that arrived before this member's own
    /// transition registered the frame (decode still in flight).
    early: BTreeSet<u32>,
}

impl Session {
    /// Creates an idle session on `link`.
    pub(crate) fn new(id: u32, link: u32, cfg: SessionCfg) -> Session {
        assert!(cfg.drain_scale > 0.0, "non-positive drain scale");
        assert!(
            cfg.low_watermark <= cfg.high_watermark,
            "watermarks inverted"
        );
        Session {
            id,
            link,
            cfg,
            anchor: None,
            cursor: 0,
            chain_armed: false,
            paused: false,
            buffered: 0,
            retry_armed: false,
            stats: SessionStats::default(),
            ring: VecDeque::new(),
            registered: Vec::new(),
            early: BTreeSet::new(),
        }
    }

    /// Playout deadline of a frame at media timestamp `ts` under the
    /// current anchor.
    ///
    /// # Panics
    ///
    /// Panics if the session has no anchor yet.
    pub(crate) fn deadline(&self, ts: Duration) -> Instant {
        self.anchor.expect("session has no playout anchor") + ts.mul_f64(self.cfg.drain_scale)
    }

    /// Registers a frame handed to the network, assigning the next
    /// ordinal. Sets the anchor on the first registration (and after a
    /// rebuffer) so this frame's playout lands `playout_delay` ahead.
    /// Returns the ordinal, and whether a group packet carrying the
    /// frame already arrived (before the member's decode registered
    /// it): the caller credits that arrival.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is below a frame registered before: a stream
    /// sends its frames in order.
    pub(crate) fn register(
        &mut self,
        frame: u32,
        bytes: u64,
        ts: Duration,
        now: Instant,
    ) -> (u32, bool) {
        assert!(
            self.highest_registered().is_none_or(|h| frame >= h),
            "frame {frame} registered out of order"
        );
        if self.anchor.is_none() {
            // Anchor so this frame plays `playout_delay` from now. A
            // mid-stream (re-)anchor whose scaled lead exceeds the
            // elapsed sim time clamps at time zero rather than
            // underflowing — the chain simply starts as early as the
            // timeline allows.
            let base = now + self.cfg.playout_delay;
            let lead = ts.mul_f64(self.cfg.drain_scale);
            self.anchor = Some(if base.since(Instant::ZERO) >= lead {
                base - lead
            } else {
                Instant::ZERO
            });
        }
        let ord = self.cursor + self.ring.len() as u32;
        self.ring.push_back(SentFrame {
            frame,
            bytes,
            ts,
            arrived: false,
            naked: false,
        });
        let word = frame as usize / 64;
        if word >= self.registered.len() {
            self.registered.resize(word + 1, 0);
        }
        self.registered[word] |= 1 << (frame % 64);
        // Frames below this one can no longer register, so any early
        // group-packet payloads for them belong to server-side drops
        // and will never be claimed; this frame's own is claimed now.
        let early = self.early.remove(&frame);
        self.early.retain(|&f| f > frame);
        (ord, early)
    }

    /// The highest frame registered so far. The bitset only grows to
    /// hold a set bit, so its last word is never zero.
    fn highest_registered(&self) -> Option<u32> {
        let last = *self.registered.last()?;
        Some((self.registered.len() as u32 - 1) * 64 + 63 - last.leading_zeros())
    }

    /// The ordinal a group-packet copy of `frame` delivers to, if the
    /// frame is waiting to play; a repeated frame resolves to its
    /// newest ordinal. A copy of a frame that already played counts
    /// `discarded_late`; one for a frame not registered yet waits in
    /// `early` for its registration.
    pub(crate) fn arrival(&mut self, frame: u32) -> Option<u32> {
        let i = self.ring.partition_point(|f| f.frame <= frame);
        if i > 0 && self.ring[i - 1].frame == frame {
            return Some(self.cursor + i as u32 - 1);
        }
        let registered = self
            .registered
            .get(frame as usize / 64)
            .is_some_and(|w| w >> (frame % 64) & 1 == 1);
        if registered {
            self.stats.discarded_late += 1;
        } else {
            self.early.insert(frame);
        }
        None
    }

    /// Credits an arrival of ordinal `ord`, which must be in the ring:
    /// counts a duplicate, or marks it arrived and runs the buffer and
    /// lateness bookkeeping. An arrival above unarrived ordinals
    /// exposes a gap; each missing ordinal is NAK'd once, through
    /// `nak`. Returns whether this was the first copy.
    pub(crate) fn credit(&mut self, ord: u32, now: Instant, mut nak: impl FnMut(u32)) -> bool {
        let i = (ord - self.cursor) as usize;
        let f = &mut self.ring[i];
        if f.arrived {
            self.stats.dup_arrivals += 1;
            return false;
        }
        f.arrived = true;
        let (bytes, ts) = (f.bytes, f.ts);
        self.buffered += bytes;
        self.stats.max_buffered = self.stats.max_buffered.max(self.buffered);
        let deadline = self.deadline(ts);
        if now > deadline {
            self.stats.arrived_late += 1;
            self.stats.lateness_ns += now.since(deadline).as_nanos();
        }
        for (o, g) in (self.cursor..).zip(self.ring.range_mut(..i)) {
            if !g.arrived && !g.naked {
                g.naked = true;
                self.stats.naks_sent += 1;
                nak(o);
            }
        }
        true
    }

    /// The frame a NAK for `ord` asks to resend, counting the
    /// retransmission; `None` once a copy arrived or playout passed it.
    pub(crate) fn retransmit(&mut self, ord: u32) -> Option<SentFrame> {
        let f = *self.ring.get(ord.checked_sub(self.cursor)? as usize)?;
        if f.arrived {
            return None;
        }
        self.stats.retransmits += 1;
        Some(f)
    }

    /// The frame at the playout cursor.
    pub(crate) fn head(&self) -> Option<&SentFrame> {
        self.ring.front()
    }

    /// Plays the cursor frame at `now` — or counts it late if no copy
    /// arrived — and advances the cursor. The playout enters
    /// `playout_log` if `trace` is on or no frame has played on time
    /// before it.
    ///
    /// # Panics
    ///
    /// Panics if no frame is waiting.
    pub(crate) fn play(&mut self, now: Instant, trace: bool) {
        let f = self.ring.pop_front().expect("armed playout lost frame");
        let log = trace || self.stats.frames_played == 0;
        let late = !f.arrived;
        if late {
            self.stats.late_frames += 1;
        } else {
            self.buffered -= f.bytes;
            self.stats.frames_played += 1;
            self.stats.bytes_played += f.bytes;
        }
        if log {
            self.stats.playout_log.push((f.frame, now.as_nanos(), late));
        }
        self.cursor += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use cras_sim::Rng;

    use super::*;

    #[test]
    fn first_registration_anchors_playout_delay_ahead() {
        let mut s = Session::new(1, 0, SessionCfg::default());
        let now = Instant::ZERO + Duration::from_secs(3);
        s.register(0, 1000, Duration::ZERO, now);
        assert_eq!(s.deadline(Duration::ZERO), now + Duration::from_millis(500));
        assert_eq!(
            s.deadline(Duration::from_secs(1)),
            now + Duration::from_millis(1500)
        );
    }

    #[test]
    fn drain_scale_stretches_deadlines() {
        let cfg = SessionCfg {
            drain_scale: 2.0,
            ..SessionCfg::default()
        };
        let mut s = Session::new(1, 0, cfg);
        let now = Instant::ZERO;
        s.register(0, 1000, Duration::ZERO, now);
        // Media second 1 plays at real second 2 (plus the delay).
        assert_eq!(
            s.deadline(Duration::from_secs(1)),
            now + Duration::from_millis(500) + Duration::from_secs(2)
        );
    }

    #[test]
    fn mid_stream_anchor_accounts_for_the_first_ts() {
        let mut s = Session::new(1, 0, SessionCfg::default());
        let now = Instant::ZERO + Duration::from_secs(10);
        // First transmission is frame 90 at media ts 3 s (a resume).
        s.register(90, 1000, Duration::from_secs(3), now);
        assert_eq!(
            s.deadline(Duration::from_secs(3)),
            now + Duration::from_millis(500)
        );
    }

    #[test]
    fn anchor_clamps_at_time_zero_instead_of_underflowing() {
        let cfg = SessionCfg {
            drain_scale: 2.0,
            ..SessionCfg::default()
        };
        let mut s = Session::new(1, 0, cfg);
        // A 20 s scaled lead with only 1 s elapsed cannot anchor in
        // negative time.
        let now = Instant::ZERO + Duration::from_secs(1);
        s.register(300, 1000, Duration::from_secs(10), now);
        assert_eq!(s.anchor, Some(Instant::ZERO));
    }

    #[test]
    #[should_panic(expected = "watermarks inverted")]
    fn inverted_watermarks_panic() {
        let cfg = SessionCfg {
            high_watermark: 10,
            low_watermark: 20,
            ..SessionCfg::default()
        };
        Session::new(1, 0, cfg);
    }

    #[test]
    fn played_frames_leave_only_their_bit() {
        let mut s = Session::new(1, 0, SessionCfg::default());
        let now = Instant::ZERO;
        let mut naks = 0;
        // 16 frames in flight; every 7th copy is lost, and the next
        // arrival NAKs it.
        for frame in 0..3_200u32 {
            let ts = Duration::from_millis(frame as u64 * 33);
            s.register(frame, 1_000, ts, now);
            if frame % 7 != 0 {
                let ord = s.arrival(frame).expect("waiting to play");
                s.credit(ord, now, |_| naks += 1);
            }
            if frame >= 16 {
                s.play(now, true);
            }
        }
        while s.head().is_some() {
            s.play(now, true);
        }
        assert_eq!(s.cursor, 3_200);
        assert_eq!(s.stats.late_frames, 458);
        assert_eq!(s.stats.frames_played, 3_200 - 458);
        assert_eq!(naks, 457);
        assert!(s.ring.is_empty() && s.early.is_empty() && s.buffered == 0);
        assert!(s.ring.capacity() <= 64, "ring sized by frames in flight");
        assert_eq!(s.registered.len(), 3_200usize.div_ceil(64));
        // A copy of a played frame finds only its bit.
        assert_eq!(s.arrival(5), None);
        assert_eq!(s.stats.discarded_late, 1);
    }

    #[test]
    #[should_panic(expected = "frame 3 registered out of order")]
    fn frames_register_in_order() {
        let mut s = Session::new(1, 0, SessionCfg::default());
        s.register(4, 1_000, Duration::ZERO, Instant::ZERO);
        s.register(3, 1_000, Duration::ZERO, Instant::ZERO);
    }

    /// The bookkeeping the ring replaced, one collection per fact —
    /// `sent` by ordinal, a never-pruned `ord_of_frame`, `naked` and
    /// `early` — with the scalar state it needs (a drain scale of 1).
    #[derive(Default)]
    struct FourMaps {
        anchor: Option<Instant>,
        cursor: u32,
        next_ord: u32,
        buffered: u64,
        stats: SessionStats,
        sent: BTreeMap<u32, SentFrame>,
        ord_of_frame: BTreeMap<u32, u32>,
        naked: BTreeSet<u32>,
        early: BTreeSet<u32>,
    }

    impl FourMaps {
        fn register(&mut self, frame: u32, bytes: u64, ts: Duration, now: Instant) -> u32 {
            self.anchor
                .get_or_insert_with(|| now + SessionCfg::default().playout_delay - ts);
            let ord = self.next_ord;
            self.next_ord += 1;
            let f = SentFrame {
                frame,
                bytes,
                ts,
                arrived: false,
                naked: false,
            };
            self.sent.insert(ord, f);
            self.ord_of_frame.insert(frame, ord);
            self.early.retain(|&f| f >= frame);
            ord
        }

        fn arrival(&mut self, frame: u32) -> Option<u32> {
            match self.ord_of_frame.get(&frame) {
                None => {
                    self.early.insert(frame);
                    None
                }
                Some(o) if !self.sent.contains_key(o) => {
                    self.stats.discarded_late += 1;
                    None
                }
                Some(&o) => Some(o),
            }
        }

        fn credit(&mut self, ord: u32, now: Instant) -> (bool, Vec<u32>) {
            let f = self.sent.get_mut(&ord).expect("credited ordinal is sent");
            if f.arrived {
                self.stats.dup_arrivals += 1;
                return (false, Vec::new());
            }
            f.arrived = true;
            let (bytes, deadline) = (f.bytes, self.anchor.unwrap() + f.ts);
            self.buffered += bytes;
            self.stats.max_buffered = self.stats.max_buffered.max(self.buffered);
            if now > deadline {
                self.stats.arrived_late += 1;
                self.stats.lateness_ns += now.since(deadline).as_nanos();
            }
            let gaps: Vec<u32> = (self.cursor..ord)
                .filter(|o| self.sent.get(o).is_some_and(|g| !g.arrived) && !self.naked.contains(o))
                .collect();
            for &o in &gaps {
                self.naked.insert(o);
                self.stats.naks_sent += 1;
            }
            (true, gaps)
        }

        fn retransmit(&mut self, ord: u32) -> Option<SentFrame> {
            let f = *self.sent.get(&ord)?;
            if f.arrived {
                return None;
            }
            self.stats.retransmits += 1;
            Some(f)
        }

        fn play(&mut self, now: Instant) {
            let f = self.sent.remove(&self.cursor).expect("a frame waits");
            self.naked.remove(&self.cursor);
            let late = !f.arrived;
            if late {
                self.stats.late_frames += 1;
            } else {
                self.buffered -= f.bytes;
                self.stats.frames_played += 1;
                self.stats.bytes_played += f.bytes;
            }
            self.stats.playout_log.push((f.frame, now.as_nanos(), late));
            self.cursor += 1;
        }
    }

    /// Credits `ord` on both models and checks they agree.
    fn credit_both(s: &mut Session, m: &mut FourMaps, ord: u32, now: Instant) -> (bool, usize) {
        let mut naks = Vec::new();
        let first = s.credit(ord, now, |o| naks.push(o));
        assert_eq!((first, naks.clone()), m.credit(ord, now));
        (first, naks.len())
    }

    const BRANCHES: [&str; 16] = [
        "register a repeated frame",
        "register after skipped frames",
        "claim an early payload",
        "arrive first",
        "arrive first, after the deadline",
        "arrive and NAK a gap",
        "arrive for a repeated frame",
        "arrive duplicated",
        "arrive after playout",
        "arrive unregistered, below the highest frame",
        "arrive unregistered, above the highest frame",
        "NAK a missing frame",
        "NAK an arrived frame",
        "NAK a played frame",
        "play on time",
        "play late",
    ];

    #[test]
    fn ring_matches_the_four_map_bookkeeping() {
        let mut hits = [0u32; BRANCHES.len()];
        for seed in 1..=48u64 {
            let mut rng = Rng::new(seed);
            let mut s = Session::new(1, 0, SessionCfg::default());
            let mut m = FourMaps::default();
            let mut now = Instant::ZERO + Duration::from_secs(1);
            // Per-seed pacing: some seeds fall behind their deadlines.
            let step_us = 5_000 + rng.below(30_000);
            for _ in 0..2_000 {
                now += Duration::from_micros(rng.below(step_us));
                let highest = m.ord_of_frame.keys().next_back().copied();
                match rng.below(10) {
                    0..=2 => {
                        let frame = match (highest, rng.below(6)) {
                            (None, _) => 0,
                            (Some(h), 0) => {
                                hits[0] += 1;
                                h
                            }
                            (Some(h), 1) => {
                                hits[1] += 1;
                                h + 2 + rng.below(3) as u32
                            }
                            (Some(h), _) => h + 1,
                        };
                        let (bytes, ts) = (1_000 + rng.below(9_000), frame as u64 * 33);
                        let ts = Duration::from_millis(ts);
                        let (ord, claimed) = s.register(frame, bytes, ts, now);
                        assert_eq!(ord, m.register(frame, bytes, ts, now));
                        assert_eq!(claimed, m.early.remove(&frame));
                        if claimed {
                            hits[2] += 1;
                            credit_both(&mut s, &mut m, ord, now);
                        }
                    }
                    3..=5 => {
                        let waiting: Vec<u32> = m.sent.values().map(|f| f.frame).collect();
                        let frame = if !waiting.is_empty() && rng.chance(0.6) {
                            *rng.pick(&waiting)
                        } else {
                            rng.below(highest.map_or(4, |h| h as u64 + 6)) as u32
                        };
                        let repeated = waiting.iter().filter(|&&f| f == frame).count() > 1;
                        let registered = m.ord_of_frame.contains_key(&frame);
                        let late_before = m.stats.arrived_late;
                        let ord = s.arrival(frame);
                        assert_eq!(ord, m.arrival(frame));
                        match ord {
                            Some(ord) => {
                                hits[6] += repeated as u32;
                                match credit_both(&mut s, &mut m, ord, now) {
                                    (false, _) => hits[7] += 1,
                                    (true, naks) => {
                                        hits[3] += 1;
                                        hits[4] += (m.stats.arrived_late > late_before) as u32;
                                        hits[5] += (naks > 0) as u32;
                                    }
                                }
                            }
                            None if registered => hits[8] += 1,
                            None if highest.is_some_and(|h| frame < h) => hits[9] += 1,
                            None => hits[10] += 1,
                        }
                    }
                    6 if m.next_ord > 0 => {
                        let ord = m.cursor.saturating_sub(4)
                            + rng.below((m.next_ord - m.cursor.saturating_sub(4)) as u64) as u32;
                        let got = s.retransmit(ord).map(|f| (f.frame, f.bytes, f.ts));
                        assert_eq!(got, m.retransmit(ord).map(|f| (f.frame, f.bytes, f.ts)));
                        hits[match (got, ord < m.cursor) {
                            (Some(_), _) => 11,
                            (None, false) => 12,
                            (None, true) => 13,
                        }] += 1;
                    }
                    _ if !m.sent.is_empty() => {
                        let late = !m.sent[&m.cursor].arrived;
                        hits[14 + late as usize] += 1;
                        s.play(now, true);
                        m.play(now);
                    }
                    _ => {}
                }
                assert_eq!(s.cursor, m.cursor, "seed {seed}");
                assert_eq!(s.buffered, m.buffered, "seed {seed}");
                assert_eq!(s.stats, m.stats, "seed {seed}");
                assert_eq!(s.early, m.early, "seed {seed}");
                let ring: Vec<(u32, SentFrame)> =
                    (s.cursor..).zip(s.ring.iter().copied()).collect();
                let sent: Vec<(u32, SentFrame)> = m
                    .sent
                    .iter()
                    .map(|(&o, &f)| {
                        (
                            o,
                            SentFrame {
                                naked: m.naked.contains(&o),
                                ..f
                            },
                        )
                    })
                    .collect();
                assert_eq!(ring, sent, "seed {seed}");
            }
        }
        for (name, n) in BRANCHES.iter().zip(hits) {
            assert!(n > 0, "branch never ran: {name}");
        }
    }
}
