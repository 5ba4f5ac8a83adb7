//! The delivery state machine: multicast fan-out, NAK/retransmit,
//! playout chains and backpressure, over paced shared links.
//!
//! `NetDelivery` is pure in the same sense as `cras-core`: no engine,
//! no clock. Every entry point takes `now` and appends [`NetEffect`]
//! values describing the timers and control transfers it wants; the
//! caller (normally `cras-sys`, or the mini event pump in the unit
//! tests) owns the event loop. Identical call sequences therefore
//! produce identical effect sequences — the whole subsystem replays
//! bit for bit, which the determinism properties lean on.
//!
//! # Lifecycle of a frame
//!
//! 1. The server decodes a frame for a stream and calls
//!    [`NetDelivery::send_frame`]. The session registers the frame
//!    under the next send ordinal (anchoring its playout clock on the
//!    very first registration).
//! 2. Unless the session is a multicast group member (the leader's
//!    packet carries its copy), a packet is queued on the session's
//!    link, EDF by playout deadline. The link serializes one packet at
//!    a time; a fault injector may drop, duplicate or delay it.
//! 3. Each arrival delivers the frame to every member listed in the
//!    packet. A member seeing a gap below the arrival NAKs the missing
//!    ordinals once; a NAK triggers a unicast retransmission that
//!    competes in the same EDF queue (its earlier deadline usually
//!    wins).
//! 4. A playout chain per session consumes ordinals strictly in order
//!    at their deadlines. A frame that has not arrived by its deadline
//!    is a counted late frame — the stream never stalls, exactly like
//!    a viewer that keeps the clock running over a glitch.
//! 5. Crossing the buffer's high watermark emits [`NetEffect::Park`]
//!    (feeding stream should release its disk share); draining below
//!    the low watermark emits [`NetEffect::Resume`].

use std::collections::{BTreeMap, BTreeSet};

use cras_sim::{Duration, IdTable, Instant};

use crate::faults::{NetFault, NetFaultInjector, NetFaults};
use crate::link::{LinkParams, PacedLink};
use crate::session::{Session, SessionCfg};

/// A timer or control transfer requested by the delivery machine.
///
/// Timed variants carry the absolute instant they should fire at;
/// `Park`/`Resume` are immediate requests to the stream layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NetEffect {
    /// The link transmitter finishes serializing at `at`.
    LinkFree {
        /// When the transmitter frees up.
        at: Instant,
        /// Link index.
        link: u32,
    },
    /// A copy of packet `pkt` reaches the clients at `at`.
    Arrive {
        /// Arrival instant.
        at: Instant,
        /// Link index.
        link: u32,
        /// Packet id.
        pkt: u64,
    },
    /// Client `session`'s NAK for ordinal `ord` reaches the server at
    /// `at`.
    Nak {
        /// When the NAK lands server-side.
        at: Instant,
        /// Session (client) id.
        session: u32,
        /// Missing send ordinal.
        ord: u32,
    },
    /// Session `session` plays (or declares late) ordinal `ord` at `at`.
    Playout {
        /// Playout deadline instant.
        at: Instant,
        /// Session (client) id.
        session: u32,
        /// Ordinal to consume.
        ord: u32,
    },
    /// The session's buffer crossed the high watermark: park the
    /// feeding stream.
    Park {
        /// Session (client) id.
        session: u32,
    },
    /// The session's buffer drained below the low watermark: resume the
    /// feeding stream.
    Resume {
        /// Session (client) id.
        session: u32,
    },
}

/// One queued or in-flight transmission.
#[derive(Clone, Debug)]
struct Packet {
    /// Frame index carried.
    frame: u32,
    /// Payload bytes.
    bytes: u64,
    /// Sessions this packet delivers to (the sender first; group
    /// members after, in id order).
    members: Vec<u32>,
    /// Whether this is a NAK-driven retransmission.
    retransmit: bool,
    /// When the packet entered the send queue.
    enqueued_at: Instant,
    /// Copies still in flight (set at transmission).
    remaining_arrivals: u32,
}

/// The NPS-style delivery subsystem: sessions, links, groups, packets.
#[derive(Clone, Debug, Default)]
pub struct NetDelivery {
    links: Vec<PacedLink>,
    /// Sessions by client id (the sys layer's dense `ClientId`s).
    sessions: IdTable<Session>,
    /// Multicast groups: leader client → member clients (leader not
    /// included).
    groups: BTreeMap<u32, BTreeSet<u32>>,
    /// Reverse map: member client → leader client.
    member_of: BTreeMap<u32, u32>,
    /// Whether joined groups share one transmission per link.
    multicast: bool,
    /// Queued and in-flight packets.
    packets: BTreeMap<u64, Packet>,
    next_pkt: u64,
    /// Whether sessions log every playout, not only those up to the
    /// first on-time one.
    frame_trace: bool,
}

impl NetDelivery {
    /// Creates an empty delivery subsystem (no links, unicast mode)
    /// whose sessions log every playout if `frame_trace` is on.
    pub fn new(frame_trace: bool) -> NetDelivery {
        NetDelivery {
            frame_trace,
            ..NetDelivery::default()
        }
    }

    /// Adds a link and returns its index.
    pub fn add_link(&mut self, params: LinkParams) -> u32 {
        self.links.push(PacedLink::new(params));
        (self.links.len() - 1) as u32
    }

    /// Installs (or clears) a deterministic fault injector on a link.
    pub fn set_link_faults(&mut self, link: u32, faults: Option<NetFaults>) {
        self.links[link as usize].faults = faults.map(NetFaultInjector::new);
    }

    /// Enables or disables multicast fan-out for joined groups.
    pub fn set_multicast(&mut self, on: bool) {
        self.multicast = on;
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Read access to a link.
    pub fn link(&self, link: u32) -> &PacedLink {
        &self.links[link as usize]
    }

    /// Attaches a delivery session for `client` on `link`.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist or the client already has a
    /// session.
    pub fn attach(&mut self, client: u32, link: u32, cfg: SessionCfg) {
        assert!((link as usize) < self.links.len(), "no such link");
        let prev = self
            .sessions
            .insert(client, Session::new(client, link, cfg));
        assert!(prev.is_none(), "client already attached");
    }

    /// Whether `client` has a delivery session.
    pub fn has_session(&self, client: u32) -> bool {
        self.sessions.contains_key(&client)
    }

    /// Read access to a session.
    pub fn session(&self, client: u32) -> Option<&Session> {
        self.sessions.get(&client)
    }

    /// Iterates sessions in client-id order.
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.sessions.values()
    }

    /// Aligns `member`'s group membership with the stream layer's view
    /// (`leader` = the client whose stream feeds the joined group, or
    /// `None` when the member plays standalone). Membership only forms
    /// when both sessions exist and share a link — multicast saves
    /// bytes on a shared segment, not across segments.
    pub fn sync_membership(&mut self, member: u32, leader: Option<u32>) {
        let current = self.member_of.get(&member).copied();
        let target = leader.filter(|&l| {
            l != member
                && match (self.sessions.get(&l), self.sessions.get(&member)) {
                    (Some(ls), Some(ms)) => ls.link == ms.link,
                    _ => false,
                }
        });
        if current == target {
            return;
        }
        if let Some(old) = current {
            self.member_of.remove(&member);
            if let Some(g) = self.groups.get_mut(&old) {
                g.remove(&member);
                if g.is_empty() {
                    self.groups.remove(&old);
                }
            }
        }
        if let Some(new) = target {
            self.member_of.insert(member, new);
            self.groups.entry(new).or_default().insert(member);
        }
    }

    /// Hands a decoded frame to the network for `client`.
    ///
    /// In multicast mode a group member's transmission is suppressed —
    /// the leader's packet already lists it as a delivery target — but
    /// the frame still registers on the member's session so its playout
    /// chain and buffer accounting run identically to unicast.
    pub fn send_frame(
        &mut self,
        client: u32,
        frame: u32,
        bytes: u64,
        ts: Duration,
        now: Instant,
        out: &mut Vec<NetEffect>,
    ) {
        let suppressed = self.multicast && self.member_of.contains_key(&client);
        let Some(s) = self.sessions.get_mut(&client) else {
            return;
        };
        let (ord, early) = s.register(frame, bytes, ts, now);
        if suppressed {
            s.stats.frames_suppressed += 1;
        } else {
            s.stats.frames_sent += 1;
        }
        let (link_id, deadline) = (s.link, s.deadline(ts));
        if early {
            // The group packet landed before this member's decode
            // registered the frame; credit the arrival now.
            self.note_arrival(client, ord, now, out);
        }
        if !suppressed {
            let mut members = vec![client];
            if self.multicast {
                if let Some(g) = self.groups.get(&client) {
                    members.extend(g.iter().copied());
                }
            }
            if members.len() > 1 {
                self.links[link_id as usize].stats.multicast_saved_bytes +=
                    bytes * (members.len() as u64 - 1);
            }
            let pkt = self.next_pkt;
            self.next_pkt += 1;
            self.packets.insert(
                pkt,
                Packet {
                    frame,
                    bytes,
                    members,
                    retransmit: false,
                    enqueued_at: now,
                    remaining_arrivals: 0,
                },
            );
            self.links[link_id as usize].push(deadline, pkt, bytes);
            self.start_link(link_id, now, out);
        }
        let s = self.sessions.get_mut(&client).expect("checked above");
        arm(s, now, out);
    }

    /// Handles the link transmitter freeing up.
    pub fn on_link_free(&mut self, link: u32, now: Instant, out: &mut Vec<NetEffect>) {
        self.links[link as usize].end_send();
        self.start_link(link, now, out);
    }

    /// Handles one copy of `pkt` arriving at the clients.
    pub fn on_arrive(&mut self, _link: u32, pkt: u64, now: Instant, out: &mut Vec<NetEffect>) {
        let Some(p) = self.packets.get_mut(&pkt) else {
            return;
        };
        p.remaining_arrivals -= 1;
        let frame = p.frame;
        let members = if p.remaining_arrivals == 0 {
            self.packets.remove(&pkt).expect("looked up above").members
        } else {
            p.members.clone()
        };
        for m in members {
            // `None` for a frame already played, or one the member's
            // decode has not registered yet (group packets can outrun
            // the CPU).
            if let Some(ord) = self.sessions.get_mut(&m).and_then(|s| s.arrival(frame)) {
                self.note_arrival(m, ord, now, out);
            }
        }
    }

    /// Handles a NAK for `ord` landing server-side: enqueue a unicast
    /// retransmission unless a copy arrived (or playout passed) in the
    /// meantime.
    pub fn on_nak(&mut self, client: u32, ord: u32, now: Instant, out: &mut Vec<NetEffect>) {
        let Some(s) = self.sessions.get_mut(&client) else {
            return;
        };
        let Some(f) = s.retransmit(ord) else {
            return;
        };
        let (frame, bytes, link_id, deadline) = (f.frame, f.bytes, s.link, s.deadline(f.ts));
        let pkt = self.next_pkt;
        self.next_pkt += 1;
        self.packets.insert(
            pkt,
            Packet {
                frame,
                bytes,
                members: vec![client],
                retransmit: true,
                enqueued_at: now,
                remaining_arrivals: 0,
            },
        );
        self.links[link_id as usize].push(deadline, pkt, bytes);
        self.start_link(link_id, now, out);
    }

    /// Handles the playout deadline of `ord` on `client`'s session.
    pub fn on_playout(&mut self, client: u32, ord: u32, now: Instant, out: &mut Vec<NetEffect>) {
        let Some(s) = self.sessions.get_mut(&client) else {
            return;
        };
        if !s.chain_armed || ord != s.cursor {
            return; // stale event from a superseded chain
        }
        s.chain_armed = false;
        s.play(now, self.frame_trace);
        if s.paused && s.buffered <= s.cfg.low_watermark && !s.retry_armed {
            s.retry_armed = true;
            out.push(NetEffect::Resume { session: client });
        }
        arm(s, now, out);
    }

    /// Records that `client`'s feeding stream is running again (resume
    /// succeeded, or something else — a failover, an operator — already
    /// resumed it). Idempotent.
    pub fn mark_resumed(&mut self, client: u32) {
        if let Some(s) = self.sessions.get_mut(&client) {
            s.retry_armed = false;
            if s.paused {
                s.paused = false;
                s.stats.resumes += 1;
            }
        }
    }

    /// Whether `client`'s session currently holds its stream parked.
    pub fn is_parked(&self, client: u32) -> bool {
        self.sessions.get(&client).is_some_and(|s| s.paused)
    }

    /// Deterministic JSON rendering of link and session counters
    /// (playout logs excluded — compare those via
    /// [`NetDelivery::session`] directly). Same canonical-form rules as
    /// `Metrics::canonical_json`: fixed key order, `{:?}` floats.
    pub fn canonical_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!("{{\"multicast\":{},\"links\":[", self.multicast));
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let (drops, dups, delays) = l
                .faults
                .as_ref()
                .map_or((0, 0, 0), |f| (f.drops, f.dups, f.delays));
            s.push_str(&format!(
                "{{\"bytes_sent\":{},\"packets_sent\":{},\"retransmit_bytes\":{},\
                 \"multicast_saved_bytes\":{},\"queued_ns\":{},\"max_queued_bytes\":{},\
                 \"throughput\":{:?},\"drops\":{},\"dups\":{},\"delays\":{}}}",
                l.stats.bytes_sent,
                l.stats.packets_sent,
                l.stats.retransmit_bytes,
                l.stats.multicast_saved_bytes,
                l.stats.queued_ns,
                l.stats.max_queued_bytes,
                l.throughput(),
                drops,
                dups,
                delays,
            ));
        }
        s.push_str("],\"sessions\":[");
        for (i, sess) in self.sessions.values().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let st = &sess.stats;
            s.push_str(&format!(
                "{{\"id\":{},\"link\":{},\"frames_sent\":{},\"frames_suppressed\":{},\
                 \"frames_played\":{},\"bytes_played\":{},\"late_frames\":{},\
                 \"arrived_late\":{},\"lateness_ns\":{},\"discarded_late\":{},\
                 \"dup_arrivals\":{},\"naks_sent\":{},\"retransmits\":{},\"parks\":{},\
                 \"resumes\":{},\"max_buffered\":{}}}",
                sess.id,
                sess.link,
                st.frames_sent,
                st.frames_suppressed,
                st.frames_played,
                st.bytes_played,
                st.late_frames,
                st.arrived_late,
                st.lateness_ns,
                st.discarded_late,
                st.dup_arrivals,
                st.naks_sent,
                st.retransmits,
                st.parks,
                st.resumes,
                st.max_buffered,
            ));
        }
        s.push_str("]}");
        s
    }

    /// Credits an arrival of ordinal `ord` (waiting to play) on
    /// `client`, running the dup/lateness/NAK/park bookkeeping. A NAK
    /// takes one propagation delay to reach the server.
    fn note_arrival(&mut self, client: u32, ord: u32, now: Instant, out: &mut Vec<NetEffect>) {
        let s = self.sessions.get_mut(&client).expect("caller checked");
        let at = now + self.links[s.link as usize].params.latency;
        let first = s.credit(ord, now, |o| {
            out.push(NetEffect::Nak {
                at,
                session: client,
                ord: o,
            })
        });
        if !first {
            return;
        }
        if s.buffered > s.cfg.high_watermark && !s.paused {
            s.paused = true;
            s.stats.parks += 1;
            out.push(NetEffect::Park { session: client });
        }
        arm(s, now, out);
    }

    /// Starts the link transmitter on the earliest-deadline queued
    /// packet, if it is idle and work is waiting. Decides the packet's
    /// fault fate at transmission time.
    fn start_link(&mut self, link: u32, now: Instant, out: &mut Vec<NetEffect>) {
        let l = &mut self.links[link as usize];
        if l.is_busy() {
            return;
        }
        let Some(pkt) = l.pop() else {
            return;
        };
        let p = self.packets.get_mut(&pkt).expect("queued packet missing");
        let done = l.begin_send(now, p.bytes, p.enqueued_at);
        if p.retransmit {
            l.stats.retransmit_bytes += p.bytes;
        }
        out.push(NetEffect::LinkFree { at: done, link });
        let fault = match &mut l.faults {
            Some(fi) => fi.decide(),
            None => NetFault {
                arrivals: 1,
                extra_delay: Duration::ZERO,
            },
        };
        if fault.arrivals == 0 {
            self.packets.remove(&pkt);
            return;
        }
        p.remaining_arrivals = fault.arrivals;
        let at = done + l.params.latency + fault.extra_delay;
        for _ in 0..fault.arrivals {
            out.push(NetEffect::Arrive { at, link, pkt });
        }
    }
}

/// Arms the playout chain: exactly one outstanding [`NetEffect::Playout`]
/// per session, for the cursor ordinal, at the later of its deadline
/// and `now` (a late chain catches up immediately). With nothing left
/// to play and an empty buffer the chain goes idle and the anchor
/// clears — the next transmission re-anchors with a fresh startup
/// delay, i.e. the client rebuffers.
fn arm(s: &mut Session, now: Instant, out: &mut Vec<NetEffect>) {
    if s.chain_armed {
        return;
    }
    if let Some(f) = s.head() {
        let at = now.max(s.deadline(f.ts));
        s.chain_armed = true;
        out.push(NetEffect::Playout {
            at,
            session: s.id,
            ord: s.cursor,
        });
    } else if s.buffered == 0 {
        s.anchor = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionStats;

    /// A test event: either a delivery effect or a scheduled
    /// `send_frame` call, so sends interleave with in-flight traffic at
    /// the right instants.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Fx(NetEffect),
        Send {
            client: u32,
            frame: u32,
            bytes: u64,
            ts: Duration,
        },
        ClearFaults(u32),
    }

    #[derive(Default)]
    struct RunLog {
        parks: Vec<u32>,
        resumes: Vec<u32>,
    }

    /// Mini event pump: processes effects and scheduled sends in time
    /// order (insertion order breaking ties), like the sys executor.
    fn run(nd: &mut NetDelivery, sends: Vec<(Instant, Ev)>) -> RunLog {
        let mut log = RunLog::default();
        let mut q: BTreeSet<(Instant, u64, Ev)> = BTreeSet::new();
        let mut seq = 0u64;
        for (at, ev) in sends {
            q.insert((at, seq, ev));
            seq += 1;
        }
        let mut pending: Vec<NetEffect> = Vec::new();
        let mut now = Instant::ZERO;
        loop {
            for e in pending.drain(..) {
                let at = match e {
                    NetEffect::LinkFree { at, .. }
                    | NetEffect::Arrive { at, .. }
                    | NetEffect::Nak { at, .. }
                    | NetEffect::Playout { at, .. } => at,
                    NetEffect::Park { .. } | NetEffect::Resume { .. } => now,
                };
                q.insert((at, seq, e.into()));
                seq += 1;
            }
            let Some(&(at, sq, ev)) = q.iter().next() else {
                break;
            };
            q.remove(&(at, sq, ev));
            now = at;
            match ev {
                Ev::Send {
                    client,
                    frame,
                    bytes,
                    ts,
                } => nd.send_frame(client, frame, bytes, ts, now, &mut pending),
                Ev::ClearFaults(link) => nd.set_link_faults(link, None),
                Ev::Fx(NetEffect::LinkFree { link, .. }) => {
                    nd.on_link_free(link, now, &mut pending)
                }
                Ev::Fx(NetEffect::Arrive { link, pkt, .. }) => {
                    nd.on_arrive(link, pkt, now, &mut pending)
                }
                Ev::Fx(NetEffect::Nak { session, ord, .. }) => {
                    nd.on_nak(session, ord, now, &mut pending)
                }
                Ev::Fx(NetEffect::Playout { session, ord, .. }) => {
                    nd.on_playout(session, ord, now, &mut pending)
                }
                Ev::Fx(NetEffect::Park { session }) => log.parks.push(session),
                Ev::Fx(NetEffect::Resume { session }) => {
                    log.resumes.push(session);
                    nd.mark_resumed(session);
                }
            }
        }
        log
    }

    impl From<NetEffect> for Ev {
        fn from(e: NetEffect) -> Ev {
            Ev::Fx(e)
        }
    }

    fn at_ms(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    fn frame_sends(client: u32, n: u32, bytes: u64, fps_ms: u64) -> Vec<(Instant, Ev)> {
        (0..n)
            .map(|i| {
                (
                    at_ms(i as u64 * fps_ms),
                    Ev::Send {
                        client,
                        frame: i,
                        bytes,
                        ts: Duration::from_millis(i as u64 * fps_ms),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn clean_unicast_plays_every_frame_on_time() {
        let mut nd = NetDelivery::new(true);
        let link = nd.add_link(LinkParams::fast_lan());
        nd.attach(1, link, SessionCfg::default());
        run(&mut nd, frame_sends(1, 10, 6_250, 33));
        let s = nd.session(1).unwrap();
        assert_eq!(s.stats.frames_sent, 10);
        assert_eq!(s.stats.frames_played, 10);
        assert_eq!(s.stats.late_frames, 0);
        assert_eq!(s.stats.naks_sent, 0);
        assert_eq!(s.stats.playout_log.len(), 10);
        // Playouts land exactly playout_delay after the sends.
        let first = s.stats.playout_log[0];
        assert_eq!(first.1, Duration::from_millis(500).as_nanos());
        assert_eq!(nd.link(link).stats.bytes_sent, 10 * 6_250);
    }

    #[test]
    fn multicast_group_sends_once_and_delivers_to_all() {
        let mut nd = NetDelivery::new(true);
        let link = nd.add_link(LinkParams::fast_lan());
        nd.set_multicast(true);
        for c in 1..=3 {
            nd.attach(c, link, SessionCfg::default());
        }
        nd.sync_membership(2, Some(1));
        nd.sync_membership(3, Some(1));
        let mut sends = Vec::new();
        for i in 0..5u32 {
            for c in 1..=3 {
                // Decodes serialize on the CPU: members send slightly
                // after the leader within a tick.
                sends.push((
                    at_ms(i as u64 * 33) + Duration::from_micros(500 * (c as u64 - 1)),
                    Ev::Send {
                        client: c,
                        frame: i,
                        bytes: 6_250,
                        ts: Duration::from_millis(i as u64 * 33),
                    },
                ));
            }
        }
        run(&mut nd, sends);
        let leader = nd.session(1).unwrap();
        assert_eq!(leader.stats.frames_sent, 5);
        for c in 2..=3 {
            let m = nd.session(c).unwrap();
            assert_eq!(m.stats.frames_sent, 0);
            assert_eq!(m.stats.frames_suppressed, 5);
            assert_eq!(m.stats.frames_played, 5);
            assert_eq!(m.stats.late_frames, 0);
        }
        let ls = &nd.link(link).stats;
        assert_eq!(ls.bytes_sent, 5 * 6_250);
        assert_eq!(ls.multicast_saved_bytes, 2 * 5 * 6_250);
    }

    #[test]
    fn lost_packet_is_nakked_and_retransmitted_in_time() {
        let mut nd = NetDelivery::new(true);
        let link = nd.add_link(LinkParams::fast_lan());
        // Drop everything until the injector is cleared at 10 ms, so
        // exactly frame 0's transmission is lost.
        nd.set_link_faults(link, Some(NetFaults::loss(1.0, 3)));
        nd.attach(1, link, SessionCfg::default());
        let mut sends = frame_sends(1, 3, 6_250, 33);
        sends.push((at_ms(10), Ev::ClearFaults(link)));
        run(&mut nd, sends);
        let s = nd.session(1).unwrap();
        // Frame 1's arrival exposed the gap at ordinal 0 → one NAK, one
        // retransmission, and the retransmitted frame 0 still made its
        // 500 ms playout deadline.
        assert_eq!(s.stats.naks_sent, 1);
        assert_eq!(s.stats.retransmits, 1);
        assert_eq!(s.stats.frames_played, 3);
        assert_eq!(s.stats.late_frames, 0);
        assert_eq!(nd.link(link).stats.retransmit_bytes, 6_250);
    }

    #[test]
    fn unrepaired_loss_counts_late_frames_not_stalls() {
        let mut nd = NetDelivery::new(true);
        let link = nd.add_link(LinkParams::fast_lan());
        nd.set_link_faults(link, Some(NetFaults::loss(1.0, 3)));
        nd.attach(1, link, SessionCfg::default());
        run(&mut nd, frame_sends(1, 4, 6_250, 33));
        let s = nd.session(1).unwrap();
        // Everything drops, so nothing ever arrives to expose a gap —
        // all four frames miss playout, but the chain advances instead
        // of stalling.
        assert_eq!(s.stats.late_frames, 4);
        assert_eq!(s.stats.frames_played, 0);
        assert_eq!(s.cursor, 4);
        assert_eq!(s.stats.naks_sent, 0);
    }

    #[test]
    fn untraced_playout_log_is_the_traced_prefix_to_the_first_on_time_frame() {
        // Everything drops until 600 ms: the first frames miss their
        // playout (from 500 ms on) before repairs and fresh sends play
        // on time.
        let run_traced = |trace: bool| {
            let mut nd = NetDelivery::new(trace);
            let link = nd.add_link(LinkParams::fast_lan());
            nd.set_link_faults(link, Some(NetFaults::loss(1.0, 3)));
            nd.attach(1, link, SessionCfg::default());
            let mut sends = frame_sends(1, 40, 6_250, 33);
            sends.push((at_ms(600), Ev::ClearFaults(link)));
            run(&mut nd, sends);
            (nd.session(1).unwrap().stats.clone(), nd.canonical_json())
        };
        let (full, full_json) = run_traced(true);
        let (short, short_json) = run_traced(false);
        let first_on_time = full.playout_log.iter().position(|e| !e.2).unwrap();
        assert!(first_on_time > 0, "a late frame plays first");
        assert!(full.playout_log.len() > first_on_time + 1);
        assert_eq!(short.playout_log, full.playout_log[..=first_on_time]);
        let counters = |st: &SessionStats| SessionStats {
            playout_log: Vec::new(),
            ..st.clone()
        };
        assert_eq!(counters(&short), counters(&full));
        assert!(full.late_frames > 0 && full.frames_played > 0);
        assert_eq!(short_json, full_json);
    }

    #[test]
    fn high_watermark_parks_and_drain_resumes() {
        let mut nd = NetDelivery::new(true);
        let link = nd.add_link(LinkParams::fast_lan());
        let cfg = SessionCfg {
            playout_delay: Duration::from_millis(500),
            high_watermark: 3 * 6_250,
            low_watermark: 6_250,
            drain_scale: 1.0,
        };
        nd.attach(1, link, cfg);
        let log = run(&mut nd, frame_sends(1, 10, 6_250, 33));
        let s = nd.session(1).unwrap();
        // The 500 ms startup buffer accumulates ~15 frame slots of
        // arrivals before the first playout: the gauge crosses 3 frames
        // quickly and parks, then playouts drain it below 1 frame and
        // resume.
        assert_eq!(log.parks, vec![1]);
        assert_eq!(log.resumes, vec![1]);
        assert_eq!(s.stats.parks, 1);
        assert_eq!(s.stats.resumes, 1);
        assert!(s.stats.max_buffered > cfg.high_watermark);
    }

    #[test]
    fn duplicate_arrivals_are_counted_once() {
        let mut nd = NetDelivery::new(true);
        let link = nd.add_link(LinkParams::fast_lan());
        nd.set_link_faults(
            link,
            Some(NetFaults {
                drop_prob: 0.0,
                dup_prob: 1.0,
                delay_prob: 0.0,
                delay: Duration::ZERO,
                seed: 1,
            }),
        );
        nd.attach(1, link, SessionCfg::default());
        run(&mut nd, frame_sends(1, 5, 6_250, 33));
        let s = nd.session(1).unwrap();
        assert_eq!(s.stats.frames_played, 5);
        assert_eq!(s.stats.dup_arrivals, 5);
        assert_eq!(s.stats.bytes_played, 5 * 6_250);
    }

    #[test]
    fn arrivals_after_playout_are_discarded_late() {
        let mut nd = NetDelivery::new(true);
        let link = nd.add_link(LinkParams::fast_lan());
        // Every copy lands 600 ms after transmission, past the 500 ms
        // playout delay: each frame is declared late at its deadline,
        // and its copy then finds the frame already played.
        nd.set_link_faults(
            link,
            Some(NetFaults {
                drop_prob: 0.0,
                dup_prob: 0.0,
                delay_prob: 1.0,
                delay: Duration::from_millis(600),
                seed: 5,
            }),
        );
        nd.attach(1, link, SessionCfg::default());
        run(&mut nd, frame_sends(1, 6, 6_250, 33));
        let st = &nd.session(1).unwrap().stats;
        assert_eq!(st.frames_sent, 6);
        assert_eq!(st.late_frames, 6);
        assert_eq!(st.discarded_late, 6);
        assert_eq!(st.frames_played + st.dup_arrivals + st.naks_sent, 0);
    }

    #[test]
    fn group_packet_for_a_frame_the_member_skips_moves_no_counter() {
        let mut nd = NetDelivery::new(true);
        let link = nd.add_link(LinkParams::fast_lan());
        nd.set_multicast(true);
        nd.attach(1, link, SessionCfg::default());
        nd.attach(2, link, SessionCfg::default());
        nd.sync_membership(2, Some(1));
        // The member decodes 40 ms ahead of the leader and skips frame
        // 2, so the leader's frame-2 packet reaches it after its own
        // frame 3 registered: a frame it never registers, inside the
        // range it holds.
        let send = |client, lead_ms, frame: u32| {
            let ts = Duration::from_millis(frame as u64 * 33);
            let bytes = 6_250;
            let ev = Ev::Send {
                client,
                frame,
                bytes,
                ts,
            };
            (at_ms(frame as u64 * 33 + lead_ms), ev)
        };
        let leader = (0..5).map(|f| send(1, 40, f));
        let member = [0, 1, 3, 4].map(|f| send(2, 0, f));
        run(&mut nd, leader.chain(member).collect());
        let m = &nd.session(2).unwrap().stats;
        assert_eq!(m.frames_suppressed, 4);
        assert_eq!(m.frames_played, 4);
        assert_eq!(m.bytes_played, 4 * 6_250);
        assert_eq!(
            m.late_frames + m.arrived_late + m.discarded_late + m.dup_arrivals + m.naks_sent,
            0
        );
        assert_eq!(nd.session(1).unwrap().stats.frames_played, 5);
    }

    #[test]
    fn contended_link_serves_earliest_playout_deadline_first() {
        let mut nd = NetDelivery::new(true);
        // Slow link: 6 250 B takes 5 ms to serialize.
        let link = nd.add_link(LinkParams {
            bandwidth: 1_250_000.0,
            latency: Duration::from_micros(200),
            per_packet: Duration::ZERO,
        });
        // Session 1 anchors 100 ms earlier than session 2, so its
        // frames carry earlier playout deadlines.
        let c1 = SessionCfg {
            playout_delay: Duration::from_millis(100),
            ..SessionCfg::default()
        };
        nd.attach(1, link, c1);
        nd.attach(2, link, SessionCfg::default());
        // Session 2's frame is enqueued first, then session 1's while
        // the link is still busy with a warmup packet from session 2.
        let sends = vec![
            (
                at_ms(0),
                Ev::Send {
                    client: 2,
                    frame: 0,
                    bytes: 6_250,
                    ts: Duration::ZERO,
                },
            ),
            (
                at_ms(1),
                Ev::Send {
                    client: 2,
                    frame: 1,
                    bytes: 6_250,
                    ts: Duration::from_millis(33),
                },
            ),
            (
                at_ms(2),
                Ev::Send {
                    client: 1,
                    frame: 0,
                    bytes: 6_250,
                    ts: Duration::ZERO,
                },
            ),
        ];
        run(&mut nd, sends);
        let s1 = nd.session(1).unwrap();
        let s2 = nd.session(2).unwrap();
        // Session 1's tighter deadline (102 ms) overtakes session 2's
        // queued frame 1 (533 ms) even though it was pushed later; all
        // frames still play on time.
        assert_eq!(s1.stats.late_frames + s2.stats.late_frames, 0);
        assert_eq!(s1.stats.frames_played, 1);
        assert_eq!(s2.stats.frames_played, 2);
        assert!(nd.link(link).stats.queued_ns > 0);
    }

    #[test]
    fn canonical_json_is_stable_and_complete() {
        let mut nd = NetDelivery::new(true);
        let link = nd.add_link(LinkParams::fast_lan());
        nd.attach(1, link, SessionCfg::default());
        run(&mut nd, frame_sends(1, 3, 1_000, 33));
        let a = nd.canonical_json();
        let b = nd.canonical_json();
        assert_eq!(a, b);
        assert!(a.contains("\"frames_played\":3"));
        assert!(a.contains("\"multicast\":false"));
    }
}
