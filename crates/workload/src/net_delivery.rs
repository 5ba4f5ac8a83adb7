//! NPS-style delivery experiment (DESIGN §18): the paper's QtPlay hands
//! retrieved frames to NPS, the user-level network engine, and the
//! intro's travel coordinator watches over a shared 10 Mbps Ethernet.
//! This workload drives the `cras-net` subsystem end to end on that
//! segment: per-session playout buffers, EDF-paced transmission,
//! multicast fan-out for batched-join audiences, credit backpressure
//! for a slow drainer, and NAK-driven retransmission under injected
//! loss.
//!
//! One scenario, four questions:
//!
//! * **unicast** — a five-viewer joined audience plus solo titles, each
//!   viewer shipped its own copy. Seven MPEG-1 streams oversubscribe
//!   the 10 Mbps segment, so the send queue grows past the playout
//!   slack and frames start missing deadlines.
//! * **multicast** — same audience, joined group carried by one
//!   transmission per shared link. Bytes on the wire drop by the group
//!   fan-out and the lateness disappears: the segment is back under
//!   half load.
//! * **slow** — one extra viewer drains 1.3× slower than real time
//!   behind tight watermarks. Its session must park (and later resume)
//!   its own feeding stream without adding a single late frame to
//!   anyone else.
//! * **loss sweep** — deterministic drop probabilities on the shared
//!   link; gap-exposure NAKs trigger unicast retransmissions that ride
//!   the same EDF queue inside the playout slack.

use cras_media::StreamProfile;
use cras_net::{LinkParams, NetFaults, SessionCfg};
use cras_sim::Duration;
use cras_sys::{SysConfig, System};

use crate::result::{Figure, KvTable};
use crate::runner::start_all;

/// One delivery scenario variant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum NetMode {
    /// Every viewer gets its own transmission.
    Unicast,
    /// Joined groups share one transmission per link.
    Multicast,
    /// Multicast plus one slow-draining viewer behind tight watermarks.
    SlowClient,
    /// Multicast plus a deterministic drop injector on the shared link.
    Loss {
        /// Per-packet drop probability.
        drop_prob: f64,
    },
}

impl NetMode {
    /// Short label for tables and JSON points.
    pub(crate) fn label(&self) -> String {
        match self {
            NetMode::Unicast => "unicast".into(),
            NetMode::Multicast => "multicast".into(),
            NetMode::SlowClient => "slow".into(),
            NetMode::Loss { drop_prob } => format!("loss{:.0}pct", drop_prob * 100.0),
        }
    }
}

/// Scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// Joined audience size on the hot title.
    pub viewers: usize,
    /// Solo titles, one viewer each.
    pub solo: usize,
    /// Measured wall-clock span after the last playback start.
    pub measure: Duration,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for NetParams {
    fn default() -> NetParams {
        NetParams {
            viewers: 5,
            solo: 2,
            measure: Duration::from_secs(30),
            seed: 0x4E_45_54, // "NET"
        }
    }
}

/// Per-session delivery summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionSummary {
    /// Client id.
    pub client: u32,
    /// Frames consumed on time.
    pub played: u64,
    /// Frames that missed their playout deadline.
    pub late: u64,
    /// Times the session parked its feeding stream.
    pub parks: u64,
    /// Times the feeding stream was resumed for it.
    pub resumes: u64,
}

/// Outcome of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct NetOutcome {
    /// Scenario variant label.
    pub mode: String,
    /// Sessions attached (viewers + solos, plus the slow client).
    pub sessions: usize,
    /// Bytes serialized onto the shared link.
    pub link_bytes: u64,
    /// Bytes multicast suppression kept off the wire.
    pub multicast_saved: u64,
    /// NAK-driven retransmission bytes.
    pub retransmit_bytes: u64,
    /// High-water mark of the link send queue.
    pub max_queued_bytes: u64,
    /// Frames played on time, all sessions.
    pub played: u64,
    /// Frames late, all sessions.
    pub late: u64,
    /// NAKs sent by clients.
    pub naks: u64,
    /// Retransmissions enqueued.
    pub retransmits: u64,
    /// Stream parks driven by the delivery backpressure (sys metric).
    pub net_parks: u64,
    /// Per-session summaries, client-id order.
    pub per_session: Vec<SessionSummary>,
    /// The slow client's id, when the mode has one.
    pub slow_client: Option<u32>,
    /// Canonical JSON of the whole delivery state (determinism unit).
    pub net_json: String,
}

/// Runs one delivery scenario.
pub(crate) fn run_one(p: &NetParams, mode: NetMode) -> NetOutcome {
    let mut cfg = SysConfig::default();
    cfg.seed = p.seed;
    cfg.server.volumes = 2;
    cfg.server.buffer_budget = 64 << 20;
    // Same-title viewers arriving before the leader's begin coalesce
    // onto one read stream — the audience multicast fans out.
    cfg.server.join_window = Duration::from_secs(2);
    let mut sys = System::new(cfg);

    let secs = p.measure.as_secs_f64() + 8.0;
    let hot = sys.record_movie("hot.mov", StreamProfile::mpeg1(), secs);
    let solos: Vec<_> = (0..p.solo)
        .map(|i| sys.record_movie(&format!("solo{i}.mov"), StreamProfile::mpeg1(), secs))
        .collect();

    let link = sys.net_add_link(LinkParams::ethernet_10mbps());
    match mode {
        NetMode::Unicast => {}
        NetMode::Multicast | NetMode::SlowClient => sys.net_set_multicast(true),
        NetMode::Loss { drop_prob } => {
            sys.net_set_multicast(true);
            sys.net_set_link_faults(link, Some(NetFaults::loss(drop_prob, p.seed ^ 0xD05)));
        }
    }

    let mut clients = Vec::new();
    for _ in 0..p.viewers {
        clients.push(sys.add_cras_player(&hot, 1).expect("hot viewer admitted"));
    }
    for m in &solos {
        clients.push(sys.add_cras_player(m, 1).expect("solo viewer admitted"));
    }
    let slow = if mode == NetMode::SlowClient {
        let m = sys.record_movie("slow.mov", StreamProfile::mpeg1(), secs);
        Some(sys.add_cras_player(&m, 1).expect("slow viewer admitted"))
    } else {
        None
    };

    let session_cfg = SessionCfg {
        playout_delay: Duration::from_millis(600),
        ..SessionCfg::default()
    };
    for &c in &clients {
        sys.net_attach(c, link, session_cfg);
    }
    if let Some(c) = slow {
        sys.net_attach(
            c,
            link,
            SessionCfg {
                playout_delay: Duration::from_millis(600),
                high_watermark: 128 << 10,
                low_watermark: 64 << 10,
                drain_scale: 1.3,
            },
        );
    }

    // Start everyone at the same instant so the hot title's followers
    // land inside the leader's join window.
    clients.extend(slow);
    let start = start_all(&mut sys, &clients, Duration::ZERO);
    sys.run_until(start + p.measure);

    let ls = &sys.net.link(link).stats;
    let per_session: Vec<SessionSummary> = sys
        .net
        .sessions()
        .map(|s| SessionSummary {
            client: s.id,
            played: s.stats.frames_played,
            late: s.stats.late_frames,
            parks: s.stats.parks,
            resumes: s.stats.resumes,
        })
        .collect();
    NetOutcome {
        mode: mode.label(),
        sessions: per_session.len(),
        link_bytes: ls.bytes_sent,
        multicast_saved: ls.multicast_saved_bytes,
        retransmit_bytes: ls.retransmit_bytes,
        max_queued_bytes: ls.max_queued_bytes,
        played: per_session.iter().map(|s| s.played).sum(),
        late: per_session.iter().map(|s| s.late).sum(),
        naks: sys.net.sessions().map(|s| s.stats.naks_sent).sum(),
        retransmits: sys.net.sessions().map(|s| s.stats.retransmits).sum(),
        net_parks: sys.metrics.net_parks,
        per_session,
        slow_client: slow.map(|c| c.0),
        net_json: sys.net.canonical_json(),
    }
}

/// The full suite: unicast vs multicast, the slow client, and a loss
/// sweep. Returns the rendered table, the bytes/lateness figure and
/// every outcome.
pub fn suite(p: &NetParams) -> (KvTable, Figure, Vec<NetOutcome>) {
    let modes = [
        NetMode::Unicast,
        NetMode::Multicast,
        NetMode::SlowClient,
        NetMode::Loss { drop_prob: 0.0 },
        NetMode::Loss { drop_prob: 0.01 },
        NetMode::Loss { drop_prob: 0.04 },
    ];
    let outs: Vec<NetOutcome> = modes.iter().map(|&m| run_one(p, m)).collect();
    let mut t = KvTable::new(
        "net_delivery",
        &format!(
            "NPS-style delivery on a shared 10 Mbps Ethernet \
             ({} joined viewers + {} solo titles)",
            p.viewers, p.solo
        ),
    );
    for o in &outs {
        t.row(
            &o.mode,
            format!(
                "sessions={} wire={:.2}MB saved={:.2}MB retx={}B queue_max={}B \
                 played={} late={} naks={} parks={}",
                o.sessions,
                o.link_bytes as f64 / 1e6,
                o.multicast_saved as f64 / 1e6,
                o.retransmit_bytes,
                o.max_queued_bytes,
                o.played,
                o.late,
                o.naks,
                o.net_parks,
            ),
            "",
        );
    }
    let mut f = Figure::new(
        "net_delivery",
        "Bytes on the shared wire and late frames per delivery mode",
        "mode index (unicast, multicast, slow, loss 0/1/4 %)",
        "bytes (MB) / frames",
    );
    for (i, o) in outs.iter().enumerate() {
        let x = i as f64;
        f.series_mut("wire MB").push(x, o.link_bytes as f64 / 1e6);
        f.series_mut("late frames").push(x, o.late as f64);
        f.series_mut("retransmits").push(x, o.retransmits as f64);
    }
    (t, f, outs)
}

/// Hand-rolled JSON for the `BENCH_net_delivery` trajectory artifact.
pub fn points_json(outs: &[NetOutcome]) -> String {
    let mut s = String::from("{\"points\":[");
    for (i, o) in outs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"mode\":\"{}\",\"sessions\":{},\"link_bytes\":{},\
             \"multicast_saved\":{},\"retransmit_bytes\":{},\
             \"max_queued_bytes\":{},\"played\":{},\"late\":{},\"naks\":{},\
             \"retransmits\":{},\"net_parks\":{}}}",
            o.mode,
            o.sessions,
            o.link_bytes,
            o.multicast_saved,
            o.retransmit_bytes,
            o.max_queued_bytes,
            o.played,
            o.late,
            o.naks,
            o.retransmits,
            o.net_parks,
        ));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> NetParams {
        NetParams {
            viewers: 5,
            solo: 2,
            measure: Duration::from_secs(12),
            seed: 0x17E7,
        }
    }

    #[test]
    fn multicast_cuts_wire_bytes_without_adding_late_frames() {
        let p = quick_params();
        let uni = run_one(&p, NetMode::Unicast);
        let multi = run_one(&p, NetMode::Multicast);
        // Seven unicast MPEG-1 copies oversubscribe 10 Mbps: the EDF
        // queue outgrows the playout slack and frames go late.
        assert!(
            uni.late > 0,
            "oversubscribed unicast never missed a deadline: {uni:?}"
        );
        assert!(
            multi.link_bytes < uni.link_bytes,
            "multicast did not reduce wire bytes: {} vs {}",
            multi.link_bytes,
            uni.link_bytes
        );
        assert!(multi.multicast_saved > 0, "nothing suppressed: {multi:?}");
        assert_eq!(
            multi.late, 0,
            "multicast added late frames on an uncontended wire: {multi:?}"
        );
        assert!(multi.played > 0);
    }

    #[test]
    fn slow_client_backpressures_only_its_own_session() {
        let p = quick_params();
        let out = run_one(&p, NetMode::SlowClient);
        let slow = out.slow_client.expect("mode has a slow client");
        let me = out
            .per_session
            .iter()
            .find(|s| s.client == slow)
            .expect("slow session exists");
        assert!(me.parks > 0, "slow drain never hit the high watermark");
        assert!(me.resumes > 0, "parked stream never resumed");
        assert!(out.net_parks > 0, "sys never parked the feeding stream");
        for s in out.per_session.iter().filter(|s| s.client != slow) {
            assert_eq!(s.parks, 0, "victim session parked: {s:?}");
            assert_eq!(s.late, 0, "victim session went late: {s:?}");
        }
    }

    #[test]
    fn loss_is_repaired_by_nak_retransmission_inside_the_slack() {
        let p = quick_params();
        let clean = run_one(&p, NetMode::Loss { drop_prob: 0.0 });
        assert_eq!(clean.naks, 0, "zero-probability injector NAKed");
        assert_eq!(clean.late, 0);
        let lossy = run_one(&p, NetMode::Loss { drop_prob: 0.01 });
        assert!(lossy.naks > 0, "1% loss never exposed a gap: {lossy:?}");
        assert!(lossy.retransmits > 0, "no retransmissions: {lossy:?}");
        assert!(lossy.retransmit_bytes > 0);
        // The 600 ms slack covers a NAK round trip many times over, so
        // repair keeps lateness well under the raw loss rate.
        assert!(
            lossy.late * 50 <= lossy.played,
            "late {} of {} played — retransmission is not repairing",
            lossy.late,
            lossy.played
        );
    }

    #[test]
    fn net_delivery_is_deterministic() {
        let p = quick_params();
        let run = || run_one(&p, NetMode::Loss { drop_prob: 0.04 });
        assert_eq!(run(), run(), "same seed must reproduce bit-for-bit");
    }
}
