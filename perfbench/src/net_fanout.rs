//! `net_fanout`: multicast audiences and unicast solos on paced links.
//!
//! One system with 16 volumes and 16 shared 10 Mbps links. Each link
//! carries a 10-viewer joined audience on its own title (one disk leader,
//! one multicast transmission) plus 2 unicast solo viewers, and every
//! other link drops 1% of its packets, which NAK repair must recover
//! inside the playout slack. Nearly all of the work is in `net`; the
//! planner, admission and cache stay light and there is no gateway.

use std::time::Instant as HostInstant;

use cras_media::StreamProfile;
use cras_net::{LinkParams, NetFaults, SessionCfg};
use cras_sim::{Duration, Instant, Rng};
use cras_sys::{SysConfig, System};

use crate::layers;
use crate::outcome::{timed_setup, Outcome};
use crate::trace::{Span, Tracer};

/// Links, each with its own audience title and volume.
const LINKS: usize = 16;
/// Joined viewers per link.
const AUDIENCE: usize = 10;
/// Unicast solo viewers per link.
const SOLOS: usize = 2;
/// Length of every title, media seconds.
const TITLE_SECS: f64 = 100.0;
/// Gap between viewer arrivals.
const GAP: Duration = Duration::from_millis(25);
/// Packet loss on the lossy (odd) links.
const LOSS: f64 = 0.01;
/// Client playout slack.
const PLAYOUT_DELAY: Duration = Duration::from_millis(600);
/// Host-side stepping granularity after the last arrival.
const STEP: Duration = Duration::from_secs(1);

fn system_config(seed: u64) -> SysConfig {
    let mut cfg = SysConfig {
        seed,
        ..SysConfig::default()
    };
    cfg.server.volumes = LINKS;
    // Room for the buffers of all but the last few viewers: the tail of
    // the arrival sequence is refused by the memory test.
    cfg.server.buffer_budget = 34 << 20;
    // Same-title viewers arriving before the leader's first read
    // coalesce onto one stream: the audience multicast fans out.
    cfg.server.join_window = Duration::from_secs(2);
    // Remote set-tops: the server ships frames instead of decoding them.
    cfg.costs.decode = layers::frame_cost(seed, Duration::from_micros(5));
    cfg
}

/// Runs the workload for `seed`.
pub fn run(seed: u64, tr: &mut Tracer) -> Outcome {
    let mut rng = Rng::new(seed ^ 0x4E45_7F0A);
    let loss_seeds: Vec<u64> = (0..LINKS).map(|_| rng.next_u64()).collect();
    let profile = StreamProfile::mpeg1();

    let mut o = Outcome::default();
    let (setup_s, (mut sys, titles)) = timed_setup(|| {
        let mut sys = System::new(system_config(seed));
        let mut titles = Vec::new();
        for l in 0..LINKS {
            let hot = sys.record_movie(&format!("aud{l:02}.mov"), profile, TITLE_SECS);
            let solos: Vec<_> = (0..SOLOS)
                .map(|s| sys.record_movie(&format!("solo{l:02}_{s}.mov"), profile, TITLE_SECS))
                .collect();
            titles.push((hot, solos));
        }
        sys.net_set_multicast(true);
        for (l, &loss_seed) in loss_seeds.iter().enumerate() {
            let link = sys.net_add_link(LinkParams::ethernet_10mbps());
            if l % 2 == 1 {
                sys.net_set_link_faults(link, Some(NetFaults::loss(LOSS, loss_seed)));
            }
        }
        (sys, titles)
    });
    o.setup_s = setup_s;

    let t1 = HostInstant::now();
    let session = SessionCfg {
        playout_delay: PLAYOUT_DELAY,
        ..SessionCfg::default()
    };
    let mut now = Duration::ZERO;
    let mut viewers = Vec::new();
    for (l, (hot, solos)) in titles.iter().enumerate() {
        let movies = std::iter::repeat_n(hot, AUDIENCE).chain(solos);
        for m in movies {
            let arrived = Instant::ZERO + now;
            o.opens.attempted += 1;
            match tr.span(Span::SysOpen, || sys.add_cras_player(m, 1)) {
                Ok(c) => {
                    sys.net_attach(c, l as u32, session);
                    tr.span(Span::SysStart, || sys.start_playback(c));
                    viewers.push((c, arrived));
                }
                Err(_) => o.opens.refused += 1,
            }
            now += GAP;
            tr.span(Span::SysRun, || {
                layers::run_to(&mut sys, Instant::ZERO + now)
            });
            tr.step();
        }
    }
    let end = Instant::ZERO + now + Duration::from_secs_f64(TITLE_SECS) + Duration::from_secs(5);
    let mut t = Instant::ZERO + now;
    while t < end {
        t = (t + STEP).min(end);
        tr.span(Span::SysRun, || layers::run_to(&mut sys, t));
        tr.step();
        layers::sample_gauges(&[&sys], tr);
    }
    o.timed_s = t1.elapsed().as_secs_f64();
    o.sim_s = end.as_secs_f64();

    for &(c, arrived) in &viewers {
        o.opens.admitted += 1;
        o.frames.dropped += sys.players[&c.0].stats.frames_dropped;
        let s = sys.net.session(c.0).expect("every viewer has a session");
        o.frames.shown += s.stats.frames_played;
        o.frames.late += s.stats.late_frames;
        if let Some(&(_, at_ns, _)) = s.stats.playout_log.iter().find(|e| !e.2) {
            o.startup_ms
                .push(Instant::from_nanos(at_ns).since(arrived).as_millis_f64());
        }
    }
    let systems = [&sys];
    o.events = layers::events(&systems);
    o.counters = layers::counters(&systems);
    let counter = |name| o.counters.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1);
    let (naks, saved) = (counter("net.naks"), counter("net.multicast_saved_mb"));
    o.require(naks > 0.0, "no NAK repair on the lossy links");
    o.require(saved > 0.0, "multicast never suppressed a transmission");
    o.seal(&[sys.metrics.canonical_json(), sys.net.canonical_json()]);
    o
}
