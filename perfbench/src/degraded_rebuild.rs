//! `degraded_rebuild`: parity bands through a spindle failure and rebuild.
//!
//! One system with 16 volumes in four rotating-parity bands of 4. Viewers
//! ask for more streams than the bands admit, two background `cat`
//! readers load one volume so coded-read steering routes around it, and
//! a different volume fails, is replaced and is rebuilt from the
//! survivors while real-time reads continue. `disk` and `core` see
//! degraded `g−1` fan-outs, steered reads and normal-priority rebuild
//! writes beside real-time reads; there is no cache and no gateway.

use std::time::Instant as HostInstant;

use cras_core::PlacementPolicy;
use cras_media::StreamProfile;
use cras_sim::{Duration, Instant};
use cras_sys::{SysConfig, System};

use crate::layers;
use crate::outcome::{timed_setup, Outcome};
use crate::trace::{Span, Tracer};

/// Volumes, in bands of [`GROUP`].
const VOLUMES: usize = 16;
/// Volumes per parity band.
const GROUP: usize = 4;
/// Streams the viewers ask for.
const REQUESTED: usize = 64;
/// Length of every title, media seconds.
const TITLE_SECS: f64 = 480.0;
/// Gap between viewer arrivals.
const GAP: Duration = Duration::from_millis(100);
/// The volume the background readers load.
const HOT_VOLUME: u32 = 1;
/// Background `cat` readers on the hot volume.
const CATS: usize = 2;
/// The volume that fails, in another band than the hot one.
const FAILED_VOLUME: u32 = 6;
/// When the volume fails.
const FAIL_AT: Duration = Duration::from_secs(10);
/// Host-side stepping granularity.
const STEP: Duration = Duration::from_secs(1);
/// Simulated-time guard on the rebuild.
const MAX_SECS: u64 = 3600;

fn system_config(seed: u64) -> SysConfig {
    let mut cfg = SysConfig {
        seed,
        ..SysConfig::default()
    };
    cfg.server.volumes = VOLUMES;
    cfg.server.placement = PlacementPolicy::Parity { group: GROUP };
    cfg.server.buffer_budget = 64 << 20;
    cfg.server.steer_reads = true;
    cfg.costs.decode = layers::frame_cost(seed, cfg.costs.decode);
    cfg
}

/// Runs the workload for `seed`.
pub fn run(seed: u64, tr: &mut Tracer) -> Outcome {
    let profile = StreamProfile::mpeg1();

    let mut o = Outcome::default();
    let (setup_s, (mut sys, movies)) = timed_setup(|| {
        let mut sys = System::new(system_config(seed));
        let movies: Vec<_> = (0..REQUESTED)
            .map(|i| sys.record_movie(&format!("pf{i:02}.mov"), profile, TITLE_SECS))
            .collect();
        for i in 0..CATS {
            sys.add_bg_reader_on(
                HOT_VOLUME,
                &format!("cat{i}"),
                32 << 20,
                1 << 20,
                Duration::ZERO,
            );
        }
        (sys, movies)
    });
    o.setup_s = setup_s;

    let t1 = HostInstant::now();
    sys.start_bg();
    let mut viewers = Vec::new();
    for (i, m) in movies.iter().enumerate() {
        let arrived = Instant::ZERO + GAP.mul_u64(i as u64);
        tr.span(Span::SysRun, || layers::run_to(&mut sys, arrived));
        tr.step();
        o.opens.attempted += 1;
        match tr.span(Span::SysOpen, || sys.add_cras_player(m, 1)) {
            Ok(c) => {
                tr.span(Span::SysStart, || sys.start_playback(c));
                viewers.push((c, arrived));
            }
            Err(_) => o.opens.refused += 1,
        }
    }
    let mut t = sys.now();
    let fail_at = Instant::ZERO + FAIL_AT;
    while t < fail_at {
        t = (t + STEP).min(fail_at);
        tr.span(Span::SysRun, || layers::run_to(&mut sys, t));
        tr.step();
        layers::sample_gauges(&[&sys], tr);
    }
    sys.fail_volume(FAILED_VOLUME);
    // The dead spindle's fast-error queue may still be draining; attach
    // once it has.
    let mut tries = 0;
    while sys.try_attach_replacement(FAILED_VOLUME).is_err() && tries < 100 {
        tries += 1;
        t += Duration::from_millis(100);
        tr.span(Span::SysRun, || layers::run_to(&mut sys, t));
        tr.step();
    }
    o.require(tries < 100, "the replacement volume never attached");
    let guard = Instant::ZERO + Duration::from_secs(MAX_SECS);
    while (sys.rebuild_active() || !sys.all_players_done()) && t < guard {
        t += STEP;
        tr.span(Span::SysRun, || layers::run_to(&mut sys, t));
        tr.step();
        layers::sample_gauges(&[&sys], tr);
    }
    o.timed_s = t1.elapsed().as_secs_f64();
    o.sim_s = t.as_secs_f64();

    for &(c, arrived) in &viewers {
        o.opens.admitted += 1;
        let st = &sys.players[&c.0].stats;
        o.frames.shown += st.frames_shown;
        o.frames.dropped += st.frames_dropped;
        if let Some(&(first, _)) = st.delays.points().first() {
            o.startup_ms.push(first.since(arrived).as_millis_f64());
        }
    }
    let systems = [&sys];
    o.events = layers::events(&systems);
    o.counters = layers::counters(&systems);
    let stats = sys.cras.stats();
    o.require(stats.steered_reads > 0, "coded-read steering never fired");
    o.require(stats.degraded_reads > 0, "no degraded read was served");
    o.require(
        stats.lost_reads == 0,
        "reads were lost with a single failure",
    );
    o.require(
        sys.metrics.rebuild_finished_at.is_some(),
        "the rebuild did not finish",
    );
    o.seal(&[sys.metrics.canonical_json()]);
    o
}
