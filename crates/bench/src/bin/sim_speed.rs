//! Simulator-throughput benchmark: how fast the discrete-event core
//! chews through representative workloads, reported as dispatched
//! events per wall-clock second and simulated seconds per wall-clock
//! second. Two scenarios bracket the engine's load profile: a
//! capacity-scaling-style multi-volume round-robin load (many streams,
//! healthy array) and a parity-failover-style load (degraded reads and
//! a reconstruction rebuild fanning extra I/O onto every spindle).
//!
//! ```text
//! cargo run --release -p cras-bench --bin sim_speed [-- --quick] [-- --check [--strict]]
//! ```
//!
//! A full run writes `BENCH_sim_speed.json` at the repo root; `--quick`
//! writes only under `results/`. With `--check`, the run is compared
//! against the baseline instead of rewriting it. These are wall-clock
//! numbers, so every field gets a ±20% band, and the check only prints
//! unless `--strict` turns drift into a nonzero exit.
#![allow(clippy::field_reassign_with_default)]

use cras_bench::{check_bench, check_mode, quick_mode, strict_mode, write_bench, Gate};
use cras_core::PlacementPolicy;
use cras_media::StreamProfile;
use cras_sim::Duration;
use cras_sys::{SysConfig, System};

struct Measured {
    name: &'static str,
    events: u64,
    sim_secs: f64,
    wall_secs: f64,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }
    fn speedup(&self) -> f64 {
        self.sim_secs / self.wall_secs
    }
}

/// Runs `sys` for `sim` simulated seconds and measures the wall cost,
/// excluding setup (recording, admission) from the timed window.
fn measure(name: &'static str, mut sys: System, sim: Duration) -> Measured {
    let events0 = sys.engine.dispatched();
    let t0 = sys.now();
    let wall0 = std::time::Instant::now();
    sys.run_for(sim);
    let wall_secs = wall0.elapsed().as_secs_f64().max(1e-9);
    Measured {
        name,
        events: sys.engine.dispatched() - events0,
        sim_secs: sys.now().since(t0).as_secs_f64(),
        wall_secs,
    }
}

/// Capacity-scaling-style load: 4 volumes, round-robin whole-movie
/// placement, `streams` MPEG-1 players plus background readers.
fn capacity_scaling_like(streams: usize, secs: f64) -> System {
    let mut cfg = SysConfig::default();
    cfg.seed = 0x51ED;
    cfg.server.volumes = 4;
    let mut sys = System::new(cfg);
    let noise = sys.record_movie("noise.mov", StreamProfile::mpeg1(), secs);
    let mut clients = Vec::new();
    for i in 0..streams {
        let m = sys.record_movie(&format!("m{i}.mov"), StreamProfile::mpeg1(), secs);
        if let Ok(c) = sys.add_cras_player(&m, 1) {
            clients.push(c);
        }
    }
    assert!(!clients.is_empty(), "nothing admitted");
    sys.add_bg_reader(&noise);
    sys.start_bg();
    for c in clients {
        sys.start_playback(c);
    }
    sys
}

/// Parity-failover-style load: a 4-volume parity band loses one spindle
/// right away, so the whole measured window runs degraded reads
/// concurrently with the reconstruction rebuild.
fn parity_failover_like(streams: usize, secs: f64) -> System {
    let mut cfg = SysConfig::default();
    cfg.seed = 0xFA11;
    cfg.server.volumes = 4;
    cfg.server.placement = PlacementPolicy::Parity { group: 4 };
    let mut sys = System::new(cfg);
    let mut clients = Vec::new();
    for i in 0..streams {
        let m = sys.record_movie(&format!("p{i}.mov"), StreamProfile::mpeg1(), secs);
        if let Ok(c) = sys.add_cras_player(&m, 1) {
            clients.push(c);
        }
    }
    assert!(!clients.is_empty(), "nothing admitted");
    for c in clients {
        sys.start_playback(c);
    }
    sys.fail_volume(1);
    sys.attach_replacement(1);
    sys
}

fn main() {
    let quick = quick_mode();
    let (streams, movie_secs, sim) = if quick {
        (4, 12.0, Duration::from_secs(10))
    } else {
        (8, 35.0, Duration::from_secs(30))
    };
    let runs = [
        measure(
            "capacity_scaling",
            capacity_scaling_like(streams, movie_secs),
            sim,
        ),
        measure(
            "parity_failover",
            parity_failover_like(streams, movie_secs),
            sim,
        ),
    ];
    let mut json = String::from("{\"scenarios\":[");
    for (i, r) in runs.iter().enumerate() {
        println!(
            "{:18} {:>9} events in {:.3}s wall  ({:.0} events/s, {:.1}x real time)",
            r.name,
            r.events,
            r.wall_secs,
            r.events_per_sec(),
            r.speedup()
        );
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"events\":{},\"sim_secs\":{:?},\"wall_secs\":{:?},\
             \"events_per_sec\":{:?},\"sim_secs_per_wall_sec\":{:?}}}",
            r.name,
            r.events,
            r.sim_secs,
            r.wall_secs,
            r.events_per_sec(),
            r.speedup()
        ));
    }
    json.push_str("]}");
    if check_mode() {
        if !check_bench("sim_speed", &json, quick, Gate::Timing) && strict_mode() {
            std::process::exit(1);
        }
        return;
    }
    write_bench("sim_speed", &json, quick);
}
