//! Determinism: every experiment is a pure function of its seed.
#![allow(clippy::field_reassign_with_default)]

use cras_repro::core::PlacementPolicy;
use cras_repro::media::StreamProfile;
use cras_repro::sim::Duration;
use cras_repro::sys::{MoviePlacement, SysConfig, System};

fn run_once(seed: u64) -> (u64, u64, Vec<(u64, u64)>) {
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    let mut sys = System::new(cfg);
    let movie = sys.record_movie("det.mov", StreamProfile::jpeg_vbr(187_500.0), 6.0);
    let noise = sys.record_movie("noise.mov", StreamProfile::mpeg1(), 10.0);
    let c = sys.add_cras_player(&movie, 1).unwrap();
    sys.add_bg_reader(&noise);
    sys.start_bg();
    sys.start_playback(c);
    sys.run_for(Duration::from_secs(9));
    let p = &sys.players[&c.0];
    let trace: Vec<(u64, u64)> = p
        .stats
        .delays
        .points()
        .iter()
        .map(|&(t, d)| (t.as_nanos(), (d * 1e9) as u64))
        .collect();
    (sys.metrics.cras_read_bytes, sys.engine.dispatched(), trace)
}

#[test]
fn identical_seeds_produce_identical_runs() {
    let a = run_once(12345);
    let b = run_once(12345);
    assert_eq!(a.0, b.0, "bytes differ");
    assert_eq!(a.1, b.1, "event counts differ");
    assert_eq!(a.2, b.2, "frame traces differ");
}

#[test]
fn different_seeds_differ_somewhere() {
    let a = run_once(1);
    let b = run_once(2);
    // VBR sizes and file placement depend on the seed, so bytes or the
    // event count must differ.
    assert!(
        a.0 != b.0 || a.1 != b.1 || a.2 != b.2,
        "seeds 1 and 2 produced bit-identical runs"
    );
}

/// A mixed workload touching every placement and data path the server
/// has: a mirrored run that loses its primary volume and rebuilds onto
/// a replacement, and a rotating-parity run with an interval-cache
/// follower that loses one spindle of the band mid-play. Returns the
/// concatenated canonical metrics serialization of both runs.
fn run_mixed(seed: u64) -> String {
    let mut out = String::new();

    // Mirrored + failover + rebuild.
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    cfg.server.volumes = 3;
    cfg.server.placement = PlacementPolicy::Mirrored;
    let mut sys = System::new(cfg);
    let m = sys.record_movie("mir.mov", StreamProfile::mpeg1(), 6.0);
    let c = sys.add_cras_player(&m, 1).unwrap();
    let start = sys.start_playback(c);
    sys.run_until(start + Duration::from_secs(1));
    let Some(&MoviePlacement::Mirrored { primary, .. }) = sys.placement("mir.mov") else {
        panic!("expected mirrored placement");
    };
    sys.fail_volume(primary);
    sys.attach_replacement(primary);
    sys.run_for(Duration::from_secs(8));
    assert!(sys.players[&c.0].done, "mirrored player hung");
    out.push_str(&sys.metrics.canonical_json());
    out.push('\n');

    // Rotating parity + interval cache + one spindle lost in the band.
    let mut cfg = SysConfig::default();
    cfg.seed = seed ^ 0x9E37_79B9_7F4A_7C15;
    cfg.server.volumes = 3;
    cfg.server.placement = PlacementPolicy::Parity { group: 3 };
    cfg.server.cache_budget = 64 << 20;
    let mut sys = System::new(cfg);
    let m = sys.record_movie("par.mov", StreamProfile::mpeg1(), 6.0);
    let lead = sys.add_cras_player(&m, 1).unwrap();
    let start = sys.start_playback(lead);
    // The follower opens one interval behind the leader, close enough
    // to ride the leader's cached window.
    sys.run_until(start);
    let follow = sys.add_cras_player(&m, 1).unwrap();
    sys.start_playback(follow);
    sys.run_until(start + Duration::from_secs(2));
    sys.fail_volume(1);
    sys.run_for(Duration::from_secs(8));
    assert!(sys.players[&lead.0].done, "parity leader hung");
    assert!(sys.players[&follow.0].done, "parity follower hung");
    out.push_str(&sys.metrics.canonical_json());
    out.push('\n');
    out
}

#[test]
fn mixed_workload_metrics_are_byte_identical_across_replays() {
    let a = run_mixed(0xD1CE);
    let b = run_mixed(0xD1CE);
    assert_eq!(a, b, "same seed must reproduce the metrics byte for byte");
    // The serialization actually reflects the workload: both the
    // failover path and the cache path left their marks.
    assert!(a.contains("\"volume_failed_at\":") && !a.contains("\"volume_failed_at\":null"));
    let c = run_mixed(0xD1CF);
    assert_ne!(a, c, "a different seed should perturb something");
}

#[test]
fn calibration_is_deterministic() {
    use cras_repro::disk::calibrate::calibrate;
    use cras_repro::disk::DiskDevice;
    let run = || {
        let mut d: DiskDevice<u8> = DiskDevice::st32550n();
        let cal = calibrate(&mut d, 64 * 1024);
        (
            cal.params.transfer_rate.to_bits(),
            cal.params.t_seek_max.as_nanos(),
            cal.params.t_seek_min.as_nanos(),
        )
    };
    assert_eq!(run(), run());
}

/// Events dispatched while `sys` runs 30 simulated seconds, setup
/// (recording, admission) excluded.
fn events_in_30s(mut sys: System) -> u64 {
    let before = sys.engine.dispatched();
    sys.run_for(Duration::from_secs(30));
    sys.engine.dispatched() - before
}

/// Healthy multi-volume load: 4 volumes, round-robin whole-movie
/// placement, 8 MPEG-1 players on 35 s titles plus one background
/// reader.
fn capacity_scaling_scenario() -> System {
    let mut cfg = SysConfig::default();
    cfg.seed = 0x51ED;
    cfg.server.volumes = 4;
    let mut sys = System::new(cfg);
    let noise = sys.record_movie("noise.mov", StreamProfile::mpeg1(), 35.0);
    let mut clients = Vec::new();
    for i in 0..8 {
        let m = sys.record_movie(&format!("m{i}.mov"), StreamProfile::mpeg1(), 35.0);
        if let Ok(c) = sys.add_cras_player(&m, 1) {
            clients.push(c);
        }
    }
    sys.add_bg_reader(&noise);
    sys.start_bg();
    for c in clients {
        sys.start_playback(c);
    }
    sys
}

/// Degraded load: a 4-volume parity band loses one spindle right away,
/// so the whole window runs degraded reads beside the reconstruction
/// rebuild.
fn parity_failover_scenario() -> System {
    let mut cfg = SysConfig::default();
    cfg.seed = 0xFA11;
    cfg.server.volumes = 4;
    cfg.server.placement = PlacementPolicy::Parity { group: 4 };
    let mut sys = System::new(cfg);
    let mut clients = Vec::new();
    for i in 0..8 {
        let m = sys.record_movie(&format!("p{i}.mov"), StreamProfile::mpeg1(), 35.0);
        if let Ok(c) = sys.add_cras_player(&m, 1) {
            clients.push(c);
        }
    }
    for c in clients {
        sys.start_playback(c);
    }
    sys.fail_volume(1);
    sys.attach_replacement(1);
    sys
}

/// The exact event counts of two fixed scenarios. Any change means the
/// simulation took a different path; a change that only makes events
/// cheaper leaves both counts as they are.
#[test]
fn fixed_scenarios_dispatch_exact_event_counts() {
    assert_eq!(events_in_30s(capacity_scaling_scenario()), 17_352);
    assert_eq!(events_in_30s(parity_failover_scenario()), 17_261);
}
