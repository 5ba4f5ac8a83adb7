//! Delivery-subsystem properties (DESIGN §18): multicast equivalence,
//! fault-injector transparency and delivery-order independence.
//!
//! All scenarios run under [`System::run_until_shuffled`] so the
//! properties hold for *any* legal delivery order of same-instant
//! events, not just the canonical one.
#![allow(clippy::field_reassign_with_default)]

use cras_repro::media::StreamProfile;
use cras_repro::net::{LinkParams, NetFaults, SessionCfg};
use cras_repro::sim::{Duration, Instant, Rng};
use cras_repro::sys::{ClientId, SysConfig, System};

const VIEWERS: usize = 4;

/// Builds the shared scenario: a four-viewer batched-join audience on
/// one hot title plus one solo title, every session on one fast
/// uncontended LAN segment (so lateness can only come from the
/// delivery machinery itself, never from congestion).
fn scenario_cfg() -> SysConfig {
    let mut cfg = SysConfig::default();
    cfg.seed = 0x4E7D;
    cfg.server.cache_budget = 64 << 20;
    cfg.server.join_window = Duration::from_secs(1);
    // The properties compare every playout.
    cfg.frame_trace = true;
    cfg
}

fn build(multicast: bool, faults: Option<NetFaults>) -> (System, Vec<ClientId>) {
    let mut sys = System::new(scenario_cfg());
    let hot = sys.record_movie("hit.mov", StreamProfile::mpeg1(), 4.0);
    let solo = sys.record_movie("solo.mov", StreamProfile::mpeg1(), 4.0);
    let mut clients: Vec<ClientId> = (0..VIEWERS)
        .map(|_| sys.add_cras_player(&hot, 1).expect("admission"))
        .collect();
    clients.push(sys.add_cras_player(&solo, 1).expect("admission"));
    let link = sys.net_add_link(LinkParams::fast_lan());
    sys.net_set_multicast(multicast);
    sys.net_set_link_faults(link, faults);
    for &c in &clients {
        sys.net_attach(c, link, SessionCfg::default());
    }
    for &c in &clients {
        sys.start_playback(c);
    }
    (sys, clients)
}

/// Runs the scenario to quiescence under a shuffled delivery order and
/// returns per-session `(bytes_played, late_frames, playout_log)` plus
/// the shared link's byte counter and the delivery canonical JSON.
type SessionTrace = (u64, u64, Vec<(u32, u64, bool)>);

fn run(
    multicast: bool,
    faults: Option<NetFaults>,
    shuffle_seed: u64,
) -> (Vec<SessionTrace>, u64, String, String) {
    let (mut sys, clients) = build(multicast, faults);
    let mut rng = Rng::new(shuffle_seed);
    sys.run_until_shuffled(Instant::ZERO + Duration::from_secs(8), &mut rng);
    let traces = clients
        .iter()
        .map(|c| {
            let s = sys.net.session(c.0).expect("session exists");
            (
                s.stats.bytes_played,
                s.stats.late_frames,
                s.stats.playout_log.clone(),
            )
        })
        .collect();
    (
        traces,
        sys.net.link(0).stats.bytes_sent,
        sys.net.canonical_json(),
        sys.metrics.canonical_json(),
    )
}

#[test]
fn multicast_is_byte_and_timestamp_equivalent_to_unicast_when_uncontended() {
    let (uni, uni_bytes, _, _) = run(false, None, 0);
    let (multi, multi_bytes, _, _) = run(true, None, 0);
    assert_eq!(uni.len(), multi.len());
    for (i, (u, m)) in uni.iter().zip(&multi).enumerate() {
        assert!(u.2.len() > 60, "session {i}: degenerate playout log");
        assert_eq!(u.1, 0, "session {i}: unicast late frames");
        assert_eq!(m.1, 0, "session {i}: multicast late frames");
        assert_eq!(
            u.0, m.0,
            "session {i}: multicast changed the bytes delivered"
        );
        assert_eq!(
            u.2, m.2,
            "session {i}: multicast shifted a playout timestamp"
        );
    }
    // Same frames, same instants — but the group rode one transmission.
    assert!(
        multi_bytes < uni_bytes,
        "multicast did not reduce wire bytes: {multi_bytes} vs {uni_bytes}"
    );
}

#[test]
fn zero_probability_fault_injection_is_bit_for_bit_invisible() {
    let none = run(true, None, 3);
    let zero = run(
        true,
        Some(NetFaults {
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
            seed: 0xFA_17,
        }),
        3,
    );
    assert_eq!(none.0, zero.0, "session traces diverged");
    assert_eq!(none.1, zero.1, "wire bytes diverged");
    assert_eq!(none.2, zero.2, "delivery canonical JSON diverged");
    assert_eq!(none.3, zero.3, "system metrics diverged");
}

#[test]
fn delivery_is_independent_of_same_instant_event_order() {
    let reference = run(true, Some(NetFaults::loss(0.02, 7)), 0);
    let played: u64 = reference.0.iter().map(|t| t.2.len() as u64).sum();
    assert!(played > 0, "degenerate scenario: nothing played out");
    for seed in 1..5u64 {
        let other = run(true, Some(NetFaults::loss(0.02, 7)), seed);
        assert_eq!(
            other.0, reference.0,
            "seed {seed}: session traces diverged under a different order"
        );
        assert_eq!(
            other.2, reference.2,
            "seed {seed}: delivery canonical JSON diverged"
        );
        assert_eq!(other.3, reference.3, "seed {seed}: metrics diverged");
    }
}
