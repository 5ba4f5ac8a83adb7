//! Deterministic replay for the cluster subsystem: running the same
//! cluster experiment twice must produce byte-identical
//! `Metrics::canonical_json` on every shard, and the default stepping
//! (live shards split into one group per core between barriers, the
//! calling thread stepping one group) must be indistinguishable from
//! the serial lockstep reference on the same seed. The gateway only
//! acts at barriers and shards share no state between them, so any
//! divergence here means a real ordering bug leaked in.

use cras_repro::cluster::{Cluster, ClusterConfig, Stepping};
use cras_repro::media::StreamProfile;
use cras_repro::sim::Duration;
use cras_repro::sys::SysConfig;
use cras_repro::workload::cluster_scaling::{run_one, ClusterParams};

/// A small but non-trivial parameter set: enough titles and viewers to
/// exercise replication, cache chaining, and the whole-shard kill.
fn small() -> ClusterParams {
    let mut p = ClusterParams::standard();
    p.shards = 3;
    p.volumes = 2;
    p.titles = 60;
    p.stagger = Duration::from_millis(400);
    p.measure = Duration::from_secs(12);
    p
}

#[test]
fn cluster_experiment_replays_byte_identical() {
    let p = small();
    let (out_a, json_a) = run_one(&p, 48);
    let (out_b, json_b) = run_one(&p, 48);
    assert_eq!(out_a, out_b, "outcome differs between identical runs");
    assert_eq!(json_a.len(), json_b.len());
    for (shard, (a, b)) in json_a.iter().zip(&json_b).enumerate() {
        assert_eq!(a, b, "shard {shard} canonical_json differs across runs");
    }
}

#[test]
fn parallel_stepping_replays_lockstep_byte_identical() {
    let par = small();
    assert_eq!(par.stepping, Stepping::Parallel, "parallel is the default");
    let mut lock = small();
    lock.stepping = Stepping::Lockstep;
    let (out_l, json_l) = run_one(&lock, 48);
    let (out_p, json_p) = run_one(&par, 48);
    assert_eq!(out_l, out_p, "parallel outcome differs from lockstep");
    for (shard, (l, p)) in json_l.iter().zip(&json_p).enumerate() {
        assert_eq!(
            l, p,
            "shard {shard} canonical_json differs between stepping modes"
        );
    }
}

/// Same property at the gateway level, without the workload harness in
/// the loop: identical open/close/kill sequences on a raw `Cluster`
/// replay byte-for-byte under the default stepping and lockstep. Three
/// and four shards put more live shards than threads on a small host,
/// and the mid-run kill removes a member from a stepping group.
#[test]
fn raw_gateway_replays_byte_identical() {
    let run = |shards: usize, stepping: Option<Stepping>| {
        let mut base = SysConfig::default();
        base.server.volumes = 2;
        base.seed = 0xD0_0D;
        let mut cfg = ClusterConfig::new(shards, base);
        if let Some(stepping) = stepping {
            cfg.stepping = stepping;
        }
        let mut cl = Cluster::new(cfg);
        for rank in 0..12usize {
            cl.add_title(
                &format!("t{rank:02}.mov"),
                &StreamProfile::mpeg1(),
                20.0,
                rank,
            );
        }
        let mut sessions = Vec::new();
        for rank in [0usize, 1, 0, 2, 5, 1, 0, 3] {
            if let Ok(sid) = cl.open(&format!("t{rank:02}.mov")) {
                sessions.push(sid);
            }
            cl.run_for(Duration::from_millis(500));
        }
        // Kill the shard serving the most sessions (first on ties).
        let mut counts = vec![0usize; shards];
        for (_, s) in cl.sessions() {
            counts[s.shard as usize] += 1;
        }
        let n = shards as u32;
        let victim = (0..n).max_by_key(|&s| (counts[s as usize], n - s)).unwrap();
        cl.kill_shard(victim).expect("victim is live");
        cl.run_for(Duration::from_secs(8));
        for sid in sessions {
            cl.close(sid);
        }
        cl.canonical_metrics()
    };
    for shards in [3, 4] {
        let lockstep = run(shards, Some(Stepping::Lockstep));
        assert_eq!(lockstep, run(shards, Some(Stepping::Lockstep)));
        assert_eq!(lockstep, run(shards, None), "{shards} shards diverged");
    }
}
