//! What the workloads share: the seeded per-frame cost, stepping a single
//! system, and the per-layer gauges and counters read from the public
//! statistics of one or more systems (the shards of a cluster, or a
//! single system).

use cras_sim::{Duration, Instant, Rng};
use cras_sys::System;

use crate::stats::{percentile, tail};
use crate::trace::Tracer;

const MB: f64 = 1024.0 * 1024.0;

/// The per-frame CPU cost of a viewer (decode, or copy-out to a remote
/// set-top) for `seed`: `nominal` plus up to 20%. The seed varies the
/// hardware as well as the inputs, so every seed moves the simulated
/// start-up times a little.
pub fn frame_cost(seed: u64, nominal: Duration) -> Duration {
    let extra = Rng::new(seed ^ 0xF4A3_E0C5).below(nominal.as_nanos() / 5);
    nominal + Duration::from_nanos(extra)
}

/// Runs `sys` to `t` and moves its clock there, as the gateway does for
/// each shard at a barrier, so that an open issued next happens at `t`.
pub fn run_to(sys: &mut System, t: Instant) {
    sys.run_until(t);
    if sys.now() < t {
        // Every pending event is past `t` after `run_until(t)`.
        sys.engine.advance_to(t);
    }
}

/// Engine events dispatched, summed over `systems`.
pub fn events(systems: &[&System]) -> u64 {
    systems.iter().map(|s| s.engine.dispatched()).sum()
}

/// Raises the `sim` and `core` gauges of a traced run to their values
/// now, summed over `systems`. Untraced runs skip the sampling.
pub fn sample_gauges(systems: &[&System], tr: &mut Tracer) {
    if !tr.is_on() {
        return;
    }
    let sum = |f: &dyn Fn(&System) -> f64| systems.iter().map(|s| f(s)).sum::<f64>();
    tr.peak("sim.pending.peak", || sum(&|s| s.engine.pending() as f64));
    tr.peak("core.streams.peak", || {
        sum(&|s| s.cras.stream_count() as f64)
    });
    tr.peak("core.disk_streams.peak", || {
        sum(&|s| s.cras.disk_charged_streams() as f64)
    });
    tr.peak("core.memory_mb.peak", || {
        sum(&|s| s.cras.memory_bytes() as f64 / MB)
    });
}

/// Counters of the `sys`, `core`, `disk` and `net` layers at the end of
/// a run, summed over `systems`.
pub fn counters(systems: &[&System]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&System) -> u64| systems.iter().map(|s| f(s)).sum::<u64>() as f64;
    let sumf = |f: &dyn Fn(&System) -> f64| systems.iter().map(|s| f(s)).sum::<f64>();

    let (hit, miss) = (
        sum(&|s| s.cras.cache().stats().hit_bytes),
        sum(&|s| s.cras.cache().stats().miss_bytes),
    );
    let spans: Vec<f64> = systems
        .iter()
        .flat_map(|s| s.metrics.interval_walls().iter().filter_map(|w| w.span()))
        .collect();
    let rebuild_s = sumf(&|s| s.metrics.rebuild_time().map_or(0.0, |d| d.as_secs_f64()));
    let link_sum = |f: &dyn Fn(&cras_net::LinkStats) -> u64| {
        sum(&|s| {
            (0..s.net.link_count() as u32)
                .map(|l| f(&s.net.link(l).stats))
                .sum()
        })
    };
    let packets = link_sum(&|l| l.packets_sent);
    let queued_ns = link_sum(&|l| l.queued_ns);
    let max_queued = systems
        .iter()
        .flat_map(|s| (0..s.net.link_count() as u32).map(|l| s.net.link(l).stats.max_queued_bytes))
        .max()
        .unwrap_or(0);
    let session_sum = |f: &dyn Fn(&cras_net::SessionStats) -> u64| {
        sum(&|s| s.net.sessions().map(|x| f(&x.stats)).sum())
    };

    vec![
        ("sys.overruns", sum(&|s| s.metrics.overruns)),
        ("sys.parked_streams", sum(&|s| s.metrics.parked_streams)),
        ("sys.resumed_streams", sum(&|s| s.metrics.resumed_streams)),
        ("sys.net_parks", sum(&|s| s.metrics.net_parks)),
        ("sys.rebuild.sim_s", rebuild_s),
        ("sys.rebuild.mb", sum(&|s| s.metrics.rebuild_bytes) / MB),
        ("core.intervals", sum(&|s| s.cras.stats().intervals)),
        ("core.reads_issued", sum(&|s| s.cras.stats().reads_issued)),
        ("core.chunks_posted", sum(&|s| s.cras.stats().chunks_posted)),
        (
            "core.degraded_reads",
            sum(&|s| s.cras.stats().degraded_reads),
        ),
        ("core.lost_reads", sum(&|s| s.cras.stats().lost_reads)),
        ("core.steered_reads", sum(&|s| s.cras.stats().steered_reads)),
        (
            "core.cache.hit_ratio",
            if hit + miss > 0.0 {
                hit / (hit + miss)
            } else {
                0.0
            },
        ),
        (
            "core.cache.prefix_admitted",
            sum(&|s| s.cras.cache().stats().prefix_admitted_streams),
        ),
        (
            "core.cache.joined",
            sum(&|s| s.cras.cache().stats().joined_streams),
        ),
        (
            "core.cache.cache_admitted",
            sum(&|s| s.cras.cache().stats().cache_admitted_streams),
        ),
        (
            "core.cache.deferred_drained",
            sum(&|s| s.cras.cache().stats().deferred_drained_streams),
        ),
        (
            "core.cache.interval_breaks",
            sum(&|s| s.cras.cache().stats().interval_breaks),
        ),
        (
            "core.cache.peak_mb",
            sum(&|s| s.cras.cache().stats().peak_bytes) / MB,
        ),
        (
            "disk.cras_read_mb",
            sum(&|s| s.metrics.cras_read_bytes) / MB,
        ),
        (
            "disk.cras_read_busy_s",
            sumf(&|s| s.metrics.cras_read_busy.as_secs_f64()),
        ),
        (
            "disk.cras_write_mb",
            sum(&|s| s.metrics.cras_write_bytes) / MB,
        ),
        ("disk.span_p50_ms", percentile(&spans, 50.0) * 1e3),
        (
            "disk.span_tail_ms",
            tail(&spans).map_or(0.0, |t| t.value * 1e3),
        ),
        ("net.link_mb", link_sum(&|l| l.bytes_sent) / MB),
        (
            "net.multicast_saved_mb",
            link_sum(&|l| l.multicast_saved_bytes) / MB,
        ),
        ("net.retransmit_mb", link_sum(&|l| l.retransmit_bytes) / MB),
        ("net.packets", packets),
        (
            "net.queue_delay_ms_mean",
            if packets > 0.0 {
                queued_ns / packets / 1e6
            } else {
                0.0
            },
        ),
        ("net.max_queued_kb", max_queued as f64 / 1024.0),
        ("net.naks", session_sum(&|x| x.naks_sent)),
        ("net.late_frames", session_sum(&|x| x.late_frames)),
    ]
}
