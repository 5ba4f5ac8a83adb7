//! Capacity scaling over the volume layer: the §4 "several disk devices"
//! variation quantified.
//!
//! Sweeps the number of volumes N and counts the MPEG1 streams the
//! per-volume admission test accepts under both placement policies:
//!
//! * **round-robin** — each movie whole on one volume. Admission load
//!   lands entirely on that volume, so capacity scales linearly (N
//!   identical disks admit N× the streams of one).
//! * **striped** — each movie spread over every volume in stripe units.
//!   Rates divide by N, but every stream pays the per-stream seek,
//!   rotation and command overhead on *every* spindle it touches, so
//!   striped capacity grows sublinearly — the classic striping tradeoff
//!   (better single-stream bandwidth, worse aggregate admission).
//!
//! The round-robin admitted load is then run end-to-end to confirm the
//! guarantee holds on every volume. At *exactly* the admitted load a
//! layout-dependent handful of frames can still slip: the paper's
//! per-stream admission model charges one command per stream per
//! interval, and a chunk whose extents cross a boundary costs two (the
//! [`crate::ablate`] study) — so validation asserts near-zero drops, not
//! zero.

use cras_core::PlacementPolicy;
use cras_media::StreamProfile;
use cras_sim::Duration;
use cras_sys::{SysConfig, System};

use crate::result::Figure;
use crate::runner::{count_admitted, frames_dropped, start_all};

/// Stripe unit used by the striped series (32 fs blocks).
pub const STRIPE_BYTES: u64 = 256 * 1024;

/// Outcome at one volume count.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Number of volumes.
    pub volumes: usize,
    /// Streams admitted under round-robin whole-movie placement.
    pub admitted_round_robin: usize,
    /// Streams admitted under striped placement.
    pub admitted_striped: usize,
    /// Dropped frames running the round-robin admitted load.
    pub dropped_at_admitted: u64,
    /// Deadline warnings during that run.
    pub overruns: u64,
}

fn scaling_cfg(volumes: usize, placement: PlacementPolicy, seed: u64) -> SysConfig {
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    cfg.server.volumes = volumes;
    cfg.server.placement = placement;
    // Disk-bound capacity: a large buffer budget keeps the §2.1 memory
    // check from binding before the per-volume interval test does.
    cfg.server.buffer_budget = 1 << 40;
    cfg
}

/// The MPEG1 streams `volumes` disks admit under `placement`.
fn admitted(volumes: usize, placement: PlacementPolicy, seed: u64) -> usize {
    let mut sys = System::new(scaling_cfg(volumes, placement, seed));
    count_admitted(&mut sys, 16 * volumes + 8, 4.0, |i| format!("s{i}.mov"))
}

/// Runs `streams` round-robin-placed streams for `measure` and returns
/// `(dropped frames, deadline warnings)`.
fn run_admitted(volumes: usize, streams: usize, measure: Duration, seed: u64) -> (u64, u64) {
    let mut sys = System::new(scaling_cfg(volumes, PlacementPolicy::RoundRobin, seed));
    let secs = measure.as_secs_f64() + 8.0;
    let players: Vec<_> = (0..streams)
        .map(|i| {
            let m = sys.record_movie(&format!("v{i}.mov"), StreamProfile::mpeg1(), secs);
            sys.add_cras_player(&m, 1)
                .expect("previously admitted load")
        })
        .collect();
    let start = start_all(&mut sys, &players, Duration::ZERO);
    sys.run_until(start + measure);
    let dropped = frames_dropped(&sys);
    (dropped, sys.metrics.overruns)
}

/// Sweeps the volume counts; returns the figure (admitted streams vs N,
/// one series per placement policy) and the raw points.
pub fn run(volume_counts: &[usize], measure: Duration, seed: u64) -> (Figure, Vec<ScalingPoint>) {
    let mut fig = Figure::new(
        "capacity_scaling",
        "Admitted MPEG1 streams vs number of volumes",
        "volumes",
        "admitted streams",
    );
    let mut points = Vec::new();
    for &n in volume_counts {
        let rr = admitted(n, PlacementPolicy::RoundRobin, seed);
        let st = admitted(
            n,
            PlacementPolicy::Striped {
                stripe_bytes: STRIPE_BYTES,
            },
            seed ^ 7,
        );
        let (dropped, overruns) = run_admitted(n, rr, measure, seed ^ (n as u64) << 8);
        fig.series_mut("round-robin").push(n as f64, rr as f64);
        fig.series_mut("striped").push(n as f64, st as f64);
        points.push(ScalingPoint {
            volumes: n,
            admitted_round_robin: rr,
            admitted_striped: st,
            dropped_at_admitted: dropped,
            overruns,
        });
    }
    (fig, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_scales_with_volumes() {
        let (fig, points) = run(&[1, 2], Duration::from_secs(6), 0xCA9A);
        assert_eq!(points.len(), 2);
        let (one, two) = (points[0], points[1]);
        assert!(
            one.admitted_round_robin >= 10,
            "single volume admits a realistic load, got {}",
            one.admitted_round_robin
        );
        // The headline claim: doubling the disks at least 1.8x's the
        // admitted capacity (round robin doubles it exactly — the disks
        // are independent and identical).
        assert!(
            two.admitted_round_robin as f64 >= 1.8 * one.admitted_round_robin as f64,
            "N=2 admitted {} vs N=1 {}",
            two.admitted_round_robin,
            one.admitted_round_robin
        );
        // The admitted load really plays: at worst a layout-dependent
        // sliver of frame slots is late (see the module docs), never a
        // collapse.
        for p in &points {
            let slots = p.admitted_round_robin as u64 * 6 * 30;
            assert!(
                p.dropped_at_admitted <= slots / 100,
                "admitted load should play nearly loss-free: {p:?}"
            );
            assert!(p.overruns <= 2, "warnings at {p:?}");
        }
        // Striping scales, but sublinearly: per-stream overheads are paid
        // on both spindles.
        assert!(
            two.admitted_striped > one.admitted_striped,
            "striping should gain from a second volume"
        );
        assert!(
            two.admitted_striped <= two.admitted_round_robin,
            "striped {} should not beat round-robin {}",
            two.admitted_striped,
            two.admitted_round_robin
        );
        assert_eq!(fig.series.len(), 2);
    }

    #[test]
    fn one_volume_matches_either_placement() {
        // With one volume, striping degenerates to whole-movie placement:
        // the admission arithmetic must agree exactly.
        let rr = admitted(1, PlacementPolicy::RoundRobin, 0x11);
        let st = admitted(
            1,
            PlacementPolicy::Striped {
                stripe_bytes: STRIPE_BYTES,
            },
            0x11,
        );
        assert_eq!(rr, st);
    }
}
