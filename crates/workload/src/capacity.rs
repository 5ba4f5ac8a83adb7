//! The §3.1 capacity claim and Table 1/3 parameter report.
//!
//! "If a longer initial delay is allowed, CRAS can support more streams
//! or higher data rates. For example, with 3 seconds initial delay, it
//! can support more than 25 MPEG1 streams whose total throughput is
//! 4.6MB/s (70% of disk bandwidth)."
//!
//! Initial delay is two intervals (double buffering), so a 3 s delay is a
//! 1.5 s interval. The sweep reports, per interval time, the number of
//! admitted streams and the bandwidth fraction they represent, for both
//! MPEG-1 and MPEG-2 rates.

use cras_core::{Admission, AdmissionModel, CrasServer, OpenReq, ServerConfig, StreamParams};
use cras_disk::calibrate::DiskParams;

use crate::result::{Figure, KvTable};

/// One capacity sweep point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CapacityPoint {
    /// Initial delay (2 × interval), seconds.
    pub initial_delay: f64,
    /// Admitted MPEG-1 streams.
    pub mpeg1_streams: usize,
    /// Their fraction of disk bandwidth.
    pub mpeg1_fraction: f64,
    /// Admitted MPEG-2 streams.
    pub mpeg2_streams: usize,
    /// Their fraction of disk bandwidth.
    pub mpeg2_fraction: f64,
}

/// Sweeps interval times, reporting admitted capacity.
pub(crate) fn sweep(params: DiskParams, intervals: &[f64]) -> Vec<CapacityPoint> {
    let adm = Admission::new(params, AdmissionModel::Paper);
    let budget = u64::MAX / 4;
    let mpeg1 = StreamParams::new(187_500.0, 6_250.0);
    let mpeg2 = StreamParams::new(750_000.0, 25_000.0);
    intervals
        .iter()
        .map(|&t| {
            let n1 = adm.capacity(t, mpeg1, budget, 200);
            let n2 = adm.capacity(t, mpeg2, budget, 200);
            CapacityPoint {
                initial_delay: 2.0 * t,
                mpeg1_streams: n1,
                mpeg1_fraction: n1 as f64 * mpeg1.rate / params.transfer_rate,
                mpeg2_streams: n2,
                mpeg2_fraction: n2 as f64 * mpeg2.rate / params.transfer_rate,
            }
        })
        .collect()
}

/// The capacity figure: streams (and bandwidth fraction) vs initial delay.
pub fn figure(params: DiskParams) -> Figure {
    let intervals = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
    let points = sweep(params, &intervals);
    let mut fig = Figure::new(
        "capacity",
        "Admitted streams vs initial delay (§3.1)",
        "initial delay (s)",
        "streams / fraction",
    );
    for p in &points {
        fig.series_mut("MPEG1 streams")
            .push(p.initial_delay, p.mpeg1_streams as f64);
        fig.series_mut("MPEG1 bandwidth fraction")
            .push(p.initial_delay, p.mpeg1_fraction);
        fig.series_mut("MPEG2 streams")
            .push(p.initial_delay, p.mpeg2_streams as f64);
        fig.series_mut("MPEG2 bandwidth fraction")
            .push(p.initial_delay, p.mpeg2_fraction);
    }
    fig
}

/// Table 1/3 — the admission-test parameters with their resolved values,
/// plus the §2.1 server-memory accounting.
pub fn table3(params: DiskParams) -> KvTable {
    let cfg = ServerConfig::default();
    let adm = Admission::new(params, AdmissionModel::Paper);
    let t = cfg.interval.as_secs_f64();
    let mpeg1 = StreamParams::new(187_500.0, 6_250.0);
    let streams = vec![mpeg1; 5];

    let mut kt = KvTable::new(
        "table3",
        "Admission-test parameters (5 MPEG1 streams, T = 0.5 s)",
    );
    kt.row("N", "5".into(), "streams");
    kt.row("T (interval)", format!("{t:.3}"), "s");
    kt.row("D", format!("{:.2}", params.transfer_rate / 1e6), "MB/s");
    kt.row("R_total", format!("{:.0}", 5.0 * mpeg1.rate), "B/s");
    kt.row("C_total", format!("{:.0}", 5.0 * mpeg1.chunk), "B");
    kt.row("O_other", format!("{:.2}", adm.o_other() * 1e3), "ms (C.9)");
    kt.row(
        "O_seek",
        format!("{:.2}", adm.o_seek(&streams) * 1e3),
        "ms (C.12)",
    );
    kt.row(
        "O_rot",
        format!("{:.2}", adm.o_rot(t, &streams) * 1e3),
        "ms (C.13)",
    );
    kt.row(
        "O_cmd",
        format!("{:.2}", adm.o_cmd(t, &streams) * 1e3),
        "ms (C.10)",
    );
    kt.row(
        "O_total",
        format!("{:.2}", adm.o_total(t, &streams) * 1e3),
        "ms (C.15)",
    );
    kt.row(
        "calculated I/O time",
        format!("{:.2}", adm.calculated_io_time(t, &streams) * 1e3),
        "ms (must be <= T)",
    );
    kt.row(
        "B_total",
        format!("{}", adm.buffer_total(t, &streams)),
        "B (formula 2)",
    );

    // §2.1 memory accounting: 250 KB + total buffer space.
    let mut srv = CrasServer::new(params, cfg);
    let mut rng = cras_sim::Rng::new(1);
    for i in 0..5 {
        let table = cras_media::generate_chunks(&cras_media::StreamProfile::mpeg1(), 5.0, &mut rng);
        let nblocks = table.total_bytes().div_ceil(512) as u32;
        let extents = vec![cras_ufs::Extent {
            file_offset: 0,
            disk_block: 100_000 + i * 100_000,
            nblocks,
        }];
        srv.open(OpenReq::single(&format!("m{i}"), table, extents))
            .expect("5 MPEG1 streams fit");
    }
    kt.row(
        "server memory (5 streams)",
        format!("{}", srv.memory_bytes()),
        "B (= 250 KB + buffers, §2.1)",
    );
    kt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_second_delay_supports_over_25_mpeg1_streams() {
        let points = sweep(DiskParams::paper_table4(), &[1.5]);
        let p = points[0];
        assert!((p.initial_delay - 3.0).abs() < 1e-12);
        assert!(
            p.mpeg1_streams >= 24,
            "streams at 3 s delay = {}",
            p.mpeg1_streams
        );
        assert!(p.mpeg1_fraction > 0.66, "fraction = {}", p.mpeg1_fraction);
    }

    #[test]
    fn capacity_grows_with_delay() {
        let points = sweep(DiskParams::paper_table4(), &[0.25, 0.5, 1.0, 2.0]);
        for w in points.windows(2) {
            assert!(w[1].mpeg1_streams >= w[0].mpeg1_streams);
            assert!(w[1].mpeg2_streams >= w[0].mpeg2_streams);
        }
    }

    #[test]
    fn table3_reports_memory_claim() {
        let kt = table3(DiskParams::paper_table4());
        let mem_row = kt
            .rows
            .iter()
            .find(|r| r.0.starts_with("server memory"))
            .unwrap();
        let mem: u64 = mem_row.1.parse().unwrap();
        // 250 KB + 5 × ~200 KB = ~1.25 MB.
        assert!((1_200_000..1_350_000).contains(&mem), "memory = {mem}");
    }
}
