//! Multiple CRAS instances — §2.6's "allows the system to execute
//! multiple CRAS's simultaneously", with the caveat that experiment
//! makes visible: each server's admission test only knows its *own*
//! streams, so two servers can jointly oversubscribe the disk that either
//! alone would have protected.
//!
//! Two servers share the real-time queue of one disk, each running its
//! own interval scheduler (phase-shifted by half an interval). Each
//! admits `streams_per_server` MPEG-1 streams — individually legal. The
//! run measures deadline overruns and late batches against a single
//! server carrying the same total load (which the admission test would
//! have refused).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cras_core::{Admit, CrasServer, OpenReq, ReadReq, ServerConfig, StreamId};
use cras_disk::calibrate::calibrate;
use cras_disk::{DiskDevice, DiskRequest};
use cras_media::StreamProfile;
use cras_sim::{Duration, Instant, Rng};
use cras_ufs::Extent;

use crate::result::KvTable;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Tick(usize),
    DiskDone,
}

/// Outcome of one configuration.
#[derive(Clone, Copy, Debug)]
pub struct MultiOutcome {
    /// Number of servers.
    pub servers: usize,
    /// Streams per server.
    pub streams_per_server: usize,
    /// Whether each server's own admission test accepted its load.
    pub individually_admitted: bool,
    /// Total deadline overruns across servers.
    pub overruns: u64,
    /// Aggregate bytes fetched per second.
    pub throughput: f64,
}

/// Builds `n` synthetic contiguous-extent streams starting at spread-out
/// disk positions.
fn synth_streams(
    srv: &mut CrasServer,
    n: usize,
    base_block: u64,
    secs: f64,
    rng: &mut Rng,
) -> Vec<StreamId> {
    (0..n)
        .map(|i| {
            let table = cras_media::generate_chunks(&StreamProfile::mpeg1(), secs, rng);
            let nblocks = table.total_bytes().div_ceil(512) as u32;
            let extents = vec![Extent {
                file_offset: 0,
                disk_block: base_block + i as u64 * 150_000,
                nblocks,
            }];
            srv.open(
                OpenReq::single(&format!("s{base_block}-{i}"), table, extents)
                    .with_admit(Admit::Unchecked),
            )
            .expect("unchecked open installs")
        })
        .collect()
}

/// Runs `servers` CRAS instances with `streams_per_server` streams each
/// for `measure`.
pub(crate) fn run_config(
    servers: usize,
    streams_per_server: usize,
    measure: Duration,
    seed: u64,
) -> MultiOutcome {
    let mut scratch: DiskDevice<u8> = DiskDevice::st32550n();
    let cal = calibrate(&mut scratch, 64 * 1024);
    let cfg = ServerConfig {
        buffer_budget: 256 << 20,
        ..ServerConfig::default()
    };
    let mut rng = Rng::new(seed);
    let mut disk: DiskDevice<(usize, ReadReq)> = DiskDevice::st32550n();
    let mut srvs: Vec<CrasServer> = (0..servers)
        .map(|_| CrasServer::new(cal.params, cfg))
        .collect();
    let secs = measure.as_secs_f64() + 6.0;
    let mut admitted_ok = true;
    for (si, srv) in srvs.iter_mut().enumerate() {
        let ids = synth_streams(
            srv,
            streams_per_server,
            500_000 + si as u64 * 1_500_000,
            secs,
            &mut rng,
        );
        // Check what this server's own admission test would have said.
        admitted_ok &= srv
            .admission()
            .admit(
                cfg.interval.as_secs_f64(),
                &srv.active_params(),
                cfg.buffer_budget,
            )
            .is_ok();
        for id in ids {
            srv.start(id, Instant::ZERO);
        }
    }

    // Event loop: per-server phase-shifted ticks plus disk completions.
    let mut heap: BinaryHeap<Reverse<(Instant, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for si in 0..servers {
        let phase = cfg.interval.mul_f64(si as f64 / servers as f64);
        heap.push(Reverse((Instant::ZERO + phase, seq, Ev::Tick(si))));
        seq += 1;
    }
    let end = Instant::ZERO + measure;
    let mut bytes = 0u64;
    while let Some(Reverse((at, _, ev))) = heap.pop() {
        if at > end {
            break;
        }
        match ev {
            Ev::Tick(si) => {
                let rep = srvs[si].interval_tick(at);
                for r in &rep.reqs {
                    if let Some(t) =
                        disk.submit(at, DiskRequest::rt_read(r.block, r.nblocks, (si, *r)))
                    {
                        heap.push(Reverse((t, seq, Ev::DiskDone)));
                        seq += 1;
                    }
                }
                heap.push(Reverse((at + cfg.interval, seq, Ev::Tick(si))));
                seq += 1;
            }
            Ev::DiskDone => {
                let (done, next) = disk.complete(at);
                bytes += done.req.bytes();
                let (si, read) = done.req.tag;
                srvs[si].io_done(&read);
                if let Some(t) = next {
                    heap.push(Reverse((t, seq, Ev::DiskDone)));
                    seq += 1;
                }
            }
        }
    }
    MultiOutcome {
        servers,
        streams_per_server,
        individually_admitted: admitted_ok,
        overruns: srvs.iter().map(|s| s.stats().deadline_misses).sum(),
        throughput: bytes as f64 / measure.as_secs_f64(),
    }
}

/// The two-configuration comparison table.
pub fn run(measure: Duration, seed: u64) -> (KvTable, MultiOutcome, MultiOutcome) {
    // 12 streams per server: individually admitted (capacity ~14), but 24
    // in total is well beyond one disk's real-time capacity at T = 0.5 s.
    let two = run_config(2, 12, measure, seed);
    let one = run_config(1, 12, measure, seed ^ 1);
    let mut t = KvTable::new(
        "multi",
        "§2.6 multiple CRAS instances sharing one disk (12 MPEG1 streams each)",
    );
    for o in [&one, &two] {
        t.row(
            &format!("{} server(s)", o.servers),
            format!(
                "admitted_individually={} overruns={} throughput={:.2}MB/s",
                o.individually_admitted,
                o.overruns,
                o.throughput / 1e6
            ),
            "",
        );
    }
    (t, one, two)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_admission_oversubscribes_the_disk() {
        let (_t, one, two) = run(Duration::from_secs(12), 0x2C25);
        // Each server alone believes it is fine...
        assert!(one.individually_admitted);
        assert!(two.individually_admitted);
        // ...one server meets every deadline...
        assert_eq!(one.overruns, 0, "{one:?}");
        // ...but two of them jointly miss deadlines.
        assert!(two.overruns > 0, "{two:?}");
    }
}
