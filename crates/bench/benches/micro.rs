//! Micro-benchmarks of the hot paths: the admission test, C-SCAN queue
//! operations, the time-driven buffer, seek-model evaluation, the event
//! engine, and interval planning. Runs on the in-tree
//! `cras_bench::timer` harness (`cargo bench --bench micro`).

use std::hint::black_box;

use cras_bench::timer::bench;
use cras_core::{
    Admission, AdmissionModel, CrasServer, OpenReq, ServerConfig, StreamParams, TimeDrivenBuffer,
};
use cras_disk::calibrate::DiskParams;
use cras_disk::cscan::CScanQueue;
use cras_disk::SeekModel;
use cras_media::{ChunkTable, StreamProfile};
use cras_sim::{Duration, Engine, Instant, Rng};
use cras_ufs::Extent;

fn bench_admission() {
    let adm = Admission::new(DiskParams::paper_table4(), AdmissionModel::Paper);
    let streams = vec![StreamParams::new(187_500.0, 6_250.0); 20];
    bench("admission/calculated_io_time_20_streams", || {
        black_box(adm.calculated_io_time(0.5, black_box(&streams)));
    });
    bench("admission/full_admit_20_streams", || {
        let _ = black_box(adm.admit(0.5, black_box(&streams), 1 << 30));
    });
    let proto = StreamParams::new(187_500.0, 6_250.0);
    bench("admission/capacity_search", || {
        black_box(adm.capacity(0.5, proto, 1 << 30, 50));
    });
}

fn bench_cscan() {
    let mut rng = Rng::new(7);
    let cyls: Vec<u32> = (0..256).map(|_| rng.below(3510) as u32).collect();
    bench("cscan/push_pop_256", || {
        let mut q = CScanQueue::new();
        for &cy in &cyls {
            q.push(cy, Instant::ZERO, cy);
        }
        let mut head = 0;
        while let Some(p) = q.pop_next(head) {
            head = p.cyl;
            black_box(p.item);
        }
    });
}

fn bench_tdbuffer() {
    // Four 0.5 s intervals of a 30 fps stream: each posts its 15 frames
    // as one span (discarding the last interval's), then a client gets
    // each frame.
    let table =
        ChunkTable::from_durations_sizes((0..60).map(|_| (Duration::from_millis(33), 6_250)));
    bench("tdbuffer/post_span_get_frames", || {
        let mut buf = TimeDrivenBuffer::new(table.clone(), 1 << 20, Duration::from_millis(100));
        for lo in (0..60u32).step_by(15) {
            let media_now = table.timestamp(lo);
            black_box(buf.post(lo..lo + 15, media_now));
            for i in lo..lo + 15 {
                black_box(buf.get(table.timestamp(i)));
            }
        }
    });
}

fn bench_seek() {
    let measured = SeekModel::st32550n_measured();
    let linear = SeekModel::st32550n_linear(3510);
    let mut d = 1u32;
    bench("seek/measured_eval", || {
        d = (d * 73 + 11) % 3510;
        black_box(measured.time_secs(black_box(d)));
    });
    let samples: Vec<(u32, f64)> = (1..=64)
        .map(|i| (i * 50, linear.time_secs(i * 50)))
        .collect();
    bench("seek/linear_fit_64_samples", || {
        black_box(SeekModel::linear_fit(black_box(&samples)));
    });
}

fn bench_engine() {
    bench("engine/schedule_pop_1000", || {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..1000u32 {
            e.schedule_after(Duration::from_micros((i * 37 % 997) as u64 + 1), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = e.pop() {
            acc += v as u64;
        }
        black_box(acc);
    });
}

fn bench_interval_plan() {
    // A server with 10 running streams planning one interval.
    let setup = || {
        let mut srv = CrasServer::new(DiskParams::paper_table4(), ServerConfig::default());
        let mut rng = Rng::new(3);
        for i in 0..10u64 {
            let table = cras_media::generate_chunks(&StreamProfile::mpeg1(), 30.0, &mut rng);
            let nblocks = table.total_bytes().div_ceil(512) as u32;
            let id = srv
                .open(OpenReq::single(
                    &format!("m{i}"),
                    table,
                    vec![Extent {
                        file_offset: 0,
                        disk_block: i * 400_000,
                        nblocks,
                    }],
                ))
                .expect("10 streams fit in ample memory");
            srv.start(id, Instant::ZERO);
        }
        srv
    };
    bench("server/interval_tick_10_streams", || {
        let mut srv = setup();
        for k in 0..4u64 {
            let now = Instant::ZERO + Duration::from_millis(500) * k;
            let rep = srv.interval_tick(now);
            for r in &rep.reqs {
                srv.io_done(r);
            }
            black_box(rep.reqs.len());
        }
    });
}

fn main() {
    bench_admission();
    bench_cscan();
    bench_tdbuffer();
    bench_seek();
    bench_engine();
    bench_interval_plan();
}
