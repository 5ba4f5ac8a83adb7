//! Constant-rate recording — the paper's §4 future-work extension, live:
//! pre-allocate contiguous blocks through the file system, stage chunks
//! from a capture source, and drain them to disk at a constant rate with
//! the same interval scheduler CRAS uses for playback.
//!
//! ```text
//! cargo run --release --example recorder
//! ```

use cras_repro::core::{Recorder, ServerConfig};
use cras_repro::disk::calibrate::{calibrate, DiskParams};
use cras_repro::disk::{DiskDevice, DiskRequest};
use cras_repro::sim::{Duration, Instant};
use cras_repro::ufs::{MkfsParams, Ufs};

fn main() {
    // Calibrate and set up.
    let mut scratch: DiskDevice<u8> = DiskDevice::st32550n();
    let cal = calibrate(&mut scratch, 64 * 1024);
    let params: DiskParams = cal.params;
    let mut disk: DiskDevice<u64> = DiskDevice::st32550n();
    let geom = disk.geometry().clone();
    let mut fs = Ufs::format(&geom, MkfsParams::tuned(&geom), 1);

    // Pre-allocate 4 MB of contiguous space (§4: "allocate data blocks in
    // advance when a file is created or expanded").
    let ino = fs.create("capture.mov").expect("fresh fs");
    fs.preallocate(ino, 4 << 20).expect("plenty of space");
    let extents = fs.extent_map(ino);
    println!(
        "pre-allocated {} extents ({:.2} MB contiguous)",
        extents.len(),
        extents.iter().map(|e| e.bytes()).sum::<u64>() as f64 / 1e6
    );

    // Open a 1.5 Mbps write session.
    let mut rec = Recorder::new(params, ServerConfig::default());
    let session = rec
        .open_write(187_500.0, 6_250.0, extents)
        .expect("write admission passes");

    // Capture 10 seconds of 30 fps frames, draining every interval.
    let frame = Duration::from_secs_f64(1.0 / 30.0);
    let mut now = Instant::ZERO;
    let mut writes = 0u32;
    for tick in 0..20u64 {
        // One 0.5 s interval of captured frames arrives...
        for _ in 0..15 {
            rec.stage_chunk(session, frame, 6_250);
        }
        // ...and the interval scheduler drains it as real-time writes.
        now = Instant::ZERO + Duration::from_millis(500) * tick;
        for w in rec.interval_tick(now) {
            let fin = disk
                .submit(now, DiskRequest::rt_write(w.block, w.nblocks, w.id.0))
                .expect("sequential: disk idle between intervals");
            disk.complete(fin);
            rec.io_done(w);
            writes += 1;
        }
    }

    let table = rec.finalize(session);
    println!("recorded {} chunks in {} disk writes", table.len(), writes);
    println!(
        "control file: {:.1} s of media at {:.0} B/s",
        table.total_duration().as_secs_f64(),
        table.avg_rate()
    );
    println!(
        "disk busy {:.1}% of the recording time",
        100.0 * disk.stats().busy.as_secs_f64() / now.as_secs_f64()
    );
    assert_eq!(table.len(), 300);
    println!("ok: constant-rate write path works (paper §4, implemented)");
}
