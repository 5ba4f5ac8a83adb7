//! The full §4 loop: record a stream at constant rate through the
//! Recorder extension, finalize its control table, then play the same
//! file back through CRAS — the write path feeding the read path.

use cras_repro::core::{Recorder, ServerConfig};
use cras_repro::disk::calibrate::calibrate;
use cras_repro::disk::{DiskDevice, DiskRequest};
use cras_repro::media::{Movie, StreamProfile};
use cras_repro::sim::{Duration, Instant};
use cras_repro::sys::{SysConfig, System};

#[test]
fn record_then_play_roundtrip() {
    let mut sys = System::new(SysConfig::default());

    // 1. Pre-allocate the capture file in the system's file system (§4:
    //    "allocate data blocks in advance when a file is created or
    //    expanded").
    let secs = 12.0f64;
    let bytes = (secs * 187_500.0) as u64 + 8192;
    let ino = sys.ufs_mut().create("capture.mov").expect("fresh fs");
    sys.ufs_mut()
        .preallocate(ino, bytes)
        .expect("space available");
    let extents = sys.ufs().extent_map(ino);

    // 2. Record at constant rate through the Recorder (driven against a
    //    standalone disk instance, as a capture box would run).
    let mut scratch: DiskDevice<u8> = DiskDevice::st32550n();
    let cal = calibrate(&mut scratch, 64 * 1024);
    let mut rec_disk: DiskDevice<u64> = DiskDevice::st32550n();
    let mut rec = Recorder::new(cal.params, ServerConfig::default());
    let session = rec
        .open_write(187_500.0, 6_250.0, extents.clone())
        .expect("write admission passes");
    let frame = Duration::from_secs_f64(1.0 / 30.0);
    for tick in 0..(secs as u64 * 2) {
        for _ in 0..15 {
            rec.stage_chunk(session, frame, 6_250);
        }
        let now = Instant::ZERO + Duration::from_millis(500) * tick;
        for w in rec.interval_tick(now) {
            let fin = rec_disk
                .submit(now, DiskRequest::rt_write(w.block, w.nblocks, w.id.0))
                .expect("sequential writes drain between intervals");
            rec_disk.complete(fin);
            rec.io_done(w);
        }
    }
    let table = rec.finalize(session);
    assert_eq!(table.len(), secs as usize * 30);
    assert!((table.avg_rate() - 187_500.0).abs() < 100.0);

    // 3. Play the recorded file back through CRAS in the same system.
    let movie = Movie {
        name: "capture.mov".to_string(),
        ino,
        table,
        profile: StreamProfile::mpeg1(),
    };
    let client = sys.add_cras_player(&movie, 1).expect("admitted");
    let start = sys.start_playback(client);
    sys.run_until(start + Duration::from_secs(secs as u64 + 2));

    let p = &sys.players[&client.0];
    assert!(p.done, "playback finished");
    assert_eq!(p.stats.frames_shown, secs as u64 * 30);
    assert_eq!(p.stats.frames_dropped, 0);
    let (_, max_delay) = p.delay_summary();
    assert!(max_delay < 0.01, "max delay {max_delay}");
    // The playback actually read the pre-allocated extents.
    assert!(sys.metrics.cras_read_bytes as f64 > 0.95 * secs * 187_500.0);
}
