//! Constant-rate recording — the paper's §4 future-work extension, live:
//! pre-allocate contiguous blocks through the file system, stage chunks
//! from a capture source, and let CRAS write them to disk at a constant
//! rate with the same admission test and interval planner it uses for
//! playback.
//!
//! ```text
//! cargo run --release --example recorder
//! ```

use cras_repro::core::StreamParams;
use cras_repro::sim::Duration;
use cras_repro::sys::{SysConfig, System};

fn main() {
    let mut sys = System::new(SysConfig::default());

    // Pre-allocate 4 MB of contiguous space (§4: "allocate data blocks in
    // advance when a file is created or expanded").
    let ino = sys.ufs_mut().create("capture.mov").expect("fresh fs");
    sys.ufs_mut()
        .preallocate(ino, 4 << 20)
        .expect("plenty of space");
    let extents = sys.ufs().extent_map(ino);
    println!(
        "pre-allocated {} extents ({:.2} MB contiguous)",
        extents.len(),
        extents.iter().map(|e| e.bytes()).sum::<u64>() as f64 / 1e6
    );

    // Open a 1.5 Mbps recording: the server's one admission test
    // charges it like any stream.
    let rec = sys
        .open_recording("capture.mov", ino, StreamParams::new(187_500.0, 6_250.0))
        .expect("write admission passes");

    // Capture 10 seconds of 30 fps frames, each staged as it arrives;
    // every interval tick writes what was staged since the last one.
    let frame = Duration::from_secs_f64(1.0 / 30.0);
    let start = sys.now();
    for i in 0..300u32 {
        sys.run_until(start + Duration::from_secs_f64(i as f64 / 30.0));
        sys.stage_chunk(rec, frame, 6_250);
    }
    // One more interval drains the last frames.
    sys.run_for(Duration::from_secs(1));

    let table = sys.finish_recording(rec);
    println!(
        "recorded {} chunks in {} disk writes ({:.2} MB written)",
        table.len(),
        sys.disk().stats().ops.0,
        sys.metrics.cras_write_bytes as f64 / 1e6
    );
    println!(
        "control file: {:.1} s of media at {:.0} B/s",
        table.total_duration().as_secs_f64(),
        table.avg_rate()
    );
    println!(
        "disk busy {:.1}% of the recording time",
        100.0 * sys.disk().stats().busy.as_secs_f64() / table.total_duration().as_secs_f64()
    );
    assert_eq!(table.len(), 300);
    println!("ok: constant-rate write path works (paper §4, implemented)");
}
