//! The full §4 loop inside one `System`: a recording is a CRAS stream,
//! admitted by the same test as the players and written by the same
//! interval planner, and its finished control table plays back through
//! CRAS — the write path feeding the read path.

use std::mem::discriminant;

use cras_repro::core::{StreamId, StreamParams};
use cras_repro::media::{ChunkTable, Movie, StreamProfile};
use cras_repro::sim::Duration;
use cras_repro::sys::{SysConfig, System};
use cras_repro::ufs::Ino;

/// The capture: 30 frames per second of 6 250 bytes, 1.5 Mbps.
const CHUNK: u32 = 6_250;
const RATE: f64 = 30.0 * CHUNK as f64;

/// A capture file preallocated on volume 0 for `secs` of the capture
/// (§4: "allocate data blocks in advance when a file is created or
/// expanded").
fn capture_file(sys: &mut System, secs: u64) -> Ino {
    let ino = sys.ufs_mut().create("capture.mov").expect("fresh fs");
    sys.ufs_mut()
        .preallocate(ino, (secs as f64 * RATE) as u64 + 8192)
        .expect("space available");
    ino
}

/// Captures `secs` into recording `rec`: half-way through each 0.5 s
/// interval the client stages that interval's 15 frames, and the next
/// tick writes them. Returns the block-rounded bytes those writes
/// cover.
fn capture(sys: &mut System, rec: StreamId, secs: u64) -> u64 {
    let half = Duration::from_millis(250);
    let frame = Duration::from_secs_f64(1.0 / 30.0);
    let (mut staged, mut rounded) = (0u64, 0u64);
    for _ in 0..secs * 2 {
        sys.run_for(half);
        for _ in 0..15 {
            sys.stage_chunk(rec, frame, CHUNK);
        }
        let lo = staged;
        staged += 15 * CHUNK as u64;
        rounded += (staged.div_ceil(512) - lo / 512) * 512;
        sys.run_for(half);
    }
    // The last tick's writes land.
    sys.run_for(half * 2);
    rounded
}

/// Plays the recorded file back through CRAS in the same system and
/// checks every frame arrives on time.
fn play_back(sys: &mut System, ino: Ino, table: ChunkTable) {
    let secs = table.total_duration().as_secs_f64();
    let frames = table.len() as u64;
    let read_before = sys.metrics.cras_read_bytes;
    let movie = Movie {
        name: "capture.mov".to_string(),
        ino,
        table,
        profile: StreamProfile::mpeg1(),
    };
    let client = sys.add_cras_player(&movie, 1).expect("admitted");
    let start = sys.start_playback(client);
    sys.run_until(start + Duration::from_secs_f64(secs + 2.0));

    let p = &sys.players[&client.0];
    assert!(p.done, "playback finished");
    assert_eq!(p.stats.frames_shown, frames);
    assert_eq!(p.stats.frames_dropped, 0);
    let (_, max_delay) = p.delay_summary();
    assert!(max_delay < 0.01, "max delay {max_delay}");
    // The playback actually read the pre-allocated extents.
    let read = sys.metrics.cras_read_bytes - read_before;
    assert!(read as f64 > 0.95 * secs * RATE, "read {read} bytes");
}

#[test]
fn record_then_play_roundtrip() {
    let mut sys = System::new(SysConfig::default());
    let secs = 12;
    let ino = capture_file(&mut sys, secs);
    let rec = sys
        .open_recording("capture.mov", ino, StreamParams::new(RATE, CHUNK as f64))
        .expect("write admission passes");
    capture(&mut sys, rec, secs);
    let table = sys.finish_recording(rec);
    assert_eq!(table.len(), secs as usize * 30);
    assert!((table.avg_rate() - RATE).abs() < 100.0);
    play_back(&mut sys, ino, table);
}

#[test]
fn recording_and_playback_share_one_admission() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("movie.mpg", StreamProfile::mpeg1(), 14.0);
    let secs = 12;
    let ino = capture_file(&mut sys, secs);

    // Players until the fold refuses one; a recording at the players'
    // own worst rate and largest chunk is then refused the same way.
    let mut players = Vec::new();
    let refused = loop {
        match sys.add_cras_player(&movie, 1) {
            Ok(c) => players.push(c),
            Err(e) => break e,
        }
    };
    assert!(players.len() >= 2, "{} players admitted", players.len());
    let params = StreamParams::new(
        movie.table.worst_rate(),
        movie.table.max_chunk_size() as f64,
    );
    let err = sys
        .open_recording("capture.mov", ino, params)
        .expect_err("the recording is charged against the players");
    assert_eq!(
        discriminant(&err),
        discriminant(&refused),
        "{err:?} vs {refused:?}"
    );

    // One player leaves; its share takes the recording.
    sys.close_playback(players.pop().expect("admitted above"));
    let rec = sys
        .open_recording("capture.mov", ino, params)
        .expect("admitted in the freed share");
    for &c in &players {
        sys.start_playback(c);
    }
    let rounded = capture(&mut sys, rec, secs);
    let table = sys.finish_recording(rec);

    // Every staged byte was written, in writes the metrics counted.
    assert_eq!(table.len(), secs as usize * 30);
    assert_eq!(table.total_bytes(), secs * 30 * CHUNK as u64);
    assert!(rounded > 0);
    assert_eq!(sys.metrics.cras_write_bytes, rounded);
    sys.run_until(sys.now() + Duration::from_secs(3));
    for c in players.drain(..) {
        let p = &sys.players[&c.0];
        assert!(p.done, "player {} finished", c.0);
        assert_eq!(p.stats.frames_shown, movie.table.len() as u64);
        assert_eq!(p.stats.frames_dropped, 0, "player {} dropped frames", c.0);
        sys.close_playback(c);
    }
    play_back(&mut sys, ino, table);
}
