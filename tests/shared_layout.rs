//! The paper's central layout decision: "CRAS adopts the same disk layout
//! policy as the Unix file system. Thus, both file systems access the same
//! files." One movie file, consumed simultaneously through CRAS (constant
//! rate) and through UFS (a frame-stepping reader, the paper's
//! non-real-time path for Fast Forward / Step by Frame).

use cras_repro::media::StreamProfile;
use cras_repro::sim::Duration;
use cras_repro::sys::{SysConfig, System};
use cras_repro::ufs::layout::fsblock_to_disk;

#[test]
fn cras_and_ufs_read_the_same_file() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("shared.mov", StreamProfile::mpeg1(), 10.0);

    // One CRAS player and one UFS player on the *same inode*.
    let cras_client = sys.add_cras_player(&movie, 1).expect("admitted");
    let ufs_client = sys.add_ufs_player(&movie, 3); // Frame-stepping at 10 fps.
    sys.start_playback(cras_client);
    sys.start_playback(ufs_client);
    sys.run_for(Duration::from_secs(14));

    let cras_p = &sys.players[&cras_client.0];
    let ufs_p = &sys.players[&ufs_client.0];
    assert!(cras_p.done && ufs_p.done);
    assert_eq!(cras_p.stats.frames_dropped, 0);
    assert_eq!(cras_p.stats.frames_shown, 300);
    assert_eq!(ufs_p.stats.frames_shown, 100);

    // Both paths really hit the same physical blocks: the CRAS extents
    // cover the UFS data blocks of the inode.
    let extents = sys.ufs().extent_map(movie.ino);
    let inode = sys.ufs().inode(movie.ino);
    for fb in 0..inode.nblocks() {
        let data = inode.bmap(fb).expect("mapped").data;
        let disk_block = fsblock_to_disk(data);
        let covered = extents
            .iter()
            .any(|e| disk_block >= e.disk_block && disk_block < e.disk_block + e.nblocks as u64);
        assert!(covered, "block {fb} not covered by the CRAS extent map");
    }
}

#[test]
fn rt_and_normal_traffic_share_the_disk() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("shared.mov", StreamProfile::mpeg1(), 8.0);
    let c = sys.add_cras_player(&movie, 1).expect("admitted");
    let u = sys.add_ufs_player(&movie, 1);
    sys.start_playback(c);
    sys.start_playback(u);
    sys.run_for(Duration::from_secs(12));
    // The device saw both classes.
    let (rt_ops, normal_ops) = sys.disk().stats().ops;
    assert!(rt_ops > 0, "CRAS issued real-time reads");
    assert!(normal_ops > 0, "UFS issued normal reads");
    // No cross-contamination of tags is possible by construction; spot
    // check the stats split: RT bytes match CRAS's accounting.
    assert_eq!(sys.disk().stats().bytes.0, sys.metrics.cras_read_bytes);
}
