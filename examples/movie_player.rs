//! The Figure 11 scenario (minus the network): a QtPlay-style player
//! retrieving a movie through CRAS while `cat` programs hammer the same
//! disk — then the same player on the Unix file system, for contrast.
//!
//! ```text
//! cargo run --release --example movie_player
//! ```

use cras_repro::media::StreamProfile;
use cras_repro::sim::table::sparkline;
use cras_repro::sim::Duration;
use cras_repro::sys::{SysConfig, System};

fn play(use_cras: bool) -> (f64, f64, String, u64) {
    // The sparkline plots every displayed frame's delay.
    let mut sys = System::new(SysConfig {
        frame_trace: true,
        ..SysConfig::default()
    });
    let movie = sys.record_movie("feature.mov", StreamProfile::mpeg1(), 30.0);
    let noise_a = sys.record_movie("big-file-a", StreamProfile::mpeg2(), 20.0);
    let noise_b = sys.record_movie("big-file-b", StreamProfile::mpeg2(), 20.0);

    let client = if use_cras {
        sys.add_cras_player(&movie, 1).expect("admission passes")
    } else {
        sys.add_ufs_player(&movie, 1)
    };
    // Two `cat`s reading big files through the Unix server, like the
    // paper's load benchmark.
    sys.add_bg_reader(&noise_a);
    sys.add_bg_reader(&noise_b);
    sys.start_bg();
    sys.start_playback(client);
    sys.run_for(Duration::from_secs(35));

    let p = &sys.players[&client.0];
    let (mean, max) = p.delay_summary();
    let spark: Vec<f64> = p.stats.delays.points().iter().map(|&(_, d)| d).collect();
    let step = (spark.len() / 60).max(1);
    let sampled: Vec<f64> = spark.iter().copied().step_by(step).collect();
    (mean, max, sparkline(&sampled), p.stats.frames_dropped)
}

fn main() {
    println!("playing a 30 s movie while two `cat`s read the same disk...\n");
    let (cras_mean, cras_max, cras_spark, cras_drops) = play(true);
    let (ufs_mean, ufs_max, ufs_spark, ufs_drops) = play(false);

    println!(
        "CRAS  delay: mean {:7.2} ms  max {:7.2} ms  drops {}",
        cras_mean * 1e3,
        cras_max * 1e3,
        cras_drops
    );
    println!("      {cras_spark}");
    println!(
        "UFS   delay: mean {:7.2} ms  max {:7.2} ms  drops {}",
        ufs_mean * 1e3,
        ufs_max * 1e3,
        ufs_drops
    );
    println!("      {ufs_spark}");
    println!();
    println!(
        "CRAS holds per-frame delay near the decode cost; UFS jitters by {}x.",
        (ufs_max / cras_max.max(1e-9)).round()
    );
}
