//! The Figure 11 distributed configuration: QtPlay on one machine
//! retrieving through CRAS and streaming frames over a 10 Mbps Ethernet
//! (the paper's network) to a viewer — the intro's "travel coordinator"
//! checking video clips remotely.
//!
//! ```text
//! cargo run --release --example distributed_player
//! ```

use cras_repro::media::StreamProfile;
use cras_repro::net::{LinkParams, PacedLink};
use cras_repro::sim::{Duration, Instant};
use cras_repro::sys::{PlayerMode, SysConfig, System};

fn main() {
    // The link replays every displayed frame's display instant.
    let mut sys = System::new(SysConfig {
        frame_trace: true,
        ..SysConfig::default()
    });
    let movie = sys.record_movie("clip.mov", StreamProfile::mpeg1(), 20.0);
    let client = sys.add_cras_player(&movie, 1).expect("admission passes");
    let start = sys.start_playback(client);

    // Model the network hop: every frame the local player displays is
    // also shipped to the remote viewer over NPS/Ethernet.
    let mut link = PacedLink::new(LinkParams::ethernet_10mbps());

    // Run playback to completion first (the network does not back-press
    // the retrieval path — NPS transmits from the shared buffer).
    sys.run_for(Duration::from_secs(25));

    let p = &sys.players[&client.0];
    let PlayerMode::Cras { .. } = p.mode else {
        unreachable!()
    };
    // Replay the display timeline through the link: each frame queues
    // when it is shown and is serialized once the transmitter is free.
    let mut remote_delays: Vec<f64> = Vec::new();
    let mut t_free = Instant::ZERO;
    for (i, &(shown_at, _local_delay)) in p.stats.delays.points().iter().enumerate() {
        let chunk = p.table.get(i as u32).expect("frame exists");
        let (bytes, due) = (chunk.size as u64, start + chunk.timestamp);
        link.push(due, i as u64, bytes);
        link.pop();
        t_free = link.begin_send(shown_at.max(t_free), bytes, shown_at);
        link.end_send();
        let arrival = t_free + link.params.latency;
        remote_delays.push(arrival.saturating_since(due).as_secs_f64());
    }
    let mean = remote_delays.iter().sum::<f64>() / remote_delays.len() as f64;
    let max = remote_delays.iter().copied().fold(0.0, f64::max);

    println!("frames streamed:        {}", link.stats.packets_sent);
    println!(
        "bytes over Ethernet:    {:.2} MB",
        link.stats.bytes_sent as f64 / 1e6
    );
    println!(
        "network throughput:     {:.2} Mbps of 10",
        link.throughput() * 8.0 / 1e6
    );
    println!(
        "remote frame delay:     mean {:.2} ms, max {:.2} ms",
        mean * 1e3,
        max * 1e3
    );
    println!(
        "link queueing total:    {}",
        Duration::from_nanos(link.stats.queued_ns)
    );
    assert!(max < 0.020, "remote viewing stays comfortably timely");
    println!("ok: one MPEG-1 stream fits the paper's 10 Mbps Ethernet with ~6 ms per-frame cost");
}
