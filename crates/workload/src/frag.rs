//! Fragmentation ablation — the §3.2 editing problem and the proposed
//! rearranger, quantified.
//!
//! "Editing a continuous media file may make the layout of blocks random.
//! Noncontinuous data makes the seek time long, and the throughput of the
//! disk is decreased." Three conditions over the same multi-stream
//! workload: freshly recorded (contiguous) files, edit-fragmented files,
//! and fragmented-then-rearranged files.

use cras_media::{fragment_movie, rearrange_movie, Movie, StreamProfile};
use cras_sim::{Duration, Rng};
use cras_sys::{SysConfig, System};

use crate::result::KvTable;
use crate::runner::{frames_dropped, start_all};

/// One condition's measurements.
#[derive(Clone, Copy, Debug)]
pub struct FragOutcome {
    /// Aggregate CRAS read throughput, bytes/s.
    pub throughput: f64,
    /// Mean contiguity of the files (1.0 = fully contiguous).
    pub contiguity: f64,
    /// Deadline overruns during the run.
    pub overruns: u64,
    /// Frames dropped by the players.
    pub dropped: u64,
    /// Disk reads issued per interval on average (fragmentation splits
    /// reads).
    pub reads_per_interval: f64,
}

/// Layout condition under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Condition {
    /// Freshly recorded, contiguous.
    Contiguous,
    /// Edit-fragmented (severity 1.0).
    Fragmented,
    /// Fragmented, then rearranged.
    Rearranged,
}

impl Condition {
    /// Display label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Condition::Contiguous => "contiguous",
            Condition::Fragmented => "fragmented",
            Condition::Rearranged => "rearranged",
        }
    }
}

/// Runs one condition with `streams` concurrent MPEG-1 players.
pub(crate) fn run_condition(
    cond: Condition,
    streams: usize,
    measure: Duration,
    seed: u64,
) -> FragOutcome {
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    cfg.enforce_admission = false;
    cfg.server.buffer_budget = 64 << 20;
    let mut sys = System::new(cfg);
    let mut rng = Rng::new(seed ^ 0xF0F0);

    let secs = measure.as_secs_f64() + 8.0;
    let movies: Vec<Movie> = (0..streams)
        .map(|i| {
            let m = sys.record_movie(&format!("m{i}.mov"), StreamProfile::mpeg1(), secs);
            match cond {
                Condition::Contiguous => m,
                Condition::Fragmented => {
                    fragment_movie(sys.ufs_mut(), &m, 1.0, &mut rng).expect("fragmenting fits")
                }
                Condition::Rearranged => {
                    let f =
                        fragment_movie(sys.ufs_mut(), &m, 1.0, &mut rng).expect("fragmenting fits");
                    rearrange_movie(sys.ufs_mut(), &f).expect("rearranging fits")
                }
            }
        })
        .collect();
    let contiguity = movies
        .iter()
        .map(|m| sys.ufs().fragmentation(m.ino).contiguity)
        .sum::<f64>()
        / streams as f64;

    let players: Vec<_> = movies
        .iter()
        .map(|m| sys.add_cras_player(m, 1).expect("admission off"))
        .collect();
    let start = start_all(&mut sys, &players, Duration::ZERO);
    sys.run_until(start + measure);

    let stats = sys.cras.stats();
    let dropped = frames_dropped(&sys);
    FragOutcome {
        throughput: sys.metrics.cras_read_bytes as f64 / measure.as_secs_f64(),
        contiguity,
        overruns: sys.metrics.overruns,
        dropped,
        reads_per_interval: if stats.intervals == 0 {
            0.0
        } else {
            stats.reads_issued as f64 / stats.intervals as f64
        },
    }
}

/// Runs all three conditions and renders the comparison table.
pub fn run(streams: usize, measure: Duration, seed: u64) -> (KvTable, [FragOutcome; 3]) {
    let conds = [
        Condition::Contiguous,
        Condition::Fragmented,
        Condition::Rearranged,
    ];
    let outs = conds.map(|c| run_condition(c, streams, measure, seed));
    let mut t = KvTable::new(
        "frag",
        &format!("§3.2 fragmentation ablation ({streams} MPEG1 streams)"),
    );
    for (c, o) in conds.iter().zip(outs.iter()) {
        t.row(
            &format!("{} throughput", c.label()),
            format!("{:.2}", o.throughput / 1e6),
            "MB/s",
        );
        t.row(
            &format!("{} contiguity", c.label()),
            format!("{:.3}", o.contiguity),
            "",
        );
        t.row(
            &format!("{} reads/interval", c.label()),
            format!("{:.1}", o.reads_per_interval),
            "",
        );
        t.row(
            &format!("{} dropped frames", c.label()),
            format!("{}", o.dropped),
            "",
        );
    }
    (t, outs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragmentation_costs_and_rearranging_recovers() {
        // Enough streams that fragmentation's extra seeks matter.
        let measure = Duration::from_secs(10);
        let contiguous = run_condition(Condition::Contiguous, 8, measure, 77);
        let fragged = run_condition(Condition::Fragmented, 8, measure, 77);
        let fixed = run_condition(Condition::Rearranged, 8, measure, 77);

        assert!(contiguous.contiguity > 0.99);
        assert!(
            fragged.contiguity < 0.5,
            "contiguity {}",
            fragged.contiguity
        );
        assert!(fixed.contiguity > 0.99);

        // Fragmentation splits interval reads into many commands.
        assert!(
            fragged.reads_per_interval > 2.0 * contiguous.reads_per_interval,
            "{} vs {}",
            fragged.reads_per_interval,
            contiguous.reads_per_interval
        );
        // Rearranged performance returns to (near) contiguous.
        assert!(
            (fixed.throughput - contiguous.throughput).abs() / contiguous.throughput < 0.15,
            "{} vs {}",
            fixed.throughput,
            contiguous.throughput
        );
    }
}
