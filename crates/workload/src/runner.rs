//! Shared experiment plumbing: building a populated system and running
//! one playback scenario to completion, the playback steps the
//! experiments share (each a fixed sequence of [`System`] calls), and
//! the Zipf viewer arrivals of the catalog experiments.

use cras_cluster::{zipf_cdf, zipf_rank};
use cras_media::{Movie, StreamProfile};
use cras_sim::{Duration, Instant, Rng};
use cras_sys::{ClientId, SchedMode, SysConfig, System};

/// Zipf exponent of the cluster experiments' request distribution.
pub const ZIPF_THETA: f64 = 1.0;

/// `requested` viewer arrivals over a `titles`-rank catalog, each the
/// rank of the title that viewer opens (0 = hottest), drawn from
/// Zipf([`ZIPF_THETA`]). A pure function of `seed`, so a cluster run,
/// its baseline and every replay see identical viewers.
pub fn zipf_arrivals(titles: usize, seed: u64, requested: usize) -> Vec<usize> {
    let cdf = zipf_cdf(titles, ZIPF_THETA);
    let mut rng = Rng::new(seed ^ 0x7A1F);
    (0..requested)
        .map(|_| zipf_rank(&cdf, rng.f64_range(0.0, 1.0)))
        .collect()
}

/// Opens a CRAS player on each movie in order until the admission test
/// refuses one; returns the admitted players.
pub fn admit_until_refused(sys: &mut System, movies: &[Movie]) -> Vec<ClientId> {
    movies
        .iter()
        .map_while(|m| sys.add_cras_player(m, 1).ok())
        .collect()
}

/// Starts each player's playback in order and returns the latest start
/// instant. A non-zero `gap` runs the system for that long after each
/// start (staggered starts); a zero gap runs nothing, so no event is
/// dispatched before the caller's own run.
pub fn start_all(sys: &mut System, players: &[ClientId], gap: Duration) -> Instant {
    let mut latest = Instant::ZERO;
    for &p in players {
        latest = sys.start_playback(p).max(latest);
        if !gap.is_zero() {
            sys.run_for(gap);
        }
    }
    latest
}

/// Counts the streams one system admits: records the `secs`-second
/// MPEG-1 title `name(i)` for i = 0, 1, … and opens a CRAS player on
/// each, until the admission test refuses one or `cap` are admitted.
pub fn count_admitted(
    sys: &mut System,
    cap: usize,
    secs: f64,
    name: impl Fn(usize) -> String,
) -> usize {
    (0..cap)
        .take_while(|&i| {
            let m = sys.record_movie(&name(i), StreamProfile::mpeg1(), secs);
            sys.add_cras_player(&m, 1).is_ok()
        })
        .count()
}

/// One viewer arrival: opens a CRAS player on `movie` and starts it.
/// A refused viewer walks away (`None`).
pub fn arrive(sys: &mut System, movie: &Movie) -> Option<ClientId> {
    let client = sys.add_cras_player(movie, 1).ok()?;
    sys.start_playback(client);
    Some(client)
}

/// Frames dropped by every player of the run.
pub fn frames_dropped(sys: &System) -> u64 {
    sys.players.values().map(|p| p.stats.frames_dropped).sum()
}

/// The file name of the catalog title at `rank`.
pub fn title_name(rank: usize) -> String {
    format!("t{rank:04}.mov")
}

/// Which storage system serves the players.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// CRAS constant-rate retrieval.
    Cras,
    /// The Unix file system baseline.
    Ufs,
}

impl Storage {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Storage::Cras => "CRAS",
            Storage::Ufs => "UFS",
        }
    }
}

/// One playback scenario.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Storage system under test.
    pub storage: Storage,
    /// Number of concurrent streams.
    pub streams: usize,
    /// Stream profile.
    pub profile: StreamProfile,
    /// Background `cat` readers.
    pub bg_readers: usize,
    /// Pause between background reads (zero = flat out).
    pub bg_pause: Duration,
    /// CPU hogs.
    pub hogs: u32,
    /// Scheduling mode.
    pub sched: SchedMode,
    /// Measurement window after playback start.
    pub measure: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Enforce the admission test (off for achieved-throughput sweeps).
    pub enforce_admission: bool,
}

impl Scenario {
    /// A single-stream CRAS baseline scenario.
    #[cfg(test)]
    fn simple(storage: Storage) -> Scenario {
        Scenario {
            storage,
            streams: 1,
            profile: StreamProfile::mpeg1(),
            bg_readers: 0,
            bg_pause: Duration::ZERO,
            hogs: 0,
            sched: SchedMode::FixedPriority,
            measure: Duration::from_secs(20),
            seed: 42,
            enforce_admission: false,
        }
    }
}

/// Outcome of a scenario run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Aggregate stream throughput, bytes/second (disk-delivered for
    /// CRAS, client-consumed for UFS — both count stream data moved on
    /// behalf of the players).
    pub throughput: f64,
    /// Per-player `(mean, max)` frame delay in seconds.
    pub delays: Vec<(f64, f64)>,
    /// 99th-percentile frame delay across all players, seconds.
    pub delay_p99: f64,
    /// Per-player frame-delay traces `(t_secs_from_playback, delay_secs)`.
    pub delay_traces: Vec<Vec<(f64, f64)>>,
    /// Total frames shown / dropped.
    pub frames: (u64, u64),
    /// Admission-accuracy ratios per completed interval (CRAS only).
    pub ratios: Vec<f64>,
    /// Average and max ratio.
    pub ratio_summary: (f64, f64),
    /// Deadline overruns recorded by the server.
    pub overruns: u64,
    /// Background readers' aggregate achieved rate, bytes/second.
    pub bg_rate: f64,
}

/// Builds the system, records movies, wires players and load, runs, and
/// collects the outcome.
pub fn run_scenario(sc: Scenario) -> RunOutcome {
    let mut cfg = SysConfig::default();
    cfg.seed = sc.seed;
    cfg.sched = sc.sched;
    cfg.hogs = sc.hogs;
    cfg.enforce_admission = sc.enforce_admission;
    // Buffer budget ample for any sweep (admission is exercised through
    // the interval-time criterion, like the paper's evaluation).
    cfg.server.buffer_budget = 64 << 20;
    let mut sys = System::new(cfg);

    let movie_secs = sc.measure.as_secs_f64() + 10.0;
    let movies: Vec<Movie> = (0..sc.streams)
        .map(|i| sys.record_movie(&format!("stream{i}.mov"), sc.profile, movie_secs))
        .collect();
    let bg_movies: Vec<Movie> = (0..sc.bg_readers)
        .map(|i| sys.record_movie(&format!("bg{i}.mov"), StreamProfile::mpeg1(), 30.0))
        .collect();

    let players: Vec<ClientId> = movies
        .iter()
        .map(|m| match sc.storage {
            Storage::Cras => sys
                .add_cras_player(m, 1)
                .expect("admission disabled or within capacity"),
            Storage::Ufs => sys.add_ufs_player(m, 1),
        })
        .collect();
    for m in &bg_movies {
        sys.add_bg_reader_paced(m, sc.bg_pause);
    }
    if sc.hogs > 0 {
        sys.start_hogs();
    }
    sys.start_bg();
    let playback_start = start_all(&mut sys, &players, Duration::ZERO);
    let end = playback_start + sc.measure;
    sys.run_until(end);

    collect(&sys, sc, playback_start, end)
}

fn collect(sys: &System, sc: Scenario, playback_start: Instant, end: Instant) -> RunOutcome {
    let window = end.since(playback_start);
    let throughput = match sc.storage {
        Storage::Cras => sys.metrics.cras_read_bytes as f64 / window.as_secs_f64(),
        Storage::Ufs => {
            sys.players
                .values()
                .map(|p| p.stats.bytes_consumed)
                .sum::<u64>() as f64
                / window.as_secs_f64()
        }
    };
    let delays = sys.players.values().map(|p| p.delay_summary()).collect();
    let mut all_delays = cras_sim::stats::Samples::new();
    for p in sys.players.values() {
        for &(_, d) in p.stats.delays.points() {
            all_delays.add(d);
        }
    }
    let delay_p99 = all_delays.percentile(99.0);
    let delay_traces = sys
        .players
        .values()
        .map(|p| {
            p.stats
                .delays
                .points()
                .iter()
                .map(|&(t, d)| (t.saturating_since(playback_start).as_secs_f64(), d))
                .collect()
        })
        .collect();
    let frames = sys.players.values().fold((0, 0), |acc, p| {
        (acc.0 + p.stats.frames_shown, acc.1 + p.stats.frames_dropped)
    });
    let ratios = sys.metrics.admission_ratios(2);
    let ratio_summary = sys.metrics.ratio_summary(2);
    let bg_rate = sys.bgs.values().map(|b| b.rate(end)).sum();
    RunOutcome {
        throughput,
        delays,
        delay_p99,
        delay_traces,
        frames,
        ratios,
        ratio_summary,
        overruns: sys.metrics.overruns,
        bg_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_cras_scenario_delivers_rate() {
        let mut sc = Scenario::simple(Storage::Cras);
        sc.measure = Duration::from_secs(10);
        let out = run_scenario(sc);
        // One MPEG1 stream: ~187.5 KB/s delivered (block rounding adds a
        // little).
        assert!(
            (150e3..230e3).contains(&out.throughput),
            "throughput {}",
            out.throughput
        );
        assert_eq!(out.frames.1, 0, "no drops");
        assert!(out.overruns == 0);
        // Tail delay stays in the client-cost regime.
        assert!(out.delay_p99 < 0.01, "p99 {}", out.delay_p99);
    }

    #[test]
    fn simple_ufs_scenario_delivers_rate() {
        let mut sc = Scenario::simple(Storage::Ufs);
        sc.measure = Duration::from_secs(10);
        let out = run_scenario(sc);
        assert!(
            (150e3..230e3).contains(&out.throughput),
            "throughput {}",
            out.throughput
        );
    }

    /// A system with `n` admitted one-stream CRAS players.
    fn players(n: usize) -> (System, Vec<ClientId>) {
        let mut sys = System::new(SysConfig::default());
        let movies: Vec<Movie> = (0..n)
            .map(|i| sys.record_movie(&format!("p{i}.mov"), StreamProfile::mpeg1(), 6.0))
            .collect();
        let players = admit_until_refused(&mut sys, &movies);
        assert_eq!(players.len(), n);
        (sys, players)
    }

    #[test]
    fn starting_without_a_gap_dispatches_nothing() {
        let (mut sys, players) = players(3);
        let before = sys.engine.dispatched();
        let latest = start_all(&mut sys, &players, Duration::ZERO);
        assert_eq!(sys.engine.dispatched(), before, "an event ran early");
        assert_eq!(sys.now(), Instant::ZERO);
        assert!(latest > Instant::ZERO);
    }

    #[test]
    fn starting_with_a_gap_returns_the_hand_loops_latest_start() {
        let gap = Duration::from_millis(300);
        let (mut sys, players) = players(3);
        let latest = start_all(&mut sys, &players, gap);
        let (mut by_hand, players) = self::players(3);
        let mut want = Instant::ZERO;
        for &p in &players {
            want = by_hand.start_playback(p).max(want);
            by_hand.run_for(gap);
        }
        assert_eq!(latest, want);
        assert_eq!(sys.engine.dispatched(), by_hand.engine.dispatched());
        assert!(sys.engine.dispatched() > 0, "the gap ran the system");
    }

    #[test]
    fn admission_stops_at_the_first_refusal() {
        let mut cfg = SysConfig::default();
        cfg.server.buffer_budget = 1 << 40;
        let mut sys = System::new(cfg);
        let n = count_admitted(&mut sys, 100, 4.0, |i| format!("c{i}.mov"));
        assert!((1..100).contains(&n), "admitted {n}");
        assert_eq!(sys.cras.stream_count(), n);
        let late = sys.record_movie("late.mov", StreamProfile::mpeg1(), 4.0);
        assert!(
            arrive(&mut sys, &late).is_none(),
            "a full system admitted a late viewer"
        );
    }

    #[test]
    fn bg_load_runs() {
        let mut sc = Scenario::simple(Storage::Cras);
        sc.bg_readers = 2;
        sc.measure = Duration::from_secs(5);
        let out = run_scenario(sc);
        assert!(out.bg_rate > 100e3, "bg rate {}", out.bg_rate);
    }
}
