//! Buffer-design ablation — §2.4's argument, quantified.
//!
//! A 30 fps stream fills a buffer at its recording rate while the client
//! consumes at 10 fps (the dynamic-QOS situation). With the traditional
//! FIFO, the buffer fills with old frames and *new* data is dropped; the
//! client's picture grows steadily staler. The time-driven buffer ages
//! frames out by timestamp instead, so the client always sees the current
//! frame — no feedback protocol needed.
//!
//! Both buffers receive identical server-fill schedules; only the data
//! structure differs.

use cras_core::{FifoBuffer, TimeDrivenBuffer};
use cras_media::StreamProfile;
use cras_sim::{Duration, Rng};

use crate::result::KvTable;

/// Outcome for one buffer design.
#[derive(Clone, Copy, Debug)]
pub struct BufferOutcome {
    /// Frames the client displayed.
    pub displayed: u64,
    /// Mean staleness of displayed frames (intended media time − frame
    /// timestamp, seconds; 0 = always current).
    pub mean_staleness: f64,
    /// Worst staleness (seconds).
    pub max_staleness: f64,
    /// New chunks dropped at the buffer (FIFO failure mode) or aged out
    /// by timestamp (time-driven behaviour).
    pub discarded: u64,
}

/// Runs both designs for `secs` seconds of a 30 fps stream consumed at
/// `client_fps`.
pub fn run(secs: f64, client_fps: f64, seed: u64) -> (KvTable, BufferOutcome, BufferOutcome) {
    let mut rng = Rng::new(seed);
    let table = cras_media::generate_chunks(&StreamProfile::mpeg1(), secs, &mut rng);
    // Both buffers sized like the admission test would (2 intervals of
    // 0.5 s at the stream rate).
    let capacity = 200_000u64;
    let jitter = Duration::from_millis(100);

    // Fill schedule: the server posts each interval's chunks at the
    // interval boundary (batch arrival, like the real pipeline).
    let interval = Duration::from_millis(500);

    // Time-driven run.
    let mut tdb = TimeDrivenBuffer::new(table.clone(), capacity, jitter);
    let mut fifo = FifoBuffer::new(capacity);
    let mut td_out = (0u64, 0.0f64, 0.0f64);
    let mut ff_out = (0u64, 0.0f64, 0.0f64);

    let client_period = Duration::from_secs_f64(1.0 / client_fps);
    let total = Duration::from_secs_f64(secs);
    let mut next_fill = Duration::ZERO;
    let mut next_client = Duration::ZERO;
    let mut t = Duration::ZERO;
    while t <= total {
        // Next event: fill batch or client sample.
        t = next_fill.min(next_client);
        if t > total {
            break;
        }
        if t == next_fill {
            // Post one interval of chunks (media [t, t+interval)): one
            // span into the time-driven buffer, chunk by chunk into the
            // FIFO.
            let upto = t + interval;
            let batch = table.chunks_in(t, upto);
            let posted = tdb.post(batch.range(), t);
            assert_eq!(posted as usize, batch.len(), "time-driven buffer overflow");
            for c in batch.iter() {
                fifo.put(c);
            }
            next_fill = upto;
        }
        if t == next_client {
            // The client wants the frame for media time `t`.
            if let Some(c) = tdb.get(t) {
                let staleness = t.saturating_since_dur(c.timestamp);
                td_out.0 += 1;
                td_out.1 += staleness;
                td_out.2 = td_out.2.max(staleness);
            }
            if let Some(c) = fifo.pop() {
                let staleness = t.saturating_since_dur(c.timestamp);
                ff_out.0 += 1;
                ff_out.1 += staleness;
                ff_out.2 = ff_out.2.max(staleness);
            }
            next_client = t + client_period;
        }
    }

    let td = BufferOutcome {
        displayed: td_out.0,
        mean_staleness: if td_out.0 == 0 {
            0.0
        } else {
            td_out.1 / td_out.0 as f64
        },
        max_staleness: td_out.2,
        discarded: tdb.stats().discarded,
    };
    let ff = BufferOutcome {
        displayed: ff_out.0,
        mean_staleness: if ff_out.0 == 0 {
            0.0
        } else {
            ff_out.1 / ff_out.0 as f64
        },
        max_staleness: ff_out.2,
        discarded: fifo.drops_new(),
    };

    let mut kt = KvTable::new(
        "buffer-ablation",
        &format!("§2.4 buffer designs: 30 fps fill, {client_fps:.0} fps client"),
    );
    for (label, o) in [("time-driven", &td), ("FIFO", &ff)] {
        kt.row(
            &format!("{label} staleness"),
            format!("mean {:.3} / max {:.3}", o.mean_staleness, o.max_staleness),
            "s",
        );
        kt.row(
            &format!("{label} displayed"),
            format!("{}", o.displayed),
            "frames",
        );
        kt.row(
            &format!("{label} discarded"),
            format!("{}", o.discarded),
            if label == "FIFO" {
                "NEW frames dropped"
            } else {
                "obsolete frames aged out"
            },
        );
    }
    (kt, td, ff)
}

/// Helper: staleness as f64 seconds (media query − chunk timestamp).
trait StalenessExt {
    fn saturating_since_dur(&self, earlier: Duration) -> f64;
}

impl StalenessExt for Duration {
    fn saturating_since_dur(&self, earlier: Duration) -> f64 {
        self.saturating_sub(earlier).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_goes_stale_time_driven_stays_current() {
        let (_t, td, ff) = run(20.0, 10.0, 0xB0F);
        // Time-driven: the client always sees the frame containing its
        // media time (staleness < one frame duration).
        assert!(td.max_staleness < 0.034, "{td:?}");
        assert!(td.displayed > 150, "{td:?}");
        // Obsolete frames age out — that is the design doing its job.
        assert!(td.discarded > 100, "{td:?}");

        // FIFO: old frames pile up, new ones get dropped, and what the
        // client sees drifts seconds behind.
        assert!(ff.discarded > 100, "FIFO must drop new data: {ff:?}");
        assert!(
            ff.max_staleness > 10.0 * td.max_staleness.max(0.001),
            "FIFO staleness {ff:?} vs TDB {td:?}"
        );
        assert!(ff.mean_staleness > 0.2, "{ff:?}");
    }

    #[test]
    fn equal_rates_make_both_designs_equivalent() {
        let (_t, td, ff) = run(10.0, 30.0, 0xB1F);
        // Consuming at the fill rate: both stay current.
        assert!(td.max_staleness < 0.034, "{td:?}");
        assert!(ff.max_staleness < 0.6, "{ff:?}");
        assert_eq!(ff.discarded, 0, "no overflow at matched rates: {ff:?}");
    }
}
