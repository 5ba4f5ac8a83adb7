//! What one run of a workload produced, and the checks every run must
//! pass.

use std::time::Instant as HostInstant;

use crate::reference;
use crate::stats::{median, Fnv};

/// Times each run's set-up is repeated; the run reports the median.
const SETUP_REPS: usize = 5;

/// Reference-kernel calls timed just before and just after each build.
const SETUP_REF_CALLS: usize = 20;

/// Builds the workload's systems [`SETUP_REPS`] times and returns the
/// median host seconds of one build at nominal host speed, with the last
/// build. Each build's time is scaled by the reference kernel's nominal
/// time over its measured time around that build.
pub fn timed_setup<T>(build: impl Fn() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let before = reference::mean_call(SETUP_REF_CALLS);
        let t0 = HostInstant::now();
        last = Some(build());
        let s = t0.elapsed().as_secs_f64();
        let after = reference::mean_call(SETUP_REF_CALLS);
        secs.push(s * reference::NOMINAL_S / ((before + after) / 2.0));
    }
    (median(&secs), last.expect("at least one build"))
}

/// Viewer-open accounting. Every attempted open ends in exactly one of
/// the other fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Opens {
    /// Opens the workload issued.
    pub attempted: u64,
    /// Opens that got a stream (directly or through the retry queue).
    pub admitted: u64,
    /// Opens the admission test refused outright.
    pub refused: u64,
    /// Opens that waited in the retry queue until their window ran out.
    pub expired: u64,
    /// Opens still waiting in the retry queue when the run ended.
    pub queued: u64,
    /// Opens lost for any other reason (a replica shard died).
    pub lost: u64,
    /// Opens the API failed with an error that is not an admission
    /// answer (unknown title, no live replica).
    pub errors: u64,
}

impl Opens {
    /// Opens that did not get a stream.
    pub fn unserved(&self) -> u64 {
        self.refused + self.expired + self.queued + self.lost + self.errors
    }

    /// The accounting identity: attempted = admitted + every other end.
    pub fn balanced(&self) -> bool {
        self.attempted == self.admitted + self.unserved()
    }
}

/// Frame accounting over every admitted viewer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Frames {
    /// Frames the viewers saw on time.
    pub shown: u64,
    /// Frames the players abandoned because their data came too late.
    pub dropped: u64,
    /// Frames that missed their playout deadline at a network client.
    pub late: u64,
}

impl Frames {
    /// Frames whose display time came during the run.
    pub fn due(&self) -> u64 {
        self.shown + self.dropped + self.late
    }
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Host seconds spent building the systems, recording titles and
    /// adding links, up to the first open (median of [`SETUP_REPS`], at
    /// nominal host speed).
    pub setup_s: f64,
    /// Host seconds of the timed phase: first open to end of run.
    pub timed_s: f64,
    /// Host seconds of the timed phase spent in the reference kernel.
    pub ref_s: f64,
    /// Reference-kernel calls in the timed phase, one per workload step.
    pub ref_calls: u64,
    /// Simulated seconds the timed phase advanced.
    pub sim_s: f64,
    /// Viewer opens.
    pub opens: Opens,
    /// Viewer frames.
    pub frames: Frames,
    /// Per admitted viewer: first frame seen minus arrival, simulated ms.
    pub startup_ms: Vec<f64>,
    /// Engine events dispatched, summed over systems.
    pub events: u64,
    /// Hash of the canonical metrics and everything above that is in
    /// simulated time.
    pub fingerprint: u64,
    /// Per-layer counters read from public statistics.
    pub counters: Vec<(&'static str, f64)>,
    /// Failed workload-specific checks: a layer the workload exists for
    /// went unused, or a layer's own counters disagree with each other.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Host seconds of the timed phase spent in the workload itself.
    pub fn work_s(&self) -> f64 {
        self.timed_s - self.ref_s
    }

    /// The reference kernel's mean time per call over its nominal time:
    /// above 1 while the host runs slower than nominal.
    pub fn ref_ratio(&self) -> f64 {
        self.ref_s / self.ref_calls as f64 / reference::NOMINAL_S
    }

    /// Simulated seconds per host second of workload time, as measured.
    pub fn sim_per_wall(&self) -> f64 {
        self.sim_s / self.work_s()
    }

    /// Simulated seconds per host second of workload time at nominal host
    /// speed.
    pub fn sim_speed(&self) -> f64 {
        self.sim_per_wall() * self.ref_ratio()
    }

    /// Hashes `canon` (canonical metrics texts) with the simulated-time
    /// results into the run fingerprint.
    pub fn seal(&mut self, canon: &[String]) {
        let mut h = Fnv::new();
        for c in canon {
            h.add(c.as_bytes()).add(b"\n");
        }
        let o = self.opens;
        for x in [
            self.events,
            o.attempted,
            o.admitted,
            o.refused,
            o.expired,
            o.queued,
            o.lost,
            o.errors,
            self.frames.shown,
            self.frames.dropped,
            self.frames.late,
        ] {
            h.add_u64(x);
        }
        for s in &self.startup_ms {
            h.add_u64(s.to_bits());
        }
        self.fingerprint = h.finish();
    }

    /// Every correctness check one run must pass on its own.
    pub fn check(&self) -> Result<(), String> {
        if !self.opens.balanced() {
            return Err(format!(
                "open accounting does not balance: {:?}",
                self.opens
            ));
        }
        if self.frames.shown == 0 {
            return Err("no frame was shown".into());
        }
        if self.opens.errors > 0 {
            return Err(format!("{} opens failed in the API", self.opens.errors));
        }
        if self.startup_ms.len() as u64 != self.opens.admitted {
            return Err(format!(
                "{} startup samples for {} admitted viewers",
                self.startup_ms.len(),
                self.opens.admitted
            ));
        }
        if self.ref_calls == 0 {
            return Err("no workload step ran the reference kernel".into());
        }
        if !self.problems.is_empty() {
            return Err(self.problems.join("; "));
        }
        Ok(())
    }

    /// Records `problem` unless `ok`.
    pub fn require(&mut self, ok: bool, problem: &str) {
        if !ok {
            self.problems.push(problem.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Outcome {
        Outcome {
            opens: Opens {
                attempted: 5,
                admitted: 3,
                refused: 1,
                expired: 1,
                ..Opens::default()
            },
            frames: Frames {
                shown: 10,
                ..Frames::default()
            },
            startup_ms: vec![1.0, 2.0, 3.0],
            ref_calls: 4,
            ..Outcome::default()
        }
    }

    #[test]
    fn a_run_without_reference_calls_fails() {
        let mut o = good();
        o.ref_calls = 0;
        assert!(o.check().unwrap_err().contains("reference kernel"));
    }

    #[test]
    fn sim_speed_scales_by_the_reference_ratio() {
        let o = Outcome {
            sim_s: 100.0,
            timed_s: 5.5,
            ref_s: 0.5,
            ref_calls: 5000,
            ..Outcome::default()
        };
        // 0.5 s over 5000 calls is 100 µs a call: twice nominal.
        assert!((o.ref_ratio() - 2.0).abs() < 1e-9);
        assert!((o.sim_per_wall() - 20.0).abs() < 1e-9);
        assert!((o.sim_speed() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn a_balanced_run_passes() {
        assert_eq!(good().check(), Ok(()));
    }

    #[test]
    fn unbalanced_opens_fail() {
        let mut o = good();
        o.opens.attempted += 1;
        assert!(o.check().is_err());
    }

    #[test]
    fn zero_frames_fail() {
        let mut o = good();
        o.frames.shown = 0;
        assert!(o.check().is_err());
    }

    #[test]
    fn an_unexercised_layer_fails() {
        let mut o = good();
        o.require(false, "the retry queue was never used");
        assert!(o.check().unwrap_err().contains("retry queue"));
    }

    #[test]
    fn fingerprint_covers_startup_times() {
        let mut a = good();
        let mut b = good();
        b.startup_ms[0] = 1.5;
        a.seal(&["x".into()]);
        b.seal(&["x".into()]);
        assert_ne!(a.fingerprint, b.fingerprint);
    }
}
