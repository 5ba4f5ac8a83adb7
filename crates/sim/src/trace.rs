//! Lightweight event tracing: a bounded ring of timestamped records for
//! post-mortem debugging of simulation runs.
//!
//! Tracing is off by default and costs one branch when disabled. The ring
//! holds the most recent `capacity` records; a drained trace renders as
//! aligned text.

use std::collections::VecDeque;
use std::fmt;

use crate::time::Instant;

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// When it happened.
    pub at: Instant,
    /// Component that logged it (static label).
    pub component: &'static str,
    /// The message.
    pub message: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>14} {:<10} {}",
            format!("{}", self.at),
            self.component,
            self.message
        )
    }
}

/// A bounded, optionally-enabled trace ring.
#[derive(Clone, Debug)]
pub struct Trace {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl Trace {
    /// Creates a disabled trace with the given ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Trace {
        assert!(capacity > 0, "zero-capacity trace");
        Trace {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            enabled: false,
            dropped: 0,
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Records a message (no-op while disabled).
    pub(crate) fn log(&mut self, at: Instant, component: &'static str, message: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceRecord {
            at,
            component,
            message: message.into(),
        });
    }

    /// Records only when `enabled`, building the message lazily — use for
    /// messages that are expensive to format.
    pub fn log_with<F: FnOnce() -> String>(&mut self, at: Instant, component: &'static str, f: F) {
        if self.enabled {
            self.log(at, component, f());
        }
    }

    /// The records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Renders the whole ring.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.ring {
            out.push_str(&format!("{r}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(8);
        t.log(at(1), "disk", "op started");
        assert_eq!(t.records().count(), 0);
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::new(8);
        t.set_enabled(true);
        t.log(at(1), "disk", "a");
        t.log(at(2), "cpu", "b");
        let msgs: Vec<&str> = t.records().map(|r| r.message.as_str()).collect();
        assert_eq!(msgs, vec!["a", "b"]);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::new(3);
        t.set_enabled(true);
        for i in 0..5 {
            t.log(at(i), "x", format!("m{i}"));
        }
        assert_eq!(t.records().count(), 3);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.records().next().unwrap().message, "m2");
    }

    #[test]
    fn lazy_log_skips_formatting_when_disabled() {
        let mut t = Trace::new(4);
        let mut called = false;
        t.log_with(at(1), "x", || {
            called = true;
            "never".into()
        });
        assert!(!called);
        t.set_enabled(true);
        t.log_with(at(1), "x", || "now".into());
        assert_eq!(t.records().count(), 1);
    }

    #[test]
    fn render_contains_fields() {
        let mut t = Trace::new(4);
        t.set_enabled(true);
        t.log(at(5), "cras", "tick 3");
        let s = t.render();
        assert!(s.contains("cras"));
        assert!(s.contains("tick 3"));
    }
}
