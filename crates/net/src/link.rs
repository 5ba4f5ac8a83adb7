//! The paced link: a shared transmitter with an EDF send queue.
//!
//! Packets wait in a per-link queue ordered by playout deadline
//! (earliest-deadline-first), the transmitter serves one packet at a
//! time, and every dequeue charges the real queueing delay. Sessions
//! sharing a link therefore contend exactly as on a half-duplex
//! segment: an urgent retransmit overtakes bulk frames whose playout
//! is still comfortably ahead.
//!
//! The link itself is a passive structure — [`crate::NetDelivery`]
//! drives the send/free cycle and owns the packet records; the link
//! owns the queue order, the transmitter occupancy, the fault injector
//! and the wire-level counters.

use std::collections::BTreeSet;

use cras_sim::{Duration, Instant};

use crate::faults::NetFaultInjector;

/// Physical parameters of one link direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// Bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Propagation delay.
    pub latency: Duration,
    /// Fixed per-packet processing overhead (protocol stack).
    pub per_packet: Duration,
}

impl LinkParams {
    /// A 10 Mbps Ethernet like the paper's evaluation machine, with
    /// mid-90s protocol-stack overhead.
    pub fn ethernet_10mbps() -> LinkParams {
        LinkParams {
            bandwidth: 10_000_000.0 / 8.0,
            latency: Duration::from_micros(200),
            per_packet: Duration::from_micros(400),
        }
    }

    /// A fast switched segment where serialization is negligible — the
    /// uncontended baseline used by the equivalence property tests.
    pub fn fast_lan() -> LinkParams {
        LinkParams {
            bandwidth: 125_000_000.0,
            latency: Duration::from_micros(50),
            per_packet: Duration::from_micros(10),
        }
    }
}

/// Wire-level counters for one link.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Bytes serialized onto the wire (including retransmits and
    /// packets later lost to a fault — loss consumes link time).
    pub bytes_sent: u64,
    /// Packets serialized.
    pub packets_sent: u64,
    /// Bytes of NAK-driven retransmissions (subset of `bytes_sent`).
    pub retransmit_bytes: u64,
    /// Bytes the link did NOT carry because a multicast group packet
    /// replaced per-member unicast copies.
    pub multicast_saved_bytes: u64,
    /// Total time packets waited in the send queue, nanoseconds.
    pub queued_ns: u64,
    /// High-water mark of queued bytes.
    pub max_queued_bytes: u64,
}

/// One shared link direction with an EDF send queue.
#[derive(Clone, Debug)]
pub struct PacedLink {
    /// Physical parameters.
    pub params: LinkParams,
    /// Send queue: `(playout deadline, packet id)` — EDF with the
    /// monotonic packet id as the deterministic tiebreak.
    queue: BTreeSet<(Instant, u64)>,
    /// Bytes currently waiting in the queue.
    queued_bytes: u64,
    /// Whether the transmitter is serializing a packet right now.
    busy: bool,
    /// First instant a packet started serializing (for throughput over
    /// the observed span).
    first_start: Option<Instant>,
    /// End of the last serialization.
    last_done: Instant,
    /// Optional deterministic fault injector.
    pub(crate) faults: Option<NetFaultInjector>,
    /// Wire counters.
    pub stats: LinkStats,
}

impl PacedLink {
    /// Creates an idle link.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not positive.
    pub fn new(params: LinkParams) -> PacedLink {
        assert!(params.bandwidth > 0.0, "non-positive bandwidth");
        PacedLink {
            params,
            queue: BTreeSet::new(),
            queued_bytes: 0,
            busy: false,
            first_start: None,
            last_done: Instant::ZERO,
            faults: None,
            stats: LinkStats::default(),
        }
    }

    /// Queues packet `id` with its EDF deadline; `bytes` feeds the
    /// backlog gauge.
    pub fn push(&mut self, deadline: Instant, id: u64, bytes: u64) {
        self.queue.insert((deadline, id));
        self.queued_bytes += bytes;
        self.stats.max_queued_bytes = self.stats.max_queued_bytes.max(self.queued_bytes);
    }

    /// Takes the earliest-deadline packet off the queue, if any.
    pub fn pop(&mut self) -> Option<u64> {
        let &(deadline, id) = self.queue.iter().next()?;
        self.queue.remove(&(deadline, id));
        Some(id)
    }

    /// Charges the serialization of `bytes` starting at `now` and marks
    /// the transmitter busy; returns the instant serialization ends.
    pub fn begin_send(&mut self, now: Instant, bytes: u64, queued_since: Instant) -> Instant {
        debug_assert!(!self.busy, "transmitter already busy");
        self.busy = true;
        self.queued_bytes -= bytes;
        self.stats.queued_ns += now.since(queued_since).as_nanos();
        self.stats.bytes_sent += bytes;
        self.stats.packets_sent += 1;
        let ser = Duration::from_secs_f64(bytes as f64 / self.params.bandwidth);
        let done = now + self.params.per_packet + ser;
        if self.first_start.is_none() {
            self.first_start = Some(now);
        }
        self.last_done = done;
        done
    }

    /// Marks the transmitter free again.
    pub fn end_send(&mut self) {
        self.busy = false;
    }

    /// Whether the transmitter is serializing a packet.
    pub(crate) fn is_busy(&self) -> bool {
        self.busy
    }

    /// Achieved throughput in bytes/second over the observed transmit
    /// span (first serialization start to last serialization end);
    /// zero before any packet was sent.
    pub fn throughput(&self) -> f64 {
        let Some(first) = self.first_start else {
            return 0.0;
        };
        let span = self.last_done.since(first);
        if span.is_zero() {
            0.0
        } else {
            self.stats.bytes_sent as f64 / span.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn pop_is_earliest_deadline_first() {
        let mut l = PacedLink::new(LinkParams::ethernet_10mbps());
        l.push(at(300), 0, 100);
        l.push(at(100), 1, 100);
        l.push(at(200), 2, 100);
        assert_eq!(l.pop(), Some(1));
        assert_eq!(l.pop(), Some(2));
        assert_eq!(l.pop(), Some(0));
        assert_eq!(l.pop(), None);
    }

    #[test]
    fn same_deadline_breaks_ties_by_packet_id() {
        let mut l = PacedLink::new(LinkParams::ethernet_10mbps());
        l.push(at(100), 5, 10);
        l.push(at(100), 3, 10);
        assert_eq!(l.pop(), Some(3));
        assert_eq!(l.pop(), Some(5));
    }

    #[test]
    fn begin_send_charges_overhead_and_serialization() {
        let mut l = PacedLink::new(LinkParams {
            bandwidth: 1_000_000.0,
            latency: Duration::from_millis(1),
            per_packet: Duration::from_millis(2),
        });
        // 10 000 B at 1 MB/s = 10 ms, + 2 ms overhead.
        l.push(at(100), 0, 10_000);
        assert_eq!(l.pop(), Some(0));
        let done = l.begin_send(at(0), 10_000, at(0));
        assert_eq!(done, at(12));
        assert!(l.is_busy());
        l.end_send();
        assert!(!l.is_busy());
    }

    #[test]
    fn queueing_and_backlog_are_tracked() {
        let mut l = PacedLink::new(LinkParams::ethernet_10mbps());
        l.push(at(100), 0, 6_000);
        l.push(at(200), 1, 6_000);
        assert_eq!(l.queued_bytes, 12_000);
        assert_eq!(l.stats.max_queued_bytes, 12_000);
        l.pop();
        l.begin_send(at(5), 6_000, at(0));
        assert_eq!(l.queued_bytes, 6_000);
        assert_eq!(l.stats.queued_ns, 5_000_000);
    }

    #[test]
    fn throughput_is_over_the_observed_span() {
        let mut l = PacedLink::new(LinkParams {
            bandwidth: 1_000_000.0,
            latency: Duration::ZERO,
            per_packet: Duration::ZERO,
        });
        assert_eq!(l.throughput(), 0.0);
        l.push(at(100), 0, 10_000);
        assert_eq!(l.pop(), Some(0));
        l.begin_send(at(0), 10_000, at(0));
        l.end_send();
        // 10 000 B over the 10 ms span = the full link rate, however
        // long the run idles afterwards.
        assert!((l.throughput() - 1_000_000.0).abs() < 1.0);
    }
}
