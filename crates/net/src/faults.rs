//! Deterministic per-link fault injection: drop, duplicate, delay.
//!
//! Real shared-medium links lose frames to collisions and noise,
//! occasionally deliver a retransmitted frame twice, and jitter
//! arrivals; the NAK/retransmit machinery and the playout buffer exist
//! exactly to absorb those. All decisions come from one seeded PRNG
//! consulted once per transmitted packet, in transmission order, so a
//! faulted run reproduces bit for bit — the same discipline as
//! `cras-disk`'s `FaultInjector`.
//!
//! A zero-probability injector draws the PRNG exactly like a lossy one
//! but changes nothing: the produced packet stream is bit-identical to
//! a run with no injector at all (tested in `tests/net_delivery.rs`).

use cras_sim::{Duration, Rng};

/// Fault probabilities and parameters for one link direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetFaults {
    /// Probability a transmitted packet is lost (consumes link time,
    /// never arrives).
    pub drop_prob: f64,
    /// Probability a packet is delivered twice (link-layer retransmit
    /// after a lost ack).
    pub dup_prob: f64,
    /// Probability a packet's arrival is delayed by [`NetFaults::delay`].
    pub delay_prob: f64,
    /// Extra arrival delay for a delayed packet.
    pub delay: Duration,
    /// PRNG seed.
    pub seed: u64,
}

impl NetFaults {
    /// A loss-only profile: every fault is a drop.
    pub fn loss(drop_prob: f64, seed: u64) -> NetFaults {
        NetFaults {
            drop_prob,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
            seed,
        }
    }
}

/// What the injector decided for one transmitted packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NetFault {
    /// How many copies arrive: 0 (dropped), 1 (clean), or 2 (duplicated).
    pub arrivals: u32,
    /// Extra delay added to every arriving copy.
    pub extra_delay: Duration,
}

/// A deterministic per-link fault injector.
#[derive(Clone, Debug)]
pub(crate) struct NetFaultInjector {
    cfg: NetFaults,
    rng: Rng,
    /// Packets decided.
    pub packets_seen: u64,
    /// Packets dropped.
    pub drops: u64,
    /// Packets duplicated.
    pub dups: u64,
    /// Packets delayed.
    pub delays: u64,
}

impl NetFaultInjector {
    /// Creates an injector.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub(crate) fn new(cfg: NetFaults) -> NetFaultInjector {
        for p in [cfg.drop_prob, cfg.dup_prob, cfg.delay_prob] {
            assert!((0.0..=1.0).contains(&p), "bad fault probability");
        }
        NetFaultInjector {
            rng: Rng::new(cfg.seed),
            cfg,
            packets_seen: 0,
            drops: 0,
            dups: 0,
            delays: 0,
        }
    }

    /// Decides the fate of the next transmitted packet. Exactly three
    /// PRNG draws per packet regardless of the probabilities, so a
    /// zero-probability injector perturbs nothing downstream.
    pub(crate) fn decide(&mut self) -> NetFault {
        self.packets_seen += 1;
        let dropped = self.rng.chance(self.cfg.drop_prob);
        let duplicated = self.rng.chance(self.cfg.dup_prob);
        let delayed = self.rng.chance(self.cfg.delay_prob);
        if dropped {
            self.drops += 1;
            return NetFault {
                arrivals: 0,
                extra_delay: Duration::ZERO,
            };
        }
        let mut extra = Duration::ZERO;
        if delayed {
            self.delays += 1;
            extra = self.cfg.delay;
        }
        if duplicated {
            self.dups += 1;
            return NetFault {
                arrivals: 2,
                extra_delay: extra,
            };
        }
        NetFault {
            arrivals: 1,
            extra_delay: extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_is_always_clean() {
        let mut fi = NetFaultInjector::new(NetFaults::loss(0.0, 7));
        for _ in 0..1000 {
            assert_eq!(
                fi.decide(),
                NetFault {
                    arrivals: 1,
                    extra_delay: Duration::ZERO
                }
            );
        }
        assert_eq!(fi.drops, 0);
        assert_eq!(fi.packets_seen, 1000);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut fi = NetFaultInjector::new(NetFaults {
                drop_prob: 0.2,
                dup_prob: 0.1,
                delay_prob: 0.3,
                delay: Duration::from_millis(5),
                seed: 42,
            });
            (0..500).map(|_| fi.decide()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let mut fi = NetFaultInjector::new(NetFaults::loss(0.25, 9));
        for _ in 0..10_000 {
            fi.decide();
        }
        let rate = fi.drops as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    #[should_panic(expected = "bad fault probability")]
    fn bad_probability_panics() {
        NetFaultInjector::new(NetFaults::loss(1.5, 0));
    }
}
