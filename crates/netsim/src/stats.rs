//! Counters collected during a run.
//!
//! These counters are the simulator's whole account of its packets; it
//! keeps no per-packet log. A packet a link refuses or loses lands in one
//! [`LinkStats`] drop counter, and a packet that reaches a node is either
//! [`NodeStats::dispatched`] or [`NodeStats::dropped_crashed`]. Which
//! packet went where is answered by packet lineage and the spans of
//! `hydranet-obs`, not here.

/// Per-direction link counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets delivered to the far end.
    pub delivered: u64,
    /// Payload-carrying bytes delivered (on-wire sizes).
    pub bytes_delivered: u64,
    /// Packets dropped because the queue was full.
    pub dropped_queue: u64,
    /// Packets dropped by the random loss model.
    pub dropped_loss: u64,
    /// Packets dropped because the link was down.
    pub dropped_down: u64,
    /// Packets dropped because they exceeded the MTU with DF set.
    pub dropped_mtu: u64,
    /// Delivered packets that were delivered a second time by the
    /// duplication impairment (counts extra copies, not originals).
    pub duplicated: u64,
    /// Delivered packets that had one payload bit flipped by the
    /// corruption impairment.
    pub corrupted: u64,
    /// Delivered packets held back by reordering jitter.
    pub reordered: u64,
}

impl LinkStats {
    /// Total drops from all causes.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_queue + self.dropped_loss + self.dropped_down + self.dropped_mtu
    }
}

/// Per-node counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Packets handed to the node's handler, counted when the handler runs
    /// (after the CPU delay).
    pub dispatched: u64,
    /// Packets discarded because the node was crashed: on arrival, or while
    /// they waited for the CPU. Every arrival is dispatched, dropped here,
    /// or still waiting for its dispatch.
    pub dropped_crashed: u64,
    /// Accumulated CPU busy time in nanoseconds.
    pub cpu_busy_nanos: u64,
}

/// Whole-simulation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Events processed by the run loop.
    pub events_processed: u64,
    /// Timers delivered to their node; a crashed node's pending timers are
    /// dropped uncounted.
    pub timers_fired: u64,
    /// The most events the calendar held at once.
    pub calendar_peak: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_total_sums_causes() {
        let s = LinkStats {
            dropped_queue: 1,
            dropped_loss: 2,
            dropped_down: 3,
            dropped_mtu: 4,
            ..LinkStats::default()
        };
        assert_eq!(s.dropped_total(), 10);
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(LinkStats::default().dropped_total(), 0);
        assert_eq!(NodeStats::default().dispatched, 0);
        assert_eq!(SimStats::default().events_processed, 0);
    }
}
