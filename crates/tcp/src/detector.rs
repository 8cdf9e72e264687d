//! The low-latency failure estimator.
//!
//! HydraNet-FT detects failures by watching the TCP flow-control loop: "If a
//! server fails to receive a packet, the flow control loop is broken, and
//! the client re-transmits. … Repeated re-transmissions are detected at the
//! servers. After some number of re-transmissions have been detected, any
//! server can initiate a reconfiguration of the set of replicas" (§4.3).
//!
//! The threshold trades **detection latency** against **false positives**,
//! and must stay above TCP's own triple-duplicate-ACK machinery so the
//! estimator does not fight congestion control. [`DetectorParams`] is the
//! `detector-parameters` argument of the paper's `setportopt` system call.

use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_obs::{kinds, Obs};

use crate::segment::Quad;

/// Tuning for the failure estimator of one replicated port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorParams {
    /// Number of observed client retransmissions (fully duplicate data
    /// segments) that triggers a failure suspicion.
    pub threshold: u32,
    /// Duplicates older than this are forgotten, so isolated packet loss
    /// does not accumulate into a false positive.
    pub window: SimDuration,
}

impl DetectorParams {
    /// Paper-guided default: above the triple-dup-ack level (threshold 5)
    /// with a 10-second observation window.
    pub const DEFAULT: DetectorParams = DetectorParams {
        threshold: 5,
        window: SimDuration::from_secs(10),
    };

    /// Creates parameters.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u32, window: SimDuration) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        DetectorParams { threshold, window }
    }
}

impl Default for DetectorParams {
    fn default() -> Self {
        DetectorParams::DEFAULT
    }
}

/// Which face of the broken flow-control loop an observation came from.
/// The estimator counts all four alike; the name goes on the timeline, so
/// a run can say which signal raised each suspicion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Signal {
    /// A fully duplicate data segment: the client retransmitted, so the
    /// primary stopped delivering (the paper's §4.3 signal).
    ClientDuplicate,
    /// A retransmission timeout on the replica's own data: the primary that
    /// delivers it to the client is gone.
    OwnRto,
    /// The send gate held ready work for a full RTO: the chain successor
    /// stopped reporting its send progress.
    SendGate,
    /// The deposit gate held in-order client bytes for a full RTO: the
    /// chain successor stopped reporting its acknowledgements.
    DepositGate,
}

impl Signal {
    /// Every signal, in the order reports list them.
    pub const ALL: [Signal; 4] = [
        Signal::ClientDuplicate,
        Signal::OwnRto,
        Signal::SendGate,
        Signal::DepositGate,
    ];

    /// The name the timeline's `signal` field carries.
    pub fn name(self) -> &'static str {
        match self {
            Signal::ClientDuplicate => "client_duplicate",
            Signal::OwnRto => "own_rto",
            Signal::SendGate => "send_gate",
            Signal::DepositGate => "deposit_gate",
        }
    }
}

/// Per-connection retransmission counter implementing the estimator.
///
/// It keeps no telemetry handle or connection name of its own: the stack
/// passes both with each observation, so a detector costs a replicated
/// connection only its counters. [`DetectorParams`]' two fields sit beside
/// a `u32` total rather than in a padded copy of the struct, so the
/// detector is 48 B. The stack builds one per replicated connection at its
/// first broken-loop signal; until then the connection holds none, which
/// behaves as a fresh detector: progress and [`reset`](Self::reset) on a
/// detector that has seen no duplicate change nothing.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    window: SimDuration,
    /// Timestamps of recent duplicates, oldest first.
    recent: Vec<SimTime>,
    threshold: u32,
    /// Saturates rather than wraps: four billion duplicates on one
    /// connection is far past any report it could still inform.
    duplicates_total: u32,
    /// Latched once the threshold is crossed, until [`reset`](Self::reset).
    suspected: bool,
}

// The stack boxes one per replicated connection that saw a duplicate.
const _: () = assert!(std::mem::size_of::<FailureDetector>() == 48);

impl FailureDetector {
    /// Creates a detector with the given parameters.
    pub fn new(params: DetectorParams) -> Self {
        FailureDetector {
            window: params.window,
            recent: Vec::new(),
            threshold: params.threshold,
            duplicates_total: 0,
            suspected: false,
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> DetectorParams {
        DetectorParams {
            threshold: self.threshold,
            window: self.window,
        }
    }

    /// Records one broken-loop `signal` observed on connection `quad`.
    /// Returns `true` exactly once when the threshold is crossed (latched
    /// afterwards). Every observation and the suspicion go on `obs`'s
    /// timeline with `quad` as their `scope` and the signal's name as their
    /// `signal`; the suspicion names the signal that crossed the threshold.
    pub fn on_duplicate(&mut self, now: SimTime, signal: Signal, obs: &Obs, quad: Quad) -> bool {
        self.duplicates_total = self.duplicates_total.saturating_add(1);
        self.expire(now);
        self.recent.push(now);
        if obs.is_enabled() {
            obs.event(
                now.as_nanos(),
                kinds::DETECTOR_DUPLICATE,
                [
                    ("scope", quad.to_string()),
                    ("signal", signal.name().to_string()),
                    ("total", self.duplicates_total.to_string()),
                    ("in_window", self.recent.len().to_string()),
                ],
            );
        }
        if !self.suspected && self.recent.len() as u32 >= self.threshold {
            self.suspected = true;
            obs.event(
                now.as_nanos(),
                kinds::DETECTOR_SUSPECTED,
                [
                    ("scope", quad.to_string()),
                    ("signal", signal.name().to_string()),
                    ("observed", self.duplicates_total.to_string()),
                    ("threshold", self.threshold.to_string()),
                ],
            );
            return true;
        }
        false
    }

    /// Records forward progress (new data or new ACKs) on connection
    /// `quad`: clears accumulated duplicates since the loop is evidently
    /// working, noting the clear on `obs`'s timeline.
    pub fn on_progress(&mut self, now: SimTime, obs: &Obs, quad: Quad) {
        if !self.recent.is_empty() && obs.is_enabled() {
            obs.event(
                now.as_nanos(),
                kinds::DETECTOR_CLEARED,
                [
                    ("scope", quad.to_string()),
                    ("cleared", self.recent.len().to_string()),
                ],
            );
        }
        self.recent.clear();
    }

    /// Whether a suspicion is currently latched.
    pub fn is_suspected(&self) -> bool {
        self.suspected
    }

    /// Total duplicates ever observed (diagnostics).
    pub fn duplicates_total(&self) -> u64 {
        u64::from(self.duplicates_total)
    }

    /// Clears the latch and counters (after a reconfiguration).
    pub fn reset(&mut self) {
        self.recent.clear();
        self.suspected = false;
    }

    /// Heap bytes behind the detector, beyond the structure itself: its
    /// list of recent duplicates (capacity, which is what the allocator
    /// charges).
    pub fn heap_bytes(&self) -> usize {
        self.recent.capacity() * std::mem::size_of::<SimTime>()
    }

    fn expire(&mut self, now: SimTime) {
        let cutoff = self.window;
        self.recent.retain(|&t| now.duration_since(t) <= cutoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SockAddr;
    use hydranet_netsim::packet::IpAddr;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn quad() -> Quad {
        Quad::new(
            SockAddr::new(IpAddr::new(10, 0, 2, 1), 80),
            SockAddr::new(IpAddr::new(10, 0, 1, 1), 40000),
        )
    }

    /// One client duplicate, observed with telemetry off.
    fn dup(d: &mut FailureDetector, ms: u64) -> bool {
        d.on_duplicate(at(ms), Signal::ClientDuplicate, &Obs::disabled(), quad())
    }

    #[test]
    fn fires_exactly_once_at_threshold() {
        let mut d = FailureDetector::new(DetectorParams::new(3, SimDuration::from_secs(10)));
        assert!(!dup(&mut d, 0));
        assert!(!dup(&mut d, 10));
        assert!(dup(&mut d, 20));
        assert!(d.is_suspected());
        // Latched: no double-fire.
        assert!(!dup(&mut d, 30));
        assert_eq!(d.duplicates_total(), 4);
    }

    #[test]
    fn the_duplicate_total_saturates() {
        let mut d = FailureDetector::new(DetectorParams::new(3, SimDuration::from_secs(10)));
        d.duplicates_total = u32::MAX - 1;
        dup(&mut d, 0);
        dup(&mut d, 10);
        assert_eq!(d.duplicates_total(), u64::from(u32::MAX));
    }

    #[test]
    fn progress_resets_accumulation() {
        let mut d = FailureDetector::new(DetectorParams::new(3, SimDuration::from_secs(10)));
        dup(&mut d, 0);
        dup(&mut d, 10);
        d.on_progress(at(15), &Obs::disabled(), quad());
        assert!(!dup(&mut d, 20));
        assert!(!dup(&mut d, 30));
        assert!(dup(&mut d, 40));
    }

    #[test]
    fn old_duplicates_expire() {
        let mut d = FailureDetector::new(DetectorParams::new(3, SimDuration::from_millis(100)));
        dup(&mut d, 0);
        dup(&mut d, 10);
        // Third duplicate long after the window: the first two expired.
        assert!(!dup(&mut d, 500));
        assert!(!d.is_suspected());
    }

    #[test]
    fn reset_unlatches() {
        let mut d = FailureDetector::new(DetectorParams::new(1, SimDuration::from_secs(1)));
        assert!(dup(&mut d, 0));
        d.reset();
        assert!(!d.is_suspected());
        assert!(dup(&mut d, 10));
    }

    #[test]
    fn default_threshold_clears_triple_dup_ack() {
        // The paper requires thresholds "high enough to not interfere with
        // TCP's own congestion control mechanism" (triple dup-ack = 3).
        const { assert!(DetectorParams::DEFAULT.threshold > 3) };
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        DetectorParams::new(0, SimDuration::from_secs(1));
    }

    #[test]
    fn telemetry_counts_each_duplicate_observation() {
        let obs = Obs::enabled();
        let mut d = FailureDetector::new(DetectorParams::new(3, SimDuration::from_secs(10)));
        d.on_duplicate(at(0), Signal::ClientDuplicate, &obs, quad());
        d.on_duplicate(at(10), Signal::OwnRto, &obs, quad());
        d.on_duplicate(at(20), Signal::DepositGate, &obs, quad()); // crosses the threshold
        assert_eq!(d.duplicates_total(), 3);
        let events = obs.events();
        let duplicates: Vec<_> = events
            .iter()
            .filter(|e| e.kind == kinds::DETECTOR_DUPLICATE)
            .collect();
        assert_eq!(duplicates.len(), 3, "one event per observation");
        // The trajectory carries the running totals.
        let totals: Vec<&str> = duplicates
            .iter()
            .map(|e| e.field("total").unwrap())
            .collect();
        assert_eq!(totals, ["1", "2", "3"]);
        // Each observation names its signal.
        let signals: Vec<&str> = duplicates
            .iter()
            .map(|e| e.field("signal").unwrap())
            .collect();
        assert_eq!(signals, ["client_duplicate", "own_rto", "deposit_gate"]);
        // Suspicion fired exactly once, at the third duplicate's instant.
        let suspected: Vec<_> = events
            .iter()
            .filter(|e| e.kind == kinds::DETECTOR_SUSPECTED)
            .collect();
        assert_eq!(suspected.len(), 1);
        assert_eq!(suspected[0].at_nanos, at(20).as_nanos());
        // The suspicion names the signal that crossed the threshold.
        assert_eq!(suspected[0].field("signal"), Some("deposit_gate"));
        // Progress after suspicion records the clear.
        d.on_progress(at(30), &obs, quad());
        assert_eq!(
            obs.first_event_at(kinds::DETECTOR_CLEARED),
            Some(at(30).as_nanos())
        );
    }
}
