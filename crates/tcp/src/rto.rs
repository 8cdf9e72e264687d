//! Round-trip estimation and retransmission timeout (Jacobson/Karn).

use hydranet_netsim::time::SimDuration;

/// Smoothed RTT estimator producing the retransmission timeout (RTO).
///
/// Implements the classic Jacobson algorithm (`SRTT`/`RTTVAR` with gains
/// 1/8 and 1/4) with Karn's rule applied by the caller (samples are only
/// fed for segments that were not retransmitted) and binary exponential
/// backoff on timeout.
///
/// # Examples
///
/// ```
/// use hydranet_tcp::rto::RttEstimator;
/// use hydranet_netsim::time::SimDuration;
///
/// let mut est = RttEstimator::default();
/// est.sample(SimDuration::from_millis(100));
/// assert!(est.rto() >= SimDuration::from_millis(100));
/// ```
#[derive(Debug, Clone)]
pub struct RttEstimator {
    /// Meaningful once `samples_taken > 0`; that count, not a wider
    /// `Option`, says whether a sample exists.
    srtt: SimDuration,
    rttvar: SimDuration,
    rto: SimDuration,
    timeouts: u32,
    /// Capped at 16. It and the sample count share the padding after
    /// `timeouts`, so the estimator is 32 B.
    backoff_shift: u8,
    samples_taken: u16,
}

// Every connection record holds one.
const _: () = assert!(std::mem::size_of::<RttEstimator>() == 32);

/// Initial RTO before any sample, per RFC 6298 (adapted: BSD-era stacks of
/// the paper's vintage used coarser timers; the bench configs raise this).
pub const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

/// RTO floor. Every connection shares it, so the estimator keeps no copy.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// RTO ceiling, shared like [`MIN_RTO`].
pub const MAX_RTO: SimDuration = SimDuration::from_secs(64);

impl RttEstimator {
    /// Creates an estimator at [`INITIAL_RTO`], with no sample yet.
    pub fn new() -> Self {
        RttEstimator {
            srtt: SimDuration::ZERO,
            rttvar: SimDuration::ZERO,
            rto: INITIAL_RTO,
            timeouts: 0,
            backoff_shift: 0,
            samples_taken: 0,
        }
    }

    /// The current retransmission timeout, including any backoff.
    pub fn rto(&self) -> SimDuration {
        let backed_off = self.rto * (1u64 << self.backoff_shift.min(16));
        backed_off.min(MAX_RTO)
    }

    /// The smoothed RTT, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        (self.samples_taken > 0).then_some(self.srtt)
    }

    /// Feeds one RTT measurement (callers must apply Karn's rule: never
    /// sample a retransmitted segment). Resets any timeout backoff.
    pub fn sample(&mut self, rtt: SimDuration) {
        match self.srtt() {
            None => {
                self.srtt = rtt;
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let err = if rtt >= srtt { rtt - srtt } else { srtt - rtt };
                // RTTVAR = 3/4 RTTVAR + 1/4 |err|
                self.rttvar = (self.rttvar * 3 + err) / 4;
                // SRTT = 7/8 SRTT + 1/8 RTT
                self.srtt = (srtt * 7 + rtt) / 8;
            }
        }
        let candidate = self.srtt + (self.rttvar * 4).max(SimDuration::from_millis(10));
        self.rto = candidate.max(MIN_RTO).min(MAX_RTO);
        self.backoff_shift = 0;
        self.samples_taken = self.samples_taken.saturating_add(1);
    }

    /// Doubles the RTO after a retransmission timeout (capped).
    pub fn on_timeout(&mut self) {
        self.backoff_shift = (self.backoff_shift + 1).min(16);
        self.timeouts = self.timeouts.saturating_add(1);
    }

    /// Current backoff exponent (0 when no consecutive timeouts).
    pub fn backoff(&self) -> u32 {
        u32::from(self.backoff_shift)
    }

    /// RTT measurements fed so far (telemetry; saturating at 65,535).
    pub fn samples_taken(&self) -> u32 {
        u32::from(self.samples_taken)
    }

    /// Retransmission timeouts suffered so far (telemetry; saturating).
    pub fn timeouts(&self) -> u32 {
        self.timeouts
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_one_second() {
        let est = RttEstimator::default();
        assert_eq!(est.rto(), SimDuration::from_secs(1));
        assert!(est.srtt().is_none());
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut est = RttEstimator::default();
        for _ in 0..50 {
            est.sample(SimDuration::from_millis(80));
        }
        let srtt = est.srtt().unwrap();
        assert!(
            srtt >= SimDuration::from_millis(78) && srtt <= SimDuration::from_millis(82),
            "srtt = {srtt}"
        );
        // With no variance, RTO collapses to the floor.
        assert_eq!(est.rto(), MIN_RTO);
    }

    #[test]
    fn variance_inflates_rto() {
        let mut stable = RttEstimator::default();
        let mut jittery = RttEstimator::default();
        for i in 0..50 {
            stable.sample(SimDuration::from_millis(300));
            let jitter = if i % 2 == 0 { 100 } else { 500 };
            jittery.sample(SimDuration::from_millis(jitter));
        }
        assert!(jittery.rto() > stable.rto());
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut est = RttEstimator::default();
        est.sample(SimDuration::from_millis(500));
        let base = est.rto();
        est.on_timeout();
        assert_eq!(est.rto(), base * 2);
        est.on_timeout();
        assert_eq!(est.rto(), base * 4);
        assert_eq!(est.backoff(), 2);
        est.sample(SimDuration::from_millis(500));
        assert_eq!(est.backoff(), 0);
        assert!(est.rto() <= base * 2);
        assert_eq!(est.samples_taken(), 2);
        assert_eq!(est.timeouts(), 2);
    }

    #[test]
    fn the_sample_count_saturates() {
        let mut est = RttEstimator::new();
        est.samples_taken = u16::MAX - 1;
        est.sample(SimDuration::from_millis(80));
        est.sample(SimDuration::from_millis(80));
        assert_eq!(est.samples_taken(), u32::from(u16::MAX));
        assert!(est.srtt().is_some());
    }

    #[test]
    fn rto_respects_ceiling() {
        let mut est = RttEstimator::new();
        est.sample(SimDuration::from_secs(20));
        for _ in 0..10 {
            est.on_timeout();
        }
        assert_eq!(est.rto(), MAX_RTO);
    }

    #[test]
    fn rto_respects_floor() {
        let mut est = RttEstimator::new();
        for _ in 0..20 {
            est.sample(SimDuration::from_millis(1));
        }
        assert_eq!(est.rto(), MIN_RTO);
    }

    #[test]
    fn a_zero_rtt_sample_is_a_sample() {
        let mut est = RttEstimator::new();
        est.sample(SimDuration::ZERO);
        assert_eq!(est.srtt(), Some(SimDuration::ZERO));
        est.sample(SimDuration::from_millis(80));
        assert_eq!(
            est.srtt(),
            Some(SimDuration::from_millis(10)),
            "smoothed, not reset"
        );
    }
}
