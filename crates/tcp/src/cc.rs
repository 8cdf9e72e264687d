//! Reno-style congestion control: slow start, congestion avoidance, fast
//! retransmit, and fast recovery.
//!
//! The paper leans on TCP's own control loops — its failure detector
//! deliberately sets thresholds "high enough to not interfere with TCP's own
//! congestion control mechanism, which for example initiates a slow-start
//! recovery from link congestion after detecting a triple acknowledgment"
//! (§4.3) — so the reproduction implements those mechanisms faithfully.

/// Number of duplicate ACKs that triggers fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;

/// Congestion-control state for one connection.
#[derive(Debug, Clone)]
pub struct CongestionControl {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    /// Duplicate-ACK counter toward fast retransmit: it stops at
    /// [`DUPACK_THRESHOLD`] until a new ACK or a timeout clears it, so a
    /// byte holds it.
    dup_acks: u8,
    in_fast_recovery: bool,
    /// Bytes of cwnd credit accumulated toward the next +MSS in congestion
    /// avoidance.
    avoid_acc: u32,
    fast_recoveries: u32,
}

impl CongestionControl {
    /// Creates state for a connection with the given MSS: initial window of
    /// one MSS (RFC 5681 conservative setting, matching the paper's era)
    /// and an effectively unbounded initial `ssthresh`.
    ///
    /// # Panics
    ///
    /// Panics if `mss` is zero.
    pub fn new(mss: u32) -> Self {
        assert!(mss > 0, "mss must be positive");
        CongestionControl {
            mss,
            cwnd: mss,
            ssthresh: u32::MAX / 2,
            dup_acks: 0,
            in_fast_recovery: false,
            avoid_acc: 0,
            fast_recoveries: 0,
        }
    }

    /// The current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// The current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// Whether the connection is in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Whether fast recovery is active.
    pub fn in_fast_recovery(&self) -> bool {
        self.in_fast_recovery
    }

    /// Current duplicate-ACK count.
    pub fn dup_acks(&self) -> u32 {
        u32::from(self.dup_acks)
    }

    /// Handles an ACK that advances `SND.UNA` by `acked` bytes.
    pub fn on_new_ack(&mut self, acked: u32) {
        self.dup_acks = 0;
        if self.in_fast_recovery {
            // Leave fast recovery: deflate to ssthresh (NewReno-lite).
            self.in_fast_recovery = false;
            self.cwnd = self.ssthresh.max(self.mss);
            return;
        }
        if self.in_slow_start() {
            // Exponential growth: +1 MSS per MSS acked (bounded by acked).
            self.cwnd = self.cwnd.saturating_add(acked.min(self.mss));
        } else {
            // Additive increase: +1 MSS per cwnd of data acked.
            self.avoid_acc = self.avoid_acc.saturating_add(acked.min(self.mss));
            if self.avoid_acc >= self.cwnd {
                self.avoid_acc -= self.cwnd;
                self.cwnd = self.cwnd.saturating_add(self.mss);
            }
        }
    }

    /// Handles a duplicate ACK. Returns `true` exactly when the duplicate
    /// threshold is crossed and the caller should fast-retransmit the
    /// segment at `SND.UNA`.
    pub fn on_dup_ack(&mut self) -> bool {
        if self.in_fast_recovery {
            // Window inflation for each additional dup ack.
            self.cwnd = self.cwnd.saturating_add(self.mss);
            return false;
        }
        self.dup_acks += 1;
        if u32::from(self.dup_acks) == DUPACK_THRESHOLD {
            self.enter_fast_recovery();
            true
        } else {
            false
        }
    }

    fn enter_fast_recovery(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD * self.mss;
        self.in_fast_recovery = true;
        self.avoid_acc = 0;
        self.fast_recoveries = self.fast_recoveries.saturating_add(1);
    }

    /// Handles a retransmission timeout: collapse to one MSS and restart in
    /// slow start.
    pub fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.dup_acks = 0;
        self.in_fast_recovery = false;
        self.avoid_acc = 0;
    }

    /// Fast-recovery episodes entered so far (telemetry; saturating).
    pub fn fast_recoveries(&self) -> u32 {
        self.fast_recoveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1000;

    #[test]
    fn starts_with_one_mss_in_slow_start() {
        let cc = CongestionControl::new(MSS);
        assert_eq!(cc.cwnd(), MSS);
        assert!(cc.in_slow_start());
        assert!(!cc.in_fast_recovery());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = CongestionControl::new(MSS);
        // One RTT: the single in-flight MSS is acked.
        cc.on_new_ack(MSS);
        assert_eq!(cc.cwnd(), 2 * MSS);
        // Next RTT: two segments acked.
        cc.on_new_ack(MSS);
        cc.on_new_ack(MSS);
        assert_eq!(cc.cwnd(), 4 * MSS);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut cc = CongestionControl::new(MSS);
        cc.on_timeout(); // ssthresh = 2*MSS, cwnd = MSS
        cc.on_new_ack(MSS); // slow start to 2*MSS = ssthresh
        assert!(!cc.in_slow_start());
        let before = cc.cwnd();
        // Ack one full window: cwnd should grow by exactly one MSS.
        let mut acked = 0;
        while acked < before {
            cc.on_new_ack(MSS);
            acked += MSS;
        }
        assert_eq!(cc.cwnd(), before + MSS);
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit_once() {
        let mut cc = CongestionControl::new(MSS);
        for _ in 0..5 {
            cc.on_new_ack(MSS);
        }
        let cwnd = cc.cwnd();
        assert!(!cc.on_dup_ack());
        assert!(!cc.on_dup_ack());
        assert!(cc.on_dup_ack()); // third one fires
        assert!(cc.in_fast_recovery());
        assert_eq!(cc.ssthresh(), cwnd / 2);
        // Additional dup acks inflate but do not re-fire.
        assert!(!cc.on_dup_ack());
        assert_eq!(cc.cwnd(), cwnd / 2 + 4 * MSS);
        assert_eq!(cc.fast_recoveries(), 1);
    }

    #[test]
    fn new_ack_exits_fast_recovery_and_deflates() {
        let mut cc = CongestionControl::new(MSS);
        for _ in 0..6 {
            cc.on_new_ack(MSS);
        }
        for _ in 0..3 {
            cc.on_dup_ack();
        }
        let ssthresh = cc.ssthresh();
        cc.on_new_ack(4 * MSS);
        assert!(!cc.in_fast_recovery());
        assert_eq!(cc.cwnd(), ssthresh);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut cc = CongestionControl::new(MSS);
        for _ in 0..10 {
            cc.on_new_ack(MSS);
        }
        let cwnd = cc.cwnd();
        cc.on_timeout();
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.ssthresh(), cwnd / 2);
        assert!(cc.in_slow_start());
        assert_eq!(cc.dup_acks(), 0);
    }

    #[test]
    fn ssthresh_floor_is_two_mss() {
        let mut cc = CongestionControl::new(MSS);
        cc.on_timeout();
        assert_eq!(cc.ssthresh(), 2 * MSS);
        cc.on_timeout();
        assert_eq!(cc.ssthresh(), 2 * MSS);
    }

    #[test]
    #[should_panic(expected = "mss must be positive")]
    fn zero_mss_rejected() {
        CongestionControl::new(0);
    }
}
