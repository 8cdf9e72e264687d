//! Point-to-point links: bandwidth, delay, MTU, queues, and loss.
//!
//! A link joins two nodes with independent per-direction state: a drop-tail
//! queue feeding a transmitter that serialises packets at the configured
//! rate, followed by a fixed propagation delay. A loss model and explicit
//! up/down state let scenarios model congestion loss and "site disaster"
//! style outages (the failure classes HydraNet-FT is designed around).

use std::collections::VecDeque;
use std::fmt;

use crate::node::NodeId;
use crate::packet::IpPacket;
use crate::stats::LinkStats;
use crate::time::SimDuration;

/// Identifies a link within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// Creates a link id from its index in the simulator's link table.
    /// Indices are assigned sequentially by
    /// [`TopologyBuilder::connect`](crate::topology::TopologyBuilder::connect).
    pub const fn from_index(index: usize) -> Self {
        LinkId(index)
    }

    /// The link's index in the simulator's link table.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// One of the two directions of a duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the link's first endpoint toward its second.
    AToB,
    /// From the link's second endpoint toward its first.
    BToA,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::AToB => Direction::BToA,
            Direction::BToA => Direction::AToB,
        }
    }

    pub(crate) const fn index(self) -> usize {
        match self {
            Direction::AToB => 0,
            Direction::BToA => 1,
        }
    }
}

fn check_prob(name: &str, v: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(format!("{name} out of range: {v}"))
    }
}

/// The full per-link impairment set: independent per-packet loss plus
/// reordering, duplication, and single-bit payload corruption.
///
/// Every stochastic decision draws from the simulation's single
/// [`SimRng`](crate::rng::SimRng) at the transmitter, in a fixed order, so
/// a run's behaviour — including every injected fault — is a pure function
/// of the seed. A probability of zero draws nothing from the RNG, so links
/// without an impairment leave the random stream exactly as it was before
/// impairments existed.
///
/// Corruption flips one uniformly-chosen bit of the *IP payload* (the
/// transport segment), never the IP header: real IP protects its header
/// with a dedicated checksum, so modelled corruption always lands on bytes
/// the TCP/UDP checksum is responsible for catching.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Impairments {
    /// Probability a packet is lost as it leaves the transmitter (per
    /// direction, independent draws).
    pub loss_p: f64,
    /// Probability a delivered packet receives extra propagation delay,
    /// letting later packets overtake it (reordering).
    pub reorder_p: f64,
    /// Upper bound on the extra delay of a reordered packet (inclusive;
    /// the draw is uniform in `1 ns ..= reorder_jitter`).
    pub reorder_jitter: SimDuration,
    /// Probability a delivered packet is delivered twice.
    pub duplicate_p: f64,
    /// Probability one payload bit of a delivered packet is flipped.
    pub corrupt_p: f64,
}

impl Impairments {
    /// No impairments at all (also the `Default`).
    pub const NONE: Impairments = Impairments {
        loss_p: 0.0,
        reorder_p: 0.0,
        reorder_jitter: SimDuration::ZERO,
        duplicate_p: 0.0,
        corrupt_p: 0.0,
    };

    /// Sets the loss probability (builder style).
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_p = p;
        self
    }

    /// Sets reordering: with probability `p` a delivered packet is held
    /// back by up to `jitter` extra delay (builder style).
    pub fn with_reordering(mut self, p: f64, jitter: SimDuration) -> Self {
        self.reorder_p = p;
        self.reorder_jitter = jitter;
        self
    }

    /// Sets the duplication probability (builder style).
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate_p = p;
        self
    }

    /// Sets the single-bit corruption probability (builder style).
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corrupt_p = p;
        self
    }

    fn validate(&self) -> Result<(), String> {
        check_prob("loss_p", self.loss_p)?;
        check_prob("reorder_p", self.reorder_p)?;
        check_prob("duplicate_p", self.duplicate_p)?;
        check_prob("corrupt_p", self.corrupt_p)
    }
}

/// The one-line description timeline events carry for an impairment set.
impl fmt::Display for Impairments {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loss_p={} reorder_p={} dup_p={} corrupt_p={}",
            self.loss_p, self.reorder_p, self.duplicate_p, self.corrupt_p
        )
    }
}

/// Static configuration of a link.
///
/// # Examples
///
/// ```
/// use hydranet_netsim::link::LinkParams;
///
/// // Paper-era 10 Mb/s Ethernet with 0.5 ms propagation delay.
/// let params = LinkParams::new(10_000_000, hydranet_netsim::time::SimDuration::from_micros(500));
/// assert_eq!(params.mtu, 1500);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkParams {
    /// Transmission rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Maximum transmission unit in bytes (IP header included).
    pub mtu: usize,
    /// Drop-tail queue capacity in packets (per direction).
    pub queue_packets: usize,
    /// Impairment set: loss, reordering, duplication, corruption.
    pub impairments: Impairments,
}

impl LinkParams {
    /// Creates parameters with the given rate and delay, an Ethernet MTU of
    /// 1500 bytes, a 64-packet queue, and no loss.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn new(bandwidth_bps: u64, delay: SimDuration) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        LinkParams {
            bandwidth_bps,
            delay,
            mtu: 1500,
            queue_packets: 64,
            impairments: Impairments::NONE,
        }
    }

    /// Sets the MTU (builder style).
    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }

    /// Sets the queue capacity in packets (builder style).
    pub fn with_queue(mut self, packets: usize) -> Self {
        self.queue_packets = packets;
        self
    }

    /// Replaces the whole impairment set (builder style).
    ///
    /// # Panics
    ///
    /// Panics if any probability in the set is outside `0.0..=1.0`.
    pub fn with_impairments(mut self, imp: Impairments) -> Self {
        if let Err(msg) = imp.validate() {
            panic!("invalid impairments: {msg}");
        }
        self.impairments = imp;
        self
    }

    /// Time to serialise `bytes` onto the wire at this link's rate.
    pub fn tx_time(&self, bytes: usize) -> SimDuration {
        // nanos = bytes * 8 * 1e9 / bps. The product fits a u64 up to
        // ~2.3 GB, so a packet divides in u64; only a larger size pays for
        // the u128 division. Both truncate, so they agree wherever both fit.
        const BIT_NANOS: u64 = 8 * 1_000_000_000;
        let nanos = match (bytes as u64).checked_mul(BIT_NANOS) {
            Some(product) => product / self.bandwidth_bps,
            None => (bytes as u128 * u128::from(BIT_NANOS) / u128::from(self.bandwidth_bps)) as u64,
        };
        SimDuration::from_nanos(nanos)
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::new(10_000_000, SimDuration::from_micros(500))
    }
}

/// Per-direction dynamic state of a link.
#[derive(Debug)]
pub(crate) struct DirectionState {
    pub queue: VecDeque<IpPacket>,
    /// Whether a dequeue event is pending or a packet is on the wire.
    pub transmitting: bool,
    /// Incremented whenever the transmitter is forcibly reset (link
    /// outage); dequeue events from an older epoch are stale and ignored,
    /// so an outage/restore cycle cannot leave two concurrent dequeue
    /// chains serving one direction.
    pub epoch: u64,
    pub stats: LinkStats,
}

impl DirectionState {
    fn new() -> Self {
        DirectionState {
            queue: VecDeque::new(),
            transmitting: false,
            epoch: 0,
            stats: LinkStats::default(),
        }
    }
}

/// A link instance inside the simulator.
#[derive(Debug)]
pub(crate) struct Link {
    pub params: LinkParams,
    pub endpoints: [NodeId; 2],
    /// Interface index at each endpoint.
    pub ifaces: [usize; 2],
    pub up: bool,
    pub dirs: [DirectionState; 2],
}

impl Link {
    pub(crate) fn new(params: LinkParams, endpoints: [NodeId; 2], ifaces: [usize; 2]) -> Self {
        Link {
            params,
            endpoints,
            ifaces,
            up: true,
            dirs: [DirectionState::new(), DirectionState::new()],
        }
    }

    /// The node a packet travelling in `dir` arrives at, and the interface
    /// index there.
    pub(crate) fn receiver(&self, dir: Direction) -> (NodeId, usize) {
        match dir {
            Direction::AToB => (self.endpoints[1], self.ifaces[1]),
            Direction::BToA => (self.endpoints[0], self.ifaces[0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_is_exact_for_round_numbers() {
        let p = LinkParams::new(10_000_000, SimDuration::ZERO);
        // 1250 bytes = 10_000 bits at 10 Mb/s = 1 ms.
        assert_eq!(p.tx_time(1250), SimDuration::from_millis(1));
        assert_eq!(p.tx_time(0), SimDuration::ZERO);
    }

    /// The u64 division is bit-identical to the u128 formula it replaced,
    /// at the sizes a link carries and at the bandwidths tests use
    /// (`u64::MAX` is a zero-time wire), and the overflow fallback is too.
    #[test]
    fn tx_time_matches_the_u128_formula() {
        let reference =
            |bytes: usize, bps: u64| (bytes as u128 * 8 * 1_000_000_000 / bps as u128) as u64;
        for bps in [1, 3, 1_000_000, 10_000_000, 999_999_937, u64::MAX] {
            let p = LinkParams::new(bps, SimDuration::ZERO);
            for bytes in [0, 1, 1_500, 65_535, usize::MAX] {
                assert_eq!(
                    p.tx_time(bytes).as_nanos(),
                    reference(bytes, bps),
                    "{bytes} B at {bps} b/s"
                );
            }
        }
        let wire = LinkParams::new(u64::MAX, SimDuration::ZERO);
        assert_eq!(wire.tx_time(65_535), SimDuration::ZERO);
    }

    #[test]
    fn builder_methods() {
        let imp = Impairments::NONE
            .with_loss(0.02)
            .with_reordering(0.1, SimDuration::from_millis(2))
            .with_duplication(0.05)
            .with_corruption(0.01);
        let p = LinkParams::new(1_000_000, SimDuration::from_millis(1))
            .with_mtu(576)
            .with_queue(10)
            .with_impairments(imp);
        assert_eq!(p.mtu, 576);
        assert_eq!(p.queue_packets, 10);
        assert_eq!(p.impairments.loss_p, 0.02);
        assert_eq!(p.impairments.reorder_p, 0.1);
        assert_eq!(p.impairments.reorder_jitter, SimDuration::from_millis(2));
        assert_eq!(p.impairments.duplicate_p, 0.05);
        assert_eq!(p.impairments.corrupt_p, 0.01);
        assert_eq!(
            p.impairments.to_string(),
            "loss_p=0.02 reorder_p=0.1 dup_p=0.05 corrupt_p=0.01"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkParams::new(0, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "loss_p out of range")]
    fn bad_loss_probability_rejected() {
        let _ = LinkParams::default().with_impairments(Impairments::NONE.with_loss(1.5));
    }

    #[test]
    #[should_panic(expected = "invalid impairments")]
    fn bad_impairment_probability_rejected() {
        let _ = LinkParams::default().with_impairments(Impairments::NONE.with_duplication(-0.1));
    }

    #[test]
    fn impairments_default_is_none() {
        assert_eq!(Impairments::default(), Impairments::NONE);
        assert_eq!(LinkParams::default().impairments, Impairments::NONE);
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::AToB.reverse(), Direction::BToA);
        assert_eq!(Direction::BToA.reverse(), Direction::AToB);
        assert_eq!(Direction::AToB.index(), 0);
        assert_eq!(Direction::BToA.index(), 1);
    }

    #[test]
    fn link_receiver_mapping() {
        let link = Link::new(LinkParams::default(), [NodeId(5), NodeId(9)], [2, 0]);
        assert_eq!(link.receiver(Direction::AToB), (NodeId(9), 0));
        assert_eq!(link.receiver(Direction::BToA), (NodeId(5), 2));
    }
}
