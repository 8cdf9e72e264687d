//! Event-attribution profiler: buckets the simulator's event count and
//! wall-clock time by subsystem.
//!
//! The ack-channel batching work (EXPERIMENTS.md §P1) claims a large
//! reduction in simulator events per transferred byte; this module turns
//! that aggregate into a per-category table — tcp data, tcp acks, the
//! ack channel, timers, management traffic, redirector hops — so a perf
//! regression names the subsystem that regressed.
//!
//! Classification is structural: the profiler parses only fixed header
//! offsets of the protocols it attributes (UDP ports, the TCP payload
//! length field, IP-in-IP recursion one level deep) and never depends on
//! the transport crates, so `netsim` stays protocol-agnostic. Scenario
//! code marks redirector nodes and the ack-channel UDP port explicitly;
//! packets touching a marked node win over payload-based classes.
//!
//! The profiler is off by default and costs one branch per event when
//! disabled; wall-clock sampling (`std::time::Instant`) happens only when
//! enabled, so enabling it never perturbs simulated time or determinism —
//! it is pure observation.

use crate::node::NodeId;
use crate::packet::{IpPacket, Protocol};

/// Number of attribution categories (the arms of [`EventCategory`]).
pub const CATEGORY_COUNT: usize = 7;

/// The subsystem an event is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventCategory {
    /// TCP segments carrying payload bytes.
    TcpData,
    /// Bare TCP acknowledgements (no payload).
    TcpAck,
    /// Kernel-to-kernel ack-channel datagrams (the marked UDP port).
    AckChannel,
    /// Timer firings.
    Timers,
    /// Management-daemon UDP traffic (any unmarked UDP port).
    Mgmt,
    /// Any packet event at a marked redirector node.
    Redirector,
    /// Everything else: node starts, fault injection, unparsable packets.
    Other,
}

impl EventCategory {
    /// All categories, in stable table order.
    pub const ALL: [EventCategory; CATEGORY_COUNT] = [
        EventCategory::TcpData,
        EventCategory::TcpAck,
        EventCategory::AckChannel,
        EventCategory::Timers,
        EventCategory::Mgmt,
        EventCategory::Redirector,
        EventCategory::Other,
    ];

    /// Stable snake_case name used in JSON exports and tables.
    pub const fn name(self) -> &'static str {
        match self {
            EventCategory::TcpData => "tcp_data",
            EventCategory::TcpAck => "tcp_ack",
            EventCategory::AckChannel => "ack_channel",
            EventCategory::Timers => "timers",
            EventCategory::Mgmt => "mgmt",
            EventCategory::Redirector => "redirector",
            EventCategory::Other => "other",
        }
    }

    /// Index into a `[T; CATEGORY_COUNT]` bucket array.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Counters for one attribution category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryStats {
    /// Simulator events attributed to this category.
    pub events: u64,
    /// Wall-clock nanoseconds spent processing those events.
    pub wall_nanos: u64,
}

/// Per-subsystem event and wall-clock attribution (see module docs).
#[derive(Debug, Default)]
pub struct EventProfiler {
    enabled: bool,
    /// Dense `NodeId`-indexed redirector marks (false beyond the Vec).
    redirector_nodes: Vec<bool>,
    /// UDP port of the replica ack channel; 0 = none marked.
    ack_channel_port: u16,
    buckets: [CategoryStats; CATEGORY_COUNT],
}

impl EventProfiler {
    /// Turns attribution on or off. Counters are retained across toggles.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether attribution is currently on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Marks `node` as a redirector: every packet event at it is
    /// attributed to [`EventCategory::Redirector`] regardless of payload.
    pub fn mark_redirector(&mut self, node: NodeId) {
        let i = node.index();
        if self.redirector_nodes.len() <= i {
            self.redirector_nodes.resize(i + 1, false);
        }
        self.redirector_nodes[i] = true;
    }

    /// Whether `node` has been marked as a redirector.
    #[inline]
    pub fn is_redirector(&self, node: NodeId) -> bool {
        self.redirector_nodes.get(node.index()).copied() == Some(true)
    }

    /// Declares the UDP port of the replica ack channel so its datagrams
    /// separate from management traffic (0 disables the distinction).
    pub fn set_ack_channel_port(&mut self, port: u16) {
        self.ack_channel_port = port;
    }

    /// Adds one event of `nanos` wall-clock to `cat`'s bucket.
    #[inline]
    pub fn record(&mut self, cat: EventCategory, nanos: u64) {
        let b = &mut self.buckets[cat.index()];
        b.events += 1;
        b.wall_nanos += nanos;
    }

    /// The counters for one category.
    pub fn stats(&self, cat: EventCategory) -> CategoryStats {
        self.buckets[cat.index()]
    }

    /// Total events attributed across all categories.
    pub fn total_events(&self) -> u64 {
        self.buckets.iter().map(|b| b.events).sum()
    }

    /// Structurally classifies a packet by its transport headers.
    ///
    /// IP-in-IP is unwrapped one level (a tunnel hop inherits its inner
    /// packet's class unless the node precedence rule already applied).
    /// Non-first fragments lack transport headers, so they fall back to a
    /// per-protocol guess: only large data segments fragment in practice.
    pub fn classify_packet(&self, packet: &IpPacket) -> EventCategory {
        self.classify_at_depth(packet, 0)
    }

    fn classify_at_depth(&self, packet: &IpPacket, depth: u8) -> EventCategory {
        let p = &packet.payload;
        if packet.header.frag.offset != 0 {
            return match packet.protocol() {
                Protocol::TCP => EventCategory::TcpData,
                Protocol::UDP => EventCategory::Mgmt,
                // A tunnel continuation fragment is mid-payload bytes of
                // the inner packet — in practice a bulk data segment, the
                // only thing big enough to push the outer past the MTU.
                Protocol::IP_IN_IP => EventCategory::TcpData,
                _ => EventCategory::Other,
            };
        }
        match packet.protocol() {
            Protocol::IP_IN_IP if depth == 0 => match IpPacket::decode(p) {
                Ok(inner) => self.classify_at_depth(&inner, 1),
                // A full decode fails when the *outer* packet fragmented
                // (encapsulation pushed it past the MTU) and this is the
                // first fragment: the declared inner total_len points past
                // the fragment boundary. The inner IP and transport
                // headers still made it — peek at them structurally.
                Err(_) => self.classify_inner_prefix(p),
            },
            Protocol::UDP if p.len() >= 4 => self.classify_udp_ports(p),
            // TCP header: payload_len lives at bytes 18..20 (see
            // hydranet-tcp's segment layout, mirrored here structurally).
            Protocol::TCP if p.len() >= 20 => {
                if u16::from_be_bytes([p[18], p[19]]) > 0 {
                    EventCategory::TcpData
                } else {
                    EventCategory::TcpAck
                }
            }
            _ => EventCategory::Other,
        }
    }

    /// Best-effort classification of a truncated tunnel payload: the first
    /// fragment of a fragmented outer packet carries the complete inner IP
    /// header and transport header even though the inner `total_len`
    /// points past the fragment boundary.
    fn classify_inner_prefix(&self, p: &[u8]) -> EventCategory {
        const IP_HEADER_LEN: usize = crate::packet::IP_HEADER_LEN;
        if p.len() < IP_HEADER_LEN || p[0] != 0x45 {
            return EventCategory::Other;
        }
        let t = &p[IP_HEADER_LEN..];
        match Protocol::from_number(p[2]) {
            Protocol::TCP if t.len() >= 20 => {
                if u16::from_be_bytes([t[18], t[19]]) > 0 {
                    EventCategory::TcpData
                } else {
                    EventCategory::TcpAck
                }
            }
            Protocol::UDP if t.len() >= 4 => self.classify_udp_ports(t),
            _ => EventCategory::Other,
        }
    }

    /// UDP separates on the configured ack-channel port; everything else
    /// over UDP is management-plane traffic.
    fn classify_udp_ports(&self, p: &[u8]) -> EventCategory {
        let src = u16::from_be_bytes([p[0], p[1]]);
        let dst = u16::from_be_bytes([p[2], p[3]]);
        if self.ack_channel_port != 0
            && (src == self.ack_channel_port || dst == self.ack_channel_port)
        {
            EventCategory::AckChannel
        } else {
            EventCategory::Mgmt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::IpAddr;

    fn ip(protocol: Protocol, payload: Vec<u8>) -> IpPacket {
        IpPacket::new(
            IpAddr::new(1, 1, 1, 1),
            IpAddr::new(2, 2, 2, 2),
            protocol,
            payload,
        )
    }

    /// A fake TCP header: 20 bytes with payload_len patched at 18..20.
    fn tcp_bytes(payload_len: u16) -> Vec<u8> {
        let mut b = vec![0u8; 20 + payload_len as usize];
        b[18..20].copy_from_slice(&payload_len.to_be_bytes());
        b
    }

    /// A fake UDP header: ports at 0..4.
    fn udp_bytes(src: u16, dst: u16) -> Vec<u8> {
        let mut b = vec![0u8; 8];
        b[0..2].copy_from_slice(&src.to_be_bytes());
        b[2..4].copy_from_slice(&dst.to_be_bytes());
        b
    }

    #[test]
    fn classifies_by_transport_structure() {
        let mut p = EventProfiler::default();
        p.set_ack_channel_port(7101);
        assert_eq!(
            p.classify_packet(&ip(Protocol::TCP, tcp_bytes(100))),
            EventCategory::TcpData
        );
        assert_eq!(
            p.classify_packet(&ip(Protocol::TCP, tcp_bytes(0))),
            EventCategory::TcpAck
        );
        assert_eq!(
            p.classify_packet(&ip(Protocol::UDP, udp_bytes(7101, 7101))),
            EventCategory::AckChannel
        );
        assert_eq!(
            p.classify_packet(&ip(Protocol::UDP, udp_bytes(5000, 9000))),
            EventCategory::Mgmt
        );
        assert_eq!(
            p.classify_packet(&ip(Protocol::from_number(99), vec![0; 4])),
            EventCategory::Other
        );
    }

    #[test]
    fn unwraps_one_level_of_encapsulation() {
        let p = EventProfiler::default();
        let inner = ip(Protocol::TCP, tcp_bytes(64));
        let outer = ip(Protocol::IP_IN_IP, inner.encode().to_vec());
        assert_eq!(p.classify_packet(&outer), EventCategory::TcpData);
        let garbage = ip(Protocol::IP_IN_IP, vec![0xFF; 8]);
        assert_eq!(p.classify_packet(&garbage), EventCategory::Other);
    }

    /// An outer tunnel packet that fragmented: the first fragment's inner
    /// `total_len` points past the fragment boundary, so a strict decode
    /// fails — the header peek must still classify it.
    #[test]
    fn fragmented_tunnel_first_fragment_classifies_by_inner_headers() {
        let p = EventProfiler::default();
        let inner = ip(Protocol::TCP, tcp_bytes(1460));
        let full = inner.encode().to_vec();
        // First-fragment payload: inner headers plus a partial payload.
        let outer = ip(Protocol::IP_IN_IP, full[..600].to_vec());
        assert_eq!(p.classify_packet(&outer), EventCategory::TcpData);
        let ack = ip(Protocol::TCP, tcp_bytes(0));
        let outer_ack = ip(Protocol::IP_IN_IP, ack.encode().to_vec());
        assert_eq!(p.classify_packet(&outer_ack), EventCategory::TcpAck);
        // A continuation fragment of the tunnel has no headers at all.
        let mut cont = ip(Protocol::IP_IN_IP, full[600..].to_vec());
        cont.header.frag.offset = 600;
        assert_eq!(p.classify_packet(&cont), EventCategory::TcpData);
    }

    #[test]
    fn non_first_fragments_use_protocol_fallback() {
        let p = EventProfiler::default();
        let mut frag = ip(Protocol::TCP, vec![0u8; 8]);
        frag.header.frag.offset = 512;
        assert_eq!(p.classify_packet(&frag), EventCategory::TcpData);
    }

    #[test]
    fn redirector_marks_and_buckets() {
        let mut p = EventProfiler::default();
        p.mark_redirector(NodeId::from_index(3));
        assert!(p.is_redirector(NodeId::from_index(3)));
        assert!(!p.is_redirector(NodeId::from_index(2)));
        assert!(!p.is_redirector(NodeId::from_index(100)));
        p.record(EventCategory::Timers, 10);
        p.record(EventCategory::Timers, 5);
        p.record(EventCategory::TcpData, 1);
        assert_eq!(p.stats(EventCategory::Timers).events, 2);
        assert_eq!(p.stats(EventCategory::Timers).wall_nanos, 15);
        assert_eq!(p.total_events(), 3);
        assert_eq!(EventCategory::ALL[0].name(), "tcp_data");
        assert_eq!(p.stats(EventCategory::ALL[0]).events, 1);
    }
}
