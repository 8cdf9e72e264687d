//! Static IP routing: prefix tables and a plain router node.
//!
//! HydraNet redirectors are routers first — packets that match no redirector
//! table entry "are simply forwarded to the origin host" (paper §3). The
//! [`RouteTable`] here provides that base forwarding behaviour; the
//! `hydranet-redirect` crate layers redirection on top of it.

use crate::hash::IntMap;
use crate::node::{Context, IfaceId, Node};
use crate::packet::{IpAddr, IpPacket, Protocol};

/// A destination prefix: address plus mask length in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    addr: IpAddr,
    len: u8,
}

impl Prefix {
    /// Creates a prefix; the address is masked down to `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: IpAddr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix {
            addr: IpAddr::from_bits(addr.to_bits() & Self::mask(len)),
            len,
        }
    }

    /// The all-addresses default prefix `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix {
        addr: IpAddr::UNSPECIFIED,
        len: 0,
    };

    /// A host route (`/32`) for one address.
    pub fn host(addr: IpAddr) -> Self {
        Prefix::new(addr, 32)
    }

    /// Whether `addr` falls within this prefix.
    pub fn contains(&self, addr: IpAddr) -> bool {
        (addr.to_bits() & Self::mask(self.len)) == self.addr.to_bits()
    }

    /// The prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length default prefix.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// A longest-prefix-match forwarding table mapping prefixes to egress
/// interfaces.
///
/// # Examples
///
/// ```
/// use hydranet_netsim::routing::{Prefix, RouteTable};
/// use hydranet_netsim::packet::IpAddr;
/// use hydranet_netsim::node::IfaceId;
///
/// let mut rt = RouteTable::new();
/// rt.add(Prefix::new(IpAddr::new(10, 0, 0, 0), 8), IfaceId::from_index(0));
/// rt.add(Prefix::new(IpAddr::new(10, 9, 0, 0), 16), IfaceId::from_index(1));
/// assert_eq!(rt.lookup(IpAddr::new(10, 9, 1, 1)), Some(IfaceId::from_index(1)));
/// assert_eq!(rt.lookup(IpAddr::new(10, 1, 1, 1)), Some(IfaceId::from_index(0)));
/// assert_eq!(rt.lookup(IpAddr::new(11, 0, 0, 1)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    /// Kept sorted by descending prefix length so the first match wins.
    routes: Vec<(Prefix, IfaceId)>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Adds a route. A route for an identical prefix is replaced.
    pub fn add(&mut self, prefix: Prefix, iface: IfaceId) {
        if let Some(entry) = self.routes.iter_mut().find(|(p, _)| *p == prefix) {
            entry.1 = iface;
            return;
        }
        let pos = self
            .routes
            .partition_point(|(p, _)| p.len() >= prefix.len());
        self.routes.insert(pos, (prefix, iface));
    }

    /// Removes the route for exactly `prefix`, returning its interface.
    pub fn remove(&mut self, prefix: Prefix) -> Option<IfaceId> {
        let pos = self.routes.iter().position(|(p, _)| *p == prefix)?;
        Some(self.routes.remove(pos).1)
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: IpAddr) -> Option<IfaceId> {
        self.routes
            .iter()
            .find(|(p, _)| p.contains(addr))
            .map(|&(_, iface)| iface)
    }

    /// Number of routes installed.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table has no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterates over `(prefix, iface)` entries, most-specific first.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, IfaceId)> + '_ {
        self.routes.iter().copied()
    }

    /// Rewrites every route whose egress is in `group` to egress `to`,
    /// returning how many routes moved. This is the anycast flip: the
    /// interfaces in `group` all lead to equivalent redirectors, and a
    /// [`route announcement`](encode_route_announce) from the survivor
    /// retargets the whole group at once.
    pub fn retarget(&mut self, group: &[IfaceId], to: IfaceId) -> usize {
        let mut moved = 0;
        for (_, iface) in &mut self.routes {
            if *iface != to && group.contains(iface) {
                *iface = to;
                moved += 1;
            }
        }
        moved
    }
}

/// Encodes a [`Protocol::ROUTE_ANNOUNCE`] payload: the announcing
/// redirector's address plus a monotonically increasing sequence number.
pub fn encode_route_announce(origin: IpAddr, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&origin.octets());
    out.extend_from_slice(&seq.to_be_bytes());
    out
}

/// Decodes a [`Protocol::ROUTE_ANNOUNCE`] payload; `None` if malformed.
pub fn decode_route_announce(payload: &[u8]) -> Option<(IpAddr, u64)> {
    let octets: [u8; 4] = payload.get(..4)?.try_into().ok()?;
    let seq = u64::from_be_bytes(payload.get(4..12)?.try_into().ok()?);
    Some((IpAddr::from(octets), seq))
}

/// A plain IP router: decrements TTL and forwards by longest prefix match.
///
/// Packets with no matching route, or whose TTL expires, are dropped (the
/// drop count is observable via [`RouterNode::dropped`]).
#[derive(Debug)]
pub struct RouterNode {
    routes: RouteTable,
    name: String,
    forwarded: u64,
    dropped: u64,
    /// Interfaces leading to interchangeable (anycast) redirectors; a route
    /// announcement arriving on one of them retargets the whole group.
    anycast_group: Vec<IfaceId>,
    /// Highest announcement sequence seen per origin, for dedup.
    announce_seen: IntMap<IpAddr, u64>,
    flips: u64,
}

impl RouterNode {
    /// Creates a router with an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        RouterNode {
            routes: RouteTable::new(),
            name: name.into(),
            forwarded: 0,
            dropped: 0,
            anycast_group: Vec::new(),
            announce_seen: IntMap::default(),
            flips: 0,
        }
    }

    /// Declares `ifaces` an anycast group: they lead to interchangeable
    /// redirectors, and a fresher route announcement arriving on one of them
    /// moves every route currently egressing via the group onto that
    /// interface.
    pub fn set_anycast_group(&mut self, ifaces: Vec<IfaceId>) {
        self.anycast_group = ifaces;
    }

    /// Times this router flipped its anycast group to a new survivor.
    pub fn anycast_flips(&self) -> u64 {
        self.flips
    }

    /// The routing table.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// The routing table, mutable (for configuration).
    pub fn routes_mut(&mut self) -> &mut RouteTable {
        &mut self.routes
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets dropped (no route or TTL expiry) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Node for RouterNode {
    fn on_packet(&mut self, ctx: &mut Context<'_>, iface: IfaceId, mut packet: IpPacket) {
        if packet.protocol() == Protocol::ROUTE_ANNOUNCE {
            let Some((origin, seq)) = decode_route_announce(&packet.payload) else {
                self.dropped += 1;
                return;
            };
            let last = self.announce_seen.get(&origin).copied();
            if last.is_some_and(|l| seq <= l) {
                return; // stale or duplicate announcement
            }
            self.announce_seen.insert(origin, seq);
            if self.anycast_group.contains(&iface)
                && self.routes.retarget(&self.anycast_group, iface) > 0
            {
                self.flips += 1;
            }
            return;
        }
        if packet.header.ttl <= 1 {
            self.dropped += 1;
            return;
        }
        packet.header.ttl -= 1;
        match self.routes.lookup(packet.dst()) {
            Some(egress) => {
                self.forwarded += 1;
                ctx.send(egress, packet);
            }
            None => self.dropped += 1,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::node::NodeParams;
    use crate::packet::Protocol;
    use crate::topology::TopologyBuilder;

    #[test]
    fn prefix_contains() {
        let p = Prefix::new(IpAddr::new(192, 168, 4, 0), 24);
        assert!(p.contains(IpAddr::new(192, 168, 4, 200)));
        assert!(!p.contains(IpAddr::new(192, 168, 5, 1)));
        assert!(Prefix::DEFAULT.contains(IpAddr::new(1, 2, 3, 4)));
        assert!(Prefix::host(IpAddr::new(9, 9, 9, 9)).contains(IpAddr::new(9, 9, 9, 9)));
        assert!(!Prefix::host(IpAddr::new(9, 9, 9, 9)).contains(IpAddr::new(9, 9, 9, 8)));
    }

    #[test]
    fn prefix_masks_address() {
        let p = Prefix::new(IpAddr::new(10, 1, 2, 3), 8);
        assert_eq!(p.to_string(), "10.0.0.0/8");
        assert_eq!(p.len(), 8);
    }

    #[test]
    #[should_panic(expected = "> 32")]
    fn prefix_rejects_long_mask() {
        Prefix::new(IpAddr::UNSPECIFIED, 33);
    }

    #[test]
    fn longest_prefix_wins_regardless_of_insertion_order() {
        let mut rt = RouteTable::new();
        rt.add(
            Prefix::new(IpAddr::new(10, 9, 0, 0), 16),
            IfaceId::from_index(1),
        );
        rt.add(Prefix::DEFAULT, IfaceId::from_index(9));
        rt.add(
            Prefix::new(IpAddr::new(10, 0, 0, 0), 8),
            IfaceId::from_index(0),
        );
        rt.add(
            Prefix::host(IpAddr::new(10, 9, 9, 9)),
            IfaceId::from_index(2),
        );
        assert_eq!(
            rt.lookup(IpAddr::new(10, 9, 9, 9)),
            Some(IfaceId::from_index(2))
        );
        assert_eq!(
            rt.lookup(IpAddr::new(10, 9, 1, 1)),
            Some(IfaceId::from_index(1))
        );
        assert_eq!(
            rt.lookup(IpAddr::new(10, 8, 1, 1)),
            Some(IfaceId::from_index(0))
        );
        assert_eq!(
            rt.lookup(IpAddr::new(172, 16, 0, 1)),
            Some(IfaceId::from_index(9))
        );
    }

    #[test]
    fn add_replaces_same_prefix() {
        let mut rt = RouteTable::new();
        let p = Prefix::new(IpAddr::new(10, 0, 0, 0), 8);
        rt.add(p, IfaceId::from_index(0));
        rt.add(p, IfaceId::from_index(5));
        assert_eq!(rt.len(), 1);
        assert_eq!(
            rt.lookup(IpAddr::new(10, 1, 1, 1)),
            Some(IfaceId::from_index(5))
        );
    }

    #[test]
    fn remove_route() {
        let mut rt = RouteTable::new();
        let p = Prefix::host(IpAddr::new(1, 1, 1, 1));
        rt.add(p, IfaceId::from_index(3));
        assert_eq!(rt.remove(p), Some(IfaceId::from_index(3)));
        assert_eq!(rt.remove(p), None);
        assert!(rt.is_empty());
    }

    #[test]
    fn route_announce_roundtrip_and_garbage() {
        let origin = IpAddr::new(10, 9, 0, 2);
        let enc = encode_route_announce(origin, 7);
        assert_eq!(decode_route_announce(&enc), Some((origin, 7)));
        assert_eq!(decode_route_announce(&enc[..5]), None);
        assert_eq!(decode_route_announce(&[]), None);
    }

    #[test]
    fn retarget_moves_only_group_routes() {
        let mut rt = RouteTable::new();
        let a = IfaceId::from_index(1);
        let b = IfaceId::from_index(2);
        let other = IfaceId::from_index(3);
        rt.add(Prefix::new(IpAddr::new(10, 0, 0, 0), 8), a);
        rt.add(Prefix::host(IpAddr::new(10, 9, 0, 9)), a);
        rt.add(Prefix::new(IpAddr::new(192, 0, 0, 0), 8), other);
        assert_eq!(rt.retarget(&[a, b], b), 2);
        assert_eq!(rt.lookup(IpAddr::new(10, 9, 0, 9)), Some(b));
        assert_eq!(rt.lookup(IpAddr::new(10, 1, 1, 1)), Some(b));
        assert_eq!(rt.lookup(IpAddr::new(192, 1, 1, 1)), Some(other));
        // Already on the survivor: nothing to move.
        assert_eq!(rt.retarget(&[a, b], b), 0);
    }

    #[test]
    fn announcement_flips_anycast_group_once_per_seq() {
        let mut r = RouterNode::new("r");
        let via_a = IfaceId::from_index(0);
        let via_b = IfaceId::from_index(1);
        r.routes_mut()
            .add(Prefix::host(IpAddr::new(10, 9, 0, 9)), via_a);
        r.set_anycast_group(vec![via_a, via_b]);

        let origin = IpAddr::new(10, 9, 0, 2);
        let announce = |seq| {
            IpPacket::new(
                origin,
                IpAddr::new(255, 255, 255, 255),
                Protocol::ROUTE_ANNOUNCE,
                encode_route_announce(origin, seq),
            )
        };

        let mut t = TopologyBuilder::new();
        let id = t.add_node(r, NodeParams::INSTANT);
        let peer = t.add_node(RouterNode::new("peer"), NodeParams::INSTANT);
        let peer2 = t.add_node(RouterNode::new("peer2"), NodeParams::INSTANT);
        t.connect(id, peer, LinkParams::default());
        t.connect(id, peer2, LinkParams::default());
        let mut sim = t.into_simulator(3);
        sim.with_node_ctx::<RouterNode, _>(id, |r, ctx| {
            let _ = ctx;
            r.on_packet(ctx, via_b, announce(1));
            // Duplicate seq: ignored.
            r.on_packet(ctx, via_b, announce(1));
            // Stale seq after a newer one: ignored.
            r.on_packet(ctx, via_a, announce(0));
        });
        let r = sim.node::<RouterNode>(id);
        assert_eq!(r.routes().lookup(IpAddr::new(10, 9, 0, 9)), Some(via_b));
        assert_eq!(r.anycast_flips(), 1);
    }

    /// A terminal host that counts what reaches it.
    struct Sink {
        addr: IpAddr,
        received: u64,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, p: IpPacket) {
            if p.dst() == self.addr {
                self.received += 1;
            }
        }
    }

    #[test]
    fn router_forwards_between_hosts() {
        let src_addr = IpAddr::new(10, 0, 1, 1);
        let dst_addr = IpAddr::new(10, 0, 2, 1);
        let mut t = TopologyBuilder::new();
        let sender = t.add_node(
            Sink {
                addr: src_addr,
                received: 0,
            },
            NodeParams::INSTANT,
        );
        let router = t.add_node(RouterNode::new("r1"), NodeParams::INSTANT);
        let receiver = t.add_node(
            Sink {
                addr: dst_addr,
                received: 0,
            },
            NodeParams::INSTANT,
        );
        let (_, _, r_if_sender) = t.connect(sender, router, LinkParams::default());
        let (_, r_if_receiver, _) = t.connect(router, receiver, LinkParams::default());
        let _ = r_if_sender;
        t.node_mut::<RouterNode>(router)
            .routes_mut()
            .add(Prefix::new(IpAddr::new(10, 0, 2, 0), 24), r_if_receiver);
        let mut sim = t.into_simulator(3);
        sim.with_node_ctx::<Sink, _>(sender, |_, ctx| {
            ctx.send(
                IfaceId::from_index(0),
                IpPacket::new(src_addr, dst_addr, Protocol::UDP, vec![1, 2, 3]),
            );
        });
        sim.run_until_idle();
        assert_eq!(sim.node::<Sink>(receiver).received, 1);
        assert_eq!(sim.node::<RouterNode>(router).forwarded(), 1);
    }

    #[test]
    fn router_drops_on_no_route_and_ttl() {
        let mut t = TopologyBuilder::new();
        let sender = t.add_node(
            Sink {
                addr: IpAddr::new(1, 1, 1, 1),
                received: 0,
            },
            NodeParams::INSTANT,
        );
        let router = t.add_node(RouterNode::new("r"), NodeParams::INSTANT);
        t.connect(sender, router, LinkParams::default());
        let mut sim = t.into_simulator(3);
        sim.with_node_ctx::<Sink, _>(sender, |_, ctx| {
            // No route for this destination.
            ctx.send(
                IfaceId::from_index(0),
                IpPacket::new(
                    IpAddr::new(1, 1, 1, 1),
                    IpAddr::new(2, 2, 2, 2),
                    Protocol::UDP,
                    vec![],
                ),
            );
            // TTL expired.
            let mut p = IpPacket::new(
                IpAddr::new(1, 1, 1, 1),
                IpAddr::new(2, 2, 2, 2),
                Protocol::UDP,
                vec![],
            );
            p.header.ttl = 1;
            ctx.send(IfaceId::from_index(0), p);
        });
        sim.run_until_idle();
        assert_eq!(sim.node::<RouterNode>(router).dropped(), 2);
    }
}
