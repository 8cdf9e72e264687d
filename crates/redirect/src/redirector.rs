//! The redirector engine: detect requests for replicated services and
//! direct them to the appropriate host server(s).
//!
//! "When a redirector receives an IP packet, it checks the destination IP
//! address and port in the header against the entries in the redirector
//! table. If it finds a match, it forwards the packet to the appropriate
//! server host. If there is no match, the packet is simply forwarded to the
//! origin host" (§3). In fault-tolerant mode the packet "is encapsulated
//! and tunnelled to the appropriate hosts, with one copy going to the
//! primary server and one copy to each backup server" (§4.2).

use hydranet_netsim::frag::Reassembler;
use hydranet_netsim::hash::IntMap;
use hydranet_netsim::node::IfaceId;
use hydranet_netsim::packet::{IpAddr, IpPacket, Protocol};
use hydranet_netsim::routing::RouteTable;
use hydranet_netsim::time::SimTime;
use hydranet_obs::metrics::Counter;
use hydranet_obs::{trace, Obs};
use hydranet_tcp::segment::SockAddr;

use crate::table::{RedirectorTable, ServiceEntry};
use crate::tunnel::encapsulate_buf;

/// Counters kept by a redirector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedirectorStats {
    /// Packets that matched the redirector table.
    pub redirected: u64,
    /// Tunnelled copies emitted (≥ `redirected`; one per chain member).
    pub copies: u64,
    /// Packets forwarded by ordinary routing (no table match).
    pub forwarded: u64,
    /// Packets dropped for lack of a route.
    pub dropped_no_route: u64,
    /// Packets dropped on TTL expiry.
    pub dropped_ttl: u64,
    /// Packets addressed to the redirector itself (management traffic).
    pub local: u64,
    /// Bare SYNs to fault-tolerant services dropped during a post-promotion
    /// admission grace (the client retransmits; see
    /// [`RedirectorEngine::defer_new_flows_until`]).
    pub syn_deferred: u64,
}

/// A table entry resolved against the routing table — the once-per-
/// (service, generation) work every flow of the service shares.
#[derive(Debug)]
struct ResolvedService {
    /// Fault-tolerant entry: the fan-out is a multicast, traced as a span.
    ft: bool,
    /// Replicas with no route at resolution time, charged to
    /// `dropped_no_route` per packet.
    unroutable: u32,
    /// `(egress, host)` per routed target, in delivery order.
    routed: Vec<(IfaceId, IpAddr)>,
}

/// What [`RedirectorEngine::process`] decided about a packet.
#[derive(Debug)]
pub enum Disposition {
    /// The packet was redirected, forwarded, or dropped; outputs (if any)
    /// were pushed to the caller's buffer.
    Handled,
    /// The packet is addressed to the redirector itself (management
    /// traffic); the caller owns delivering it up its own stack.
    Local(IpPacket),
}

/// Sans-I/O redirector logic: routing plus redirection. `hydranet-core`'s
/// managed redirector embeds it in a node.
#[derive(Debug)]
pub struct RedirectorEngine {
    addr: IpAddr,
    /// Shared virtual address of a redirector pair: packets addressed to it
    /// are local to whichever pair member currently receives them.
    virtual_addr: Option<IpAddr>,
    routes: RouteTable,
    table: RedirectorTable,
    stats: RedirectorStats,
    /// TCP packets can arrive fragmented (e.g. oversized writes); the port
    /// lives only in the first fragment, so redirection operates on
    /// reassembled packets — the redirector is a middlebox with
    /// per-datagram reassembly state, like any port-matching router.
    reassembler: Reassembler,
    /// The one lookup cache: table entries resolved against the routes,
    /// keyed by packed service access point ([`sap_key`]). Only a table
    /// match inserts, so the map holds at most one entry per table entry
    /// whatever the traffic; the redirector keeps no per-flow state.
    services: IntMap<u64, ResolvedService>,
    /// The [`RedirectorTable::generation`] `services` was filled under —
    /// the single invalidation stamp. A packet arriving under any other
    /// generation empties it first.
    cache_gen: u64,
    /// One of the two counts per redirected packet: a hit found the
    /// service's targets already in `services`; a miss ran the routing
    /// lookups.
    c_target_hits: Counter,
    c_target_misses: Counter,
    /// Telemetry handle kept for causal fan-out spans; the default
    /// (disabled) handle makes every span site a no-op flag check.
    obs: Obs,
    /// Until this instant, bare SYNs to fault-tolerant services are dropped
    /// (`None` = no gate). Set for a grace window after a pair promotion so
    /// registrations that were blackholed during the outage — and are still
    /// retransmitting on the mgmt reliable cadence — re-land and complete
    /// the chain before any brand-new connection is admitted.
    admit_new_flows_after: Option<SimTime>,
}

impl RedirectorEngine {
    /// Creates an engine for a redirector whose own address is `addr`.
    pub fn new(addr: IpAddr) -> Self {
        RedirectorEngine {
            addr,
            virtual_addr: None,
            routes: RouteTable::new(),
            table: RedirectorTable::new(),
            stats: RedirectorStats::default(),
            reassembler: Reassembler::new(),
            services: IntMap::default(),
            cache_gen: 0,
            c_target_hits: Counter::default(),
            c_target_misses: Counter::default(),
            obs: Obs::default(),
            admit_new_flows_after: None,
        }
    }

    /// Wires the target-cache counters under `redirect.table.<addr>.*`
    /// and the fan-out spans. Every other count is in
    /// [`stats`](Self::stats).
    pub fn set_obs(&mut self, obs: &Obs) {
        // Published under the table's scope, where they were first
        // counted: readers know them by these names.
        let scope = format!("redirect.table.{}", self.addr);
        self.c_target_hits = obs.counter(&format!("{scope}.target_cache_hits"));
        self.c_target_misses = obs.counter(&format!("{scope}.target_cache_misses"));
        self.obs = obs.clone();
    }

    /// The redirector's own address.
    pub fn addr(&self) -> IpAddr {
        self.addr
    }

    /// Declares the pair's shared virtual address: packets addressed to it
    /// are treated as local, exactly like the engine's own address.
    pub fn set_virtual_addr(&mut self, vip: IpAddr) {
        self.virtual_addr = Some(vip);
    }

    /// The pair's shared virtual address, if configured.
    pub fn virtual_addr(&self) -> Option<IpAddr> {
        self.virtual_addr
    }

    /// Defers *new* fault-tolerant flows (bare SYNs) until `t`: established
    /// flows keep flowing, but connection opens are dropped so the client's
    /// SYN retransmit finds the chain at full strength. A freshly promoted
    /// pair member calls this, because registrations blackholed while the
    /// route still pointed at the dead ex-active retransmit on the mgmt
    /// reliable cadence — without the grace, a SYN retransmit that lands
    /// just after the route flip races those registrations and the service
    /// serves a silently degraded chain.
    pub fn defer_new_flows_until(&mut self, t: SimTime) {
        self.admit_new_flows_after = Some(t);
    }

    /// The plain routing table (egress interface by destination prefix).
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// The routing table, mutable. Conservatively moves the table
    /// generation: a route change can change which replicas are routable,
    /// and the borrow rules guarantee any mutation through the returned
    /// reference completes before the next packet is processed.
    pub fn routes_mut(&mut self) -> &mut RouteTable {
        self.table.invalidate();
        &mut self.routes
    }

    /// The redirector table.
    pub fn table(&self) -> &RedirectorTable {
        &self.table
    }

    /// The redirector table, mutable (installed/reconfigured by the replica
    /// management protocol).
    pub fn table_mut(&mut self) -> &mut RedirectorTable {
        &mut self.table
    }

    /// Counters.
    pub fn stats(&self) -> &RedirectorStats {
        &self.stats
    }

    /// Routes a packet originated *by* the redirector (management replies):
    /// looks up the egress interface for its destination.
    pub fn route_own(&mut self, packet: IpPacket, out: &mut Vec<(IfaceId, IpPacket)>) {
        match self.routes.lookup(packet.dst()) {
            Some(iface) => out.push((iface, packet)),
            None => self.stats.dropped_no_route += 1,
        }
    }

    /// Processes one incoming packet, pushing any transmissions into `out`.
    pub fn process(
        &mut self,
        packet: IpPacket,
        now: SimTime,
        out: &mut Vec<(IfaceId, IpPacket)>,
    ) -> Disposition {
        if packet.dst() == self.addr || self.virtual_addr == Some(packet.dst()) {
            self.stats.local += 1;
            return Disposition::Local(packet);
        }
        let mut packet = packet;
        if packet.header.ttl <= 1 {
            self.stats.dropped_ttl += 1;
            return Disposition::Handled;
        }
        packet.header.ttl -= 1;

        if packet.protocol() == Protocol::TCP {
            // Redirection matches on the TCP destination port, which for a
            // fragmented packet is only present once reassembled.
            let whole = if packet.header.frag.is_fragment() {
                match self.reassembler.push(now, packet) {
                    Some(w) => w,
                    None => return Disposition::Handled, // awaiting fragments
                }
            } else {
                packet
            };
            self.process_tcp(whole, now, out);
        } else {
            self.forward_plain(packet, out);
        }
        Disposition::Handled
    }

    /// [`process`](Self::process) per packet in order, with packets
    /// addressed to the redirector itself handed to `local`. Nothing in
    /// the workspace calls it: the simulator dispatches one packet at a
    /// time. Signature and body are kept only because the frozen
    /// `benchmark/` ladder times it; goes away in the next PR that may
    /// edit `benchmark/`.
    pub fn process_batch(
        &mut self,
        packets: &mut Vec<IpPacket>,
        now: SimTime,
        out: &mut Vec<(IfaceId, IpPacket)>,
        mut local: impl FnMut(IpPacket),
    ) {
        for packet in packets.drain(..) {
            if let Disposition::Local(p) = self.process(packet, now, out) {
                local(p);
            }
        }
    }

    /// The TCP redirection path over a whole (reassembled) packet: tunnel
    /// to the service's resolved targets, resolving them on a miss, or
    /// route the packet plainly if the table has no entry for it.
    fn process_tcp(&mut self, whole: IpPacket, now: SimTime, out: &mut Vec<(IfaceId, IpPacket)>) {
        let Some(port) = peek_tcp_dst_port(&whole.payload) else {
            // Too short to carry ports: routed like any non-TCP packet.
            return self.forward_plain(whole, out);
        };
        if self.cache_gen != self.table.generation() {
            self.cache_gen = self.table.generation();
            self.services.clear();
        }
        let sap = SockAddr::new(whole.dst(), port);
        if self.defers_syn(sap, &whole, now) {
            self.stats.syn_deferred += 1;
            return;
        }
        let key = sap_key(sap);
        let Err(whole) = self.tunnel(sap, key, whole, now, out) else {
            return self.c_target_hits.inc();
        };
        let Some(service) = self.resolve(sap) else {
            return self.forward_plain(whole, out);
        };
        self.c_target_misses.inc();
        self.services.insert(key, service);
        let tunnelled = self.tunnel(sap, key, whole, now, out);
        debug_assert!(tunnelled.is_ok(), "{sap} was just inserted");
    }

    /// The §4.2-promotion admission gate: a bare SYN (SYN set, ACK clear)
    /// to a fault-tolerant service inside the grace window. Checked before
    /// the service map, so a deferred SYN warms nothing and counts nowhere
    /// else.
    fn defers_syn(&self, sap: SockAddr, whole: &IpPacket, now: SimTime) -> bool {
        self.admit_new_flows_after.is_some_and(|t| now < t)
            && peek_tcp_flags(&whole.payload)
                .is_some_and(|f| f & 0x03 == 0x01 /* SYN, not SYN|ACK */)
            && matches!(
                self.table.lookup(sap),
                Some(ServiceEntry::FaultTolerant { .. })
            )
    }

    /// The service-map miss path: a table entry's targets resolved
    /// against the routing table, or `None` if the table has no entry for
    /// `sap`.
    fn resolve(&self, sap: SockAddr) -> Option<ResolvedService> {
        let route = |host| self.routes.lookup(host).map(|iface| (iface, host));
        Some(match self.table.lookup(sap)? {
            // Nearest routable replica; the first of equals wins.
            ServiceEntry::Scaled { replicas } => {
                let nearest = replicas
                    .iter()
                    .filter_map(|r| Some((r.metric, route(r.host)?)))
                    .min_by_key(|&(metric, _)| metric);
                ResolvedService {
                    ft: false,
                    unroutable: u32::from(nearest.is_none() && !replicas.is_empty()),
                    routed: nearest.into_iter().map(|(_, target)| target).collect(),
                }
            }
            ServiceEntry::FaultTolerant { chain } => {
                let routed: Vec<_> = chain.iter().filter_map(|&host| route(host)).collect();
                ResolvedService {
                    ft: true,
                    unroutable: (chain.len() - routed.len()) as u32,
                    routed,
                }
            }
        })
    }

    /// Tunnels one packet to the targets resolved under `key` in
    /// `services`, or hands the packet back if `services` has no entry
    /// there — the map's one probe per packet. Encodes the inner packet
    /// ONCE, in place: [`IpPacket::into_encoded`] writes the inner IP
    /// header into the headroom the client's stack left in front of its
    /// segment, so a uniquely held segment is encoded with no allocation
    /// and no copy (a shared one, e.g. a link's duplicate, is copied once).
    /// Each tunnelled copy is an O(1) handle onto those bytes, and the last
    /// routable target takes the buffer by move.
    fn tunnel(
        &mut self,
        sap: SockAddr,
        key: u64,
        whole: IpPacket,
        now: SimTime,
        out: &mut Vec<(IfaceId, IpPacket)>,
    ) -> Result<(), IpPacket> {
        let Some(&ResolvedService {
            ft,
            unroutable,
            ref routed,
        }) = self.services.get(&key)
        else {
            return Err(whole);
        };
        self.stats.redirected += 1;
        self.stats.dropped_no_route += u64::from(unroutable);
        let Some((&(last_iface, last_host), rest)) = routed.split_last() else {
            return Ok(());
        };
        self.stats.copies += routed.len() as u64;
        let inner_id = whole.header.id;
        let encoded = whole.into_encoded();
        if ft && self.obs.tracing_enabled() {
            // The instantaneous multicast fan-out span: which routable
            // chain members received a tunnelled copy, and the lineage id
            // of the shared inner bytes — the causal link from "the
            // redirector multicast this" back to "this is the client
            // segment it carried".
            let fields = std::iter::once(("redirect", format!("fanout {sap}")))
                .chain(routed.iter().map(|(_, host)| ("member", host.to_string())))
                .chain([("lineage", format!("{:#x}", encoded.lineage()))]);
            self.obs.trace(now.as_nanos(), trace::INSTANT, 0, fields);
        }
        for &(iface, host) in rest {
            out.push((
                iface,
                encapsulate_buf(encoded.clone(), inner_id, self.addr, host),
            ));
        }
        out.push((
            last_iface,
            encapsulate_buf(encoded, inner_id, self.addr, last_host),
        ));
        Ok(())
    }

    /// Plain routed forward for packets redirection has no opinion about.
    fn forward_plain(&mut self, packet: IpPacket, out: &mut Vec<(IfaceId, IpPacket)>) {
        match self.routes.lookup(packet.dst()) {
            Some(iface) => {
                self.stats.forwarded += 1;
                out.push((iface, packet));
            }
            None => self.stats.dropped_no_route += 1,
        }
    }
}

/// A service access point packed into one word, `addr << 16 | port`: the
/// key of [`RedirectorEngine`]'s service map.
fn sap_key(sap: SockAddr) -> u64 {
    u64::from(sap.addr.to_bits()) << 16 | u64::from(sap.port)
}

/// Reads the TCP destination port from an (unfragmented) TCP payload.
pub fn peek_tcp_dst_port(payload: &[u8]) -> Option<u16> {
    if payload.len() < 4 {
        return None;
    }
    Some(u16::from_be_bytes([payload[2], payload[3]]))
}

/// Reads the flags byte out of an (unparsed) TCP segment (the simulator's
/// compact header: `src_port (2) | dst_port (2) | seq (4) | ack (4) |
/// flags (1) | …`; bit 0 = SYN, bit 1 = ACK).
pub fn peek_tcp_flags(payload: &[u8]) -> Option<u8> {
    payload.get(12).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ServiceEntry;
    use hydranet_netsim::routing::Prefix;
    use hydranet_tcp::segment::{TcpFlags, TcpSegment};
    use hydranet_tcp::seq::SeqNum;

    const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
    const SERVICE: IpAddr = IpAddr::new(192, 20, 225, 20);
    const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
    const H1: IpAddr = IpAddr::new(10, 0, 2, 1);
    const H2: IpAddr = IpAddr::new(10, 0, 3, 1);

    fn tcp_packet(dst_port: u16, payload_len: usize) -> IpPacket {
        flow_packet(CLIENT, 40_000, dst_port, payload_len)
    }

    fn flow_packet(src: IpAddr, src_port: u16, dst_port: u16, payload_len: usize) -> IpPacket {
        let seg = TcpSegment {
            src_port,
            dst_port,
            seq: SeqNum::new(1),
            ack: SeqNum::new(0),
            flags: TcpFlags::ACK,
            window: 1000,
            payload: vec![9; payload_len].into(),
        };
        IpPacket::new(src, SERVICE, Protocol::TCP, seg.encode())
    }

    fn engine() -> RedirectorEngine {
        let mut e = RedirectorEngine::new(RD);
        e.routes_mut().add(
            Prefix::new(IpAddr::new(10, 0, 1, 0), 24),
            IfaceId::from_index(0),
        );
        e.routes_mut().add(
            Prefix::new(IpAddr::new(10, 0, 2, 0), 24),
            IfaceId::from_index(1),
        );
        e.routes_mut().add(
            Prefix::new(IpAddr::new(10, 0, 3, 0), 24),
            IfaceId::from_index(2),
        );
        e.routes_mut()
            .add(Prefix::host(SERVICE), IfaceId::from_index(3));
        e
    }

    #[test]
    fn ft_match_multicasts_tunnelled_copies() {
        let mut e = engine();
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::FaultTolerant {
                chain: vec![H1, H2],
            },
        );
        let mut out = Vec::new();
        let d = e.process(tcp_packet(80, 100), SimTime::ZERO, &mut out);
        assert!(matches!(d, Disposition::Handled));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, IfaceId::from_index(1));
        assert_eq!(out[1].0, IfaceId::from_index(2));
        for (_, p) in &out {
            assert_eq!(p.protocol(), Protocol::IP_IN_IP);
            let inner = crate::tunnel::decapsulate(p).unwrap();
            assert_eq!(inner.dst(), SERVICE);
        }
        // Zero-copy proof: every chain member's tunnel payload is a handle
        // onto the SAME encoded bytes — the inner packet was encoded once.
        assert!(hydranet_netsim::buf::PacketBuf::same_backing(
            &out[0].1.payload,
            &out[1].1.payload
        ));
        assert_eq!(e.stats().redirected, 1);
        assert_eq!(e.stats().copies, 2);
    }

    #[test]
    fn ft_fanout_emits_lineage_linked_span() {
        let obs = Obs::enabled();
        obs.enable_tracing(64);
        let mut e = engine();
        e.set_obs(&obs);
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::FaultTolerant {
                chain: vec![H1, H2],
            },
        );
        let mut p = tcp_packet(80, 100);
        p.payload.set_lineage(0x77);
        let mut out = Vec::new();
        e.process(p, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 2);
        // The tunnelled copies carry the inner packet's lineage tag.
        for (_, copy) in &out {
            assert_eq!(copy.payload.lineage(), 0x77);
        }
        let dump = obs.flight_recorder_json(&[]);
        for needle in ["fanout", "10.0.2.1", "10.0.3.1", "0x77"] {
            assert!(dump.contains(needle), "missing {needle} in {dump}");
        }
        assert_eq!(obs.spans_opened(), 1);
    }

    #[test]
    fn admission_grace_defers_bare_syns_but_not_established_flows() {
        let mut e = engine();
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::FaultTolerant {
                chain: vec![H1, H2],
            },
        );
        e.defer_new_flows_until(SimTime::from_millis(300));

        let syn = |at: SimTime, e: &mut RedirectorEngine, out: &mut Vec<_>| {
            let seg = TcpSegment {
                src_port: 40_000,
                dst_port: 80,
                seq: SeqNum::new(1),
                ack: SeqNum::new(0),
                flags: TcpFlags::SYN,
                window: 1000,
                payload: Vec::new().into(),
            };
            e.process(
                IpPacket::new(CLIENT, SERVICE, Protocol::TCP, seg.encode()),
                at,
                out,
            )
        };

        // Inside the grace: the connection open is dropped, silently — the
        // client's SYN retransmit will retry after the gate…
        let mut out = Vec::new();
        syn(SimTime::from_millis(100), &mut e, &mut out);
        assert!(out.is_empty());
        assert_eq!(e.stats().syn_deferred, 1);
        assert_eq!(e.stats().redirected, 0);

        // …while segments of established flows (ACK set) keep fanning out.
        e.process(tcp_packet(80, 100), SimTime::from_millis(100), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(e.stats().redirected, 1);

        // After the grace the SYN is admitted and multicast to the chain.
        out.clear();
        syn(SimTime::from_millis(300), &mut e, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(e.stats().syn_deferred, 1);
    }

    #[test]
    fn chain_reconfiguration_does_not_serve_stale_fanout() {
        let mut e = engine();
        let sap = SockAddr::new(SERVICE, 80);
        e.table_mut().install(
            sap,
            ServiceEntry::FaultTolerant {
                chain: vec![H1, H2],
            },
        );
        let mut out = Vec::new();
        e.process(tcp_packet(80, 100), SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 2);
        // Fail-over removes the primary: the memoized fan-out must follow.
        e.table_mut()
            .install(sap, ServiceEntry::FaultTolerant { chain: vec![H2] });
        out.clear();
        e.process(tcp_packet(80, 100), SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, IfaceId::from_index(2)); // H2 only
    }

    #[test]
    fn non_matching_port_forwards_to_origin() {
        // Figure 2: client B's telnet to the origin host is not rerouted.
        let mut e = engine();
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::FaultTolerant { chain: vec![H1] },
        );
        let mut out = Vec::new();
        e.process(tcp_packet(23, 10), SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, IfaceId::from_index(3)); // towards origin
        assert_eq!(out[0].1.protocol(), Protocol::TCP); // untouched
        assert_eq!(e.stats().forwarded, 1);
        assert_eq!(e.stats().redirected, 0);
        // An unmatched TCP packet with no route is a counted drop, one per
        // packet, exactly as for non-TCP traffic.
        let nowhere = IpAddr::new(172, 16, 0, 1);
        out.clear();
        for port in [80, 23] {
            let mut p = tcp_packet(port, 10);
            p.header.dst = nowhere;
            e.process(p, SimTime::ZERO, &mut out);
        }
        e.process(
            IpPacket::new(CLIENT, nowhere, Protocol::UDP, vec![1]),
            SimTime::ZERO,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(e.stats().dropped_no_route, 3);
        assert_eq!((e.stats().forwarded, e.stats().redirected), (1, 0));
    }

    #[test]
    fn scaled_entry_sends_single_copy_to_nearest() {
        let mut e = engine();
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::Scaled {
                replicas: vec![
                    crate::table::ReplicaLoc {
                        host: H1,
                        metric: 9,
                    },
                    crate::table::ReplicaLoc {
                        host: H2,
                        metric: 2,
                    },
                ],
            },
        );
        let mut out = Vec::new();
        e.process(tcp_packet(80, 0), SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, IfaceId::from_index(2)); // H2 is nearer
    }

    #[test]
    fn scaled_reinstall_does_not_serve_stale_cached_target() {
        let mut e = engine();
        let sap = SockAddr::new(SERVICE, 80);
        let replicas = |m1, m2| ServiceEntry::Scaled {
            replicas: vec![
                crate::table::ReplicaLoc {
                    host: H1,
                    metric: m1,
                },
                crate::table::ReplicaLoc {
                    host: H2,
                    metric: m2,
                },
            ],
        };
        e.table_mut().install(sap, replicas(1, 5));
        let mut out = Vec::new();
        e.process(tcp_packet(80, 0), SimTime::ZERO, &mut out);
        assert_eq!(out.last().unwrap().0, IfaceId::from_index(1)); // H1
                                                                   // Swap the metrics: the cached pick must be dropped with the entry.
        e.table_mut().install(sap, replicas(5, 1));
        e.process(tcp_packet(80, 0), SimTime::ZERO, &mut out);
        assert_eq!(out.last().unwrap().0, IfaceId::from_index(2)); // H2
    }

    #[test]
    fn route_change_does_not_serve_stale_cached_target() {
        let mut e = RedirectorEngine::new(RD);
        e.routes_mut().add(
            Prefix::new(IpAddr::new(10, 0, 2, 0), 24),
            IfaceId::from_index(1),
        );
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::Scaled {
                replicas: vec![
                    crate::table::ReplicaLoc {
                        host: H2,
                        metric: 1,
                    },
                    crate::table::ReplicaLoc {
                        host: H1,
                        metric: 9,
                    },
                ],
            },
        );
        // Nearest replica H2 is unroutable: fall back to H1 (and cache it).
        let mut out = Vec::new();
        e.process(tcp_packet(80, 0), SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, IfaceId::from_index(1));
        // Adding the missing route invalidates the memoized fallback.
        e.routes_mut().add(
            Prefix::new(IpAddr::new(10, 0, 3, 0), 24),
            IfaceId::from_index(2),
        );
        e.process(tcp_packet(80, 0), SimTime::ZERO, &mut out);
        assert_eq!(out.last().unwrap().0, IfaceId::from_index(2));
    }

    #[test]
    fn scaled_ties_go_to_the_first_and_no_routable_replica_is_a_counted_drop() {
        let loc = |host, metric| crate::table::ReplicaLoc { host, metric };
        let mut e = engine();
        let sap = SockAddr::new(SERVICE, 80);
        e.table_mut().install(
            sap,
            ServiceEntry::Scaled {
                replicas: vec![loc(H2, 4), loc(H1, 4)],
            },
        );
        let mut out = Vec::new();
        e.process(tcp_packet(80, 0), SimTime::ZERO, &mut out);
        assert_eq!(out[0].0, IfaceId::from_index(2)); // H2: first of equals
                                                      // Nothing routable: redirected nowhere, one drop per packet — the
                                                      // negative result is as cacheable as a target.
        let nowhere = IpAddr::new(172, 16, 0, 1);
        e.table_mut().install(
            sap,
            ServiceEntry::Scaled {
                replicas: vec![loc(nowhere, 1)],
            },
        );
        out.clear();
        e.process(tcp_packet(80, 0), SimTime::ZERO, &mut out);
        e.process(tcp_packet(80, 0), SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(e.stats().dropped_no_route, 2);
        assert_eq!(e.stats().redirected, 3);
        // An entry with no replicas at all has nothing to drop.
        e.table_mut()
            .install(sap, ServiceEntry::Scaled { replicas: vec![] });
        e.process(tcp_packet(80, 0), SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(e.stats().dropped_no_route, 2);
    }

    #[test]
    fn unroutable_chain_member_is_skipped_and_charged_per_packet() {
        let mut e = engine();
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::FaultTolerant {
                chain: vec![H1, IpAddr::new(172, 16, 0, 1), H2],
            },
        );
        let mut out = Vec::new();
        for _ in 0..3 {
            e.process(tcp_packet(80, 10), SimTime::ZERO, &mut out);
        }
        let egress: Vec<usize> = out.iter().map(|(iface, _)| iface.index()).collect();
        assert_eq!(egress, [1, 2, 1, 2, 1, 2], "chain order, routable only");
        assert_eq!(e.stats().copies, 6);
        assert_eq!(e.stats().dropped_no_route, 3);
    }

    #[test]
    fn a_service_resolves_once_per_generation_whatever_the_flow_count() {
        let obs = Obs::enabled();
        let mut e = engine();
        e.set_obs(&obs);
        let count = |name: &str| obs.counter(&format!("redirect.table.{RD}.{name}")).get();
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::FaultTolerant {
                chain: vec![H1, H2],
            },
        );
        let mut out = Vec::new();
        // 50 flows x 3 packets: one resolution (the miss), every other
        // packet served from the service's resolved targets.
        for _ in 0..3 {
            for port in 0..50 {
                e.process(
                    flow_packet(CLIENT, 40_000 + port, 80, 10),
                    SimTime::ZERO,
                    &mut out,
                );
            }
        }
        assert_eq!(out.len(), 300);
        assert_eq!(
            (count("target_cache_misses"), count("target_cache_hits")),
            (1, 149)
        );
        // 2^18 distinct flows from five clients: every packet still reaches
        // the whole chain, and the service map still holds the one entry
        // resolved by the one miss — nothing is kept per flow.
        let flows = 1u32 << 18;
        for i in 0..flows {
            let src = IpAddr::from_bits(CLIENT.to_bits() + i / 60_000);
            out.clear();
            e.process(
                flow_packet(src, (i % 60_000) as u16, 80, 0),
                SimTime::ZERO,
                &mut out,
            );
            let egress: Vec<usize> = out.iter().map(|(iface, _)| iface.index()).collect();
            assert_eq!(egress, [1, 2], "flow {i}");
        }
        assert_eq!(e.stats().redirected, 150 + u64::from(flows));
        assert_eq!(count("target_cache_misses"), 1);
        assert_eq!(e.services.len(), 1);
        // Unmatched packets are routed plainly: not target resolutions, and
        // the map does not grow.
        e.process(tcp_packet(23, 10), SimTime::ZERO, &mut out);
        e.process(tcp_packet(23, 10), SimTime::ZERO, &mut out);
        assert_eq!(e.stats().forwarded, 2);
        assert_eq!(
            count("target_cache_misses") + count("target_cache_hits"),
            150 + u64::from(flows)
        );
        assert_eq!(e.services.len(), 1);
        // Any table change is a new generation: everything re-resolves,
        // the untouched service included.
        e.table_mut().install(
            SockAddr::new(SERVICE, 443),
            ServiceEntry::FaultTolerant { chain: vec![H1] },
        );
        e.process(tcp_packet(80, 10), SimTime::ZERO, &mut out);
        assert_eq!(count("target_cache_misses"), 2);
    }

    #[test]
    fn local_packets_are_surfaced() {
        let mut e = engine();
        let p = IpPacket::new(CLIENT, RD, Protocol::UDP, vec![1, 2, 3]);
        let mut out = Vec::new();
        match e.process(p.clone(), SimTime::ZERO, &mut out) {
            Disposition::Local(got) => assert_eq!(got, p),
            other => panic!("expected Local, got {other:?}"),
        }
        assert!(out.is_empty());
        assert_eq!(e.stats().local, 1);
    }

    #[test]
    fn virtual_addr_packets_are_local_too() {
        let mut e = engine();
        let vip = IpAddr::new(10, 9, 0, 9);
        e.set_virtual_addr(vip);
        let p = IpPacket::new(CLIENT, vip, Protocol::UDP, vec![7]);
        let mut out = Vec::new();
        match e.process(p.clone(), SimTime::ZERO, &mut out) {
            Disposition::Local(got) => assert_eq!(got, p),
            other => panic!("expected Local, got {other:?}"),
        }
        assert_eq!(e.stats().local, 1);
        // Without the VIP configured the same packet is routed, not local.
        let mut plain = engine();
        plain
            .routes_mut()
            .add(Prefix::host(vip), IfaceId::from_index(0));
        match plain.process(p, SimTime::ZERO, &mut out) {
            Disposition::Handled => {}
            other => panic!("expected Handled, got {other:?}"),
        }
    }

    #[test]
    fn crash_mid_fragment_train_leaves_bounded_partial_state() {
        use hydranet_netsim::frag::{fragment_packet, Reassembler};
        use hydranet_netsim::time::SimDuration;

        // The redirector tunnels an oversized write to its chain member…
        let mut e = engine();
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::FaultTolerant { chain: vec![H1] },
        );
        let mut out = Vec::new();
        e.process(tcp_packet(80, 2000), SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        let tunnel = out[0].1.clone();
        // …which a small-MTU link splits into a fragment train.
        let frags: Vec<IpPacket> = fragment_packet(tunnel, 600).expect("fragments").collect();
        assert!(frags.len() > 1);

        // The redirector crashes after fragment 1: the chain member is left
        // holding a partial datagram that can never complete.
        let mut member = Reassembler::with_limits(SimDuration::from_secs(30), 2);
        assert!(member.push(SimTime::ZERO, frags[0].clone()).is_none());
        assert_eq!(member.pending(), 1);

        // The timeout reclaims the orphan: state is bounded in time…
        let later = SimTime::from_secs(31);
        let keepalive = IpPacket::new(CLIENT, H1, Protocol::UDP, vec![0]);
        assert!(member.push(later, keepalive).is_some());
        assert_eq!(member.pending(), 0);

        // …and the cap bounds it in space if orphans pile up faster: two
        // more orphaned trains fill the cap, a third evicts the oldest.
        for id in [91u16, 92, 93] {
            let mut p = tcp_packet(80, 2000);
            p.header.id = id;
            let first = fragment_packet(p, 600).unwrap().next().expect("a fragment");
            assert!(member.push(later, first).is_none());
        }
        assert_eq!(member.pending(), 2);
        assert_eq!(member.evicted(), 1);
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut e = engine();
        let mut p = tcp_packet(80, 0);
        p.header.ttl = 1;
        let mut out = Vec::new();
        e.process(p, SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(e.stats().dropped_ttl, 1);
    }

    #[test]
    fn fragmented_tcp_reassembles_before_redirection() {
        let mut e = engine();
        e.table_mut().install(
            SockAddr::new(SERVICE, 80),
            ServiceEntry::FaultTolerant { chain: vec![H1] },
        );
        let mut whole = tcp_packet(80, 2000);
        whole.header.id = 42;
        let frags = hydranet_netsim::frag::fragment_packet(whole.clone(), 600).expect("fragments");
        assert!(frags.len() >= 4);
        let mut out = Vec::new();
        for f in frags {
            e.process(f, SimTime::ZERO, &mut out);
        }
        // One reassembled redirected copy.
        assert_eq!(out.len(), 1);
        let inner = crate::tunnel::decapsulate(&out[0].1).unwrap();
        // TTL was decremented once on the reassembled packet's first
        // fragment; compare payloads instead of headers.
        assert_eq!(inner.payload, whole.payload);
    }

    #[test]
    fn route_own_uses_routing_table() {
        let mut e = engine();
        let p = IpPacket::new(RD, H1, Protocol::UDP, vec![]);
        let mut out = Vec::new();
        e.route_own(p, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, IfaceId::from_index(1));
        // No route: dropped.
        let p2 = IpPacket::new(RD, IpAddr::new(172, 16, 0, 1), Protocol::UDP, vec![]);
        let mut out2 = Vec::new();
        e.route_own(p2, &mut out2);
        assert!(out2.is_empty());
        assert_eq!(e.stats().dropped_no_route, 1);
    }

    #[test]
    fn peek_port() {
        assert_eq!(peek_tcp_dst_port(&[0, 80, 0, 23]), Some(23));
        assert_eq!(peek_tcp_dst_port(&[0, 80]), None);
    }
}
