//! The shipping `ManagedRedirector` driven inside the simulator with static
//! table entries and no registrations: fault-tolerant and scaled
//! redirection on the node every deployment runs.

use std::any::Any;

use hydranet_core::redirector::ManagedRedirector;
use hydranet_mgmt::failover::ProbeParams;
use hydranet_netsim::prelude::*;
use hydranet_redirect::table::{ReplicaLoc, ServiceEntry};
use hydranet_redirect::tunnel::decapsulate;
use hydranet_tcp::segment::{SockAddr, TcpFlags, TcpSegment};
use hydranet_tcp::seq::SeqNum;

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const H1: IpAddr = IpAddr::new(10, 0, 2, 1);
const H2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE: IpAddr = IpAddr::new(192, 20, 225, 20);

/// Counts packets by protocol and records decapsulated inner packets.
#[derive(Default)]
struct Recorder {
    raw: Vec<IpPacket>,
    inner: Vec<IpPacket>,
}

impl Node for Recorder {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        if packet.protocol() == Protocol::IP_IN_IP {
            if let Ok(inner) = decapsulate(&packet) {
                self.inner.push(inner);
            }
        }
        self.raw.push(packet);
    }
}

/// Sends one crafted TCP packet at start.
struct OneShot {
    dst_port: u16,
    payload_len: usize,
}

impl Node for OneShot {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let seg = TcpSegment {
            src_port: 40_000,
            dst_port: self.dst_port,
            seq: SeqNum::new(1),
            ack: SeqNum::new(0),
            flags: TcpFlags::ACK,
            window: 100,
            payload: vec![7u8; self.payload_len].into(),
        };
        let p = IpPacket::new(CLIENT, SERVICE, Protocol::TCP, seg.encode());
        ctx.send(IfaceId::from_index(0), p);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {}
}

fn build(dst_port: u16, payload_len: usize, entry: ServiceEntry) -> (Simulator, NodeId, NodeId) {
    let mut t = TopologyBuilder::new();
    let client = t.add_node(
        OneShot {
            dst_port,
            payload_len,
        },
        NodeParams::INSTANT,
    );
    let rd = t.add_node(
        ManagedRedirector::new("rd", RD, ProbeParams::default()),
        NodeParams::INSTANT,
    );
    let h1 = t.add_node(Recorder::default(), NodeParams::INSTANT);
    let h2 = t.add_node(Recorder::default(), NodeParams::INSTANT);
    let (_, _, _rd_if_c) = t.connect(client, rd, LinkParams::default());
    let (_, rd_if_h1, _) = t.connect(rd, h1, LinkParams::default());
    let (_, rd_if_h2, _) = t.connect(rd, h2, LinkParams::default());
    {
        let node = t.node_mut::<ManagedRedirector>(rd);
        let engine = node.engine_mut();
        engine.routes_mut().add(Prefix::host(H1), rd_if_h1);
        engine.routes_mut().add(Prefix::host(H2), rd_if_h2);
        engine
            .table_mut()
            .install(SockAddr::new(SERVICE, 80), entry);
    }
    (t.into_simulator(2), h1, h2)
}

// `Recorder` implements `Node` via the blanket `Any` supertrait; downcast
// accessors come from the simulator.
fn recorder(sim: &Simulator, id: NodeId) -> &Recorder {
    sim.node::<Recorder>(id)
}

#[test]
fn static_ft_entry_reaches_both_hosts_tunnelled() {
    let entry = ServiceEntry::FaultTolerant {
        chain: vec![H1, H2],
    };
    let (mut sim, h1, h2) = build(80, 64, entry);
    sim.run_until_idle();
    for (host, id) in [("h1", h1), ("h2", h2)] {
        let r = recorder(&sim, id);
        assert_eq!(r.inner.len(), 1, "{host}: tunnelled copy missing");
        assert_eq!(r.inner[0].dst(), SERVICE, "{host}: inner dst rewritten");
        assert_eq!(r.inner[0].src(), CLIENT, "{host}: inner src rewritten");
    }
}

#[test]
fn scaled_entry_reaches_only_nearest() {
    let entry = ServiceEntry::Scaled {
        replicas: vec![
            ReplicaLoc {
                host: H1,
                metric: 5,
            },
            ReplicaLoc {
                host: H2,
                metric: 1,
            },
        ],
    };
    let (mut sim, h1, h2) = build(80, 64, entry);
    sim.run_until_idle();
    assert!(recorder(&sim, h1).raw.is_empty(), "far replica got traffic");
    assert_eq!(recorder(&sim, h2).inner.len(), 1);
}

#[test]
fn unmatched_port_is_dropped_without_route_to_origin() {
    // No route for the origin host: the packet to an unredirected port is
    // dropped and counted, never misdelivered to a replica.
    let entry = ServiceEntry::FaultTolerant { chain: vec![H1] };
    let (mut sim, h1, h2) = build(23, 16, entry);
    sim.run_until_idle();
    assert!(recorder(&sim, h1).raw.is_empty());
    assert!(recorder(&sim, h2).raw.is_empty());
}

#[test]
fn oversized_redirected_packet_fragments_on_replica_link() {
    // 2 kB payload through a 1500-byte-MTU replica link: the tunnel packet
    // fragments in the network, and the recorder sees fragments (hosts
    // reassemble in their stacks; the raw recorder counts pieces).
    let entry = ServiceEntry::FaultTolerant { chain: vec![H1] };
    let (mut sim, h1, _h2) = build(80, 2000, entry);
    sim.run_until_idle();
    let r = recorder(&sim, h1);
    assert!(
        r.raw.len() >= 2,
        "expected tunnel fragments, got {} packet(s)",
        r.raw.len()
    );
    assert!(r.raw.iter().all(|p| p.total_len() <= 1500));
}

#[test]
fn recorder_downcast_is_type_checked() {
    // Guard against the Any-based downcast regressing silently.
    let entry = ServiceEntry::FaultTolerant { chain: vec![H1] };
    let (sim, h1, _) = build(80, 8, entry);
    let node: &dyn Any = sim.node::<Recorder>(h1);
    assert!(node.downcast_ref::<Recorder>().is_some());
}
