//! Property tests for the zero-copy packet path.
//!
//! Driven by the in-tree deterministic [`SimRng`] (no external proptest
//! dependency): hundreds of randomized payloads are pushed through the full
//! pipeline — TCP encode → IP encode → fragmentation → reassembly → tunnel
//! encap/decap → TCP decode — and every intermediate is checked against the
//! old `Vec<u8>` copying semantics (byte equality) while the zero-copy
//! invariants (`same_backing`) prove no bytes actually moved.

use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::frag::{fragment_packet, Reassembler};
use hydranet_netsim::link::{Impairments, LinkParams};
use hydranet_netsim::node::{Context, IfaceId, Node, NodeParams};
use hydranet_netsim::packet::{IpAddr, IpPacket, Protocol, IP_HEADER_LEN};
use hydranet_netsim::rng::SimRng;
use hydranet_netsim::routing::Prefix;
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_netsim::topology::TopologyBuilder;
use hydranet_redirect::redirector::RedirectorEngine;
use hydranet_redirect::table::{ReplicaLoc, ServiceEntry};
use hydranet_redirect::tunnel::{decapsulate, encapsulate, encapsulate_buf, TUNNEL_OVERHEAD};
use hydranet_tcp::buffer::SendBuffer;
use hydranet_tcp::segment::{SockAddr, TcpFlags, TcpSegment, TCP_HEADER_LEN};
use hydranet_tcp::seq::SeqNum;

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const SERVICE: IpAddr = IpAddr::new(192, 20, 225, 20);
const REDIRECTOR: IpAddr = IpAddr::new(10, 9, 0, 1);
const HOST: IpAddr = IpAddr::new(10, 0, 2, 1);

/// A random payload whose length distribution covers the interesting
/// boundaries: empty, tiny, around one MTU, and multi-fragment.
fn random_payload(rng: &mut SimRng) -> Vec<u8> {
    let len = match rng.range(0, 4) {
        0 => 0,
        1 => rng.range(1, 64) as usize,
        2 => rng.range(1400, 1600) as usize,
        _ => rng.range(3000, 6000) as usize,
    };
    (0..len).map(|_| rng.range(0, 256) as u8).collect()
}

fn random_segment(rng: &mut SimRng, payload: impl Into<PacketBuf>) -> TcpSegment {
    TcpSegment {
        src_port: rng.range(1024, 65536) as u16,
        dst_port: rng.range(1, 1024) as u16,
        seq: SeqNum::new(rng.next_u64() as u32),
        ack: SeqNum::new(rng.next_u64() as u32),
        flags: if rng.chance(0.5) {
            TcpFlags::ACK
        } else {
            TcpFlags::SYN
        },
        window: rng.range(0, 65536) as u16,
        payload: payload.into(),
    }
}

/// encode → decode round-trips byte-identically AND the decoded payload is
/// a view into the encoded buffer, not a copy.
#[test]
fn prop_segment_roundtrip_is_zero_copy() {
    let mut rng = SimRng::seed_from(0xD00D);
    for _ in 0..200 {
        let bytes = random_payload(&mut rng);
        let seg = random_segment(&mut rng, bytes.clone());
        let wire = seg.encode();
        assert_eq!(wire.len(), TCP_HEADER_LEN + bytes.len());
        let back = TcpSegment::decode(&wire).expect("decode");
        assert_eq!(back, seg);
        // Old Vec semantics: payload bytes identical.
        assert_eq!(back.payload, bytes);
        // Zero-copy: non-empty payloads are slices of the wire buffer.
        if !bytes.is_empty() {
            assert!(PacketBuf::same_backing(&wire, &back.payload));
        }
        // Decoding a private copy of the wire bytes agrees with decode.
        let copy = PacketBuf::from(&wire[..]);
        assert_eq!(TcpSegment::decode(&copy).expect("copy"), back);
    }
}

/// IP encode → fragment → reassemble → decode round-trips byte-identically
/// for every (payload, mtu) pair, and single-fragment reassembly is O(1).
#[test]
fn prop_fragment_reassemble_roundtrip() {
    let mut rng = SimRng::seed_from(0xF00D);
    for i in 0..200 {
        let bytes = random_payload(&mut rng);
        let mut packet = IpPacket::new(CLIENT, SERVICE, Protocol::TCP, bytes.clone());
        packet.header.id = i as u16;
        let mtu = rng.range(100, 2000) as usize;
        let frags: Vec<IpPacket> = fragment_packet(packet.clone(), mtu)
            .expect("fragment")
            .collect();
        // Every fragment fits the MTU and slices the original payload
        // without copying it.
        let mut covered = 0usize;
        for f in &frags {
            assert!(f.total_len() <= mtu, "fragment exceeds mtu {mtu}");
            covered += f.payload.len();
            if !bytes.is_empty() && frags.len() > 1 {
                assert!(PacketBuf::same_backing(&packet.payload, &f.payload));
            }
        }
        assert_eq!(covered, bytes.len());
        // Reassembly restores the exact original bytes.
        let mut reasm = Reassembler::new();
        let mut whole = None;
        for f in frags {
            if let Some(w) = reasm.push(SimTime::ZERO, f) {
                whole = Some(w);
            }
        }
        let whole = whole.expect("reassembled");
        assert_eq!(whole.payload, bytes);
        // In-order fragments rejoin as a view of the original payload.
        if !bytes.is_empty() {
            assert!(PacketBuf::same_backing(&packet.payload, &whole.payload));
        }
        assert_eq!(whole.src(), CLIENT);
        assert_eq!(whole.dst(), SERVICE);
    }
}

/// The full pipeline: TCP encode → IP packet → tunnel encap → (fragment →
/// reassemble) → decap → TCP decode, randomized. Visible bytes match the
/// old copying semantics at every step; backing stores are shared wherever
/// the path claims to be zero-copy.
#[test]
fn prop_full_pipeline_roundtrip() {
    let mut rng = SimRng::seed_from(0xBEEF);
    for i in 0..100 {
        let bytes = random_payload(&mut rng);
        let seg = random_segment(&mut rng, bytes.clone());
        let mut inner = IpPacket::new(CLIENT, SERVICE, Protocol::TCP, seg.encode());
        inner.header.id = i as u16;

        // Encap via the zero-copy fast path, exactly as the redirector does.
        let encoded = inner.encode();
        let outer = encapsulate_buf(encoded.clone(), inner.header.id, REDIRECTOR, HOST);
        assert!(PacketBuf::same_backing(&encoded, &outer.payload));
        assert_eq!(outer.total_len(), inner.total_len() + TUNNEL_OVERHEAD);
        // The convenience wrapper produces identical bytes.
        assert_eq!(encapsulate(&inner, REDIRECTOR, HOST), outer);

        // Maybe the tunnel link fragments the outer packet.
        let arrived = if rng.chance(0.5) {
            let mtu = rng.range(200, 1600) as usize;
            let frags = fragment_packet(outer.clone(), mtu).expect("fragment outer");
            let mut reasm = Reassembler::new();
            let mut whole = None;
            for f in frags {
                if let Some(w) = reasm.push(SimTime::ZERO, f) {
                    whole = Some(w);
                }
            }
            whole.expect("reassembled outer")
        } else {
            outer
        };

        let back_inner = decapsulate(&arrived).expect("decap");
        assert_eq!(back_inner, inner);
        let back_seg = TcpSegment::decode(&back_inner.payload).expect("tcp decode");
        assert_eq!(back_seg, seg);
        assert_eq!(back_seg.payload, bytes);
    }
}

/// Slice-of-slice views survive the pipeline: a segment whose payload is a
/// sub-slice of a larger shared buffer encodes/decodes exactly like a
/// freshly-allocated copy of those bytes.
#[test]
fn prop_slice_of_slice_payloads() {
    let mut rng = SimRng::seed_from(0xCAFE);
    for _ in 0..100 {
        let big: PacketBuf = (0..4096).map(|_| rng.range(0, 256) as u8).collect();
        let a = rng.range(0, 4096) as usize;
        let b = rng.range(a as u64, 4096) as usize;
        let view = big.slice(a..b);
        // Slice deeper once more when there is room.
        let view = if view.len() >= 2 {
            view.slice(1..view.len() - 1)
        } else {
            view
        };
        assert!(PacketBuf::same_backing(&big, &view));
        let expected = view.to_vec();

        let seg = random_segment(&mut rng, view);
        let wire = seg.encode();
        let back = TcpSegment::decode(&wire).expect("decode");
        assert_eq!(back.payload, expected);

        let packet = IpPacket::new(CLIENT, SERVICE, Protocol::TCP, wire);
        let ip_wire = packet.encode();
        let back_packet = IpPacket::decode(&ip_wire).expect("ip decode");
        assert_eq!(back_packet, packet);
        assert_eq!(
            back_packet.payload.to_vec(),
            packet.encode().slice(IP_HEADER_LEN..).to_vec()
        );
    }
}

/// The redirector's memoized scaled-target pick is never stale: after every
/// random table install/remove or route addition, the packet the engine
/// emits goes exactly where a fresh (uncached) nearest-routable scan says
/// it should.
#[test]
fn prop_scaled_target_cache_is_never_stale() {
    let mut rng = SimRng::seed_from(0x5CA1ED);
    let hosts: Vec<IpAddr> = (2..10).map(|k| IpAddr::new(10, 0, k, 1)).collect();
    let sap = SockAddr::new(SERVICE, 80);
    let packet = || {
        let seg = TcpSegment {
            src_port: 40_000,
            dst_port: 80,
            seq: SeqNum::new(1),
            ack: SeqNum::new(0),
            flags: TcpFlags::ACK,
            window: 1000,
            payload: vec![7u8; 16].into(),
        };
        IpPacket::new(CLIENT, SERVICE, Protocol::TCP, seg.encode())
    };

    let mut e = RedirectorEngine::new(REDIRECTOR);
    let mut routed = vec![false; hosts.len()];
    for _ in 0..400 {
        // Random mutation: reinstall the entry, drop it, or grow routing.
        match rng.range(0, 4) {
            0 | 1 => {
                let n = rng.range(1, hosts.len() as u64) as usize;
                let replicas: Vec<ReplicaLoc> = (0..n)
                    .map(|_| ReplicaLoc {
                        host: hosts[rng.range(0, hosts.len() as u64) as usize],
                        metric: rng.range(0, 6) as u32,
                    })
                    .collect();
                e.table_mut()
                    .install(sap, ServiceEntry::Scaled { replicas });
            }
            2 => {
                e.table_mut().remove(sap);
            }
            _ => {
                let k = rng.range(0, hosts.len() as u64) as usize;
                if !routed[k] {
                    routed[k] = true;
                    e.routes_mut()
                        .add(Prefix::host(hosts[k]), IfaceId::from_index(k + 1));
                }
            }
        }

        // Reference pick: an uncached first-wins min-metric scan over the
        // currently-routable replicas.
        let expected = match e.table().lookup(sap) {
            Some(ServiceEntry::Scaled { replicas }) => replicas
                .iter()
                .filter(|r| e.routes().lookup(r.host).is_some())
                .fold(None::<ReplicaLoc>, |best, r| match best {
                    Some(b) if b.metric <= r.metric => Some(b),
                    _ => Some(*r),
                }),
            _ => None,
        };

        let mut out = Vec::new();
        e.process(packet(), SimTime::ZERO, &mut out);
        match expected {
            Some(r) => {
                assert_eq!(out.len(), 1, "expected one tunnelled copy");
                let (iface, p) = &out[0];
                assert_eq!(p.dst(), r.host, "stale cached target");
                assert_eq!(*iface, e.routes().lookup(r.host).unwrap());
            }
            None => assert!(out.is_empty(), "emitted despite no routable replica"),
        }
    }
}

/// Empty payloads (pure ACKs — the bulk of reverse-path traffic) never
/// allocate and round-trip through every layer.
#[test]
fn prop_empty_payload_edge_cases() {
    let mut rng = SimRng::seed_from(0xACED);
    for _ in 0..50 {
        let seg = random_segment(&mut rng, PacketBuf::new());
        assert!(PacketBuf::same_backing(&seg.payload, &PacketBuf::new()));
        let wire = seg.encode();
        assert_eq!(wire.len(), TCP_HEADER_LEN);
        let back = TcpSegment::decode(&wire).expect("decode");
        assert_eq!(back, seg);
        assert!(back.payload.is_empty());

        // An IP packet with a completely empty payload survives encap/decap.
        let inner = IpPacket::new(CLIENT, SERVICE, Protocol::TCP, PacketBuf::new());
        let outer = encapsulate(&inner, REDIRECTOR, HOST);
        assert_eq!(outer.total_len(), IP_HEADER_LEN + TUNNEL_OVERHEAD);
        assert_eq!(decapsulate(&outer).expect("decap"), inner);

        // Fragmenting an empty-payload packet is a no-op single "fragment".
        let frags: Vec<IpPacket> = fragment_packet(inner.clone(), 1500)
            .expect("fragment")
            .collect();
        assert_eq!(frags, [inner]);
    }
}

const HOST2: IpAddr = IpAddr::new(10, 0, 3, 1);

/// A redirector engine multicasting port 80 of the service to a
/// two-member chain, `HOST` then `HOST2`.
fn chain_engine() -> RedirectorEngine {
    let mut e = RedirectorEngine::new(REDIRECTOR);
    e.table_mut().install(
        SockAddr::new(SERVICE, 80),
        ServiceEntry::FaultTolerant {
            chain: vec![HOST, HOST2],
        },
    );
    e.routes_mut()
        .add(Prefix::host(HOST), IfaceId::from_index(1));
    e.routes_mut()
        .add(Prefix::host(HOST2), IfaceId::from_index(2));
    e
}

/// A client data segment as its stack sends it: the payload copied out of
/// the send buffer (with headroom for both headers), the TCP header
/// written in front in place, wrapped in an IP packet to the service.
/// Returns the segment (over a separate copy of the payload, so the wire
/// buffer stays uniquely held) and the packet.
fn client_packet(payload: &[u8]) -> (TcpSegment, IpPacket) {
    let mut sendbuf = SendBuffer::new(SeqNum::new(1));
    sendbuf.write(payload, 4096);
    let segment = |payload| TcpSegment {
        src_port: 40_000,
        dst_port: 80,
        seq: SeqNum::new(1),
        ack: SeqNum::new(9),
        flags: TcpFlags::ACK,
        window: 4096,
        payload,
    };
    let data = sendbuf.slice(SeqNum::new(1), payload.len());
    let data_at = data.as_ptr();
    let wire = segment(data).into_wire();
    assert_eq!(
        wire[TCP_HEADER_LEN..].as_ptr(),
        data_at,
        "TCP header copied"
    );
    let packet = IpPacket::new(CLIENT, SERVICE, Protocol::TCP, wire);
    (segment(PacketBuf::from(payload)), packet)
}

/// A uniquely held client segment is tunnelled with no allocation and no
/// copy: the inner IP header lands in the headroom in front of the TCP
/// header, and every chain member's copy views that one backing.
#[test]
fn unique_client_segment_is_tunnelled_in_place() {
    let payload: Vec<u8> = (0..700u32).map(|i| (i * 7) as u8).collect();
    let (seg, packet) = client_packet(&payload);
    let segment_at = packet.payload.as_ptr();
    let mut e = chain_engine();
    let mut out = Vec::new();
    e.process(packet, SimTime::ZERO, &mut out);
    assert_eq!(out.len(), 2, "one copy per chain member");
    let (first, second) = (&out[0].1, &out[1].1);
    assert_eq!((first.dst(), second.dst()), (HOST, HOST2));
    assert!(PacketBuf::same_backing(&first.payload, &second.payload));
    // The encoded inner packet starts one IP header before the segment the
    // client's stack wrote: the segment's own backing, not a copy of it.
    assert_eq!(first.payload[IP_HEADER_LEN..].as_ptr(), segment_at);
    for (_, outer) in &out {
        let inner = decapsulate(outer).expect("decap");
        assert_eq!((inner.src(), inner.dst()), (CLIENT, SERVICE));
        assert_eq!(TcpSegment::decode(&inner.payload).expect("tcp"), seg);
    }
}

/// Forwards everything it receives through a redirector engine and keeps
/// the tunnelled copies.
struct RedirectorNode {
    engine: RedirectorEngine,
    tunnelled: Vec<IpPacket>,
}

impl Node for RedirectorNode {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        let mut out = Vec::new();
        self.engine.process(packet, ctx.now(), &mut out);
        self.tunnelled.extend(out.into_iter().map(|(_, p)| p));
    }
}

/// Sends one packet on interface 0 at start.
struct Client(Option<IpPacket>);

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(IfaceId::from_index(0), self.0.take().expect("one packet"));
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _packet: IpPacket) {}
}

/// A link that duplicates a packet delivers two handles onto one backing.
/// The redirector encodes the first while the second waits in the
/// calendar, so the first must copy rather than write the shared bytes;
/// both copies then tunnel byte-identical packets.
#[test]
fn duplicated_segment_tunnels_identical_bytes() {
    let payload: Vec<u8> = (0..300u32).map(|i| (i * 13) as u8).collect();
    let (seg, packet) = client_packet(&payload);
    let mut t = TopologyBuilder::new();
    let client = t.add_node(Client(Some(packet)), NodeParams::INSTANT);
    let rd = t.add_node(
        RedirectorNode {
            engine: chain_engine(),
            tunnelled: Vec::new(),
        },
        NodeParams::INSTANT,
    );
    let (link, _, _) = t.connect(
        client,
        rd,
        LinkParams::new(10_000_000, SimDuration::from_micros(50)),
    );
    let mut sim = t.into_simulator(7);
    sim.set_link_impairments(
        link,
        Impairments {
            duplicate_p: 1.0,
            ..Impairments::NONE
        },
    );
    sim.run_until_idle();
    assert_eq!(sim.link_stats(link).0.duplicated, 1);
    let tunnelled = &sim.node::<RedirectorNode>(rd).tunnelled;
    assert_eq!(tunnelled.len(), 4, "two deliveries, two chain members each");
    for outer in tunnelled {
        assert_eq!(
            outer.payload, tunnelled[0].payload,
            "tunnelled bytes differ"
        );
        let inner = decapsulate(outer).expect("decap");
        assert_eq!((inner.src(), inner.dst()), (CLIENT, SERVICE));
        assert_eq!(TcpSegment::decode(&inner.payload).expect("tcp"), seg);
    }
    // The first delivery copied; the second then held the original alone.
    assert!(!PacketBuf::same_backing(
        &tunnelled[0].payload,
        &tunnelled[2].payload
    ));
}
