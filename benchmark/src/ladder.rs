//! The ladder: one rung per layer, each timing a public function of that
//! layer directly — no simulator around it unless the rung is the
//! simulator — with the packet size and working set of the workload being
//! explained. Rungs report ns/op and, where it matters, allocations/op.
//!
//! Multiplying each rung by the matching count of a rep and subtracting the
//! sum from the rep's wall time gives `core.unattributed_pct`: the share of
//! host time no rung explains (see [`reconcile`]).

use std::hint::black_box;

use hydranet_core::apps::{shared, EchoApp, SenderState, SinkState, StreamSenderApp};
use hydranet_mgmt::proto::MgmtMsg;
use hydranet_mgmt::reliable::ReliableEndpoint;
use hydranet_netsim::link::LinkParams;
use hydranet_netsim::node::{Context, IfaceId, Node, NodeParams};
use hydranet_netsim::packet::{IpAddr, IpPacket, Protocol};
use hydranet_netsim::rng::SimRng;
use hydranet_netsim::routing::Prefix;
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_netsim::topology::TopologyBuilder;
use hydranet_netsim::wheel::{TimerEntry, TimingWheel};
use hydranet_redirect::redirector::RedirectorEngine;
use hydranet_redirect::table::ServiceEntry;
use hydranet_redirect::tunnel;
use hydranet_tcp::conn::TcpConfig;
use hydranet_tcp::ft::AckChanMsg;
use hydranet_tcp::segment::{SockAddr, TcpFlags, TcpSegment};
use hydranet_tcp::seq::SeqNum;
use hydranet_tcp::stack::{NullApp, TcpStack};

use crate::alloc::count_allocs;
use crate::counts::Counts;
use crate::pace::Pacer;
use crate::stats;
use crate::workloads::LadderShape;

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS1: IpAddr = IpAddr::new(10, 0, 2, 1);
const HS2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE: SockAddr = SockAddr::new(IpAddr::new(192, 20, 225, 20), 80);

/// One rung's result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rung {
    pub ns_per_op: f64,
    pub allocs_per_op: f64,
}

/// Times `batch` — which performs `ops` operations per call — five times
/// after a warm-up call and keeps the median, in nanoseconds on the
/// reference host (a calibration slice brackets every call, see
/// [`crate::pace`]); a sixth call counts allocations, so counting never
/// sits inside a timed batch.
fn measure(pacer: &mut Pacer, ops: u64, mut batch: impl FnMut()) -> Rung {
    batch();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            pacer.start();
            batch();
            pacer.finish().calibrated_s() * 1e9 / ops as f64
        })
        .collect();
    let ((), allocs) = count_allocs(&mut batch);
    Rung {
        ns_per_op: stats::median(&samples),
        allocs_per_op: allocs as f64 / ops as f64,
    }
}

/// Every rung, measured for one workload's shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ladder {
    pub calendar_push_pop: Rung,
    pub packet_codec: Rung,
    pub forward_per_pkt: Rung,
    pub tcp_loopback_per_segment: Rung,
    pub ackchan_codec_per_pair: Rung,
    pub tcp_on_timer: Rung,
    pub rd_process_batch_per_pkt: Rung,
    pub rd_encap: Rung,
    pub mgmt_reliable_roundtrip: Rung,
}

pub fn run(shape: LadderShape, p: &mut Pacer) -> Ladder {
    Ladder {
        calendar_push_pop: calendar_push_pop(p, shape.flows.max(64)),
        packet_codec: packet_codec(p, shape.payload),
        forward_per_pkt: forward_per_pkt(p, shape.payload),
        tcp_loopback_per_segment: tcp_loopback(p, shape.payload),
        ackchan_codec_per_pair: ackchan_codec(p),
        tcp_on_timer: tcp_on_timer(p, shape.flows),
        rd_process_batch_per_pkt: rd_process_batch(p, shape.payload, shape.flows),
        rd_encap: rd_encap(p, shape.payload),
        mgmt_reliable_roundtrip: mgmt_reliable_roundtrip(p),
    }
}

/// A TCP data segment of `payload` bytes as an IP packet from `src_port`.
fn data_packet(src_port: u16, payload: usize) -> IpPacket {
    let seg = TcpSegment {
        src_port,
        dst_port: SERVICE.port,
        seq: SeqNum::new(1),
        ack: SeqNum::new(0),
        flags: TcpFlags::ACK,
        window: 65_000,
        payload: vec![9u8; payload].into(),
    };
    IpPacket::new(CLIENT, SERVICE.addr, Protocol::TCP, seg.encode())
}

/// netsim: the event calendar's backend, one pop of the earliest entry and
/// one push of a later one, at a standing depth of `depth` entries (the
/// workload's flow count: one pending timer per connection).
fn calendar_push_pop(p: &mut Pacer, depth: usize) -> Rung {
    let mut rng = SimRng::seed_from(1);
    let mut wheel: TimingWheel<u32> = TimingWheel::default();
    let mut seq = 0u64;
    for _ in 0..depth {
        wheel.push(TimerEntry {
            time: SimTime::from_nanos(rng.range(1, 1_000_000_000)),
            seq,
            payload: 0,
        });
        seq += 1;
    }
    let far = SimTime::from_secs(1 << 30);
    const OPS: u64 = 200_000;
    measure(p, OPS, || {
        for _ in 0..OPS {
            let e = wheel.pop_if_at_or_before(far).expect("standing depth");
            // Re-file between 1 µs and 1 s out, as RTO and delayed-ack
            // timers and link events are.
            let delta = 1_000 + rng.range(0, 1 << 20) * rng.range(1, 1_000);
            wheel.push(TimerEntry {
                time: e.time.saturating_add(SimDuration::from_nanos(delta)),
                seq,
                payload: e.payload,
            });
            seq += 1;
        }
    })
}

/// netsim: `IpPacket::encode` then `decode` of one data packet.
fn packet_codec(p: &mut Pacer, payload: usize) -> Rung {
    let packet = data_packet(40_000, payload);
    const OPS: u64 = 100_000;
    measure(p, OPS, || {
        for _ in 0..OPS {
            let wire = black_box(&packet).encode();
            black_box(IpPacket::decode(&wire).expect("round trip"));
        }
    })
}

/// Bounces every packet it receives straight back, `remaining` times.
struct Bouncer {
    serve: Vec<IpPacket>,
    remaining: u64,
}

impl Node for Bouncer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for p in self.serve.drain(..) {
            ctx.send(IfaceId::from_index(0), p);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, iface: IfaceId, packet: IpPacket) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(iface, packet);
        }
    }
}

/// netsim: bare forwarding — sixteen packets ping-pong between two nodes
/// that do nothing else, through `Simulator::run_until`: link enqueue,
/// serialisation, propagation and dispatch per hop, no protocol above.
fn forward_per_pkt(p: &mut Pacer, payload: usize) -> Rung {
    const HOPS: u64 = 100_000;
    measure(p, HOPS, || {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(
            Bouncer {
                serve: (0..16).map(|i| data_packet(40_000 + i, payload)).collect(),
                remaining: HOPS / 2,
            },
            NodeParams::INSTANT,
        );
        let b = t.add_node(
            Bouncer {
                serve: Vec::new(),
                remaining: HOPS / 2,
            },
            NodeParams::INSTANT,
        );
        t.connect(
            a,
            b,
            LinkParams::new(1_000_000_000, SimDuration::from_micros(200)),
        );
        let mut sim = t.into_simulator(1);
        sim.run_until(SimTime::from_secs(3_600));
        let bounced = HOPS - sim.node::<Bouncer>(a).remaining - sim.node::<Bouncer>(b).remaining;
        assert_eq!(bounced, HOPS, "every hop was forwarded");
    })
}

/// tcp: two stacks wired back to back through `handle_packet` and
/// `take_packets_into` — no simulator, no links — streaming in-order data
/// one way and acknowledgements the other, with the MSS at the workload's
/// packet size. Per segment received by either stack.
fn tcp_loopback(p: &mut Pacer, payload: usize) -> Rung {
    const SEGMENTS_GOAL: usize = 20_000; // data segments per batch
    let total = payload * SEGMENTS_GOAL;
    let data = crate::gen::pattern(total);
    // One transfer; returns the segments the two stacks received.
    let transfer = || -> u64 {
        let cfg = TcpConfig {
            mss: payload,
            delayed_ack: false,
            ..TcpConfig::default()
        };
        let mut client = TcpStack::new(CLIENT, cfg.clone());
        let mut server = TcpStack::new(HS1, cfg);
        let sink = shared(SinkState::default());
        let handle = sink.clone();
        server.listen(SERVICE.port, move |_q| {
            Box::new(EchoApp::sink(handle.clone()))
        });
        let sender = StreamSenderApp::new(data.clone(), false, shared(SenderState::default()));
        let mut now = SimTime::from_millis(1);
        client
            .connect(SockAddr::new(HS1, SERVICE.port), Box::new(sender), now)
            .expect("ephemeral port");
        let (mut to_server, mut to_client) = (Vec::new(), Vec::new());
        let mut rounds = 0u32;
        while sink.borrow().len() < total {
            client.take_packets_into(&mut to_server);
            for p in to_server.drain(..) {
                server.handle_packet(p, now);
            }
            server.take_packets_into(&mut to_client);
            for p in to_client.drain(..) {
                client.handle_packet(p, now);
            }
            now = now.saturating_add(SimDuration::from_micros(100));
            rounds += 1;
            assert!(rounds < 1_000_000, "loss-free loopback needs no timer");
        }
        client.stats().tcp_rx + server.stats().tcp_rx
    };
    // The segment count is a property of the transfer; learn it once.
    let ops = transfer();
    measure(p, ops, || {
        black_box(transfer());
    })
}

/// tcp: one 32-pair ack-channel batch through `encode_batch_into` and
/// `decode_each`, per pair.
fn ackchan_codec(p: &mut Pacer) -> Rung {
    let pairs: Vec<AckChanMsg> = (0..32u16)
        .map(|i| AckChanMsg {
            client: SockAddr::new(CLIENT, 40_000 + i),
            service: SERVICE,
            seq: SeqNum::new(1_000 + u32::from(i)),
            ack: SeqNum::new(2_000 + u32::from(i)),
        })
        .collect();
    const BATCHES: u64 = 20_000;
    let mut wire = Vec::new();
    measure(p, BATCHES * 32, || {
        let mut acc = 0u32;
        for _ in 0..BATCHES {
            wire.clear();
            AckChanMsg::encode_batch_into(black_box(&pairs), &mut wire);
            AckChanMsg::decode_each(&wire, |m| acc = acc.wrapping_add(m.ack.raw()))
                .expect("round trip");
        }
        black_box(acc);
    })
}

/// tcp: `TcpStack::on_timer` on a stack holding `conns` connections with
/// their retransmission timers armed, called every 250 µs across the
/// second in which those timers fall due: the per-wakeup cost of the stack
/// timer path at the workload's population, the expiries' work included.
fn tcp_on_timer(p: &mut Pacer, conns: usize) -> Rung {
    const CALLS: u64 = 4_000;
    measure(p, CALLS, || {
        let mut stack = TcpStack::new(CLIENT, TcpConfig::default());
        let remote = SockAddr::new(HS1, SERVICE.port);
        // Connections opened across one second: their SYN retransmission
        // timers fall due across the next.
        for i in 0..conns {
            let at = SimTime::from_nanos(1_000_000_000 / conns as u64 * i as u64);
            stack
                .connect(remote, Box::new(NullApp), at)
                .expect("ephemeral ports suffice");
        }
        let mut out = Vec::new();
        stack.take_packets_into(&mut out);
        let first = stack
            .next_deadline()
            .expect("a connecting stack has a timer");
        for i in 0..CALLS {
            stack.on_timer(first.saturating_add(SimDuration::from_micros(250) * i));
            stack.take_packets_into(&mut out);
        }
        black_box(out.len());
    })
}

/// An engine with the two-replica chain every data-path workload runs.
fn chain_engine() -> RedirectorEngine {
    let mut engine = RedirectorEngine::new(RD);
    for (i, host) in [HS1, HS2].into_iter().enumerate() {
        engine
            .routes_mut()
            .add(Prefix::host(host), IfaceId::from_index(i));
    }
    engine.table_mut().install(
        SERVICE,
        ServiceEntry::FaultTolerant {
            chain: vec![HS1, HS2],
        },
    );
    engine
}

/// redirect: `RedirectorEngine::process_batch` on bursts of one packet,
/// round-robin over `flows` distinct client endpoints, so the per-flow
/// action cache works against the workload's flow count.
fn rd_process_batch(p: &mut Pacer, payload: usize, flows: usize) -> Rung {
    let mut engine = chain_engine();
    let templates: Vec<IpPacket> = (0..flows)
        .map(|i| {
            let mut p = data_packet(40_000 + (i % 25_000) as u16, payload);
            p.header.src = IpAddr::new(10, 0, 1, 1 + (i / 25_000) as u8);
            p
        })
        .collect();
    // One pass over every flow per batch, at least 20,000 packets. At
    // 20,000 flows a packet costs ~10 µs here, so a batch is ~0.2 s.
    let ops = flows.max(20_000) as u64;
    let mut next = 0usize;
    let mut burst = Vec::with_capacity(1);
    let mut out = Vec::with_capacity(2);
    measure(p, ops, || {
        for _ in 0..ops {
            burst.push(templates[next].clone());
            next = (next + 1) % templates.len();
            out.clear();
            engine.process_batch(&mut burst, SimTime::ZERO, &mut out, |_p| ());
            black_box(&out);
        }
    })
}

/// redirect: `tunnel::encapsulate_buf` of an encoded packet and
/// `decapsulate` of the result.
fn rd_encap(p: &mut Pacer, payload: usize) -> Rung {
    let inner = data_packet(40_000, payload);
    const OPS: u64 = 100_000;
    measure(p, OPS, || {
        for _ in 0..OPS {
            let outer =
                tunnel::encapsulate_buf(black_box(&inner).encode(), inner.header.id, RD, HS1);
            black_box(tunnel::decapsulate(&outer).expect("round trip"));
        }
    })
}

/// mgmt: one reliable message — `send_reliable`, the receiver's
/// `on_datagram`, and the sender's `on_datagram` of the acknowledgement.
/// Messages are 200 ms apart, a probe cadence: closer than ~117 ms the
/// receiver's duplicate filter holds over 1024 entries inside its 120 s
/// horizon and rescans them all on every datagram (260 µs a message at 1 ms
/// spacing), a regime no workload here enters.
fn mgmt_reliable_roundtrip(p: &mut Pacer) -> Rung {
    let mut a = ReliableEndpoint::new();
    let mut b = ReliableEndpoint::new();
    const OPS: u64 = 50_000;
    let mut now = SimTime::ZERO;
    measure(p, OPS, || {
        for i in 0..OPS {
            now = now.saturating_add(SimDuration::from_millis(200));
            let msg = MgmtMsg::FailureReport {
                service: SERVICE,
                reporter: HS1,
                observed: i,
            };
            let (_dst, bytes) = a.send_reliable(HS2, msg, now);
            let (delivered, acks) = b.on_datagram(HS1, &bytes, now);
            assert!(delivered.is_some());
            for (_to, ack) in acks {
                a.on_datagram(HS2, &ack, now);
            }
        }
        assert_eq!(a.pending_count(), 0, "every message was acknowledged");
    })
}

/// Host nanoseconds of one rep the rungs account for: each rung times the
/// count of a rep it matches. The model, deliberately simple:
///
/// - every packet a link delivered cost one bare forward (its calendar
///   events included);
/// - every timer that fired cost one calendar push+pop and one stack
///   `on_timer`;
/// - every segment a stack received cost one loopback segment;
/// - every ack-channel pair cost one codec pair;
/// - every packet through a redirector cost one `process_batch` packet
///   (`redirect.encap_ns` and `netsim.packet_codec_ns` are sub-rungs of the
///   above and are not added again);
/// - every two mgmt datagrams cost one reliable round trip.
pub fn explained_ns(l: &Ladder, c: &Counts) -> f64 {
    l.forward_per_pkt.ns_per_op * c.link_delivered as f64
        + (l.calendar_push_pop.ns_per_op + l.tcp_on_timer.ns_per_op) * c.timers_fired as f64
        + l.tcp_loopback_per_segment.ns_per_op * c.segments_rx as f64
        + l.ackchan_codec_per_pair.ns_per_op * c.ackchan_pairs_tx as f64
        + l.rd_process_batch_per_pkt.ns_per_op * c.rd_packets() as f64
        + l.mgmt_reliable_roundtrip.ns_per_op * c.rd_local as f64 / 2.0
}

/// `core.unattributed_pct`: 100·(wall − explained)/wall. Negative when the
/// rungs, measured in isolation, over-explain the rep.
pub fn reconcile(l: &Ladder, c: &Counts, rep_wall_s: f64) -> f64 {
    100.0 * (rep_wall_s * 1e9 - explained_ns(l, c)) / (rep_wall_s * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rung runs, measures something, and the ones that must not
    /// allocate per operation do not.
    #[test]
    fn rungs_run_at_a_small_shape() {
        let l = run(
            LadderShape {
                payload: 64,
                flows: 50,
            },
            &mut Pacer::new(),
        );
        for (name, rung) in [
            ("calendar", l.calendar_push_pop),
            ("codec", l.packet_codec),
            ("forward", l.forward_per_pkt),
            ("loopback", l.tcp_loopback_per_segment),
            ("ackchan", l.ackchan_codec_per_pair),
            ("on_timer", l.tcp_on_timer),
            ("process_batch", l.rd_process_batch_per_pkt),
            ("encap", l.rd_encap),
            ("reliable", l.mgmt_reliable_roundtrip),
        ] {
            assert!(
                rung.ns_per_op > 0.0 && rung.ns_per_op < 1e7,
                "{name}: {rung:?}"
            );
        }
        assert!(l.packet_codec.allocs_per_op >= 1.0, "encode allocates");
        assert!(l.ackchan_codec_per_pair.allocs_per_op < 0.1);
    }

    #[test]
    fn reconcile_is_the_unexplained_share() {
        let l = Ladder {
            tcp_loopback_per_segment: Rung {
                ns_per_op: 100.0,
                allocs_per_op: 0.0,
            },
            ..Ladder::default()
        };
        let c = Counts {
            segments_rx: 5_000_000,
            ..Counts::default()
        };
        // 5 M segments at 100 ns explain 0.5 s of a 2 s rep.
        assert_eq!(reconcile(&l, &c, 2.0), 75.0);
    }
}
