//! Stack-level edge cases: RST policy, volatile reset, simultaneous close,
//! half-close, and replica connection configuration.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{pattern, CollectApp, Ends, SendOnceApp, StackHost};
use hydranet_netsim::prelude::*;
use hydranet_tcp::prelude::*;

const A_ADDR: IpAddr = IpAddr::new(10, 0, 1, 1);
const B_ADDR: IpAddr = IpAddr::new(10, 0, 2, 1);

fn pair() -> (Simulator, NodeId, NodeId) {
    let mut t = TopologyBuilder::new();
    let a = t.add_node(
        StackHost::new("a", A_ADDR, TcpConfig::default()),
        NodeParams::INSTANT,
    );
    let b = t.add_node(
        StackHost::new("b", B_ADDR, TcpConfig::default()),
        NodeParams::INSTANT,
    );
    t.connect(a, b, LinkParams::default());
    (t.into_simulator(5), a, b)
}

#[test]
fn replicated_port_never_rsts_unknown_connections() {
    let (mut sim, a, b) = pair();
    {
        let host = sim.node_mut::<StackHost>(b);
        host.stack.listen(80, |_q| Box::new(NullApp));
        host.stack.setportopt(
            80,
            ReplicatedPortConfig::sole_primary(DetectorParams::DEFAULT),
            SimTime::ZERO,
        );
        host.stack.listen(81, |_q| Box::new(NullApp));
    }
    // Craft a non-SYN segment for an unknown connection on the replicated
    // port (what a rejoined replica sees mid-connection) and on a plain
    // port.
    for (port, expect_rst) in [(80u16, false), (81, true), (9, true)] {
        let seg = TcpSegment {
            src_port: 50_000 + port,
            dst_port: port,
            seq: SeqNum::new(1000),
            ack: SeqNum::new(2000),
            flags: TcpFlags::ACK,
            window: 1000,
            payload: b"mid-stream".to_vec().into(),
        };
        let packet = hydranet_netsim::packet::IpPacket::new(
            A_ADDR,
            B_ADDR,
            hydranet_netsim::packet::Protocol::TCP,
            seg.encode(),
        );
        sim.with_node_ctx::<StackHost, _>(a, |_, ctx| {
            ctx.send(IfaceId::from_index(0), packet);
        });
        sim.run_for(SimDuration::from_millis(50));
        let rsts = sim.node::<StackHost>(b).stack.stats().rst_sent;
        if expect_rst {
            assert!(rsts > 0, "port {port}: expected a RST");
        } else {
            assert_eq!(rsts, 0, "port {port}: replicated port must stay silent");
        }
    }
}

#[test]
fn reset_volatile_drops_connections_keeps_listeners() {
    let (mut sim, a, b) = pair();
    let rx = Rc::new(RefCell::new(Vec::new()));
    let handle = rx.clone();
    sim.node_mut::<StackHost>(b).stack.listen(80, move |_q| {
        Box::new(CollectApp::new(handle.clone(), false))
    });
    let payload = pattern(5_000);
    let sent = Rc::new(RefCell::new(Vec::new()));
    let app = SendOnceApp {
        payload: payload.clone(),
        received: sent,
        close_after: None,
        ends: Ends::default(),
    };
    sim.with_node_ctx::<StackHost, _>(a, |host, ctx| {
        host.stack
            .connect(SockAddr::new(B_ADDR, 80), Box::new(app), ctx.now())
            .expect("connect");
        host.flush(ctx);
    });
    sim.run_for(SimDuration::from_millis(200));
    assert_eq!(*rx.borrow(), payload);
    assert_eq!(sim.node::<StackHost>(b).stack.conn_count(), 1);

    // Reboot-style reset: connections gone, listener still answers.
    sim.node_mut::<StackHost>(b).stack.reset_volatile();
    assert_eq!(sim.node::<StackHost>(b).stack.conn_count(), 0);
    let rx2 = Rc::new(RefCell::new(Vec::new()));
    let app2 = SendOnceApp {
        payload: b"again".to_vec(),
        received: rx2,
        close_after: None,
        ends: Ends::default(),
    };
    sim.with_node_ctx::<StackHost, _>(a, |host, ctx| {
        host.stack
            .connect(SockAddr::new(B_ADDR, 80), Box::new(app2), ctx.now())
            .expect("connect");
        host.flush(ctx);
    });
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(
        rx.borrow().len(),
        payload.len() + 5,
        "new connection served"
    );
}

/// An echo app that reciprocates the peer's close (full four-way).
struct PoliteEcho;

impl SocketApp for PoliteEcho {
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        io.write(&data);
    }
    fn on_peer_fin(&mut self, io: &mut SocketIo<'_>) {
        io.close();
    }
}

#[test]
fn graceful_close_reaps_both_ends() {
    let (mut sim, a, b) = pair();
    sim.node_mut::<StackHost>(b)
        .stack
        .listen(80, |_q| Box::new(PoliteEcho));
    let replies = Rc::new(RefCell::new(Vec::new()));
    let app = SendOnceApp {
        payload: b"goodbye".to_vec(),
        received: replies.clone(),
        close_after: Some(7), // close after full echo
        ends: Ends::default(),
    };
    sim.with_node_ctx::<StackHost, _>(a, |host, ctx| {
        host.stack
            .connect(SockAddr::new(B_ADDR, 80), Box::new(app), ctx.now())
            .expect("connect");
        host.flush(ctx);
    });
    // Run long enough for the FIN exchange plus TIME_WAIT expiry (30 s).
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(*replies.borrow(), b"goodbye");
    assert_eq!(
        sim.node::<StackHost>(b).stack.conn_count(),
        0,
        "server reaped"
    );
    assert_eq!(
        sim.node::<StackHost>(a).stack.conn_count(),
        0,
        "client reaped"
    );
}

#[test]
fn half_close_still_delivers_server_data() {
    // Client closes its sending direction; the server may keep talking.
    struct LateTalker;
    impl SocketApp for LateTalker {
        fn on_peer_fin(&mut self, io: &mut SocketIo<'_>) {
            io.write(b"parting words");
            io.close();
        }
    }
    /// Writes once, closes immediately (half-close), collects replies.
    struct WriteAndClose {
        replies: Rc<RefCell<Vec<u8>>>,
    }
    impl SocketApp for WriteAndClose {
        fn on_established(&mut self, io: &mut SocketIo<'_>) {
            io.write(b"hello");
            io.close();
        }
        fn on_data(&mut self, io: &mut SocketIo<'_>) {
            let data = io.read_all();
            self.replies.borrow_mut().extend(data);
        }
    }
    let (mut sim, a, b) = pair();
    sim.node_mut::<StackHost>(b)
        .stack
        .listen(80, |_q| Box::new(LateTalker));
    let replies = Rc::new(RefCell::new(Vec::new()));
    let app = WriteAndClose {
        replies: replies.clone(),
    };
    sim.with_node_ctx::<StackHost, _>(a, |host, ctx| {
        host.stack
            .connect(SockAddr::new(B_ADDR, 80), Box::new(app), ctx.now())
            .expect("connect");
        host.flush(ctx);
    });
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(*replies.borrow(), b"parting words");
}

#[test]
fn replica_connections_ack_every_segment() {
    // Replica connections are created with delayed ACKs off so their
    // ack-channel reports are immediate.
    let (mut sim, a, b) = pair();
    {
        let host = sim.node_mut::<StackHost>(b);
        host.stack.listen(80, |_q| Box::new(NullApp));
        host.stack.setportopt(
            80,
            ReplicatedPortConfig::sole_primary(DetectorParams::DEFAULT),
            SimTime::ZERO,
        );
        host.stack.listen(81, |_q| Box::new(NullApp));
    }
    let mut counts = Vec::new();
    for port in [80u16, 81] {
        let before = sim.node::<StackHost>(b).stack.quads().count();
        let _ = before;
        let sent = Rc::new(RefCell::new(Vec::new()));
        let app = SendOnceApp {
            payload: pattern(20_000),
            received: sent,
            close_after: None,
            ends: Ends::default(),
        };
        let quad = sim.with_node_ctx::<StackHost, _>(a, |host, ctx| {
            let q = host
                .stack
                .connect(SockAddr::new(B_ADDR, port), Box::new(app), ctx.now())
                .expect("connect");
            host.flush(ctx);
            q
        });
        sim.run_until(sim.now().saturating_add(SimDuration::from_secs(5)));
        let client = sim.node::<StackHost>(a);
        let conn = client.stack.conn(quad).expect("conn alive");
        // What the server sent is what the client received: the link is
        // loss-free.
        let server = sim.node::<StackHost>(b);
        let replies = server.stack.conn(quad.flipped()).expect("server alive");
        counts.push((conn.segments_sent(), replies.segments_sent()));
    }
    // The replicated-port server (ack per segment) sends noticeably more
    // segments back than the plain-port server (delayed acks).
    let (sent80, recv80) = counts[0];
    let (sent81, recv81) = counts[1];
    assert!(
        recv80 > recv81 + recv81 / 4,
        "expected more acks from the replica port: {recv80} vs {recv81} (sent {sent80}/{sent81})"
    );
}

#[test]
fn udp_delivery_surfaces_to_host() {
    let (mut sim, a, b) = pair();
    sim.with_node_ctx::<StackHost, _>(a, |host, ctx| {
        host.stack.udp_send(
            SockAddr::new(A_ADDR, 9000),
            SockAddr::new(B_ADDR, 9001),
            b"datagram!".to_vec(),
        );
        host.flush(ctx);
    });
    sim.run_for(SimDuration::from_millis(50));
    let events = &sim.node::<StackHost>(b).events;
    assert!(
        events.iter().any(|e| matches!(
            e,
            StackEvent::UdpDelivery { local, remote, payload }
                if local.port == 9001 && remote.port == 9000 && payload.as_slice() == b"datagram!"
        )),
        "udp delivery missing: {events:?}"
    );
}

#[test]
fn ack_channel_datagrams_are_consumed_internally() {
    let (mut sim, a, b) = pair();
    sim.with_node_ctx::<StackHost, _>(a, |host, ctx| {
        let msg = AckChanMsg {
            client: SockAddr::new(IpAddr::new(9, 9, 9, 9), 1),
            service: SockAddr::new(B_ADDR, 80),
            seq: SeqNum::new(5),
            ack: SeqNum::new(6),
        };
        let mut frame = Vec::new();
        AckChanMsg::encode_batch_into(&[msg], &mut frame);
        host.stack.udp_send(
            SockAddr::new(A_ADDR, ACK_CHANNEL_PORT),
            SockAddr::new(B_ADDR, ACK_CHANNEL_PORT),
            frame,
        );
        host.flush(ctx);
    });
    sim.run_for(SimDuration::from_millis(50));
    let host = sim.node::<StackHost>(b);
    assert_eq!(host.stack.stats().ackchan_rx, 1);
    assert!(
        !host
            .events
            .iter()
            .any(|e| matches!(e, StackEvent::UdpDelivery { .. })),
        "ack-channel traffic must not surface as a UDP delivery"
    );
}

// ---- batched ack-channel mechanics ------------------------------------
//
// These drive a backup stack directly (no simulator) so each flush
// trigger — control segment, pair cap, timer — can be observed in
// isolation through `take_packets` and the stats.

const PRED_ADDR: IpAddr = IpAddr::new(10, 0, 9, 9);
const CLIENT_PORT: u16 = 40_000;
const CLIENT_ISS: u32 = 1_000;

fn backup_stack() -> TcpStack {
    let mut s = TcpStack::new(B_ADDR, TcpConfig::default());
    s.listen(80, |_q| Box::new(NullApp));
    s.setportopt(
        80,
        ReplicatedPortConfig {
            predecessor: Some(PRED_ADDR),
            has_successor: false,
            detector: DetectorParams::DEFAULT,
        },
        SimTime::ZERO,
    );
    s
}

fn deliver_tcp(stack: &mut TcpStack, seg: TcpSegment, now: SimTime) {
    let packet = hydranet_netsim::packet::IpPacket::new(
        A_ADDR,
        B_ADDR,
        hydranet_netsim::packet::Protocol::TCP,
        seg.encode(),
    );
    stack.handle_packet(packet, now);
}

/// Client-side SYN; the backup diverts its SYN-ACK into a report (a
/// control report: flushed immediately).
fn deliver_syn(stack: &mut TcpStack, now: SimTime) {
    deliver_syn_from(stack, CLIENT_PORT, now);
}

/// [`deliver_syn`] from client port `port`.
fn deliver_syn_from(stack: &mut TcpStack, port: u16, now: SimTime) {
    deliver_tcp(
        stack,
        TcpSegment {
            src_port: port,
            dst_port: 80,
            seq: SeqNum::new(CLIENT_ISS),
            ack: SeqNum::new(0),
            flags: TcpFlags::SYN,
            window: 65_535,
            payload: Vec::new().into(),
        },
        now,
    );
}

/// The nth in-order 100-byte client data segment (0-based), acking the
/// backup's deterministic ISS so the segment is fully acceptable.
fn deliver_data(stack: &mut TcpStack, n: u32, now: SimTime) {
    deliver_data_from(stack, CLIENT_PORT, n, now);
}

/// [`deliver_data`] on the connection from client port `port`.
fn deliver_data_from(stack: &mut TcpStack, port: u16, n: u32, now: SimTime) {
    let quad = Quad::new(SockAddr::new(B_ADDR, 80), SockAddr::new(A_ADDR, port));
    let iss = deterministic_iss(quad);
    deliver_tcp(
        stack,
        TcpSegment {
            src_port: port,
            dst_port: 80,
            seq: SeqNum::new(CLIENT_ISS + 1 + n * 100),
            ack: SeqNum::new(iss.raw().wrapping_add(1)),
            flags: TcpFlags::ACK,
            window: 65_535,
            payload: pattern(100).into(),
        },
        now,
    );
}

fn reports_to_pred(packets: &[hydranet_netsim::packet::IpPacket]) -> usize {
    packets.iter().filter(|p| p.header.dst == PRED_ADDR).count()
}

#[test]
fn ackchan_reports_coalesce_until_the_flush_timer() {
    let mut s = backup_stack();
    let t0 = SimTime::from_millis(1);
    deliver_syn(&mut s, t0);
    // Handshake report flushes immediately (control), nothing else leaves.
    let out = s.take_packets();
    assert_eq!(reports_to_pred(&out), 1, "SYN report must not wait");
    assert_eq!(out.len(), 1, "backup emits nothing toward the client");
    assert_eq!(s.stats().ackchan_tx, 1);

    // Five duplicate-progress data segments inside one flush window:
    // the latest pair wins, nothing hits the wire yet.
    let t1 = SimTime::from_millis(2);
    for n in 0..5 {
        deliver_data(&mut s, n, t1);
    }
    assert_eq!(reports_to_pred(&s.take_packets()), 0, "reports must wait");
    assert_eq!(s.stats().ackchan_coalesced, 4, "4 of 5 pairs overwritten");
    let deadline = s.next_deadline().expect("flush timer armed");
    assert!(
        deadline <= t1 + SimDuration::from_millis(4),
        "flush deadline beyond the 4 ms hold"
    );

    // Timer fires: one datagram, one coalesced pair.
    s.on_timer(deadline);
    assert_eq!(reports_to_pred(&s.take_packets()), 1);
    assert_eq!(s.stats().ackchan_tx, 2, "five segments became one pair");
}

#[test]
fn ackchan_pair_cap_forces_immediate_flush() {
    let mut s = backup_stack();
    let ports: Vec<u16> = (0..32).map(|i| CLIENT_PORT + i).collect();
    for &port in &ports {
        deliver_syn_from(&mut s, port, SimTime::from_millis(1));
    }
    assert_eq!(
        reports_to_pred(&s.take_packets()),
        32,
        "SYN reports never wait"
    );
    // One report per connection: 31 pending pairs wait for the flush timer.
    let t1 = SimTime::from_millis(2);
    for &port in &ports[..31] {
        deliver_data_from(&mut s, port, 0, t1);
    }
    assert_eq!(reports_to_pred(&s.take_packets()), 0, "below the cap");
    // The 32nd pending pair is the cap: one datagram carries all 32 at
    // once, before the timer.
    deliver_data_from(&mut s, ports[31], 0, t1);
    assert_eq!(reports_to_pred(&s.take_packets()), 1);
    assert_eq!(s.stats().ackchan_tx, 64);
    assert_eq!(s.stats().ackchan_coalesced, 0);
}

#[test]
fn ackchan_reset_volatile_clears_pending_reports() {
    let mut s = backup_stack();
    deliver_syn(&mut s, SimTime::from_millis(1));
    deliver_data(&mut s, 0, SimTime::from_millis(2));
    s.take_packets();
    // Reboot while a report waits for its flush window: the pending pair
    // and the timer must both vanish with the rest of the volatile state.
    s.reset_volatile();
    s.on_timer(SimTime::from_secs(1));
    assert_eq!(s.take_packets().len(), 0, "rebooted stack replays nothing");
    assert_eq!(s.stats().ackchan_tx, 1, "only the SYN report ever left");
}

#[test]
fn ackchan_stale_predecessor_drops_pending_at_flush() {
    let mut s = backup_stack();
    deliver_syn(&mut s, SimTime::from_millis(1));
    deliver_data(&mut s, 0, SimTime::from_millis(2));
    s.take_packets();
    let dropped_before = s.stats().dropped;
    // Promotion races the flush window: the predecessor is resolved at
    // flush time, so the now-stale report is dropped, not misdelivered.
    s.setportopt(
        80,
        ReplicatedPortConfig::sole_primary(DetectorParams::DEFAULT),
        SimTime::from_millis(3),
    );
    let deadline = s.next_deadline().expect("flush timer armed");
    s.on_timer(deadline);
    assert_eq!(reports_to_pred(&s.take_packets()), 0);
    assert_eq!(s.stats().dropped, dropped_before + 1);
    assert_eq!(s.stats().ackchan_tx, 1, "only the SYN report ever left");
}

#[test]
fn ephemeral_exhaustion_is_recoverable_and_ports_recycle() {
    let (mut sim, a, _b) = pair();
    sim.with_node_ctx::<StackHost, _>(a, |host, ctx| {
        // Three-port range: exhaustion is reachable without 25k connections.
        host.stack.set_ephemeral_range(50_000, 50_002);
        let remote = SockAddr::new(B_ADDR, 80);
        let q1 = host
            .stack
            .connect(remote, Box::new(NullApp), ctx.now())
            .expect("first");
        let q2 = host
            .stack
            .connect(remote, Box::new(NullApp), ctx.now())
            .expect("second");
        let q3 = host
            .stack
            .connect(remote, Box::new(NullApp), ctx.now())
            .expect("third");
        let ports: std::collections::BTreeSet<u16> =
            [q1, q2, q3].iter().map(|q| q.local.port).collect();
        assert_eq!(ports.len(), 3, "each connection gets a distinct port");
        // Port space towards this remote is exhausted: a clean error, not
        // a panic, and no connection state is created.
        let err = host
            .stack
            .connect(remote, Box::new(NullApp), ctx.now())
            .unwrap_err();
        assert_eq!(err.remote, remote);
        assert_eq!(host.stack.conn_count(), 3);
        // Ports are per-quad: a different remote still connects fine.
        let other = SockAddr::new(B_ADDR, 81);
        host.stack
            .connect(other, Box::new(NullApp), ctx.now())
            .expect("distinct remote has its own quad space");
        // Closing a connection releases its port for reuse. Close the
        // *first* connection: the cursor (advanced past the range end by
        // the wrap, then spent on `other`) is parked on q2's still-live
        // port, so the reconnect must step past held ports to reach it.
        host.stack.with_io(q1, ctx.now(), |io| io.close());
        let q5 = host
            .stack
            .connect(remote, Box::new(NullApp), ctx.now())
            .expect("port reused after close");
        assert_eq!(q5.local.port, q1.local.port, "closed port reused");
        // Churn on the saturated range: with the two other ports held by
        // live connections, every close/reconnect cycle must hand the
        // same port back, never scanning into the exhaustion error.
        let mut q = q5;
        for i in 0..30 {
            host.stack.with_io(q, ctx.now(), |io| io.close());
            q = host
                .stack
                .connect(remote, Box::new(NullApp), ctx.now())
                .unwrap_or_else(|_| panic!("churn reconnect {i}"));
            assert_eq!(q.local.port, q5.local.port, "only one port is free");
            assert_eq!(host.stack.conn_count(), 4, "churn leaked connections");
        }
        // Nothing is double-allocated: the range still reports exhaustion
        // once all three ports are live again.
        assert!(host
            .stack
            .connect(remote, Box::new(NullApp), ctx.now())
            .is_err());
        host.flush(ctx);
    });
}

/// Two quads that differ only in local address — an inbound connection to
/// a `v_host` virtual address and an outbound one from `addrs[0]`, same
/// remote endpoint, same local port — demultiplex apart through 20
/// close/reconnect cycles of the outbound one: the reused port never
/// aliases the partner, and closing it never loses the partner.
#[test]
fn quads_differing_only_in_local_addr_demux_apart_through_churn() {
    const V_ADDR: IpAddr = IpAddr::new(10, 0, 9, 9);
    let (mut sim, a, _b) = pair();
    sim.with_node_ctx::<StackHost, _>(a, |host, ctx| {
        host.stack.set_ephemeral_range(50_000, 50_002);
        host.stack.add_local_addr(V_ADDR);
        host.stack.listen(50_001, |_q| Box::new(NullApp));
        let remote = SockAddr::new(B_ADDR, 80);

        // The partner: an inbound connection from the same remote endpoint
        // to the *virtual* address on a port inside the ephemeral range.
        let seg = TcpSegment {
            src_port: 80,
            dst_port: 50_001,
            seq: SeqNum::new(9_000),
            ack: SeqNum::new(0),
            flags: TcpFlags::SYN,
            window: 65_535,
            payload: Vec::new().into(),
        };
        let packet = hydranet_netsim::packet::IpPacket::new(
            B_ADDR,
            V_ADDR,
            hydranet_netsim::packet::Protocol::TCP,
            seg.encode(),
        );
        host.stack.handle_packet(packet, ctx.now());
        let partner = Quad::new(SockAddr::new(V_ADDR, 50_001), remote);
        assert!(host.stack.conn(partner).is_some(), "partner missing");

        // Saturate the range towards the same remote: the allocation on
        // port 50001 differs from the partner only in local address.
        let quads: Vec<Quad> = (0..3)
            .map(|i| {
                host.stack
                    .connect(remote, Box::new(NullApp), ctx.now())
                    .unwrap_or_else(|_| panic!("connect {i}"))
            })
            .collect();
        let shared = *quads
            .iter()
            .find(|q| q.local.port == 50_001)
            .expect("range must include the partner's port");
        assert_eq!(host.stack.conn_count(), 4);

        // Churn the shared port through close/reconnect. A key that left
        // out the local address would either alias the partner or refuse
        // to reuse the port (exhaustion), and unlinking the closed quad
        // would drop the partner.
        for i in 0..20 {
            host.stack.with_io(shared, ctx.now(), |io| io.close());
            let q = host
                .stack
                .connect(remote, Box::new(NullApp), ctx.now())
                .unwrap_or_else(|_| panic!("churn reconnect {i}"));
            assert_eq!(q.local.port, 50_001, "only the shared port is free");
            assert!(
                host.stack.conn(q).is_some(),
                "cycle {i}: reused connection not resolvable by full quad"
            );
            assert!(
                host.stack.conn(partner).is_some(),
                "cycle {i}: partner lost or aliased away"
            );
            assert_eq!(host.stack.conn_count(), 4, "cycle {i} leaked connections");
        }

        // The partner still demuxes by full quad after all that churn: its
        // handshake state is intact, distinct from the fresh outbound
        // connection on the same port.
        let partner_state = host.stack.conn(partner).expect("partner").state();
        assert_eq!(partner_state, TcpState::SynRcvd);
        host.flush(ctx);
    });
}

/// A UDP datagram from B to this stack's port 7, wrapped in `layers`
/// IP-in-IP tunnel headers.
fn tunnelled_udp(layers: usize) -> IpPacket {
    let dgram = UdpDatagram {
        src_port: 9,
        dst_port: 7,
        payload: vec![0; 20].into(),
    };
    let mut packet = IpPacket::new(B_ADDR, A_ADDR, Protocol::UDP, dgram.encode());
    for _ in 0..layers {
        packet = IpPacket::new(B_ADDR, A_ADDR, Protocol::IP_IN_IP, packet.encode());
    }
    packet
}

#[test]
fn one_tunnel_layer_is_unwrapped_and_a_second_is_dropped() {
    let mut s = TcpStack::new(A_ADDR, TcpConfig::default());
    s.handle_packet(tunnelled_udp(1), SimTime::ZERO);
    assert_eq!((s.stats().decapsulated, s.stats().dropped), (1, 0));
    let events: Vec<_> = s.drain_events().collect();
    assert!(matches!(events[..], [StackEvent::UdpDelivery { .. }]));
    // Redirectors tunnel once; a tunnel inside a tunnel is not unwrapped.
    s.handle_packet(tunnelled_udp(2), SimTime::ZERO);
    assert_eq!((s.stats().decapsulated, s.stats().dropped), (1, 1));
    assert_eq!(s.drain_events().count(), 0, "two-layer tunnel delivered");
}

#[test]
fn deepest_nested_tunnel_is_dropped_without_recursing() {
    // 3,274 tunnel headers around a 48-byte UDP packet: 3,275 IP headers in
    // 65,528 bytes, as many as one packet holds. Unwrapping them one call
    // deeper per layer overflowed the stack of a debug-build test thread.
    let packet = tunnelled_udp(3_274);
    assert_eq!(packet.total_len(), 65_528);
    let mut s = TcpStack::new(A_ADDR, TcpConfig::default());
    s.handle_packet(packet, SimTime::ZERO);
    assert_eq!((s.stats().decapsulated, s.stats().dropped), (0, 1));
    assert_eq!(s.drain_events().count(), 0);
}
