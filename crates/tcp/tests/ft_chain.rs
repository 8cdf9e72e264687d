//! ft-TCP chain integration: primary + backups behind a replicating
//! forwarder, exercising the §4.3 acknowledgement channel, atomicity gates,
//! fail-over by role change, and the failure estimator — at transport level
//! (the redirector and management crates build on exactly these mechanics).

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{pattern, CollectApp, Collected, Ends, Replicator, SendOnceApp, StackHost};
use hydranet_netsim::prelude::*;
use hydranet_tcp::prelude::*;

const CLIENT_ADDR: IpAddr = IpAddr::new(10, 0, 1, 1);
const SERVICE_ADDR: IpAddr = IpAddr::new(192, 20, 225, 20);
const PRIMARY_ADDR: IpAddr = IpAddr::new(10, 0, 2, 1);
const BACKUP1_ADDR: IpAddr = IpAddr::new(10, 0, 3, 1);
const BACKUP2_ADDR: IpAddr = IpAddr::new(10, 0, 4, 1);
const PORT: u16 = 80;

struct Chain {
    sim: Simulator,
    client: NodeId,
    replicas: Vec<NodeId>, // chain order: primary first
    rx: Vec<common::Collected>,
}

/// Builds a star topology: client and N replicas around a [`Replicator`].
/// Installs an echoing `CollectApp` service on every replica and configures
/// the replicated port per chain position.
fn build_chain(n_replicas: usize, echo: bool, detector: DetectorParams) -> Chain {
    assert!(n_replicas >= 1);
    let real_addrs = [PRIMARY_ADDR, BACKUP1_ADDR, BACKUP2_ADDR];
    let mut t = TopologyBuilder::new();
    let client = t.add_node(
        StackHost::new("client", CLIENT_ADDR, TcpConfig::default()),
        NodeParams::INSTANT,
    );
    let rep = t.add_node(
        Replicator {
            service_addr: SERVICE_ADDR,
            server_ifaces: Vec::new(),
            routes: Vec::new(),
        },
        NodeParams::INSTANT,
    );
    let mut replicas = Vec::new();
    for (i, &addr) in real_addrs.iter().take(n_replicas).enumerate() {
        let node = t.add_node(
            StackHost::new(format!("replica{i}"), addr, TcpConfig::default()),
            NodeParams::INSTANT,
        );
        replicas.push(node);
    }
    let (_, _, rep_if_client) = t.connect(client, rep, LinkParams::default());
    let mut rep_server_ifaces = Vec::new();
    for (i, &r) in replicas.iter().enumerate() {
        let (_, rep_if, _) = t.connect(rep, r, LinkParams::default());
        rep_server_ifaces.push((real_addrs[i], rep_if));
    }
    {
        let repl = t.node_mut::<Replicator>(rep);
        repl.server_ifaces = rep_server_ifaces.iter().map(|&(_, i)| i).collect();
        repl.routes = rep_server_ifaces.clone();
        repl.routes.push((CLIENT_ADDR, rep_if_client));
    }
    let mut sim = t.into_simulator(23);

    let mut rx = Vec::new();
    for (i, &r) in replicas.iter().enumerate() {
        let received = Rc::new(RefCell::new(Vec::new()));
        let handle = received.clone();
        let host = sim.node_mut::<StackHost>(r);
        host.stack.add_local_addr(SERVICE_ADDR);
        host.stack.listen(PORT, move |_q| {
            Box::new(CollectApp::new(handle.clone(), echo))
        });
        let config = if i == 0 {
            ReplicatedPortConfig {
                predecessor: None,
                has_successor: n_replicas > 1,
                detector,
            }
        } else {
            ReplicatedPortConfig {
                predecessor: Some(real_addrs[i - 1]),
                has_successor: i + 1 < n_replicas,
                detector,
            }
        };
        host.stack.setportopt(PORT, config, SimTime::ZERO);
        rx.push(received);
    }
    Chain {
        sim,
        client,
        replicas,
        rx,
    }
}

fn start_client(chain: &mut Chain, payload: Vec<u8>) -> (Collected, Ends) {
    let received = Collected::default();
    let ends = Ends::default();
    let app = SendOnceApp {
        payload,
        received: received.clone(),
        close_after: None,
        ends: ends.clone(),
    };
    chain
        .sim
        .with_node_ctx::<StackHost, _>(chain.client, |host, ctx| {
            host.stack
                .connect(SockAddr::new(SERVICE_ADDR, PORT), Box::new(app), ctx.now())
                .expect("connect");
            host.flush(ctx);
        });
    (received, ends)
}

#[test]
fn single_primary_behaves_like_plain_tcp() {
    let mut chain = build_chain(1, true, DetectorParams::DEFAULT);
    let payload = pattern(8_000);
    let (echo_rx, _) = start_client(&mut chain, payload.clone());
    chain.sim.run_until(SimTime::from_secs(10));
    assert_eq!(*chain.rx[0].borrow(), payload);
    assert_eq!(*echo_rx.borrow(), payload);
}

#[test]
fn two_replicas_deliver_atomically_and_echo_once() {
    let mut chain = build_chain(2, true, DetectorParams::DEFAULT);
    let payload = pattern(20_000);
    let (echo_rx, _) = start_client(&mut chain, payload.clone());
    chain.sim.run_until(SimTime::from_secs(20));
    // Both replicas consumed the full client stream.
    assert_eq!(*chain.rx[0].borrow(), payload, "primary stream");
    assert_eq!(*chain.rx[1].borrow(), payload, "backup stream");
    // The client received the echo exactly once (backup output diverted).
    assert_eq!(*echo_rx.borrow(), payload, "client echo");
    // The backup really did route its output into the ack channel.
    let backup = chain.sim.node::<StackHost>(chain.replicas[1]);
    assert!(
        backup.stack.stats().ackchan_tx > 0,
        "no ack-channel traffic"
    );
    let primary = chain.sim.node::<StackHost>(chain.replicas[0]);
    assert!(
        primary.stack.stats().ackchan_rx > 0,
        "primary heard nothing"
    );
}

#[test]
fn three_replica_chain_works() {
    let mut chain = build_chain(3, true, DetectorParams::DEFAULT);
    let payload = pattern(15_000);
    let (echo_rx, _) = start_client(&mut chain, payload.clone());
    chain.sim.run_until(SimTime::from_secs(30));
    for (i, rx) in chain.rx.iter().enumerate() {
        assert_eq!(*rx.borrow(), payload, "replica {i} stream");
    }
    assert_eq!(*echo_rx.borrow(), payload);
    // Middle backup both sends and receives on the channel.
    let middle = chain.sim.node::<StackHost>(chain.replicas[1]);
    assert!(middle.stack.stats().ackchan_tx > 0);
    assert!(middle.stack.stats().ackchan_rx > 0);
}

#[test]
fn primary_never_outruns_backup_deposits() {
    // With the backup link made slow, the primary's ACK progress (and hence
    // the client's send window release) must pace to the backup.
    let mut chain = build_chain(2, false, DetectorParams::DEFAULT);
    let payload = pattern(30_000);
    let _ = start_client(&mut chain, payload.clone());
    // Sample repeatedly: the primary app may never have read a byte the
    // backup has not also received.
    for step in 1..60 {
        chain.sim.run_until(SimTime::from_millis(step * 20));
        let p = chain.rx[0].borrow().len();
        let b = chain.rx[1].borrow().len();
        assert!(
            p <= b,
            "atomicity violated at step {step}: primary {p} > backup {b}"
        );
    }
    chain.sim.run_until(SimTime::from_secs(30));
    assert_eq!(*chain.rx[0].borrow(), payload);
    assert_eq!(*chain.rx[1].borrow(), payload);
}

#[test]
fn backup_failure_stalls_service_and_detector_fires() {
    let detector = DetectorParams::new(4, SimDuration::from_secs(60));
    let mut chain = build_chain(2, false, detector);
    // Big enough that the crash lands mid-transfer (the chain moves
    // ~60 kB in under 120 ms on these links).
    let payload = pattern(600_000);
    let _ = start_client(&mut chain, payload.clone());
    chain.sim.run_until(SimTime::from_millis(60));
    let backup = chain.replicas[1];
    chain.sim.schedule_crash(backup, SimTime::from_millis(80));
    chain.sim.run_until(SimTime::from_secs(120));
    // The primary's deposit gate starves; the client retransmits into the
    // void and the primary's estimator crosses its threshold.
    let primary = chain.sim.node::<StackHost>(chain.replicas[0]);
    let suspected = primary
        .events
        .iter()
        .any(|e| matches!(e, StackEvent::FailureSuspected { port: PORT, .. }));
    assert!(suspected, "primary never suspected the broken chain");
    assert!(chain.rx[0].borrow().len() < payload.len());
}

#[test]
fn reconfiguration_after_backup_failure_resumes_service() {
    let detector = DetectorParams::new(4, SimDuration::from_secs(60));
    let mut chain = build_chain(2, false, detector);
    let payload = pattern(600_000);
    let _ = start_client(&mut chain, payload.clone());
    chain.sim.run_until(SimTime::from_millis(60));
    chain
        .sim
        .schedule_crash(chain.replicas[1], SimTime::from_millis(80));
    // Wait until the primary suspects the failure, then reconfigure it as a
    // sole primary (what the management protocol will do).
    let mut reconfigured = false;
    for step in 1..600 {
        chain.sim.run_until(SimTime::from_millis(120 + step * 100));
        let primary = chain.sim.node::<StackHost>(chain.replicas[0]);
        if !reconfigured
            && primary
                .events
                .iter()
                .any(|e| matches!(e, StackEvent::FailureSuspected { .. }))
        {
            let node = chain.replicas[0];
            chain.sim.with_node_ctx::<StackHost, _>(node, |host, ctx| {
                host.stack.setportopt(
                    PORT,
                    ReplicatedPortConfig::sole_primary(DetectorParams::DEFAULT),
                    ctx.now(),
                );
                host.flush(ctx);
            });
            reconfigured = true;
        }
        if chain.rx[0].borrow().len() == payload.len() {
            break;
        }
    }
    assert!(reconfigured, "detector never fired");
    assert_eq!(*chain.rx[0].borrow(), payload, "service did not resume");
}

/// A backup shed from the chain does not know it: it keeps reporting to
/// its old predecessor until it hears otherwise. Those late reports reach a
/// primary that now runs alone and must not gate its deposits again, or
/// the stream wedges at the first report once the backup falls silent.
#[test]
fn a_shed_backups_late_report_never_regates_the_sole_primary() {
    let detector = DetectorParams::new(4, SimDuration::from_secs(60));
    let mut chain = build_chain(2, false, detector);
    let payload = pattern(600_000);
    let _ = start_client(&mut chain, payload.clone());
    chain.sim.run_until(SimTime::from_millis(60));
    let primary = chain.replicas[0];
    chain
        .sim
        .with_node_ctx::<StackHost, _>(primary, |host, ctx| {
            host.stack.setportopt(
                PORT,
                ReplicatedPortConfig::sole_primary(detector),
                ctx.now(),
            );
            host.flush(ctx);
        });
    // The backup, still configured with its predecessor, reports on.
    let reports_before = chain
        .sim
        .node::<StackHost>(primary)
        .stack
        .stats()
        .ackchan_rx;
    chain.sim.run_until(SimTime::from_millis(80));
    let reports = chain
        .sim
        .node::<StackHost>(primary)
        .stack
        .stats()
        .ackchan_rx;
    assert!(
        reports > reports_before,
        "no late report reached the primary"
    );
    chain
        .sim
        .schedule_crash(chain.replicas[1], SimTime::from_millis(80));
    chain.sim.run_until(SimTime::from_secs(30));
    assert_eq!(chain.rx[0].borrow().len(), payload.len(), "stream wedged");
    assert_eq!(*chain.rx[0].borrow(), payload);
}

/// A tail that dies while the connection idles is noticed once the client
/// closes. The client's FIN waits at every earlier replica's deposit gate,
/// and a retransmitted FIN carries no byte to count as a client duplicate,
/// so only the deposit watchdog sees the broken loop.
#[test]
fn a_dead_tail_at_close_time_is_suspected() {
    for n in [2, 3] {
        let detector = DetectorParams::new(4, SimDuration::from_secs(60));
        let mut chain = build_chain(n, false, detector);
        let payload = pattern(8_000);
        let _ = start_client(&mut chain, payload.clone());
        chain
            .sim
            .schedule_crash(chain.replicas[n - 1], SimTime::from_millis(2_100));
        let close = SimTime::from_millis(2_200);
        chain.sim.run_until(close);
        assert_eq!(*chain.rx[n - 1].borrow(), payload, "{n} replicas");
        chain
            .sim
            .with_node_ctx::<StackHost, _>(chain.client, |host, ctx| {
                let quad = host.stack.quads().next().expect("the client's connection");
                host.stack.with_io(quad, ctx.now(), |io| io.close());
                host.flush(ctx);
            });
        chain.sim.run_until(close + SimDuration::from_secs(10));
        let suspected = chain.replicas[..n - 1].iter().any(|&r| {
            let host = chain.sim.node::<StackHost>(r);
            host.events
                .iter()
                .any(|e| matches!(e, StackEvent::FailureSuspected { .. }))
        });
        assert!(
            suspected,
            "{n} replicas: nobody suspected the dead tail within 10 s of the close"
        );
    }
}

#[test]
fn primary_failure_with_promotion_is_client_transparent() {
    let detector = DetectorParams::new(4, SimDuration::from_secs(60));
    let mut chain = build_chain(2, true, detector);
    let payload = pattern(400_000);
    let (echo_rx, ends) = start_client(&mut chain, payload.clone());
    chain.sim.run_until(SimTime::from_millis(60));
    chain
        .sim
        .schedule_crash(chain.replicas[0], SimTime::from_millis(80));
    // Wait for the backup to suspect the failure, then promote it (the
    // management protocol's reconfiguration, done by hand here).
    let mut promoted = false;
    for step in 1..1200 {
        chain.sim.run_until(SimTime::from_millis(120 + step * 100));
        let backup = chain.sim.node::<StackHost>(chain.replicas[1]);
        if !promoted
            && backup
                .events
                .iter()
                .any(|e| matches!(e, StackEvent::FailureSuspected { .. }))
        {
            let node = chain.replicas[1];
            chain.sim.with_node_ctx::<StackHost, _>(node, |host, ctx| {
                host.stack.setportopt(
                    PORT,
                    ReplicatedPortConfig::sole_primary(DetectorParams::DEFAULT),
                    ctx.now(),
                );
                host.flush(ctx);
            });
            promoted = true;
        }
        if echo_rx.borrow().len() == payload.len() {
            break;
        }
    }
    assert!(promoted, "backup never suspected the dead primary");
    // The client's single TCP connection delivered the complete byte
    // stream — it never saw the fail-over.
    assert_eq!(*echo_rx.borrow(), payload, "echo stream incomplete");
    assert_eq!(*chain.rx[1].borrow(), payload, "backup stream incomplete");
    // And the client's connection never ended: its app saw no reset.
    assert!(ends.borrow().is_empty(), "client saw {:?}", ends.borrow());
}

/// Corrupt segments are dropped at decode (checksum) and so can never reach
/// the failure estimator — while the *same* segment, uncorrupted, is a
/// genuine duplicate that the estimator counts. Injected corruption must
/// not cause spurious fail-overs.
#[test]
fn detector_never_sees_corrupt_segments() {
    // Hair-trigger estimator: two duplicates inside the window suffice.
    let detector = DetectorParams::new(2, SimDuration::from_secs(60));
    let mut chain = build_chain(1, false, detector);
    let payload = pattern(2_000);
    let _ = start_client(&mut chain, payload.clone());
    chain.sim.run_until(SimTime::from_secs(2));
    assert_eq!(*chain.rx[0].borrow(), payload);

    // Craft a duplicate data segment for the primary's live connection:
    // eight bytes ending exactly at rcv_nxt — old data, in sequence space
    // the connection has already consumed.
    let primary = chain.replicas[0];
    let dup = {
        let host = chain.sim.node::<StackHost>(primary);
        let quad = host.stack.quads().next().expect("one connection");
        let conn = host.stack.conn(quad).unwrap();
        TcpSegment {
            src_port: quad.remote.port,
            dst_port: quad.local.port,
            seq: conn.rcv_nxt() - 8,
            ack: conn.snd_nxt(),
            flags: TcpFlags::ACK,
            window: 65_535,
            payload: vec![0xAA; 8].into(),
        }
    };
    let inject = |chain: &mut Chain, bytes: Vec<u8>| {
        let packet = hydranet_netsim::packet::IpPacket::new(
            CLIENT_ADDR,
            SERVICE_ADDR,
            hydranet_netsim::packet::Protocol::TCP,
            bytes,
        );
        chain
            .sim
            .with_node_ctx::<StackHost, _>(chain.client, |_, ctx| {
                ctx.send(IfaceId::from_index(0), packet);
            });
        chain.sim.run_for(SimDuration::from_millis(20));
    };

    // Phase 1: the duplicate, corrupted (one payload bit flipped, so the
    // length field stays intact and the checksum must catch it). Far past
    // the estimator threshold — and nothing may fire.
    let clean = dup.encode().to_vec();
    let rx_before = chain.sim.node::<StackHost>(primary).stack.stats().tcp_rx;
    for _ in 0..10 {
        let mut corrupted = clean.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x10;
        inject(&mut chain, corrupted);
    }
    {
        let host = chain.sim.node::<StackHost>(primary);
        assert_eq!(host.stack.stats().rx_corrupt, 10, "corrupt drops counted");
        assert!(
            !host
                .events
                .iter()
                .any(|e| matches!(e, StackEvent::FailureSuspected { .. })),
            "estimator fired on corrupt segments"
        );
        assert_eq!(
            host.stack.stats().tcp_rx,
            rx_before,
            "corrupt segment reached demux"
        );
    }

    // Phase 2: the same duplicate, clean — now the estimator must count it
    // and cross its threshold.
    inject(&mut chain, clean.clone());
    inject(&mut chain, clean);
    let host = chain.sim.node::<StackHost>(primary);
    assert!(
        host.events
            .iter()
            .any(|e| matches!(e, StackEvent::FailureSuspected { .. })),
        "estimator ignored genuine duplicates"
    );
}
