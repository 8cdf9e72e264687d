//! Property tests for the batched acknowledgement channel.
//!
//! Driven by the in-tree deterministic [`SimRng`] (no external proptest
//! dependency), in the style of `zero_copy_props.rs`. The claim under
//! test is the soundness argument for coalescing §4.3 reports: the
//! deposit and transmission gates are monotonic maxima, and reports are
//! generated in gate order, so
//!
//! 1. one batch datagram is byte-equivalent to its pairs delivered as
//!    one-pair datagrams at the same instant, and
//! 2. a batch coalesced down to the latest pair per connection releases
//!    the identical byte stream through the deposit gate at the identical
//!    sim time as the full pair history,
//!
//! all while the client data path suffers loss, reordering, and
//! duplication.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{pattern, CollectApp, Ends, Replicator, SendOnceApp, StackHost};
use hydranet_netsim::link::{Impairments, LinkParams};
use hydranet_netsim::packet::{IpPacket, Protocol};
use hydranet_netsim::prelude::*;
use hydranet_tcp::prelude::*;

const CLIENT_ADDR: IpAddr = IpAddr::new(10, 0, 1, 1);
const SERVICE_ADDR: IpAddr = IpAddr::new(192, 20, 225, 20);
const PRIMARY_ADDR: IpAddr = IpAddr::new(10, 0, 2, 1);
const BACKUP1_ADDR: IpAddr = IpAddr::new(10, 0, 3, 1);
const PORT: u16 = 80;

/// A gated primary: it holds ACKs and echo output until ack-channel
/// reports raise its gates, exactly like the head of a daisy chain.
fn gated_primary(rx: common::Collected) -> TcpStack {
    let mut s = TcpStack::new(PRIMARY_ADDR, TcpConfig::default());
    s.add_local_addr(SERVICE_ADDR);
    s.listen(PORT, move |_q| Box::new(CollectApp::new(rx.clone(), true)));
    s.setportopt(
        PORT,
        ReplicatedPortConfig {
            predecessor: None,
            has_successor: true,
            detector: DetectorParams::DEFAULT,
        },
        SimTime::ZERO,
    );
    s
}

fn fire_due_timer(stack: &mut TcpStack, now: SimTime) {
    if stack.next_deadline().is_some_and(|t| t <= now) {
        stack.on_timer(now);
    }
}

/// The ack-channel frame carrying `pairs`.
fn frame(pairs: &[AckChanMsg]) -> Vec<u8> {
    let mut wire = Vec::new();
    AckChanMsg::encode_batch_into(pairs, &mut wire);
    wire
}

/// Wraps raw ack-channel payload bytes into the UDP-in-IP packet a backup
/// would send and feeds it to `stack` at `now`.
fn deliver_report(stack: &mut TcpStack, payload: &[u8], now: SimTime) {
    let dgram = UdpDatagram {
        src_port: ACK_CHANNEL_PORT,
        dst_port: ACK_CHANNEL_PORT,
        payload: payload.into(),
    };
    let packet = IpPacket::new(BACKUP1_ADDR, PRIMARY_ADDR, Protocol::UDP, dgram.encode());
    stack.handle_packet(packet, now);
}

/// Applies per-packet loss/reorder/duplication to a packet entering the
/// emulated network; due-round entries keep insertion order, so the whole
/// experiment stays deterministic per seed.
fn impair(rng: &mut SimRng, round: u64, pkt: IpPacket, queue: &mut Vec<(u64, IpPacket)>) {
    if rng.chance(0.05) {
        return; // lost
    }
    let extra = if rng.chance(0.1) { rng.range(1, 5) } else { 0 };
    queue.push((round + 1 + extra, pkt.clone()));
    if rng.chance(0.03) {
        queue.push((round + 1, pkt)); // duplicated
    }
}

fn take_due(queue: &mut Vec<(u64, IpPacket)>, round: u64) -> Vec<IpPacket> {
    let mut out = Vec::new();
    let mut rest = Vec::with_capacity(queue.len());
    for (t, p) in std::mem::take(queue) {
        if t <= round {
            out.push(p);
        } else {
            rest.push((t, p));
        }
    }
    *queue = rest;
    out
}

/// Three mirror primaries fed identical (lossy, reordered) client traffic:
/// one hears every report in a datagram of its own (the paper's §4.2
/// per-segment protocol), one hears the same pairs as one batch datagram,
/// one hears only the coalesced latest pair.
/// The first two must stay bit-identical in every emitted packet and every
/// deposited byte at every sim time; the coalesced one must deposit the
/// identical byte stream at the identical sim times.
#[test]
fn prop_batched_reports_gate_like_singles_at_identical_times() {
    for seed in [0xBA7C4u64, 0x0AC5, 0x7EA] {
        let mut rng = SimRng::seed_from(seed);
        let payload = pattern(12_000);

        let rx_singles = Rc::new(RefCell::new(Vec::new()));
        let rx_batch = Rc::new(RefCell::new(Vec::new()));
        let rx_coalesced = Rc::new(RefCell::new(Vec::new()));
        let mut p_singles = gated_primary(rx_singles.clone());
        let mut p_batch = gated_primary(rx_batch.clone());
        let mut p_coalesced = gated_primary(rx_coalesced.clone());

        let echo_rx = Rc::new(RefCell::new(Vec::new()));
        let mut client = TcpStack::new(CLIENT_ADDR, TcpConfig::default());
        client
            .connect(
                SockAddr::new(SERVICE_ADDR, PORT),
                Box::new(SendOnceApp {
                    payload: payload.clone(),
                    received: echo_rx.clone(),
                    close_after: None,
                    ends: Ends::default(),
                }),
                SimTime::ZERO,
            )
            .expect("connect");

        let mut to_service: Vec<(u64, IpPacket)> = Vec::new();
        let mut to_client: Vec<(u64, IpPacket)> = Vec::new();
        // The backup's report history, walked monotonically: its ACK
        // progress chases the client's send progress in random increments.
        let mut reported_ack: Option<u32> = None;

        for round in 0..40_000u64 {
            let now = SimTime::from_millis(round);
            fire_due_timer(&mut client, now);
            fire_due_timer(&mut p_singles, now);
            fire_due_timer(&mut p_batch, now);
            fire_due_timer(&mut p_coalesced, now);

            for pkt in take_due(&mut to_service, round) {
                p_singles.handle_packet(pkt.clone(), now);
                p_batch.handle_packet(pkt.clone(), now);
                p_coalesced.handle_packet(pkt, now);
            }
            for pkt in take_due(&mut to_client, round) {
                client.handle_packet(pkt, now);
            }

            // Synthesize this round's report pairs (generation order, so
            // SEQ/ACK walk monotonically — exactly how a live backup's
            // connection produces them).
            let quad = p_singles.quads().next();
            if let Some(quad) = quad {
                if rng.chance(0.8) {
                    let target = client
                        .quads()
                        .next()
                        .and_then(|q| client.conn(q))
                        .map(|c| c.snd_nxt().raw());
                    if let Some(target) = target {
                        let prev = *reported_ack.get_or_insert(target);
                        let dist = target.wrapping_sub(prev);
                        let seq_raw = p_singles
                            .conn(quad)
                            .expect("primary conn")
                            .snd_nxt()
                            .raw()
                            .wrapping_add(60_000);
                        let k = 1 + rng.range(0, 3);
                        let pairs: Vec<AckChanMsg> = (1..=k)
                            .map(|i| AckChanMsg {
                                client: quad.remote,
                                service: quad.local,
                                seq: SeqNum::new(seq_raw),
                                ack: SeqNum::new(prev.wrapping_add((dist as u64 * i / k) as u32)),
                            })
                            .collect();
                        reported_ack = Some(target);

                        for m in &pairs {
                            deliver_report(&mut p_singles, &frame(&[*m]), now);
                        }
                        deliver_report(&mut p_batch, &frame(&pairs), now);
                        let last = pairs.last().expect("non-empty");
                        deliver_report(&mut p_coalesced, &frame(&[*last]), now);
                    }
                }
            }

            let out_singles = p_singles.take_packets();
            let out_batch = p_batch.take_packets();
            let _ = p_coalesced.take_packets();
            assert_eq!(
                out_singles, out_batch,
                "seed {seed:#x} round {round}: batch framing diverged from singles"
            );
            assert_eq!(
                *rx_singles.borrow(),
                *rx_batch.borrow(),
                "seed {seed:#x} round {round}: batch deposits diverged"
            );
            assert_eq!(
                *rx_singles.borrow(),
                *rx_coalesced.borrow(),
                "seed {seed:#x} round {round}: coalescing changed the deposit stream"
            );

            for pkt in out_singles {
                impair(&mut rng, round, pkt, &mut to_client);
            }
            for pkt in client.take_packets() {
                impair(&mut rng, round, pkt, &mut to_service);
            }

            if rx_singles.borrow().len() == payload.len() && echo_rx.borrow().len() == payload.len()
            {
                break;
            }
        }

        assert_eq!(
            *rx_singles.borrow(),
            payload,
            "seed {seed:#x}: transfer did not complete"
        );
        assert_eq!(
            *echo_rx.borrow(),
            payload,
            "seed {seed:#x}: echo incomplete"
        );
        // Pair accounting: the batch arm heard exactly the same pairs; the
        // coalesced arm strictly fewer datagram payload pairs.
        assert_eq!(
            p_singles.stats().ackchan_rx,
            p_batch.stats().ackchan_rx,
            "pair counts diverged"
        );
        assert!(p_coalesced.stats().ackchan_rx <= p_singles.stats().ackchan_rx);
    }
}

struct Chain {
    sim: Simulator,
    replicas: Vec<NodeId>,
    rx: Vec<common::Collected>,
}

/// A 2-replica echo chain behind a [`Replicator`], every link impaired.
/// Mirrors `ft_chain.rs`'s builder but parameterizes the link quality.
fn build_lossy_chain(link: LinkParams, seed: u64) -> Chain {
    let real_addrs = [PRIMARY_ADDR, BACKUP1_ADDR];
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
    let replicas: Vec<NodeId> = real_addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            t.add_node(
                StackHost::new(format!("replica{i}"), addr, TcpConfig::default()),
                NodeParams::INSTANT,
            )
        })
        .collect();
    let (_, _, rep_if_client) = t.connect(client, rep, link.clone());
    let mut rep_server_ifaces = Vec::new();
    for (i, &r) in replicas.iter().enumerate() {
        let (_, rep_if, _) = t.connect(rep, r, link.clone());
        rep_server_ifaces.push((real_addrs[i], rep_if));
    }
    {
        let repl = t.node_mut::<Replicator>(rep);
        repl.server_ifaces = rep_server_ifaces.iter().map(|&(_, i)| i).collect();
        repl.routes = rep_server_ifaces.clone();
        repl.routes.push((CLIENT_ADDR, rep_if_client));
    }
    let mut sim = t.into_simulator(seed);

    let mut rx = Vec::new();
    for (i, &r) in replicas.iter().enumerate() {
        let received = Rc::new(RefCell::new(Vec::new()));
        let handle = received.clone();
        let host = sim.node_mut::<StackHost>(r);
        host.stack.add_local_addr(SERVICE_ADDR);
        host.stack.listen(PORT, move |_q| {
            Box::new(CollectApp::new(handle.clone(), true))
        });
        let config = if i == 0 {
            ReplicatedPortConfig {
                predecessor: None,
                has_successor: true,
                detector: DetectorParams::DEFAULT,
            }
        } else {
            ReplicatedPortConfig {
                predecessor: Some(real_addrs[i - 1]),
                has_successor: false,
                detector: DetectorParams::DEFAULT,
            }
        };
        host.stack.setportopt(PORT, config, SimTime::ZERO);
        rx.push(received);
    }

    let payload = pattern(40_000);
    let echo_rx = Rc::new(RefCell::new(Vec::new()));
    let app = SendOnceApp {
        payload,
        received: echo_rx.clone(),
        close_after: None,
        ends: Ends::default(),
    };
    sim.with_node_ctx::<StackHost, _>(client, |host, ctx| {
        host.stack
            .connect(SockAddr::new(SERVICE_ADDR, PORT), Box::new(app), ctx.now())
            .expect("connect");
        host.flush(ctx);
    });
    rx.push(echo_rx); // rx[2] = client echo stream
    Chain { sim, replicas, rx }
}

/// Runs a chain to completion under impairments, holding the §4.3
/// atomicity invariant (primary deposits never outrun backup deposits) at
/// every 20 ms sample. Returns the backup's coalesced report count.
fn run_lossy_chain(seed: u64) -> u64 {
    let link = LinkParams {
        impairments: Impairments {
            loss_p: 0.02,
            reorder_p: 0.05,
            reorder_jitter: SimDuration::from_millis(2),
            duplicate_p: 0.01,
            corrupt_p: 0.0,
        },
        ..LinkParams::default()
    };
    let mut chain = build_lossy_chain(link, seed);
    let payload = pattern(40_000);
    for step in 1..=6_000u64 {
        chain.sim.run_until(SimTime::from_millis(step * 20));
        let p = chain.rx[0].borrow().len();
        let b = chain.rx[1].borrow().len();
        assert!(
            p <= b,
            "seed {seed}: atomicity violated at {step}: primary {p} > backup {b}"
        );
        if chain.rx[2].borrow().len() == payload.len() && p == payload.len() {
            break;
        }
    }
    assert_eq!(
        *chain.rx[0].borrow(),
        payload,
        "seed {seed}: primary stream"
    );
    assert_eq!(*chain.rx[1].borrow(), payload, "seed {seed}: backup stream");
    assert_eq!(*chain.rx[2].borrow(), payload, "seed {seed}: client echo");
    let backup = chain.sim.node::<StackHost>(chain.replicas[1]);
    backup.stack.stats().ackchan_coalesced
}

/// End-to-end under loss/reorder/duplication: the batched chain delivers
/// the exact payload on every stream with atomicity intact at every
/// sample, and its backup did coalesce reports — so fewer pairs crossed
/// the wire than the paper's one report per diverted segment.
#[test]
fn prop_lossy_chain_delivers_intact_while_coalescing() {
    for seed in [31u64, 47] {
        assert!(
            run_lossy_chain(seed) > 0,
            "seed {seed}: batching never coalesced"
        );
    }
}
