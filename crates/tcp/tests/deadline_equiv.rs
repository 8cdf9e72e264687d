//! Property test: the stack's deadline heap is *semantically identical* to
//! the old full-scan deadline computation.
//!
//! The stack used to find its next timer by scanning every connection's
//! `next_deadline()`. It now keeps one indexed min-heap per stack with
//! exactly one entry per connection that has a deadline: a re-arm moves
//! the entry in place, freeing a slot removes it, and the heap's root is
//! `TcpStack::next_deadline()`. Its contract is exact-min: that answer must
//! equal the minimum over all live connections — if it ever fired late (an
//! entry left behind by a move) or early (a phantom entry of a freed
//! slot), retransmission and delayed-ack schedules would shift and the
//! packet trace would change.
//!
//! So each test runs the same lossy/reordering/duplicating scenario twice —
//! one host arms its node timer from the heap (`next_deadline()`), the
//! other by scanning every connection the old way — asserts at every flush
//! that the two answers agree, and asserts the two runs produce
//! **identical packet sequences and deposit times**.

use std::cell::RefCell;
use std::rc::Rc;

use hydranet_netsim::prelude::*;
use hydranet_tcp::prelude::*;

const CLIENT_ADDR: IpAddr = IpAddr::new(10, 0, 1, 1);
const SERVER_ADDR: IpAddr = IpAddr::new(10, 0, 2, 1);
const PORT: u16 = 80;
/// A server port nobody listens on: connections to it are refused.
const CLOSED_PORT: u16 = 81;

/// How a host derives the deadline for its single stack timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlinePolicy {
    /// The production path: the stack's indexed deadline heap.
    Index,
    /// The original semantics: scan every connection's `next_deadline()`.
    FullScan,
}

/// Every externally visible action, in order: packets on the wire (with a
/// content fingerprint) and application deposits (with their sim time).
type TraceLog = Rc<RefCell<Vec<String>>>;

fn fnv(bytes: &[u8]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// A [`common::StackHost`] variant that logs its wire traffic and arms its
/// timer under a configurable deadline policy.
struct PolicyHost {
    stack: TcpStack,
    policy: DeadlinePolicy,
    log: TraceLog,
    name: &'static str,
}

impl PolicyHost {
    fn new(
        name: &'static str,
        addr: IpAddr,
        cfg: TcpConfig,
        policy: DeadlinePolicy,
        log: TraceLog,
    ) -> Self {
        PolicyHost {
            stack: TcpStack::new(addr, cfg),
            policy,
            log,
            name,
        }
    }

    fn flush(&mut self, ctx: &mut Context<'_>) {
        for p in self.stack.take_packets() {
            self.log.borrow_mut().push(format!(
                "{} tx t={} {}->{} fp={:016x}",
                self.name,
                ctx.now().as_nanos(),
                p.src(),
                p.dst(),
                fnv(&p.encode())
            ));
            ctx.send(IfaceId::from_index(0), p);
        }
        self.stack.take_events_into(&mut Vec::new());
        let indexed = self.stack.next_deadline();
        let scanned: Option<SimTime> = self
            .stack
            .quads()
            .filter_map(|q| self.stack.conn(q).and_then(|c| c.next_deadline()))
            .min();
        // Exact-min equivalence, checked at every flush: the heap may
        // never disagree with the scan it replaced — late (stale entry) or
        // early (phantom entry) would both shift the schedule.
        assert_eq!(
            indexed,
            scanned,
            "{}: indexed deadline diverged from full scan at t={}",
            self.name,
            ctx.now().as_nanos()
        );
        let deadline = match self.policy {
            DeadlinePolicy::Index => indexed,
            DeadlinePolicy::FullScan => scanned,
        };
        if let Some(t) = deadline {
            ctx.set_timer_at(t);
        }
    }
}

impl Node for PolicyHost {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        self.stack.handle_packet(packet, ctx.now());
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        self.stack.on_timer(ctx.now());
        self.flush(ctx);
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Server app: echoes everything and logs each deposit with its sim time.
struct DepositLogApp {
    log: TraceLog,
    total: usize,
    backlog: Vec<u8>,
}

impl SocketApp for DepositLogApp {
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        self.total += data.len();
        self.log.borrow_mut().push(format!(
            "server deposit t={} len={} total={}",
            io.now().as_nanos(),
            data.len(),
            self.total
        ));
        self.backlog.extend_from_slice(&data);
        while !self.backlog.is_empty() {
            let n = io.write(&self.backlog);
            if n == 0 {
                break;
            }
            self.backlog.drain(..n);
        }
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        while !self.backlog.is_empty() {
            let n = io.write(&self.backlog);
            if n == 0 {
                break;
            }
            self.backlog.drain(..n);
        }
    }
}

/// Client app: streams a payload, logs reply deposits, closes when all
/// echoed bytes arrived; logs a reset (a refused connection).
struct ClientApp {
    payload: Vec<u8>,
    expect: usize,
    got: usize,
    log: TraceLog,
}

impl ClientApp {
    fn pump(&mut self, io: &mut SocketIo<'_>) {
        while !self.payload.is_empty() {
            let n = io.write(&self.payload);
            if n == 0 {
                break;
            }
            self.payload.drain(..n);
        }
    }
}

impl SocketApp for ClientApp {
    fn on_established(&mut self, io: &mut SocketIo<'_>) {
        self.pump(io);
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        self.pump(io);
    }

    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        self.got += data.len();
        self.log.borrow_mut().push(format!(
            "client deposit t={} len={} total={}",
            io.now().as_nanos(),
            data.len(),
            self.got
        ));
        if self.got >= self.expect {
            io.close();
        }
    }

    fn on_reset(&mut self, quad: Quad) {
        self.log.borrow_mut().push(format!("client reset {quad}"));
    }
}

/// Runs one client connection per `(start ms, server port)` over an
/// impaired link under `policy`, echoing `payload_len` bytes on each one
/// that reaches the listener on [`PORT`], and returns the full action log.
fn run_scenario(
    seed: u64,
    policy: DeadlinePolicy,
    payload_len: usize,
    conns: &[(u64, u16)],
) -> Vec<String> {
    let log: TraceLog = Rc::new(RefCell::new(Vec::new()));
    let link = LinkParams::default().with_impairments(
        Impairments::NONE
            .with_loss(0.05)
            .with_reordering(0.10, SimDuration::from_millis(2))
            .with_duplication(0.02),
    );
    let mut t = TopologyBuilder::new();
    let client = t.add_node(
        PolicyHost::new(
            "client",
            CLIENT_ADDR,
            TcpConfig::default(),
            policy,
            log.clone(),
        ),
        NodeParams::INSTANT,
    );
    let server = t.add_node(
        PolicyHost::new(
            "server",
            SERVER_ADDR,
            TcpConfig::default(),
            policy,
            log.clone(),
        ),
        NodeParams::INSTANT,
    );
    t.connect(client, server, link);
    let mut sim = t.into_simulator(seed);

    let server_log = log.clone();
    sim.node_mut::<PolicyHost>(server)
        .stack
        .listen(PORT, move |_quad| {
            Box::new(DepositLogApp {
                log: server_log.clone(),
                total: 0,
                backlog: Vec::new(),
            })
        });
    let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
    for &(start_ms, port) in conns {
        sim.run_until(SimTime::from_millis(start_ms));
        let client_log = log.clone();
        let payload = payload.clone();
        sim.with_node_ctx::<PolicyHost, _>(client, |host, ctx| {
            host.stack
                .connect(
                    SockAddr::new(SERVER_ADDR, port),
                    Box::new(ClientApp {
                        payload,
                        expect: payload_len,
                        got: 0,
                        log: client_log,
                    }),
                    ctx.now(),
                )
                .expect("connect");
            host.flush(ctx);
        });
    }
    sim.run_until(SimTime::from_secs(300));

    let out = log.borrow().clone();
    let done = out
        .iter()
        .filter(|l| l.contains("client deposit") && l.contains(&format!("total={payload_len}")))
        .count();
    let refused = out.iter().filter(|l| l.contains("client reset")).count();
    let echoes = conns.iter().filter(|&&(_, p)| p == PORT).count();
    assert_eq!(
        (done, refused),
        (echoes, conns.len() - echoes),
        "seed {seed} {policy:?}: echoes completed and connections refused ({} log lines)",
        out.len()
    );
    out
}

fn assert_same_trace(seed: u64, payload_len: usize, conns: &[(u64, u16)]) {
    let index = run_scenario(seed, DeadlinePolicy::Index, payload_len, conns);
    let scan = run_scenario(seed, DeadlinePolicy::FullScan, payload_len, conns);
    assert_eq!(
        index.len(),
        scan.len(),
        "seed {seed}: trace lengths diverged"
    );
    for (i, (a, b)) in index.iter().zip(scan.iter()).enumerate() {
        assert_eq!(a, b, "seed {seed}: traces diverge at line {i}");
    }
}

#[test]
fn index_and_full_scan_produce_identical_traces_under_loss_and_reorder() {
    for seed in [3u64, 17, 91] {
        assert_same_trace(seed, 20_000, &[(0, PORT)]);
    }
}

#[test]
fn index_matches_scan_with_many_concurrent_connections() {
    // Many simultaneously armed connection timers: the heap has to keep
    // the exact min across the whole population, not just one flow.
    assert_same_trace(42, 4_000, &[(0, PORT); 24]);
}

#[test]
fn index_matches_scan_when_refused_connections_free_armed_slots() {
    // A refused connection's slot is freed by the RST while its SYN's
    // retransmission deadline is still filed; the echo connections opened
    // in between reuse those slots (the free list is last-in first-out).
    // A freed slot that kept its heap entry would surface as a phantom
    // deadline at the next flush.
    let conns: Vec<(u64, u16)> = (0..40u64)
        .map(|i| (i * 3, if i % 3 == 0 { PORT } else { CLOSED_PORT }))
        .collect();
    for seed in [5u64, 23] {
        assert_same_trace(seed, 2_000, &conns);
    }
}
