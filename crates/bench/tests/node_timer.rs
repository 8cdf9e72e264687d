//! One wakeup per node (DESIGN.md §5c): the regression test for the
//! wakeup chains it removed, and the evidence that every wakeup it removed
//! was a no-op.
//!
//! Until PR 13 a node filed a calendar entry at its next deadline on
//! *every* flush. `Context::set_timer_at` has no replace, so each packet
//! left a stale entry behind, each stale entry's wakeup flushed and filed
//! another, and the chains never died: simulator events per payload byte
//! grew with transfer length. The shipping nodes now ask for their next
//! deadline through `Context::wake_at`, and the simulator, which holds each
//! node's earliest pending wakeup, files an entry only for a deadline
//! earlier than that one. [`Reference`] below is the old behaviour, raw
//! `set_timer_at` on every callback, kept as test code so the equivalence
//! stays executable.

use hydranet_bench::fig4::{run_point, Fig4Config, Fig4Params};
use hydranet_core::prelude::*;
use hydranet_netsim::node::{Context, IfaceId, Node};
use hydranet_netsim::packet::IpPacket;
use hydranet_netsim::routing::Prefix;
use hydranet_netsim::sim::Simulator;
use hydranet_netsim::topology::TopologyBuilder;
use hydranet_obs::Obs;

const SEED: u64 = 21;

/// A fig4 primary+backup transfer must cost the same simulator events per
/// payload kB at 1 MiB as at 8 MiB, and almost none of them may be timer
/// wakeups. With a chain per packet the 8 MiB transfer ran ~76 events/kB
/// (77 % of them wakeups) against ~18 with one wakeup per node. Prints
/// both figures and the wakeup share (run with `--nocapture`).
#[test]
fn events_per_payload_kb_do_not_grow_with_transfer_length() {
    let events_per_kb = |total_bytes: usize| {
        let params = Fig4Params {
            total_bytes,
            ..Fig4Params::default()
        };
        let p = run_point(Fig4Config::PrimaryBackup, 1024, &params, SEED);
        assert!(p.completed, "{total_bytes} B transfer did not complete");
        let per_kb = p.events as f64 / (total_bytes as f64 / 1000.0);
        println!(
            "fig4 primary+backup, 1,024 B writes, {} KiB: {} events, \
             {per_kb:.2} per payload kB, {} timer wakeups ({:.2} % of events)",
            total_bytes >> 10,
            p.events,
            p.timers_fired,
            100.0 * p.timers_fired as f64 / p.events as f64
        );
        assert!(
            p.timers_fired * 20 <= p.events,
            "{total_bytes} B: {} of {} events are timer wakeups (> 5 %)",
            p.timers_fired,
            p.events
        );
        per_kb
    };
    let short = events_per_kb(1 << 20);
    let long = events_per_kb(8 << 20);
    assert!(
        (long / short - 1.0).abs() <= 0.10,
        "events/payload-kB moved with transfer length: {short:.2} @ 1 MiB, {long:.2} @ 8 MiB"
    );
}

/// The instant a node's protocol state next needs a wakeup, read through
/// the node's public surface.
trait Deadline: Node {
    fn deadline(&self) -> Option<SimTime>;
}

impl Deadline for ClientHost {
    fn deadline(&self) -> Option<SimTime> {
        self.stack().next_deadline()
    }
}

/// The stack's deadline and the daemon's. The daemon's covers both its
/// retransmits and the registrations still to fire, as the shipping node's
/// management deadline does.
impl Deadline for HostServer {
    fn deadline(&self) -> Option<SimTime> {
        let daemon = self.daemon().next_deadline();
        [self.stack().next_deadline(), daemon]
            .into_iter()
            .flatten()
            .min()
    }
}

impl Deadline for ManagedRedirector {
    fn deadline(&self) -> Option<SimTime> {
        self.controller().next_deadline()
    }
}

/// The reference node: the shipping node plus, when `rearm` is set, the
/// pre-PR-13 behaviour of filing a calendar entry at the node's next
/// deadline after every callback, pending entry or not. Every wakeup the
/// shipping node skips is delivered here. Also records each packet the
/// node receives, with its arrival instant.
struct Reference<N> {
    node: N,
    rearm: bool,
    received: Vec<(SimTime, IpPacket)>,
}

impl<N: Deadline> Reference<N> {
    fn new(node: N, rearm: bool) -> Self {
        Reference {
            node,
            rearm,
            received: Vec::new(),
        }
    }

    fn rearm(&mut self, ctx: &mut Context<'_>) {
        if self.rearm {
            if let Some(t) = self.node.deadline() {
                ctx.set_timer_at(t);
            }
        }
    }
}

impl<N: Deadline> Node for Reference<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.node.on_start(ctx);
        self.rearm(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, iface: IfaceId, packet: IpPacket) {
        self.received.push((ctx.now(), packet.clone()));
        self.node.on_packet(ctx, iface, packet);
        self.rearm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        self.node.on_timer(ctx);
        self.rearm(ctx);
    }

    fn on_crash(&mut self) {
        self.node.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_>) {
        self.node.on_recover(ctx);
        self.rearm(ctx);
    }

    fn name(&self) -> &str {
        self.node.name()
    }
}

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS: [IpAddr; 2] = [IpAddr::new(10, 0, 2, 1), IpAddr::new(10, 0, 3, 1)];
const WRITE: usize = 1024;

fn service() -> SockAddr {
    SockAddr::new(IpAddr::new(192, 20, 225, 20), 5001)
}

/// Everything an observer outside the simulator can tell two runs apart by.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per replica: bytes deposited with the application, first and last
    /// arrival instants.
    deposits: Vec<(Vec<u8>, Option<SimTime>, Option<SimTime>)>,
    /// Every packet the client received, with its arrival instant.
    client_trace: Vec<(SimTime, IpPacket)>,
    /// The same for the redirector and both replicas.
    network_trace: Vec<Vec<(SimTime, IpPacket)>>,
    client_retransmits: u64,
    /// First `tcp.detector.suspected` to first promotion.
    detect_ns: Option<u64>,
}

/// fig4's primary+backup testbed (same addresses, CPU costs, links, MSS =
/// write size, no delayed ACKs), wired by hand because `SystemBuilder`
/// only builds shipping nodes: client — rd — hs1, hs2. Streams `total`
/// bytes, optionally crashing the primary 50 ms in, and runs to `until`.
/// Returns what was observed plus (events processed, timers fired).
fn run(rearm: bool, total: usize, crash_primary: bool, until: SimTime) -> (Observed, u64, u64) {
    let p = Fig4Params::default();
    let tcp = TcpConfig {
        mss: WRITE,
        delayed_ack: false,
        ..TcpConfig::default()
    };
    let host = NodeParams::new(p.host_fixed + p.hydranet_overhead, p.host_per_byte);
    let router = NodeParams::new(p.router_fixed + p.hydranet_overhead, p.router_per_byte);
    let link = LinkParams::new(p.link_bps, p.link_delay)
        .with_mtu(p.mtu)
        .with_queue(128);
    let obs = Obs::enabled();

    let mut topo = TopologyBuilder::new();
    let mut client_node = ClientHost::new("client", CLIENT, tcp.clone());
    client_node.set_obs(obs.clone());
    let client = topo.add_node(Reference::new(client_node, rearm), host);

    let probe = ProbeParams {
        timeout: SimDuration::from_millis(200),
        attempts: 2,
    };
    let mut rd_node = ManagedRedirector::new("rd", RD, probe);
    rd_node.set_obs(obs.clone());
    let rd = topo.add_node(Reference::new(rd_node, rearm), router);
    let (_, _, rd_iface) = topo.connect(client, rd, link.clone());
    let mut routes = vec![(CLIENT, rd_iface)];

    let detector = DetectorParams::new(4, SimDuration::from_secs(60));
    let sinks: Vec<Shared<SinkState>> = (0..HS.len())
        .map(|_| shared(SinkState::default()))
        .collect();
    let mut replicas = Vec::new();
    for (i, addr) in HS.into_iter().enumerate() {
        let mut hs = HostServer::new(format!("hs{}", i + 1), addr, vec![RD], tcp.clone());
        hs.set_obs(obs.clone());
        hs.stack_mut().add_local_addr(service().addr);
        let sink = sinks[i].clone();
        hs.stack_mut().listen(service().port, move |_q| {
            Box::new(EchoApp::sink(sink.clone()))
        });
        // First registrant becomes the primary.
        hs.schedule_registration(service(), detector, SimTime::from_millis(1 + 20 * i as u64));
        let id = topo.add_node(Reference::new(hs, rearm), host);
        let (_, rd_iface, _) = topo.connect(rd, id, link.clone());
        routes.push((addr, rd_iface));
        replicas.push(id);
    }
    let engine = topo
        .node_mut::<Reference<ManagedRedirector>>(rd)
        .node
        .engine_mut();
    for (addr, iface) in routes {
        engine.routes_mut().add(Prefix::host(addr), iface);
    }

    let mut sim: Simulator = topo.into_simulator(SEED);
    sim.set_obs(obs.clone());
    let chain_len = |sim: &Simulator| {
        sim.node::<Reference<ManagedRedirector>>(rd)
            .node
            .controller()
            .chain(service())
            .map_or(0, <[IpAddr]>::len)
    };
    while chain_len(&sim) < HS.len() {
        assert!(sim.now() < SimTime::from_secs(2), "chain failed to form");
        sim.run_for(SimDuration::from_millis(5));
    }

    let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
    let app = StreamSenderApp::new(payload, false, shared(SenderState::default()));
    let quad = sim.with_node_ctx::<Reference<ClientHost>, _>(client, |c, ctx| {
        let quad = c
            .node
            .connect(ctx, service(), Box::new(app))
            .expect("ephemeral port");
        c.rearm(ctx);
        quad
    });
    if crash_primary {
        sim.schedule_crash(
            replicas[0],
            sim.now().saturating_add(SimDuration::from_millis(50)),
        );
    }
    sim.run_until(until);

    let client_node = sim.node::<Reference<ClientHost>>(client);
    let observed = Observed {
        deposits: sinks
            .iter()
            .map(|s| {
                let s = s.borrow();
                (s.data.clone(), s.first_byte_at, s.last_byte_at)
            })
            .collect(),
        client_trace: client_node.received.clone(),
        network_trace: std::iter::once(
            sim.node::<Reference<ManagedRedirector>>(rd)
                .received
                .clone(),
        )
        .chain(
            replicas
                .iter()
                .map(|&r| sim.node::<Reference<HostServer>>(r).received.clone()),
        )
        .collect(),
        client_retransmits: client_node
            .node
            .stack()
            .conn(quad)
            .map_or(0, |c| c.retransmit_count()),
        detect_ns: obs.detection_latency_nanos(),
    };
    let stats = sim.stats();
    (observed, stats.events_processed, stats.timers_fired)
}

/// Shipping nodes against reference nodes on one run: identical replica
/// deposits, packet traces and detection latency, from far fewer events.
fn assert_equivalent(total: usize, crash_primary: bool, until: SimTime) -> Observed {
    let (shipping, events, timers) = run(false, total, crash_primary, until);
    let (reference, ref_events, ref_timers) = run(true, total, crash_primary, until);
    assert_eq!(shipping, reference);
    // The reference really did take the wakeups the shipping nodes skip.
    assert!(
        ref_timers > 2 * timers && ref_events > events,
        "reference {ref_timers} timers / {ref_events} events, \
         shipping {timers} / {events}"
    );
    shipping
}

#[test]
fn skipped_wakeups_are_no_ops_on_a_fig4_primary_backup_point() {
    let total = 256 * 1024;
    let seen = assert_equivalent(total, false, SimTime::from_secs(5));
    for (data, _, _) in &seen.deposits {
        assert_eq!(data.len(), total);
    }
    assert_eq!(seen.detect_ns, None);
}

#[test]
fn skipped_wakeups_are_no_ops_across_a_primary_crash() {
    let total = 200_000;
    let seen = assert_equivalent(total, true, SimTime::from_secs(30));
    assert!(
        seen.deposits[0].0.len() < total,
        "primary crashed mid-stream"
    );
    assert_eq!(seen.deposits[1].0.len(), total);
    assert!(seen.detect_ns.is_some(), "fail-over was not detected");
}
