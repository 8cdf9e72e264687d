//! Host nodes: plain clients and HydraNet-FT host servers.

use hydranet_mgmt::daemon::{DaemonAction, HostDaemon};
use hydranet_mgmt::proto::MGMT_PORT;
use hydranet_netsim::node::{Context, IfaceId, Node};
use hydranet_netsim::packet::{IpAddr, IpPacket};
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_obs::Obs;
use hydranet_tcp::conn::TcpConfig;
use hydranet_tcp::detector::DetectorParams;
use hydranet_tcp::segment::{Quad, SockAddr};
use hydranet_tcp::stack::{EphemeralPortsExhausted, SocketApp, StackEvent, TcpStack};

/// An ordinary, unmodified client host: one interface, one [`TcpStack`],
/// no HydraNet software at all — "neither the client application, nor the
/// client TCP stack are aware of service management, server failures, and
/// server recoveries" (§1).
///
/// Every flush asks for a wakeup at the stack's next deadline through
/// [`Context::wake_at`], which files a calendar entry only when that
/// deadline is earlier than the one already pending; a deadline that moved
/// later is picked up when that entry fires (DESIGN.md §5c). A crash drops
/// the host's connections, as it does a host server's.
#[derive(Debug)]
pub struct ClientHost {
    name: String,
    stack: TcpStack,
}

impl ClientHost {
    /// Creates a client host at `addr`.
    pub fn new(name: impl Into<String>, addr: IpAddr, cfg: TcpConfig) -> Self {
        ClientHost {
            name: name.into(),
            stack: TcpStack::new(addr, cfg),
        }
    }

    /// The host's stack.
    pub fn stack(&self) -> &TcpStack {
        &self.stack
    }

    /// The host's stack, mutable. Call [`flush`](Self::flush) afterwards if
    /// used inside a node context.
    pub fn stack_mut(&mut self) -> &mut TcpStack {
        &mut self.stack
    }

    /// Wires telemetry into the stack (per-connection histograms and
    /// counters).
    pub fn set_obs(&mut self, obs: Obs) {
        self.stack.set_obs(obs);
    }

    /// Opens a connection to `remote` running `app`.
    ///
    /// # Errors
    ///
    /// Fails cleanly when the stack's ephemeral-port space to `remote` is
    /// exhausted (no state created, nothing sent).
    pub fn connect(
        &mut self,
        ctx: &mut Context<'_>,
        remote: SockAddr,
        app: Box<dyn SocketApp>,
    ) -> Result<Quad, EphemeralPortsExhausted> {
        let quad = self.stack.connect(remote, app, ctx.now())?;
        self.flush(ctx);
        Ok(quad)
    }

    /// Sends queued packets, drops the stack's events (a client routes
    /// none), and asks for a wakeup at the stack's next deadline.
    pub fn flush(&mut self, ctx: &mut Context<'_>) {
        for p in self.stack.drain_packets() {
            ctx.send(IfaceId::from_index(0), p);
        }
        self.stack.drain_events();
        ctx.wake_at(self.stack.next_deadline());
    }
}

impl Node for ClientHost {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        self.stack.handle_packet(packet, ctx.now());
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        self.stack.on_timer(ctx.now());
        self.flush(ctx);
    }

    fn on_crash(&mut self) {
        // Connections are volatile and die with the host.
        self.stack.reset_volatile();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A HydraNet-FT host server: a [`TcpStack`] with virtual hosts and
/// replicated ports, plus the management daemon (§4.1, §4.4), which keeps
/// the host's one record of each replica it runs.
#[derive(Debug)]
pub struct HostServer {
    name: String,
    stack: TcpStack,
    daemon: HostDaemon,
    /// The daemon's deadline as of the last management pass; `ZERO` (due
    /// at once) forces the next drive through that pass.
    mgmt_deadline: Option<SimTime>,
}

impl HostServer {
    /// Creates a host server at `addr`, managed via `redirectors` (several
    /// for the Figure 1 multi-ISP deployment): registrations and failure
    /// reports are broadcast to all of them.
    ///
    /// # Panics
    ///
    /// Panics if `redirectors` is empty.
    pub fn new(
        name: impl Into<String>,
        addr: IpAddr,
        redirectors: Vec<IpAddr>,
        cfg: TcpConfig,
    ) -> Self {
        HostServer {
            name: name.into(),
            stack: TcpStack::new(addr, cfg),
            daemon: HostDaemon::new(addr, redirectors, 1),
            mgmt_deadline: Some(SimTime::ZERO),
        }
    }

    /// Wires telemetry into the stack and the management daemon.
    pub fn set_obs(&mut self, obs: Obs) {
        self.stack.set_obs(obs.clone());
        self.daemon.set_obs(obs);
    }

    /// The host's stack.
    pub fn stack(&self) -> &TcpStack {
        &self.stack
    }

    /// The host's stack, mutable (for listener installation at build time).
    pub fn stack_mut(&mut self) -> &mut TcpStack {
        &mut self.stack
    }

    /// The management daemon.
    pub fn daemon(&self) -> &HostDaemon {
        &self.daemon
    }

    /// Schedules the replica of `service` on this host for registration at
    /// `at`. Registration order across hosts defines the daisy chain (first
    /// registrant becomes the primary), so deployments stagger these
    /// instants. A replica the daemon already holds is rescheduled in
    /// place, never listed twice. A listener for the port must be
    /// installed separately via [`stack_mut`](Self::stack_mut).
    pub fn schedule_registration(
        &mut self,
        service: SockAddr,
        detector: DetectorParams,
        at: SimTime,
    ) {
        self.daemon.schedule_registration(service, detector, at);
        self.mgmt_deadline = Some(SimTime::ZERO);
    }

    /// Registers (or re-registers) a replica of `service` immediately —
    /// the operator-driven re-commissioning path ("bring them back in when
    /// the congestion clears", §1). A listener for the port must already
    /// be installed.
    pub fn register_now(
        &mut self,
        ctx: &mut Context<'_>,
        service: SockAddr,
        detector: DetectorParams,
    ) {
        self.schedule_registration(service, detector, ctx.now());
        self.drive(ctx);
    }

    /// Voluntarily deregisters this host's replica of `service`; it stays
    /// out across a crash and recovery until registered again.
    pub fn deregister(&mut self, ctx: &mut Context<'_>, service: SockAddr) {
        self.daemon.deregister_service(service, ctx.now());
        self.mgmt_deadline = Some(SimTime::ZERO);
        self.drive(ctx);
    }

    fn drive(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        // The management pass runs only when its deadline has come or a
        // stack event below hands the daemon a datagram or a suspicion;
        // otherwise every step of it would be a no-op.
        let mut mgmt = self.mgmt_deadline.is_some_and(|t| t <= now);
        if mgmt {
            self.daemon.poll(now);
            self.apply_daemon_actions(now);
        }
        // Route stack events: management datagrams to the daemon, failure
        // suspicions into failure reports; nothing else is kept.
        for event in self.stack.drain_events() {
            match event {
                StackEvent::UdpDelivery {
                    local,
                    remote,
                    payload,
                } if local.port == MGMT_PORT => {
                    self.daemon.on_datagram(remote.addr, &payload, now);
                    mgmt = true;
                }
                StackEvent::FailureSuspected {
                    port,
                    quad,
                    observed,
                } => {
                    let service = SockAddr::new(quad.local.addr, port);
                    self.daemon.report_failure(service, observed, now);
                    mgmt = true;
                }
                _ => {}
            }
        }
        if mgmt {
            // Daemon reactions may have produced more actions (e.g. probe
            // answers); run one more application pass.
            self.apply_daemon_actions(now);
            self.mgmt_deadline = self.daemon.next_deadline();
        }
        self.flush(ctx);
    }

    /// Applies the daemon's queued actions to the stack.
    fn apply_daemon_actions(&mut self, now: SimTime) {
        for action in self.daemon.take_actions() {
            match action {
                DaemonAction::Send(dst, payload) => {
                    let src = SockAddr::new(self.stack.primary_addr(), MGMT_PORT);
                    self.stack
                        .udp_send(src, SockAddr::new(dst, MGMT_PORT), payload);
                }
                DaemonAction::AddVirtualHost(addr) => self.stack.add_local_addr(addr),
                DaemonAction::ApplyPortOpt { port, config } => {
                    self.stack.setportopt(port, config, now)
                }
            }
        }
    }

    fn flush(&mut self, ctx: &mut Context<'_>) {
        for p in self.stack.drain_packets() {
            ctx.send(IfaceId::from_index(0), p);
        }
        let deadline = self
            .stack
            .next_deadline()
            .into_iter()
            .chain(self.mgmt_deadline);
        ctx.wake_at(deadline.min());
    }
}

impl Node for HostServer {
    fn on_crash(&mut self) {
        // Fail-stop: connection state and replicated-port state are
        // volatile and die with the host; so do the daemon's message ids
        // and roles, which `restart` replaces. Listeners and the daemon's
        // replica list model on-disk configuration that a restarted server
        // re-applies: a registration and a voluntary deregistration alike
        // outlive the crash.
        self.stack.reset_volatile();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_>) {
        // Re-commissioning: the restarted daemon registers its replicas
        // again; the redirector appends the host to the chain as a backup
        // ("creation of backup servers", §4.4). Connections that predate
        // the crash are not resumed — per-connection state transfer is the
        // paper's declared future work (§6).
        self.daemon.restart(ctx.now());
        self.mgmt_deadline = Some(SimTime::ZERO);
        self.drive(ctx);
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Ensure the first registration deadline is armed.
        self.drive(ctx);
        // Always arm a short bootstrap tick so registrations scheduled at
        // t=0 with zero-latency links still make progress.
        ctx.set_timer(SimDuration::from_micros(1));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        self.stack.handle_packet(packet, ctx.now());
        self.drive(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        self.stack.on_timer(ctx.now());
        self.drive(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use hydranet_mgmt::proto::MGMT_PORT;
    use hydranet_mgmt::reliable::DEFAULT_RETRY_INTERVAL;
    use hydranet_netsim::buf::PacketBuf;
    use hydranet_netsim::node::{Context, IfaceId, Node};
    use hydranet_netsim::packet::{IpPacket, Protocol};
    use hydranet_netsim::topology::TopologyBuilder;
    use hydranet_tcp::udp::UdpDatagram;

    use crate::prelude::*;

    /// A crash discards the host's calendar entries, so a mark left
    /// standing would sit before every later deadline and the recovered
    /// host would never file a wakeup again.
    #[test]
    fn crash_clears_the_wakeup_mark_and_recovery_rearms() {
        let rd_addr = IpAddr::new(10, 9, 0, 1);
        let service = SockAddr::new(IpAddr::new(192, 20, 225, 20), 80);
        let mut b = SystemBuilder::new(TcpConfig::default());
        let rd = b.add_redirector("rd", rd_addr);
        let hs = b.add_host_server("hs", IpAddr::new(10, 0, 2, 1), rd_addr);
        b.link(rd, hs, LinkParams::default());
        let spec = FtServiceSpec::new(service, vec![hs], DetectorParams::DEFAULT);
        b.deploy_ft_service(&spec, |_q| {
            Box::new(EchoApp::new(shared(SinkState::default())))
        });
        let mut system = b.build(3);
        assert!(system.wait_for_chain(rd, service, 1, SimTime::from_secs(2)));

        let ms = SimDuration::from_millis;
        let t0 = system.sim.now();
        let pending = t0.saturating_add(ms(2));
        system
            .sim
            .with_node_ctx::<HostServer, _>(hs, |_, ctx| ctx.wake_at(Some(pending)));
        assert_eq!(system.sim.pending_wakeup(hs), Some(pending));

        system.sim.schedule_crash(hs, t0.saturating_add(ms(1)));
        let back = t0.saturating_add(ms(100));
        system.sim.schedule_recover(hs, back);
        system.sim.run_until(t0.saturating_add(ms(50)));
        assert_eq!(system.sim.pending_wakeup(hs), None);

        // Recovery re-registers; the registration's retransmit deadline is
        // the host's next wakeup, filed because the mark was cleared.
        system.sim.run_until(back);
        let rearmed = system.sim.pending_wakeup(hs);
        assert!(rearmed.is_some_and(|t| t > back), "{rearmed:?}");
        let fired = system.sim.stats().timers_fired;
        system.sim.run_until(rearmed.unwrap());
        assert!(system.sim.stats().timers_fired > fired);
    }

    /// A crash is fail-stop for a client too: its connections die with it,
    /// and the recovered client sends nothing more on them.
    #[test]
    fn crashed_client_drops_its_connections() {
        let rd_addr = IpAddr::new(10, 9, 0, 1);
        let service = SockAddr::new(IpAddr::new(192, 20, 225, 20), 80);
        let mut b = SystemBuilder::new(TcpConfig::default());
        let rd = b.add_redirector("rd", rd_addr);
        let hs = b.add_host_server("hs", IpAddr::new(10, 0, 2, 1), rd_addr);
        let client = b.add_client("client", IpAddr::new(10, 0, 1, 1));
        b.link(client, rd, LinkParams::default());
        b.link(rd, hs, LinkParams::default());
        let sink = shared(SinkState::default());
        let spec = FtServiceSpec::new(service, vec![hs], DetectorParams::DEFAULT);
        let s = sink.clone();
        b.deploy_ft_service(&spec, move |_q| Box::new(EchoApp::sink(s.clone())));
        let mut system = b.build(3);
        assert!(system.wait_for_chain(rd, service, 1, SimTime::from_secs(2)));

        let total = 4 << 20;
        let app = StreamSenderApp::new(vec![7; total], false, shared(SenderState::default()));
        let quad = system.connect_client(client, service, Box::new(app));
        let t0 = system.sim.now();
        let at = |ms| t0.saturating_add(SimDuration::from_millis(ms));
        system.sim.schedule_crash(client, at(200));
        system.sim.schedule_recover(client, at(300));
        system.sim.run_until(at(250));
        assert_eq!(system.client(client).stack().conn_count(), 0);

        // What was in flight at the crash has landed by the recovery.
        system.sim.run_until(at(300));
        let received = sink.borrow().data.len();
        assert!(
            received > 0 && received < total,
            "{received} B before the crash"
        );
        system.sim.run_until(at(5_000));
        let stack = system.client(client).stack();
        assert_eq!(stack.conn_count(), 0);
        assert!(stack.conn(quad).is_none());
        assert_eq!(
            sink.borrow().data.len(),
            received,
            "no byte after the crash"
        );
    }

    /// Stands in for the redirector: never answers, records when each
    /// management datagram arrives, and sends the host a data packet every
    /// 7 ms.
    #[derive(Default)]
    struct SilentRedirector {
        mgmt_arrivals: Vec<SimTime>,
    }

    const HS: IpAddr = IpAddr::new(10, 0, 2, 1);
    const RD: IpAddr = IpAddr::new(10, 9, 0, 1);

    impl Node for SilentRedirector {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(7));
        }

        fn on_packet(&mut self, ctx: &mut Context<'_>, _: IfaceId, packet: IpPacket) {
            if UdpDatagram::decode(&packet.payload).is_ok_and(|d| d.dst_port == MGMT_PORT) {
                self.mgmt_arrivals.push(ctx.now());
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>) {
            let data = UdpDatagram {
                src_port: 7000,
                dst_port: 7001,
                payload: PacketBuf::from([0; 64]),
            };
            let packet = IpPacket::new(RD, HS, Protocol::UDP, data.encode());
            ctx.send(IfaceId::from_index(0), packet);
            ctx.set_timer(SimDuration::from_millis(7));
        }
    }

    /// Data packets do not run the management pass, so nothing but the
    /// host's own wakeup sends a registration retransmit: it must leave at
    /// exactly the retry interval, not with the next packet after it.
    #[test]
    fn registration_retransmits_on_time_while_only_data_arrives() {
        let mut t = TopologyBuilder::new();
        let mut hs_node = HostServer::new("hs", HS, vec![RD], TcpConfig::default());
        let service = SockAddr::new(IpAddr::new(192, 20, 225, 20), 80);
        hs_node.schedule_registration(service, DetectorParams::DEFAULT, SimTime::from_millis(1));
        let hs = t.add_node(hs_node, NodeParams::INSTANT);
        let rd = t.add_node(SilentRedirector::default(), NodeParams::INSTANT);
        t.connect(hs, rd, LinkParams::default());
        let mut sim = t.into_simulator(1);
        sim.run_until(SimTime::from_millis(600));

        let data = sim.node::<HostServer>(hs).stack().stats().udp_rx;
        assert!(data > 80, "{data} data packets reached the host");
        let sent = &sim.node::<SilentRedirector>(rd).mgmt_arrivals;
        assert_eq!(sent.len(), 3, "{sent:?}");
        for pair in sent.windows(2) {
            assert_eq!(pair[1].duration_since(pair[0]), DEFAULT_RETRY_INTERVAL);
        }
    }
}
