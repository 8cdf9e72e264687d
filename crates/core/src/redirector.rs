//! The managed redirector node: redirection engine plus the replica
//! management controller.

use hydranet_mgmt::chain::describe;
use hydranet_mgmt::failover::{ControllerAction, PairConfig, ProbeParams, ReplicaController};
use hydranet_mgmt::proto::MGMT_PORT;
use hydranet_netsim::node::{Context, IfaceId, Node};
use hydranet_netsim::packet::{IpAddr, IpPacket, Protocol};
use hydranet_netsim::routing::encode_route_announce;
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_obs::{kinds, Obs};
use hydranet_redirect::redirector::{Disposition, RedirectorEngine};
use hydranet_redirect::table::ServiceEntry;
use hydranet_tcp::udp::UdpDatagram;

/// How long a freshly promoted pair member defers brand-new fault-tolerant
/// flows: one mgmt reliable retransmit period
/// (`hydranet_mgmt::reliable::DEFAULT_RETRY_INTERVAL`, 250 ms) plus
/// propagation slack, so every registration still in the retransmit
/// pipeline re-lands and completes the chain before a connection opens.
const PROMOTION_ADMISSION_GRACE: SimDuration = SimDuration::from_millis(300);

/// A redirector with the full replica management plane: intercepts and
/// multicasts service traffic (engine), and runs the §4.4 controller for
/// registration, probing, and reconfiguration.
pub struct ManagedRedirector {
    engine: RedirectorEngine,
    controller: ReplicaController,
    name: String,
    out_scratch: Vec<(IfaceId, IpPacket)>,
    obs: Obs,
    /// The controller's deadline as of the last `drive` (`ZERO`: due now).
    ctl_deadline: Option<SimTime>,
    /// Interfaces a promotion floods `ROUTE_ANNOUNCE` packets out of.
    announce_ifaces: Vec<IfaceId>,
}

impl std::fmt::Debug for ManagedRedirector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedRedirector")
            .field("name", &self.name)
            .field("engine", &self.engine)
            .finish()
    }
}

impl ManagedRedirector {
    /// Creates a managed redirector at `addr`.
    pub fn new(name: impl Into<String>, addr: IpAddr, probe_params: ProbeParams) -> Self {
        ManagedRedirector {
            engine: RedirectorEngine::new(addr),
            controller: ReplicaController::new(addr, probe_params),
            name: name.into(),
            out_scratch: Vec::new(),
            obs: Obs::disabled(),
            ctl_deadline: Some(SimTime::ZERO),
            announce_ifaces: Vec::new(),
        }
    }

    /// Joins this redirector to an active/standby pair serving `vip`:
    /// the engine claims packets addressed to the VIP as local, the
    /// controller runs the peer-probe/replication protocol against
    /// `cfg.peer`, and a self-promotion floods `ROUTE_ANNOUNCE` out of
    /// `announce_ifaces` so adjacent routers re-aim the anycast group.
    pub fn configure_pair(&mut self, vip: IpAddr, cfg: PairConfig, announce_ifaces: Vec<IfaceId>) {
        self.engine.set_virtual_addr(vip);
        self.controller.configure_pair(cfg, SimTime::ZERO);
        self.ctl_deadline = Some(SimTime::ZERO);
        self.announce_ifaces = announce_ifaces;
    }

    /// Wires telemetry into the engine (redirection counters, table
    /// metrics) and the controller (probe/reconfiguration timeline), plus
    /// table install/remove timeline events emitted by this node.
    pub fn set_obs(&mut self, obs: Obs) {
        self.engine.set_obs(&obs);
        self.controller.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The redirection engine (routing and redirector tables).
    pub fn engine(&self) -> &RedirectorEngine {
        &self.engine
    }

    /// The redirection engine, mutable (route configuration at build time).
    pub fn engine_mut(&mut self) -> &mut RedirectorEngine {
        &mut self.engine
    }

    /// The replica management controller.
    pub fn controller(&self) -> &ReplicaController {
        &self.controller
    }

    fn apply_controller_actions(&mut self, now: SimTime, out: &mut Vec<(IfaceId, IpPacket)>) {
        for action in self.controller.take_actions() {
            match action {
                ControllerAction::Send(dst, payload) => {
                    let datagram = UdpDatagram::encode_parts(MGMT_PORT, MGMT_PORT, &payload);
                    // Host daemons are configured with the pair's VIP and
                    // match replies by source address, so anything bound
                    // for a host must be sourced from the VIP. Peer
                    // replication runs on concrete addresses (the peer's
                    // reliable endpoint matches acks by our real address).
                    let src = if self.controller.peer() == Some(dst) {
                        self.engine.addr()
                    } else {
                        self.engine.virtual_addr().unwrap_or(self.engine.addr())
                    };
                    let packet = IpPacket::new(src, dst, Protocol::UDP, datagram);
                    self.engine.route_own(packet, out);
                }
                // The controller only emits updates at its own epoch, which
                // never decreases; it rejects stale peers itself.
                ControllerAction::UpdateTable { service, chain } => {
                    let redirector = ("redirector", self.engine.addr().to_string());
                    let service_field = ("service", service.to_string());
                    if chain.is_empty() {
                        self.engine.table_mut().remove(service);
                        self.obs.event(
                            now.as_nanos(),
                            kinds::TABLE_REMOVED,
                            [redirector, service_field],
                        );
                    } else {
                        let chain_desc = describe(&chain);
                        self.engine
                            .table_mut()
                            .install(service, ServiceEntry::FaultTolerant { chain });
                        self.obs.event(
                            now.as_nanos(),
                            kinds::TABLE_INSTALLED,
                            [redirector, service_field, ("chain", chain_desc)],
                        );
                    }
                }
                ControllerAction::AnnounceRoutes { seq } => {
                    // The announce flips the anycast route here, but host
                    // registrations blackholed while the route still pointed
                    // at the dead ex-active are still retransmitting on the
                    // mgmt reliable cadence (DEFAULT_RETRY_INTERVAL, 250 ms).
                    // Defer brand-new flows one full retransmit period plus
                    // slack so those registrations complete the chain before
                    // a client's SYN retransmit can open a connection
                    // against a silently degraded one.
                    self.engine
                        .defer_new_flows_until(now.saturating_add(PROMOTION_ADMISSION_GRACE));
                    let payload = encode_route_announce(self.engine.addr(), seq);
                    let dst = self.engine.virtual_addr().unwrap_or(self.engine.addr());
                    for &iface in &self.announce_ifaces {
                        let packet = IpPacket::new(
                            self.engine.addr(),
                            dst,
                            Protocol::ROUTE_ANNOUNCE,
                            payload.clone(),
                        );
                        out.push((iface, packet));
                    }
                }
            }
        }
    }

    fn drive(&mut self, ctx: &mut Context<'_>) {
        self.controller.poll(ctx.now());
        let mut out = std::mem::take(&mut self.out_scratch);
        self.apply_controller_actions(ctx.now(), &mut out);
        for (iface, p) in out.drain(..) {
            ctx.send(iface, p);
        }
        self.out_scratch = out;
        self.ctl_deadline = self.controller.next_deadline();
        ctx.wake_at(self.ctl_deadline);
    }
}

impl Node for ManagedRedirector {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // A pair member must wake on its own to probe its peer; solo
        // redirectors keep their historical packet-driven behavior (no
        // timer armed until something arrives).
        if self.controller.peer().is_some() {
            self.drive(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_>) {
        // A recovered pair member re-arms its probe/retransmit timers so a
        // healed ex-active originates traffic, meets the newer epoch, and
        // demotes itself instead of wedging silently.
        if self.controller.peer().is_some() {
            self.drive(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        let mut out = std::mem::take(&mut self.out_scratch);
        let handled = match self.engine.process(packet, ctx.now(), &mut out) {
            Disposition::Handled => true,
            Disposition::Local(packet) => {
                // Management traffic addressed to the redirector itself.
                if packet.protocol() == Protocol::UDP {
                    if let Ok(dgram) = UdpDatagram::decode(&packet.payload) {
                        if dgram.dst_port == MGMT_PORT {
                            self.controller
                                .on_datagram(packet.src(), &dgram.payload, ctx.now());
                        }
                    }
                }
                false
            }
        };
        for (iface, p) in out.drain(..) {
            ctx.send(iface, p);
        }
        self.out_scratch = out;
        // A packet the engine handled leaves the controller untouched:
        // before its deadline `drive` would only ask for the wakeup again
        // (a crash clears the pending one).
        let idle = self.ctl_deadline.is_none_or(|t| ctx.now() < t);
        if handled && idle {
            ctx.wake_at(self.ctl_deadline);
        } else {
            self.drive(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        self.drive(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use hydranet_mgmt::proto::{Envelope, MgmtMsg, MGMT_PORT};
    use hydranet_netsim::buf::PacketBuf;
    use hydranet_netsim::node::{IfaceId, Node};
    use hydranet_netsim::packet::{IpPacket, Protocol};
    use hydranet_tcp::udp::UdpDatagram;

    use super::ManagedRedirector;
    use crate::prelude::*;

    /// A crash discards the pending wakeup, and a solo redirector does not
    /// drive on recovery. A data packet skips `drive` but still asks for a
    /// wakeup at the controller's deadline, so the first one after recovery
    /// must file it again.
    #[test]
    fn solo_redirector_refiles_its_wakeup_on_the_first_packet_after_recovery() {
        let rd_addr = IpAddr::new(10, 9, 0, 1);
        let host = IpAddr::new(10, 0, 2, 1);
        let mut b = SystemBuilder::new(TcpConfig::default());
        let rd = b.add_redirector("rd", rd_addr);
        let mut system = b.build(3);
        let deliver = |system: &mut System, src: IpAddr, dst: IpAddr, payload: PacketBuf| {
            let packet = IpPacket::new(src, dst, Protocol::UDP, payload);
            system
                .sim
                .with_node_ctx::<ManagedRedirector, _>(rd, |r, ctx| {
                    r.on_packet(ctx, IfaceId::from_index(0), packet)
                });
        };

        // A registration from a host the redirector has no route to: the
        // controller's reliable reply to it stays pending.
        let register = Envelope::Payload {
            id: 1,
            needs_ack: true,
            msg: MgmtMsg::RegisterReplica {
                service: SockAddr::new(IpAddr::new(192, 20, 225, 20), 80),
                host,
            },
        };
        let datagram = UdpDatagram::encode_parts(MGMT_PORT, MGMT_PORT, &register.encode());
        deliver(&mut system, host, rd_addr, datagram);
        let pending = system.redirector(rd).controller().next_deadline();
        assert!(pending.is_some());
        assert_eq!(system.sim.pending_wakeup(rd), pending);

        let t0 = system.sim.now();
        let ms = SimDuration::from_millis;
        system.sim.schedule_crash(rd, t0.saturating_add(ms(1)));
        system.sim.schedule_recover(rd, t0.saturating_add(ms(2)));
        system.sim.run_until(t0.saturating_add(ms(3)));
        assert_eq!(system.sim.pending_wakeup(rd), None);
        assert_eq!(system.redirector(rd).controller().next_deadline(), pending);

        // A packet the engine handles (routed nowhere, dropped), well
        // before the controller's deadline.
        let client = IpAddr::new(10, 0, 1, 1);
        deliver(
            &mut system,
            client,
            IpAddr::new(10, 0, 3, 1),
            PacketBuf::from([0; 8]),
        );
        assert_eq!(system.sim.pending_wakeup(rd), pending);
    }

    /// A standby pair member lives on its probe timer: after a crash and
    /// recovery it must be filing wakeups again, or it never probes the
    /// active side and never promotes.
    #[test]
    fn paired_redirector_rearms_its_probe_timer_after_recovery() {
        let mut b = SystemBuilder::new(TcpConfig::default());
        let (rd_a, rd_b) = b.add_redirector_pair(
            "rdA",
            IpAddr::new(10, 9, 0, 1),
            "rdB",
            IpAddr::new(10, 9, 0, 2),
            IpAddr::new(10, 9, 0, 9),
        );
        b.link(rd_a, rd_b, LinkParams::default());
        let mut system = b.build(3);

        let ms = SimTime::from_millis;
        system.sim.run_until(ms(50));
        let before = system.sim.pending_wakeup(rd_b);
        assert!(before.is_some_and(|t| t > ms(50)), "{before:?}");

        system.sim.schedule_crash(rd_b, ms(60));
        system.sim.schedule_recover(rd_b, ms(2_000));
        system.sim.run_until(ms(1_000));
        assert_eq!(system.sim.pending_wakeup(rd_b), None);

        system.sim.run_until(ms(2_000));
        let rearmed = system.sim.pending_wakeup(rd_b);
        assert!(rearmed.is_some_and(|t| t > ms(2_000)), "{rearmed:?}");
        let fired = system.sim.stats().timers_fired;
        system.sim.run_until(ms(4_000));
        // rdA's own probe timers fire too; rdB's mark moving on shows its
        // wakeups are live calendar entries.
        assert!(system.sim.stats().timers_fired > fired);
        assert!(system.sim.pending_wakeup(rd_b) > rearmed);
    }
}
