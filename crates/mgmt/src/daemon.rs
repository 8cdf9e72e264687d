//! The host-server management daemon.
//!
//! One daemon runs on every HydraNet host (§4.4). It registers local
//! replicas with the nearest redirector, answers liveness probes, forwards
//! the failure estimator's reports, and applies `SetRole` directives to the
//! local stack (the kernel in the paper; [`TcpStack`] here).
//!
//! [`TcpStack`]: hydranet_tcp::stack::TcpStack

use hydranet_netsim::packet::IpAddr;
use hydranet_netsim::time::SimTime;
use hydranet_obs::{kinds, trace, Obs};
use hydranet_tcp::detector::DetectorParams;
use hydranet_tcp::ft::ReplicatedPortConfig;
use hydranet_tcp::segment::SockAddr;

use crate::proto::MgmtMsg;
use crate::reliable::ReliableEndpoint;

/// Actions the daemon asks its host node to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonAction {
    /// Transmit a management datagram.
    Send(IpAddr, Vec<u8>),
    /// Bind the service's virtual-host address locally (`v_host`).
    AddVirtualHost(IpAddr),
    /// Apply a replicated-port configuration (`setportopt`).
    ApplyPortOpt {
        /// The local TCP port.
        port: u16,
        /// The configuration to install.
        config: ReplicatedPortConfig,
    },
}

/// One replica of a service on this host, from its scheduled registration
/// to its voluntary deregistration.
#[derive(Debug)]
struct Replica {
    service: SockAddr,
    detector: DetectorParams,
    /// When the (re-)registration fires; `None` once it has.
    due: Option<SimTime>,
    /// Last chain index applied (for promotion detection).
    role: Option<u32>,
}

/// The management daemon on one host server.
#[derive(Debug)]
pub struct HostDaemon {
    host: IpAddr,
    redirectors: Vec<IpAddr>,
    endpoint: ReliableEndpoint,
    /// This host's replicas in registration order, which fixes the
    /// message ids and the send order of every (re-)registration.
    replicas: Vec<Replica>,
    actions: Vec<DaemonAction>,
    /// Failure reports sent (diagnostics).
    reports_sent: u64,
    /// `SetRole`s dropped for a service with no replica here.
    stray_roles: u64,
    /// Telemetry sink (no-op unless wired via [`set_obs`](Self::set_obs)).
    obs: Obs,
}

impl HostDaemon {
    /// Creates a daemon for the host at `host`, registering with every
    /// redirector in `redirectors`. Several redirectors are the Figure 1
    /// deployment, where clients of different ISPs reach the service
    /// through their own redirector. Registrations, departures, and
    /// failure reports are broadcast to all of them; as long as they
    /// observe the same reports symmetrically, their chains converge
    /// (staggered registration fixes the order). Divergence under
    /// asymmetric loss is a limitation inherited from the paper's
    /// single-redirector protocol (§4.4).
    ///
    /// `id_base` is the first message id; [`restart`](Self::restart) picks
    /// a fresh one so peers' duplicate filters accept the restarted daemon.
    ///
    /// # Panics
    ///
    /// Panics if `redirectors` is empty.
    pub fn new(host: IpAddr, redirectors: Vec<IpAddr>, id_base: u64) -> Self {
        assert!(
            !redirectors.is_empty(),
            "a daemon needs at least one redirector"
        );
        HostDaemon {
            host,
            redirectors,
            endpoint: ReliableEndpoint::new().with_id_base(id_base),
            replicas: Vec::new(),
            actions: Vec::new(),
            reports_sent: 0,
            stray_roles: 0,
            obs: Obs::disabled(),
        }
    }

    /// Wires telemetry: registrations, failure reports, and role changes
    /// (in particular primary promotions) are recorded on the timeline.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Failure reports sent so far, across restarts.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// `SetRole` directives dropped so far because this host holds no
    /// replica of their service, across restarts.
    pub fn stray_roles(&self) -> u64 {
        self.stray_roles
    }

    /// Drains queued actions.
    pub fn take_actions(&mut self) -> Vec<DaemonAction> {
        std::mem::take(&mut self.actions)
    }

    /// The earlier of the first registration still to fire and the
    /// earliest retransmission deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let registrations = self.replicas.iter().filter_map(|r| r.due);
        registrations.chain(self.endpoint.next_deadline()).min()
    }

    /// Schedules this host's replica of `service` for registration with
    /// the redirector at `at` ("creation of primary/backup servers",
    /// §4.4); [`poll`](Self::poll) fires it. The chain position — and with
    /// it primary/backup mode — is assigned by the redirector. A replica
    /// already held is registered again in its place, keeping its last
    /// role.
    pub fn schedule_registration(
        &mut self,
        service: SockAddr,
        detector: DetectorParams,
        at: SimTime,
    ) {
        match self.replicas.iter_mut().find(|r| r.service == service) {
            Some(r) => {
                r.detector = detector;
                r.due = Some(at);
            }
            None => self.replicas.push(Replica {
                service,
                detector,
                due: Some(at),
                role: None,
            }),
        }
    }

    /// Voluntarily removes this host's replica of `service` (§4.4). Like
    /// a registration, the departure outlives a restart.
    pub fn deregister_service(&mut self, service: SockAddr, now: SimTime) {
        self.replicas.retain(|r| r.service != service);
        let host = self.host;
        self.broadcast(MgmtMsg::Deregister { service, host }, now);
    }

    /// Restarts the daemon in place after a host crash: a fresh message-id
    /// space (so the controller's duplicate filter accepts it), no roles,
    /// and every replica registered again at `now`. The redirector appends
    /// the host to each chain as a backup.
    pub fn restart(&mut self, now: SimTime) {
        self.endpoint = ReliableEndpoint::new().with_id_base(now.as_nanos().max(1));
        self.actions.clear();
        for r in &mut self.replicas {
            r.due = Some(now);
            r.role = None;
        }
    }

    /// Forwards a failure suspicion from the local estimator to the
    /// redirector ("when a server detects a failure, it informs the
    /// redirector", §4.4).
    pub fn report_failure(&mut self, service: SockAddr, observed: u64, now: SimTime) {
        self.obs.event(
            now.as_nanos(),
            kinds::FAILURE_REPORTED,
            [
                ("reporter", self.host.to_string()),
                ("service", service.to_string()),
                ("observed", observed.to_string()),
            ],
        );
        if self.obs.tracing_enabled() {
            // An instant span recording this report's fan-out: which
            // redirectors the suspicion went to, and the duplicate count
            // that triggered it.
            let head = [
                ("mgmt", format!("failure-report {service}")),
                ("observed", observed.to_string()),
            ];
            let redirectors = self
                .redirectors
                .iter()
                .map(|rd| ("redirector", rd.to_string()));
            let fields = head.into_iter().chain(redirectors);
            self.obs.trace(now.as_nanos(), trace::INSTANT, 0, fields);
        }
        let msg = MgmtMsg::FailureReport {
            service,
            reporter: self.host,
            observed,
        };
        self.broadcast(msg, now);
        self.reports_sent += 1;
    }

    /// Handles an incoming management datagram.
    pub fn on_datagram(&mut self, src: IpAddr, bytes: &[u8], now: SimTime) {
        let (msg, acks) = self.endpoint.on_datagram(src, bytes, now);
        for (dst, bytes) in acks {
            self.actions.push(DaemonAction::Send(dst, bytes));
        }
        let Some(msg) = msg else {
            return;
        };
        match msg {
            MgmtMsg::Probe { nonce } => {
                let out = self
                    .endpoint
                    .send_unreliable(src, MgmtMsg::ProbeAck { nonce });
                self.actions.push(DaemonAction::Send(out.0, out.1));
            }
            MgmtMsg::SetRole {
                service,
                index,
                predecessor,
                has_successor,
            } => {
                // Only index 0 follows no one. A directive where the two
                // disagree would make a second primary, or a backup that
                // follows no one, so it is dropped.
                if (index == 0) != predecessor.is_none() {
                    return;
                }
                let Some(replica) = self.replicas.iter_mut().find(|r| r.service == service) else {
                    self.stray_roles += 1;
                    return;
                };
                // A backup stepping into index 0 is the paper's promotion
                // moment; the initial primary assignment is not.
                let was_backup = replica.role.replace(index).is_some_and(|i| i != 0);
                let detector = replica.detector;
                if index == 0 && was_backup {
                    self.note(kinds::PROMOTED, service, now);
                }
                self.actions.push(DaemonAction::ApplyPortOpt {
                    port: service.port,
                    config: ReplicatedPortConfig {
                        predecessor,
                        has_successor,
                        detector,
                    },
                });
            }
            // Host daemons do not process controller-side messages.
            _ => {}
        }
    }

    /// Fires due registrations in list order — each binds its service's
    /// virtual host and broadcasts the registration — then advances
    /// retransmission timers.
    pub fn poll(&mut self, now: SimTime) {
        for i in 0..self.replicas.len() {
            let replica = &mut self.replicas[i];
            if replica.due.is_some_and(|t| t <= now) {
                replica.due = None;
                let (service, host) = (replica.service, self.host);
                self.note(kinds::REPLICA_REGISTERED, service, now);
                self.actions
                    .push(DaemonAction::AddVirtualHost(service.addr));
                self.broadcast(MgmtMsg::RegisterReplica { service, host }, now);
            }
        }
        for (dst, bytes) in self.endpoint.poll(now) {
            self.actions.push(DaemonAction::Send(dst, bytes));
        }
    }

    /// Records `kind` on the timeline for this host's replica of `service`.
    fn note(&self, kind: &'static str, service: SockAddr, now: SimTime) {
        let host = ("host", self.host.to_string());
        self.obs.event(
            now.as_nanos(),
            kind,
            [host, ("service", service.to_string())],
        );
    }

    /// Sends `msg` reliably to every redirector, in configuration order.
    fn broadcast(&mut self, msg: MgmtMsg, now: SimTime) {
        for &rd in &self.redirectors {
            let (dst, bytes) = self.endpoint.send_reliable(rd, msg.clone(), now);
            self.actions.push(DaemonAction::Send(dst, bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Envelope;
    use hydranet_netsim::time::SimDuration;

    const HOST: IpAddr = IpAddr::new(10, 0, 2, 1);
    const RD: IpAddr = IpAddr::new(10, 9, 0, 1);

    fn service() -> SockAddr {
        SockAddr::new(IpAddr::new(192, 20, 225, 20), 80)
    }

    /// A daemon whose replica of `service()` has registered.
    fn registered(detector: DetectorParams) -> HostDaemon {
        let mut d = HostDaemon::new(HOST, vec![RD], 1);
        d.schedule_registration(service(), detector, SimTime::ZERO);
        d.poll(SimTime::ZERO);
        d
    }

    /// The management messages among `actions`, with their ids.
    fn sent(actions: &[DaemonAction]) -> Vec<(u64, MgmtMsg)> {
        let sends = actions.iter().filter_map(|a| match a {
            DaemonAction::Send(_, bytes) => Some(Envelope::decode(bytes).unwrap()),
            _ => None,
        });
        sends
            .filter_map(|e| match e {
                Envelope::Payload { id, msg, .. } => Some((id, msg)),
                _ => None,
            })
            .collect()
    }

    fn payload(msg: MgmtMsg) -> Vec<u8> {
        Envelope::Payload {
            id: 7,
            needs_ack: false,
            msg,
        }
        .encode()
    }

    #[test]
    fn registration_emits_vhost_and_register() {
        let mut d = registered(DetectorParams::DEFAULT);
        let actions = d.take_actions();
        assert!(actions.contains(&DaemonAction::AddVirtualHost(service().addr)));
        let sends: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                DaemonAction::Send(dst, bytes) => Some((dst, Envelope::decode(bytes).unwrap())),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(*sends[0].0, RD);
        assert!(matches!(
            &sends[0].1,
            Envelope::Payload {
                needs_ack: true,
                msg: MgmtMsg::RegisterReplica { host: HOST, .. },
                ..
            }
        ));
    }

    #[test]
    fn probe_is_answered() {
        let mut d = HostDaemon::new(HOST, vec![RD], 1);
        d.on_datagram(RD, &payload(MgmtMsg::Probe { nonce: 0xAB }), SimTime::ZERO);
        let actions = d.take_actions();
        let ack = actions
            .iter()
            .find_map(|a| match a {
                DaemonAction::Send(dst, bytes) => Some((dst, Envelope::decode(bytes).unwrap())),
                _ => None,
            })
            .expect("reply sent");
        assert_eq!(*ack.0, RD);
        assert!(matches!(
            ack.1,
            Envelope::Payload {
                msg: MgmtMsg::ProbeAck { nonce: 0xAB },
                ..
            }
        ));
    }

    #[test]
    fn set_role_becomes_portopt() {
        let custom = DetectorParams::new(7, SimDuration::from_secs(5));
        let mut d = registered(custom);
        d.take_actions();
        d.on_datagram(
            RD,
            &payload(MgmtMsg::SetRole {
                service: service(),
                index: 1,
                predecessor: Some(IpAddr::new(10, 0, 9, 9)),
                has_successor: true,
            }),
            SimTime::ZERO,
        );
        let actions = d.take_actions();
        let opt = actions
            .iter()
            .find_map(|a| match a {
                DaemonAction::ApplyPortOpt { port, config } => Some((*port, config.clone())),
                _ => None,
            })
            .expect("portopt applied");
        assert_eq!(opt.0, 80);
        assert_eq!(opt.1.predecessor, Some(IpAddr::new(10, 0, 9, 9)));
        assert!(opt.1.has_successor);
        assert_eq!(opt.1.detector, custom, "detector params from setportopt");
    }

    #[test]
    fn set_role_with_index_and_predecessor_disagreeing_is_dropped() {
        let bad = [(1, None), (0, Some(IpAddr::new(10, 0, 9, 9)))];
        for (index, predecessor) in bad {
            let mut d = registered(DetectorParams::DEFAULT);
            d.take_actions();
            let msg = MgmtMsg::SetRole {
                service: service(),
                index,
                predecessor,
                has_successor: false,
            };
            d.on_datagram(RD, &payload(msg), SimTime::ZERO);
            let actions = d.take_actions();
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, DaemonAction::ApplyPortOpt { .. })),
                "index {index}, predecessor {predecessor:?}: {actions:?}"
            );
        }
    }

    #[test]
    fn failure_report_is_reliable() {
        let mut d = HostDaemon::new(HOST, vec![RD], 1);
        d.report_failure(service(), 9, SimTime::ZERO);
        assert_eq!(d.reports_sent(), 1);
        d.take_actions();
        // Unacked: poll retransmits.
        d.poll(SimTime::from_secs(1));
        let actions = d.take_actions();
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, DaemonAction::Send(dst, _) if *dst == RD)),
            "no retransmission: {actions:?}"
        );
        assert!(d.next_deadline().is_some());
    }

    #[test]
    fn failure_report_span_names_redirectors() {
        let obs = Obs::enabled();
        obs.enable_tracing(16);
        let mut d = HostDaemon::new(HOST, vec![RD, IpAddr::new(10, 9, 0, 2)], 1);
        d.set_obs(obs.clone());
        d.report_failure(service(), 4, SimTime::from_secs(2));
        let dump = obs.flight_recorder_json(&[]);
        for needle in ["failure-report", "10.9.0.1", "10.9.0.2", "\"observed\""] {
            assert!(dump.contains(needle), "missing {needle} in {dump}");
        }
    }

    #[test]
    fn deregister_sends_message() {
        let mut d = registered(DetectorParams::DEFAULT);
        d.take_actions();
        d.deregister_service(service(), SimTime::from_secs(1));
        let actions = d.take_actions();
        assert!(actions.iter().any(|a| matches!(
            a,
            DaemonAction::Send(_, bytes)
                if matches!(Envelope::decode(bytes),
                    Ok(Envelope::Payload { msg: MgmtMsg::Deregister { .. }, .. }))
        )));
    }

    /// A role for a service never held, or for a replica that has left,
    /// would turn a plain port replicated.
    #[test]
    fn set_role_for_a_service_with_no_replica_is_dropped_and_counted() {
        let other = SockAddr::new(service().addr, 8080);
        for (departed, target) in [(false, other), (true, service())] {
            let mut d = registered(DetectorParams::DEFAULT);
            if departed {
                d.deregister_service(service(), SimTime::ZERO);
            }
            d.take_actions();
            let msg = MgmtMsg::SetRole {
                service: target,
                index: 0,
                predecessor: None,
                has_successor: false,
            };
            d.on_datagram(RD, &payload(msg), SimTime::ZERO);
            let actions = d.take_actions();
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, DaemonAction::ApplyPortOpt { .. })),
                "{target}: {actions:?}"
            );
            assert_eq!(d.stray_roles(), 1, "{target}");
        }
    }

    #[test]
    fn restart_registers_each_held_replica_once_with_fresh_ids() {
        let other = SockAddr::new(service().addr, 8080);
        let mut d = registered(DetectorParams::DEFAULT);
        let at = SimTime::from_millis(5);
        d.schedule_registration(other, DetectorParams::DEFAULT, at);
        // The registration still to fire comes before the retransmit.
        assert_eq!(d.next_deadline(), Some(at));
        d.poll(at);
        // Re-commissioning a held replica registers it again in place.
        d.schedule_registration(service(), DetectorParams::DEFAULT, at);
        d.poll(at);
        d.take_actions();

        let register = |service| MgmtMsg::RegisterReplica {
            service,
            host: HOST,
        };
        let now = SimTime::from_secs(3);
        d.restart(now);
        assert_eq!(d.next_deadline(), Some(now));
        d.poll(now);
        let base = now.as_nanos();
        assert_eq!(
            sent(&d.take_actions()),
            [(base, register(service())), (base + 1, register(other))]
        );

        // A departure outlives the next restart.
        d.deregister_service(other, now);
        let later = now.saturating_add(SimDuration::from_secs(1));
        d.restart(later);
        d.poll(later);
        let base = later.as_nanos();
        assert_eq!(sent(&d.take_actions()), [(base, register(service()))]);
    }
}
