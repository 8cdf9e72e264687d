//! The host-server management daemon.
//!
//! One daemon runs on every HydraNet host (§4.4). It registers local
//! replicas with the nearest redirector, answers liveness probes, forwards
//! the failure estimator's reports, and applies `SetRole` directives to the
//! local stack (the kernel in the paper; [`TcpStack`] here).
//!
//! [`TcpStack`]: hydranet_tcp::stack::TcpStack

use hydranet_netsim::hash::IntMap;
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

/// The management daemon on one host server.
#[derive(Debug)]
pub struct HostDaemon {
    host: IpAddr,
    redirectors: Vec<IpAddr>,
    endpoint: ReliableEndpoint,
    /// Services this host has registered, with their detector tuning.
    registered: IntMap<SockAddr, DetectorParams>,
    /// Last chain index applied per service (for promotion detection).
    roles: IntMap<SockAddr, u32>,
    actions: Vec<DaemonAction>,
    /// Failure reports sent (diagnostics).
    reports_sent: u64,
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
    /// `id_base` is the first message id. A daemon restarting after a
    /// crash must use a fresh base (e.g. the restart time in nanoseconds)
    /// so peers' duplicate filters accept it.
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
            registered: IntMap::default(),
            roles: IntMap::default(),
            actions: Vec::new(),
            reports_sent: 0,
            obs: Obs::disabled(),
        }
    }

    /// Wires telemetry: registrations, failure reports, and role changes
    /// (in particular primary promotions) are recorded on the timeline.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// All redirectors this daemon registers with.
    pub fn redirectors(&self) -> &[IpAddr] {
        &self.redirectors
    }

    /// Failure reports sent so far.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// Drains queued actions.
    pub fn take_actions(&mut self) -> Vec<DaemonAction> {
        std::mem::take(&mut self.actions)
    }

    /// The earliest retransmission deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.endpoint.next_deadline()
    }

    /// Registers a local replica of `service` with the redirector
    /// ("creation of primary/backup servers", §4.4). The chain position —
    /// and with it primary/backup mode — is assigned by the redirector.
    pub fn register_service(&mut self, service: SockAddr, detector: DetectorParams, now: SimTime) {
        self.registered.insert(service, detector);
        self.obs.event(
            now.as_nanos(),
            kinds::REPLICA_REGISTERED,
            [
                ("host", self.host.to_string()),
                ("service", service.to_string()),
            ],
        );
        self.actions
            .push(DaemonAction::AddVirtualHost(service.addr));
        let msg = MgmtMsg::RegisterReplica {
            service,
            host: self.host,
        };
        self.broadcast(msg, now);
    }

    /// Voluntarily removes this host's replica of `service` (§4.4).
    pub fn deregister_service(&mut self, service: SockAddr, now: SimTime) {
        self.registered.remove(&service);
        let msg = MgmtMsg::Deregister {
            service,
            host: self.host,
        };
        self.broadcast(msg, now);
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
                let detector = self
                    .registered
                    .get(&service)
                    .copied()
                    .unwrap_or(DetectorParams::DEFAULT);
                // A backup stepping into index 0 is the paper's promotion
                // moment; the initial primary assignment is not.
                let was_backup = self.roles.insert(service, index).is_some_and(|i| i != 0);
                if index == 0 && was_backup {
                    self.obs.event(
                        now.as_nanos(),
                        kinds::PROMOTED,
                        [
                            ("host", self.host.to_string()),
                            ("service", service.to_string()),
                        ],
                    );
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

    /// Advances retransmission timers.
    pub fn poll(&mut self, now: SimTime) {
        for (dst, bytes) in self.endpoint.poll(now) {
            self.actions.push(DaemonAction::Send(dst, bytes));
        }
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
        let mut d = HostDaemon::new(HOST, vec![RD], 1);
        d.register_service(service(), DetectorParams::DEFAULT, SimTime::ZERO);
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
        let mut d = HostDaemon::new(HOST, vec![RD], 1);
        let custom = DetectorParams::new(7, SimDuration::from_secs(5));
        d.register_service(service(), custom, SimTime::ZERO);
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
            let mut d = HostDaemon::new(HOST, vec![RD], 1);
            d.register_service(service(), DetectorParams::DEFAULT, SimTime::ZERO);
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
        let mut d = HostDaemon::new(HOST, vec![RD], 1);
        d.register_service(service(), DetectorParams::DEFAULT, SimTime::ZERO);
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
}
