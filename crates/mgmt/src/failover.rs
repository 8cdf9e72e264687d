//! The redirector-side replica manager: registration, failure
//! identification by probing, and chain reconfiguration (§4.4).
//!
//! Failure identification is one mechanism, a probe round: probe the
//! targets under one nonce, re-probe the silent ones, and judge whoever is
//! still silent at the last deadline. A failure report starts a round over
//! a service's chain, and its verdict cuts the silent members out. A
//! redirector pair runs the same round over `{peer}` continuously, and its
//! verdict promotes a standby (an active keeps probing).

use std::collections::{BTreeMap, BTreeSet};

use hydranet_netsim::packet::IpAddr;
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_obs::{kinds, Obs};
use hydranet_tcp::segment::SockAddr;

use crate::chain::{assignments, changed_assignments, describe};
use crate::proto::MgmtMsg;
use crate::reliable::ReliableEndpoint;

/// Actions the controller asks its host (the redirector node) to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerAction {
    /// Transmit a management datagram.
    Send(IpAddr, Vec<u8>),
    /// Install/replace the redirector-table chain for `service`
    /// (`chain[0]` is the primary). An empty chain removes the entry.
    UpdateTable {
        /// The service access point.
        service: SockAddr,
        /// The new chain, primary first.
        chain: Vec<IpAddr>,
    },
    /// Flood a route announcement (this redirector just became active) so
    /// routers flip their anycast next hop to it.
    AnnounceRoutes {
        /// Announcement sequence (the new epoch term); routers dedup on it.
        seq: u64,
    },
}

/// A monotonic table epoch: `term` bumps on every promotion, `seq` on every
/// replicated update within a term. Lexicographic order decides freshness,
/// so any update from before the latest promotion compares stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Epoch {
    /// Promotion count: whoever has the higher term was promoted later.
    pub term: u32,
    /// Update sequence within the term.
    pub seq: u64,
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.term, self.seq)
    }
}

/// Redirector pair membership: who the peer is and which side starts active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairConfig {
    /// The other redirector's (concrete, non-VIP) address.
    pub peer: IpAddr,
    /// Whether this side starts as the active member.
    pub initially_active: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Active,
    Standby,
}

#[derive(Debug)]
struct PairState {
    peer: IpAddr,
    role: Role,
    epoch: Epoch,
    /// Set on self-promotion: the next peer probe the (possibly deposed)
    /// ex-active answers triggers a reliable reconciling snapshot.
    reconcile_pending: bool,
}

/// Tuning for failure identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeParams {
    /// How long to wait for a `ProbeAck`.
    pub timeout: SimDuration,
    /// Probes a silent target gets before the round's verdict (`0` acts
    /// as `1`).
    pub attempts: u32,
}

impl Default for ProbeParams {
    fn default() -> Self {
        ProbeParams {
            timeout: SimDuration::from_millis(300),
            attempts: 2,
        }
    }
}

/// Whose liveness a probe round decides. Service rounds sort before the
/// peer round, so one poll expires them in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Subject {
    /// A service's chain members, probed after a failure report.
    Service(SockAddr),
    /// The redirector-pair peer, probed continuously.
    Peer,
}

/// One failure-identification round (see the module docs).
#[derive(Debug, Default)]
struct ProbeRound {
    /// Issued when the round starts and reused by every re-probe.
    nonce: u64,
    deadline: SimTime,
    /// Targets that have not answered yet.
    awaiting: BTreeSet<IpAddr>,
    attempt: u32,
}

/// The replica management controller embedded in a redirector.
#[derive(Debug)]
pub struct ReplicaController {
    addr: IpAddr,
    endpoint: ReliableEndpoint,
    // Deterministic iteration: probe scheduling order is part of the
    // event schedule.
    /// Each service's chain, primary first.
    services: BTreeMap<SockAddr, Vec<IpAddr>>,
    /// Service rounds in flight, plus the pair's peer round.
    rounds: BTreeMap<Subject, ProbeRound>,
    probe_params: ProbeParams,
    next_nonce: u64,
    actions: Vec<ControllerAction>,
    reconfigurations: u64,
    /// Redirector-pair replication state (`None` for a solo redirector).
    pair: Option<PairState>,
    promotions: u64,
    stale_rejections: u64,
    /// Telemetry sink (no-op unless wired via [`set_obs`](Self::set_obs)).
    obs: Obs,
}

impl ReplicaController {
    /// Creates a controller for the redirector at `addr`.
    pub fn new(addr: IpAddr, probe_params: ProbeParams) -> Self {
        ReplicaController {
            addr,
            endpoint: ReliableEndpoint::new(),
            services: BTreeMap::new(),
            rounds: BTreeMap::new(),
            probe_params,
            next_nonce: 1,
            actions: Vec::new(),
            reconfigurations: 0,
            pair: None,
            promotions: 0,
            stale_rejections: 0,
            obs: Obs::disabled(),
        }
    }

    /// Joins this controller to a redirector pair. Both sides probe the
    /// peer, the first probe leaving one `timeout` after `now`; the active
    /// side replicates every table update to the standby.
    pub fn configure_pair(&mut self, cfg: PairConfig, now: SimTime) {
        self.pair = Some(PairState {
            peer: cfg.peer,
            role: if cfg.initially_active {
                Role::Active
            } else {
                Role::Standby
            },
            epoch: Epoch::default(),
            reconcile_pending: false,
        });
        self.rest_peer_round(now);
    }

    /// Whether this controller currently acts as the pair's active member
    /// (solo controllers are always active).
    pub fn is_active(&self) -> bool {
        self.pair.as_ref().is_none_or(|p| p.role == Role::Active)
    }

    /// The current table epoch (`0.0` for solo controllers).
    pub fn epoch(&self) -> Epoch {
        self.pair.as_ref().map(|p| p.epoch).unwrap_or_default()
    }

    /// The configured pair peer, if any.
    pub fn peer(&self) -> Option<IpAddr> {
        self.pair.as_ref().map(|p| p.peer)
    }

    /// Times this controller promoted itself to active.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Stale-epoch replication updates rejected.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejections
    }

    /// Wires telemetry: probe rounds, host removals, committed chain
    /// reconfigurations, promotions and stale-epoch rejections are
    /// recorded on the timeline. Their counts are the accessors above.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The redirector address this controller runs at.
    pub fn addr(&self) -> IpAddr {
        self.addr
    }

    /// The current chain of `service` (primary first).
    pub fn chain(&self, service: SockAddr) -> Option<&[IpAddr]> {
        self.services.get(&service).map(Vec::as_slice)
    }

    /// Completed reconfigurations (diagnostics).
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Drains queued actions for the host node to execute.
    pub fn take_actions(&mut self) -> Vec<ControllerAction> {
        std::mem::take(&mut self.actions)
    }

    /// The earliest deadline (probe round or retransmission).
    pub fn next_deadline(&self) -> Option<SimTime> {
        let rounds = self.rounds.values().map(|r| r.deadline);
        rounds.chain(self.endpoint.next_deadline()).min()
    }

    /// Handles an incoming management datagram from `src`.
    pub fn on_datagram(&mut self, src: IpAddr, bytes: &[u8], now: SimTime) {
        let (msg, acks) = self.endpoint.on_datagram(src, bytes, now);
        for (dst, bytes) in acks {
            self.actions.push(ControllerAction::Send(dst, bytes));
        }
        let Some(msg) = msg else {
            return;
        };
        match msg {
            MgmtMsg::RegisterReplica { service, host } => self.register(service, host, now),
            MgmtMsg::Deregister { service, host } => self.remove_hosts(service, &[host], now),
            MgmtMsg::FailureReport { service, .. } => self.start_service_round(service, now),
            MgmtMsg::ProbeAck { nonce } => self.on_probe_ack(src, nonce, now),
            // Hosts never probe controllers, but pair members probe each
            // other; answer the peer, ignore the rest.
            MgmtMsg::Probe { nonce } => {
                if self.peer() == Some(src) {
                    self.send_unreliable(src, MgmtMsg::ProbeAck { nonce });
                }
            }
            MgmtMsg::TableReplicate {
                term,
                seq,
                service,
                chain,
            } => self.on_table_replicate(src, Epoch { term, seq }, service, chain, now),
            MgmtMsg::TableSnapshot { term, seq, entries } => {
                self.on_table_snapshot(Epoch { term, seq }, entries, now);
            }
            MgmtMsg::EpochReject { term, seq } => {
                self.on_epoch_reject(src, Epoch { term, seq }, now);
            }
            // SetRole is sent by controllers, not received.
            MgmtMsg::SetRole { .. } => {}
        }
    }

    /// Advances timers: reliable retransmissions and probe-round deadlines.
    pub fn poll(&mut self, now: SimTime) {
        for out in self.endpoint.poll(now) {
            self.actions.push(ControllerAction::Send(out.0, out.1));
        }
        let expired: Vec<Subject> = self
            .rounds
            .iter()
            .filter(|(_, r)| now >= r.deadline)
            .map(|(&subject, _)| subject)
            .collect();
        for subject in expired {
            self.expire(subject, now);
        }
    }

    // ------------------------------------------------------------------

    /// "Creation of primary server / creation of backup servers" (§4.4):
    /// first registrant becomes primary, later ones append as backups.
    fn register(&mut self, service: SockAddr, host: IpAddr, now: SimTime) {
        let old = self.services.get(&service).cloned().unwrap_or_default();
        if old.contains(&host) {
            // Idempotent re-registration: re-announce the host's role.
            if let Some(a) = assignments(&old).into_iter().find(|a| a.host == host) {
                self.send_reliable(host, a.to_msg(service), now);
            }
            return;
        }
        let mut new = old.clone();
        new.push(host);
        self.commit(service, &old, new, now);
    }

    fn remove_hosts(&mut self, service: SockAddr, hosts: &[IpAddr], now: SimTime) {
        let Some(old) = self.services.get(&service).cloned() else {
            return;
        };
        let new: Vec<IpAddr> = old.iter().copied().filter(|h| !hosts.contains(h)).collect();
        if old == new {
            return;
        }
        self.reconfigurations += 1;
        for host in old.iter().filter(|h| !new.contains(h)) {
            self.obs.event(
                now.as_nanos(),
                kinds::HOST_REMOVED,
                [("service", service.to_string()), ("host", host.to_string())],
            );
        }
        self.obs.event(
            now.as_nanos(),
            kinds::CHAIN_RECONFIGURED,
            [
                ("service", service.to_string()),
                ("chain", describe(&new)),
                ("length", new.len().to_string()),
            ],
        );
        self.commit(service, &old, new, now);
    }

    /// Commits a chain change: installs `new` in the local table,
    /// replicates it to the standby under the next epoch sequence number
    /// (when this side is a pair's active member), then sends `SetRole` to
    /// every host whose assignment differs from the one in `old`.
    fn commit(&mut self, service: SockAddr, old: &[IpAddr], new: Vec<IpAddr>, now: SimTime) {
        self.actions.push(ControllerAction::UpdateTable {
            service,
            chain: new.clone(),
        });
        if let Some(pair) = self.pair.as_mut().filter(|p| p.role == Role::Active) {
            pair.epoch.seq += 1;
            let (peer, epoch) = (pair.peer, pair.epoch);
            let msg = MgmtMsg::TableReplicate {
                term: epoch.term,
                seq: epoch.seq,
                service,
                chain: new.clone(),
            };
            self.send_reliable(peer, msg, now);
        }
        for a in changed_assignments(old, &new) {
            self.send_reliable(a.host, a.to_msg(service), now);
        }
        self.services.insert(service, new);
    }

    // ---------------------------- probing -------------------------------

    /// "Reconfiguration after a failure detection: … the failed server
    /// needs to be identified" (§4.4): probe every chain member; whoever
    /// stays silent is declared failed.
    fn start_service_round(&mut self, service: SockAddr, now: SimTime) {
        let subject = Subject::Service(service);
        let Some(chain) = self.services.get(&service) else {
            return;
        };
        if self.rounds.contains_key(&subject) || chain.is_empty() {
            return; // a round is already under way
        }
        let targets: BTreeSet<IpAddr> = chain.iter().copied().collect();
        let count = targets.len();
        let nonce = self.start_round(subject, targets, now);
        self.obs.event(
            now.as_nanos(),
            kinds::PROBE_STARTED,
            [
                ("service", service.to_string()),
                ("nonce", nonce.to_string()),
                ("targets", count.to_string()),
            ],
        );
    }

    /// Starts a round for `subject` probing `targets` under a fresh nonce.
    fn start_round(&mut self, subject: Subject, targets: BTreeSet<IpAddr>, now: SimTime) -> u64 {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let round = ProbeRound {
            nonce,
            awaiting: targets,
            attempt: 1,
            ..ProbeRound::default()
        };
        self.rounds.insert(subject, round);
        self.probe(subject, now); // arms the deadline
        nonce
    }

    /// Sends the round's probe to every target still silent and arms the
    /// round's deadline one `timeout` from `now`.
    fn probe(&mut self, subject: Subject, now: SimTime) {
        let Some(round) = self.rounds.get_mut(&subject) else {
            return;
        };
        round.deadline = now + self.probe_params.timeout;
        let (nonce, targets) = (round.nonce, round.awaiting.clone());
        for host in targets {
            self.send_unreliable(host, MgmtMsg::Probe { nonce });
        }
    }

    /// Records `src`'s answer in the round its `nonce` names. A service
    /// round runs on to its deadline; the peer round ends on the answer.
    fn on_probe_ack(&mut self, src: IpAddr, nonce: u64, now: SimTime) {
        let Some((&subject, round)) = self.rounds.iter_mut().find(|(_, r)| r.nonce == nonce) else {
            return;
        };
        if !round.awaiting.remove(&src) || subject != Subject::Peer {
            return;
        }
        self.rest_peer_round(now);
        // First sign of life from the peer since this side promoted: the
        // peer may be a deposed ex-active whose stale replication was
        // abandoned while the link was down, so push it a full snapshot —
        // receiving the newer epoch demotes and resyncs it.
        let Some(pair) = self
            .pair
            .as_mut()
            .filter(|p| p.role == Role::Active && p.reconcile_pending)
        else {
            return;
        };
        pair.reconcile_pending = false;
        let peer = pair.peer;
        let snap = self.snapshot_msg();
        self.send_reliable(peer, snap, now);
    }

    /// A round's deadline. While attempts remain, the silent targets are
    /// probed again. Then comes the verdict on silence: silent hosts leave
    /// the service's chain, and a standby takes over from its silent peer —
    /// an active instead keeps probing, once per `timeout`, so it notices
    /// when a deposed ex-active comes back. An answered service round was a
    /// false alarm and ends; an idle peer round starts the next one.
    fn expire(&mut self, subject: Subject, now: SimTime) {
        let Some(round) = self.rounds.get_mut(&subject) else {
            return;
        };
        let silent = !round.awaiting.is_empty();
        if silent && round.attempt < self.probe_params.attempts {
            round.attempt += 1;
            self.probe(subject, now);
            return;
        }
        match (subject, self.pair.as_ref()) {
            (Subject::Service(service), _) => {
                let round = self.rounds.remove(&subject);
                let failed: Vec<IpAddr> = round.into_iter().flat_map(|r| r.awaiting).collect();
                self.remove_hosts(service, &failed, now);
            }
            (Subject::Peer, Some(pair)) if !silent => {
                let peer = pair.peer;
                self.start_round(subject, BTreeSet::from([peer]), now);
            }
            (Subject::Peer, Some(pair)) if pair.role == Role::Active => self.probe(subject, now),
            (Subject::Peer, _) => self.promote_self(now),
        }
    }

    /// Ends the peer round. Until the next one starts, one `timeout` from
    /// `now`, an idle round awaiting nobody holds its place.
    fn rest_peer_round(&mut self, now: SimTime) {
        let idle = ProbeRound {
            deadline: now + self.probe_params.timeout,
            ..ProbeRound::default()
        };
        self.rounds.insert(Subject::Peer, idle);
    }

    // ---------------------------- pair ----------------------------------

    /// The standby lost its peer: take over. The term bump makes every
    /// update the dead (or partitioned) ex-active later sends compare
    /// stale, and the route announcement flips the anycast next hop.
    fn promote_self(&mut self, now: SimTime) {
        let Some(pair) = self.pair.as_mut() else {
            return;
        };
        pair.role = Role::Active;
        pair.epoch.term += 1;
        pair.epoch.seq = 0;
        pair.reconcile_pending = true;
        let (peer, term) = (pair.peer, pair.epoch.term);
        self.rest_peer_round(now);
        self.promotions += 1;
        self.obs.event(
            now.as_nanos(),
            kinds::REDIRECTOR_PROMOTED,
            [("peer", peer.to_string()), ("term", term.to_string())],
        );
        self.actions
            .push(ControllerAction::AnnounceRoutes { seq: term as u64 });
    }

    /// The epoch-adoption rule, for every epoch the peer's replication
    /// traffic carries that is at least as new as this side's: a newer
    /// *term* met while active means this side was superseded while
    /// partitioned or slow, so it demotes; otherwise it moves to `incoming`.
    fn adopt_epoch(&mut self, incoming: Epoch, now: SimTime) {
        let Some(pair) = self.pair.as_mut() else {
            return;
        };
        if incoming.term > pair.epoch.term && pair.role == Role::Active {
            self.demote_self(incoming, now);
        } else {
            pair.epoch = incoming;
        }
    }

    /// Drops back to standby at `epoch`: abandons the service rounds
    /// started while active and resumes peer probing.
    fn demote_self(&mut self, epoch: Epoch, now: SimTime) {
        let Some(pair) = self.pair.as_mut() else {
            return;
        };
        pair.role = Role::Standby;
        pair.epoch = epoch;
        pair.reconcile_pending = false;
        let peer = pair.peer;
        self.rounds.clear();
        self.rest_peer_round(now);
        self.obs.event(
            now.as_nanos(),
            kinds::REDIRECTOR_DEMOTED,
            [("peer", peer.to_string()), ("epoch", epoch.to_string())],
        );
    }

    fn snapshot_msg(&self) -> MgmtMsg {
        let Epoch { term, seq } = self.epoch();
        let entries = self.services.iter().map(|(&s, chain)| (s, chain.clone()));
        let entries = entries.collect();
        MgmtMsg::TableSnapshot { term, seq, entries }
    }

    /// Forgets `service` and any round probing it.
    fn drop_service(&mut self, service: SockAddr) {
        self.services.remove(&service);
        self.rounds.remove(&Subject::Service(service));
    }

    fn on_table_replicate(
        &mut self,
        src: IpAddr,
        incoming: Epoch,
        service: SockAddr,
        chain: Vec<IpAddr>,
        now: SimTime,
    ) {
        let Some(current) = self.pair.as_ref().map(|p| p.epoch) else {
            return;
        };
        if incoming.term < current.term {
            // A partitioned ex-active catching up: reject the stale update
            // and push a snapshot so it can demote and resync.
            self.stale_rejections += 1;
            self.obs.event(
                now.as_nanos(),
                kinds::STALE_EPOCH_REJECTED,
                [
                    ("from", src.to_string()),
                    ("stale", incoming.to_string()),
                    ("current", current.to_string()),
                ],
            );
            let reject = MgmtMsg::EpochReject {
                term: current.term,
                seq: current.seq,
            };
            self.send_unreliable(src, reject);
            let snap = self.snapshot_msg();
            self.send_reliable(src, snap, now);
            return;
        }
        if incoming <= current {
            return; // duplicate or reordered within the current term
        }
        self.adopt_epoch(incoming, now);
        if chain.is_empty() {
            self.drop_service(service);
        } else {
            self.services.insert(service, chain.clone());
        }
        // Install into the local engine table directly — never through
        // `commit`, which would re-replicate.
        self.actions
            .push(ControllerAction::UpdateTable { service, chain });
    }

    fn on_table_snapshot(
        &mut self,
        incoming: Epoch,
        entries: Vec<(SockAddr, Vec<IpAddr>)>,
        now: SimTime,
    ) {
        if self.pair.as_ref().is_none_or(|p| incoming < p.epoch) {
            return;
        }
        self.adopt_epoch(incoming, now);
        // Remove services absent from the snapshot, then install the rest.
        let keep: BTreeSet<SockAddr> = entries.iter().map(|(sap, _)| *sap).collect();
        let stale: Vec<SockAddr> = self
            .services
            .keys()
            .filter(|sap| !keep.contains(sap))
            .copied()
            .collect();
        for sap in stale {
            self.drop_service(sap);
            self.actions.push(ControllerAction::UpdateTable {
                service: sap,
                chain: Vec::new(),
            });
        }
        for (service, chain) in entries {
            self.services.insert(service, chain.clone());
            self.actions
                .push(ControllerAction::UpdateTable { service, chain });
        }
    }

    fn on_epoch_reject(&mut self, src: IpAddr, incoming: Epoch, now: SimTime) {
        if self
            .pair
            .as_ref()
            .is_some_and(|p| p.peer == src && incoming > p.epoch)
        {
            self.adopt_epoch(incoming, now);
        }
    }

    /// Queues `msg` for `dst` on the retransmitting channel.
    fn send_reliable(&mut self, dst: IpAddr, msg: MgmtMsg, now: SimTime) {
        let (dst, bytes) = self.endpoint.send_reliable(dst, msg, now);
        self.actions.push(ControllerAction::Send(dst, bytes));
    }

    /// Queues `msg` for `dst` fire-and-forget.
    fn send_unreliable(&mut self, dst: IpAddr, msg: MgmtMsg) {
        let (dst, bytes) = self.endpoint.send_unreliable(dst, msg);
        self.actions.push(ControllerAction::Send(dst, bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Envelope;

    const RD: IpAddr = IpAddr::new(10, 9, 0, 1);

    fn h(n: u8) -> IpAddr {
        IpAddr::new(10, 0, n, 1)
    }

    fn service() -> SockAddr {
        SockAddr::new(IpAddr::new(192, 20, 225, 20), 80)
    }

    fn reg_with_id(host: IpAddr, id: u64) -> Vec<u8> {
        Envelope::Payload {
            id,
            needs_ack: false,
            msg: MgmtMsg::RegisterReplica {
                service: service(),
                host,
            },
        }
        .encode()
    }

    fn reg(host: IpAddr) -> Vec<u8> {
        reg_with_id(host, host.to_bits() as u64)
    }

    fn decode_send(action: &ControllerAction) -> Option<(IpAddr, MgmtMsg)> {
        if let ControllerAction::Send(dst, bytes) = action {
            if let Ok(Envelope::Payload { msg, .. }) = Envelope::decode(bytes) {
                return Some((*dst, msg));
            }
        }
        None
    }

    fn table_updates(actions: &[ControllerAction]) -> Vec<Vec<IpAddr>> {
        actions
            .iter()
            .filter_map(|a| match a {
                ControllerAction::UpdateTable { chain, .. } => Some(chain.clone()),
                _ => None,
            })
            .collect()
    }

    /// An unacknowledged datagram carrying `msg` under envelope `id` (the
    /// reliable layer suppresses a repeated `(sender, id)`).
    fn datagram(id: u64, msg: MgmtMsg) -> Vec<u8> {
        Envelope::Payload {
            id,
            needs_ack: false,
            msg,
        }
        .encode()
    }

    /// `h(2)` reporting the service broken.
    fn failure_report(id: u64) -> Vec<u8> {
        datagram(
            id,
            MgmtMsg::FailureReport {
                service: service(),
                reporter: h(2),
                observed: 5,
            },
        )
    }

    /// `(destination, nonce)` of every probe in `actions`.
    fn probes_sent(actions: &[ControllerAction]) -> Vec<(IpAddr, u64)> {
        actions
            .iter()
            .filter_map(decode_send)
            .filter_map(|(dst, m)| match m {
                MgmtMsg::Probe { nonce } => Some((dst, nonce)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn registration_builds_chain_in_order() {
        let mut c = ReplicaController::new(RD, ProbeParams::default());
        c.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        c.on_datagram(h(2), &reg(h(2)), SimTime::ZERO);
        c.on_datagram(h(3), &reg(h(3)), SimTime::ZERO);
        assert_eq!(c.chain(service()).unwrap(), &[h(1), h(2), h(3)]);
        let actions = c.take_actions();
        let updates = table_updates(&actions);
        assert_eq!(updates.last().unwrap(), &vec![h(1), h(2), h(3)]);
        // SetRole messages went out to affected hosts.
        let roles: Vec<_> = actions
            .iter()
            .filter_map(decode_send)
            .filter(|(_, m)| matches!(m, MgmtMsg::SetRole { .. }))
            .collect();
        assert!(roles.iter().any(|(dst, _)| *dst == h(1)));
        assert!(roles.iter().any(|(dst, _)| *dst == h(3)));
    }

    #[test]
    fn duplicate_registration_is_idempotent() {
        let mut c = ReplicaController::new(RD, ProbeParams::default());
        c.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        c.take_actions();
        // A daemon re-registering uses a fresh envelope id (an identical id
        // would be suppressed by the reliable layer's duplicate filter).
        c.on_datagram(h(1), &reg_with_id(h(1), 777), SimTime::from_millis(1));
        assert_eq!(c.chain(service()).unwrap(), &[h(1)]);
        // Re-registration re-announces the role but does not duplicate the
        // chain entry.
        let actions = c.take_actions();
        assert!(actions
            .iter()
            .filter_map(decode_send)
            .any(|(dst, m)| { dst == h(1) && matches!(m, MgmtMsg::SetRole { index: 0, .. }) }));
    }

    #[test]
    fn failure_report_probes_then_removes_silent_hosts() {
        let params = ProbeParams {
            timeout: SimDuration::from_millis(100),
            attempts: 2,
        };
        let mut c = ReplicaController::new(RD, params);
        c.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        c.on_datagram(h(2), &reg(h(2)), SimTime::ZERO);
        c.take_actions();

        // h2 reports the primary broken.
        c.on_datagram(h(2), &failure_report(99), SimTime::from_secs(1));
        let actions = c.take_actions();
        let probes: Vec<_> = actions
            .iter()
            .filter_map(decode_send)
            .filter(|(_, m)| matches!(m, MgmtMsg::Probe { .. }))
            .collect();
        assert_eq!(probes.len(), 2, "both chain members probed");
        let nonce = match probes[0].1 {
            MgmtMsg::Probe { nonce } => nonce,
            _ => unreachable!(),
        };

        // Only h2 answers.
        let ack = datagram(1, MgmtMsg::ProbeAck { nonce });
        c.on_datagram(h(2), &ack, SimTime::from_millis(1050));

        // First deadline: h1 still silent → second round.
        c.poll(SimTime::from_millis(1100));
        let actions = c.take_actions();
        let second_probes = actions
            .iter()
            .filter_map(decode_send)
            .filter(|(dst, m)| *dst == h(1) && matches!(m, MgmtMsg::Probe { .. }))
            .count();
        assert_eq!(second_probes, 1, "only the silent host is re-probed");

        // Second deadline: h1 declared failed, h2 promoted.
        c.poll(SimTime::from_millis(1200));
        assert_eq!(c.chain(service()).unwrap(), &[h(2)]);
        assert_eq!(c.reconfigurations(), 1);
        let actions = c.take_actions();
        let updates = table_updates(&actions);
        assert_eq!(updates.last().unwrap(), &vec![h(2)]);
        assert!(actions.iter().filter_map(decode_send).any(|(dst, m)| {
            dst == h(2)
                && matches!(
                    m,
                    MgmtMsg::SetRole {
                        index: 0,
                        predecessor: None,
                        has_successor: false,
                        ..
                    }
                )
        }));
    }

    #[test]
    fn false_alarm_keeps_chain() {
        let params = ProbeParams {
            timeout: SimDuration::from_millis(100),
            attempts: 1,
        };
        let mut c = ReplicaController::new(RD, params);
        c.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        c.on_datagram(h(2), &reg(h(2)), SimTime::ZERO);
        c.take_actions();
        c.on_datagram(h(2), &failure_report(99), SimTime::from_secs(1));
        let actions = c.take_actions();
        let probes: Vec<_> = actions.iter().filter_map(decode_send).collect();
        let nonce = probes
            .iter()
            .find_map(|(_, m)| match m {
                MgmtMsg::Probe { nonce } => Some(*nonce),
                _ => None,
            })
            .unwrap();
        for host in [h(1), h(2)] {
            let ack = datagram(1, MgmtMsg::ProbeAck { nonce });
            c.on_datagram(host, &ack, SimTime::from_millis(1020));
        }
        // Everyone answered, but the round lasts until its deadline: a
        // report inside it starts no second round.
        c.take_actions();
        c.on_datagram(h(2), &failure_report(100), SimTime::from_millis(1050));
        assert!(probes_sent(&c.take_actions()).is_empty());
        c.poll(SimTime::from_millis(1150));
        assert_eq!(c.chain(service()).unwrap(), &[h(1), h(2)]);
        assert_eq!(c.reconfigurations(), 0);
    }

    #[test]
    fn voluntary_deregistration_promotes_next() {
        // "If the server is a primary, the redirector designates the backup
        // immediately following the primary … as the new primary" (§4.4).
        let mut c = ReplicaController::new(RD, ProbeParams::default());
        c.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        c.on_datagram(h(2), &reg(h(2)), SimTime::ZERO);
        c.take_actions();
        let dereg = Envelope::Payload {
            id: 50,
            needs_ack: false,
            msg: MgmtMsg::Deregister {
                service: service(),
                host: h(1),
            },
        }
        .encode();
        c.on_datagram(h(1), &dereg, SimTime::from_secs(2));
        assert_eq!(c.chain(service()).unwrap(), &[h(2)]);
    }

    const RD_B: IpAddr = IpAddr::new(10, 9, 0, 2);

    fn pair_params() -> ProbeParams {
        ProbeParams {
            timeout: SimDuration::from_millis(100),
            attempts: 2,
        }
    }

    fn paired(addr: IpAddr, peer: IpAddr, active: bool) -> ReplicaController {
        let mut c = ReplicaController::new(addr, pair_params());
        c.configure_pair(
            PairConfig {
                peer,
                initially_active: active,
            },
            SimTime::ZERO,
        );
        c
    }

    /// Delivers every queued `Send` addressed to `to.addr()` into `to`,
    /// returning the payload messages delivered; other actions are dropped.
    fn shuttle(
        from: &mut ReplicaController,
        to: &mut ReplicaController,
        now: SimTime,
    ) -> Vec<MgmtMsg> {
        let from_addr = from.addr();
        let mut delivered = Vec::new();
        for action in from.take_actions() {
            if let ControllerAction::Send(dst, bytes) = &action {
                if *dst == to.addr() {
                    to.on_datagram(from_addr, bytes, now);
                    delivered.extend(decode_send(&action).map(|(_, m)| m));
                }
            }
        }
        delivered
    }

    #[test]
    fn standby_promotes_after_missed_peer_probes_and_announces() {
        let mut c = paired(RD_B, RD, false);
        assert!(!c.is_active());
        // First probe goes out at the probe interval.
        c.poll(SimTime::from_millis(100));
        let probes = c
            .take_actions()
            .iter()
            .filter_map(decode_send)
            .filter(|(dst, m)| *dst == RD && matches!(m, MgmtMsg::Probe { .. }))
            .count();
        assert_eq!(probes, 1);
        // Unanswered deadline: one retry, still standby.
        c.poll(SimTime::from_millis(200));
        assert!(!c.is_active());
        // Second unanswered deadline: promote, bump the term, announce.
        c.poll(SimTime::from_millis(300));
        assert!(c.is_active());
        assert_eq!(c.promotions(), 1);
        assert_eq!(c.epoch(), Epoch { term: 1, seq: 0 });
        assert!(c
            .take_actions()
            .iter()
            .any(|a| matches!(a, ControllerAction::AnnounceRoutes { seq: 1 })));
    }

    #[test]
    fn revived_silent_ex_active_is_reconciled_by_peer_probes() {
        // The ex-active crashed long enough for the new active's stale
        // replication window to close, then came back *silent* (nothing
        // pending to retransmit). The new active's continuous peer probing
        // must notice it and push a reconciling snapshot unprompted.
        let mut a = paired(RD, RD_B, true);
        let mut b = paired(RD_B, RD, false);
        a.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        shuttle(&mut a, &mut b, SimTime::from_millis(1));
        // a "dies": b misses two probes and takes over.
        b.poll(SimTime::from_millis(100));
        b.take_actions();
        b.poll(SimTime::from_millis(200));
        b.poll(SimTime::from_millis(300));
        assert!(b.is_active());
        b.take_actions();
        // a comes back with empty queues, still believing it is active at
        // term 0. b's next probe reaches it; its ack triggers the snapshot.
        let now = SimTime::from_millis(400);
        b.poll(now);
        shuttle(&mut b, &mut a, now); // probe reaches a
        shuttle(&mut a, &mut b, now); // ack reaches b
        shuttle(&mut b, &mut a, now); // reconciling snapshot reaches a
        assert!(!a.is_active(), "deposed ex-active must demote");
        assert_eq!(a.epoch().term, 1);
        assert_eq!(a.chain(service()).unwrap(), &[h(1)]);
        // One snapshot is enough: the flag cleared.
        let later = SimTime::from_millis(500);
        b.poll(later);
        shuttle(&mut b, &mut a, later);
        shuttle(&mut a, &mut b, later);
        let snaps = b
            .take_actions()
            .iter()
            .filter_map(decode_send)
            .filter(|(_, m)| matches!(m, MgmtMsg::TableSnapshot { .. }))
            .count();
        assert_eq!(snaps, 0, "reconciliation must fire once, not per ack");
    }

    #[test]
    fn answered_peer_probes_keep_the_standby_down() {
        let mut a = paired(RD, RD_B, true);
        let mut b = paired(RD_B, RD, false);
        for ms in (100..=1000).step_by(100) {
            let now = SimTime::from_millis(ms);
            a.poll(now);
            b.poll(now);
            shuttle(&mut b, &mut a, now); // probes reach the active…
            shuttle(&mut a, &mut b, now); // …whose acks reach the standby
        }
        assert!(!b.is_active());
        assert_eq!(b.promotions(), 0);
        assert!(a.is_active());
    }

    #[test]
    fn active_replicates_chain_updates_to_standby() {
        let mut a = paired(RD, RD_B, true);
        let mut b = paired(RD_B, RD, false);
        a.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        a.on_datagram(h(2), &reg(h(2)), SimTime::ZERO);
        shuttle(&mut a, &mut b, SimTime::from_millis(1));
        assert_eq!(b.chain(service()).unwrap(), &[h(1), h(2)]);
        assert_eq!(b.epoch(), Epoch { term: 0, seq: 2 });
        // The standby installed the replicated chain into its own engine.
        let updates = table_updates(&b.take_actions());
        assert_eq!(updates.last().unwrap(), &vec![h(1), h(2)]);
        // Replaying the same replicates is harmless (endpoint dedup), and a
        // reordered older seq is ignored by the epoch guard.
        assert_eq!(b.chain(service()).unwrap(), &[h(1), h(2)]);
    }

    #[test]
    fn stale_ex_active_is_rejected_demoted_and_resynced() {
        let mut a = paired(RD, RD_B, true);
        let mut b = paired(RD_B, RD, false);
        a.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        a.on_datagram(h(2), &reg(h(2)), SimTime::ZERO);
        shuttle(&mut a, &mut b, SimTime::from_millis(1));

        // b loses contact with a and promotes (term 1).
        b.poll(SimTime::from_millis(100));
        b.take_actions();
        b.poll(SimTime::from_millis(200));
        b.poll(SimTime::from_millis(300));
        assert!(b.is_active());
        b.take_actions();

        // The partitioned ex-active keeps mutating its table at term 0…
        a.on_datagram(h(3), &reg(h(3)), SimTime::from_millis(400));
        assert_eq!(a.chain(service()).unwrap(), &[h(1), h(2), h(3)]);

        // …and when the partition heals, its stale update is rejected.
        let now = SimTime::from_millis(500);
        shuttle(&mut a, &mut b, now);
        assert_eq!(b.stale_rejections(), 1);
        assert_eq!(b.chain(service()).unwrap(), &[h(1), h(2)], "not applied");

        // The reject + snapshot demote and resync the ex-active.
        shuttle(&mut b, &mut a, now);
        assert!(!a.is_active());
        assert_eq!(a.epoch().term, 1);
        assert_eq!(a.chain(service()).unwrap(), &[h(1), h(2)]);
        let updates = table_updates(&a.take_actions());
        assert_eq!(updates.last().unwrap(), &vec![h(1), h(2)]);
    }

    #[test]
    fn snapshot_removes_services_missing_from_it() {
        let mut b = paired(RD_B, RD, false);
        // The standby believes in a service the snapshot no longer has.
        let doomed = SockAddr::new(IpAddr::new(192, 20, 225, 99), 81);
        b.on_datagram(
            RD,
            &Envelope::Payload {
                id: 1,
                needs_ack: true,
                msg: MgmtMsg::TableReplicate {
                    term: 0,
                    seq: 1,
                    service: doomed,
                    chain: vec![h(5)],
                },
            }
            .encode(),
            SimTime::ZERO,
        );
        assert_eq!(b.chain(doomed).unwrap(), &[h(5)]);
        b.take_actions();
        b.on_datagram(
            RD,
            &Envelope::Payload {
                id: 2,
                needs_ack: true,
                msg: MgmtMsg::TableSnapshot {
                    term: 0,
                    seq: 2,
                    entries: vec![(service(), vec![h(1)])],
                },
            }
            .encode(),
            SimTime::from_millis(1),
        );
        assert!(b.chain(doomed).is_none());
        assert_eq!(b.chain(service()).unwrap(), &[h(1)]);
        let actions = b.take_actions();
        let updates: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                ControllerAction::UpdateTable { service, chain } => Some((*service, chain.clone())),
                _ => None,
            })
            .collect();
        assert!(updates.contains(&(doomed, vec![])));
        assert!(updates.contains(&(service(), vec![h(1)])));
    }

    #[test]
    fn concurrent_failure_report_does_not_double_probe() {
        let mut c = ReplicaController::new(RD, ProbeParams::default());
        c.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        c.on_datagram(h(2), &reg(h(2)), SimTime::ZERO);
        c.take_actions();
        for id in [1u64, 2] {
            c.on_datagram(h(2), &failure_report(id), SimTime::from_secs(1));
        }
        let probes = c
            .take_actions()
            .iter()
            .filter_map(decode_send)
            .filter(|(_, m)| matches!(m, MgmtMsg::Probe { .. }))
            .count();
        assert_eq!(probes, 2, "one round of two probes, not two rounds");
    }

    #[test]
    fn a_late_probe_ack_counts_alike_in_a_service_round_and_the_peer_round() {
        let ms = SimTime::from_millis;
        // Service round: h1 answers the first probe after its deadline.
        let mut c = ReplicaController::new(RD, pair_params());
        c.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        c.on_datagram(h(2), &reg(h(2)), SimTime::ZERO);
        c.take_actions();
        c.on_datagram(h(2), &failure_report(1), ms(1000));
        let nonce = probes_sent(&c.take_actions())[0].1;
        c.on_datagram(h(2), &datagram(2, MgmtMsg::ProbeAck { nonce }), ms(1050));
        c.poll(ms(1100));
        assert_eq!(probes_sent(&c.take_actions()), vec![(h(1), nonce)]);
        c.on_datagram(h(1), &datagram(1, MgmtMsg::ProbeAck { nonce }), ms(1150));
        c.poll(ms(1200));
        assert_eq!(c.chain(service()).unwrap(), &[h(1), h(2)]);
        assert_eq!(c.reconfigurations(), 0);

        // Peer round: the active answers the first probe after its deadline.
        let mut b = paired(RD_B, RD, false);
        b.poll(ms(100));
        let nonce = probes_sent(&b.take_actions())[0].1;
        b.poll(ms(200));
        assert_eq!(probes_sent(&b.take_actions()), vec![(RD, nonce)]);
        b.on_datagram(RD, &datagram(1, MgmtMsg::ProbeAck { nonce }), ms(250));
        b.poll(ms(300));
        assert!(!b.is_active());
        assert_eq!(b.promotions(), 0);
        // The answer ended the round; the next leaves one timeout after it.
        b.poll(ms(349));
        assert!(probes_sent(&b.take_actions()).is_empty());
        b.poll(ms(350));
        assert_eq!(probes_sent(&b.take_actions()).len(), 1);
    }

    #[test]
    fn a_demoted_ex_active_abandons_its_service_round() {
        let ms = SimTime::from_millis;
        let mut a = paired(RD, RD_B, true);
        a.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        a.on_datagram(h(2), &reg(h(2)), SimTime::ZERO);
        a.take_actions();
        a.on_datagram(h(2), &failure_report(1), ms(1000));
        assert_eq!(probes_sent(&a.take_actions()).len(), 2);
        // Nobody answers, and the promoted peer's reject demotes `a`.
        let reject = MgmtMsg::EpochReject { term: 1, seq: 0 };
        a.on_datagram(RD_B, &datagram(1, reject), ms(1050));
        assert!(!a.is_active());
        for t in (1060..=1500).step_by(10) {
            a.poll(ms(t));
        }
        let hosts_probed = probes_sent(&a.take_actions())
            .iter()
            .filter(|(dst, _)| *dst != RD_B)
            .count();
        assert_eq!(hosts_probed, 0);
        assert_eq!(a.chain(service()).unwrap(), &[h(1), h(2)]);
        assert_eq!(a.reconfigurations(), 0);
    }

    #[test]
    fn an_active_watches_a_dead_peer_once_per_timeout_and_reconciles_once() {
        let ms = SimTime::from_millis;
        let mut a = paired(RD, RD_B, true);
        let mut b = paired(RD_B, RD, false);
        a.on_datagram(h(1), &reg(h(1)), SimTime::ZERO);
        shuttle(&mut a, &mut b, ms(1));
        // `a` dies: `b` promotes after two unanswered probes.
        for t in (10..=300).step_by(10) {
            b.poll(ms(t));
        }
        assert!(b.is_active());
        b.take_actions();
        // Twelve silent periods, polled every 10 ms: one probe per period.
        let mut sent = Vec::new();
        for t in (310..=1500).step_by(10) {
            b.poll(ms(t));
            for (dst, _) in probes_sent(&b.take_actions()) {
                sent.push((dst, t));
            }
        }
        let every_period: Vec<_> = (400..=1500).step_by(100).map(|t| (RD, t)).collect();
        assert_eq!(sent, every_period);
        assert_eq!(b.promotions(), 1);
        assert_eq!(b.epoch(), Epoch { term: 1, seq: 0 });
        // `a` comes back silent and still active at term 0: `b`'s probes
        // reach it, and exactly one reconciling snapshot demotes it.
        let mut snapshots = 0;
        for t in (1510..=3000).step_by(10) {
            b.poll(ms(t));
            let delivered = shuttle(&mut b, &mut a, ms(t));
            snapshots += delivered
                .iter()
                .filter(|m| matches!(m, MgmtMsg::TableSnapshot { .. }))
                .count();
            shuttle(&mut a, &mut b, ms(t));
        }
        assert_eq!(snapshots, 1);
        assert!(!a.is_active());
        assert_eq!(a.epoch().term, 1);
        assert_eq!(b.promotions(), 1);
    }
}
