//! The redirector-side replica manager: registration, failure
//! identification by probing, and chain reconfiguration (§4.4).

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
struct PeerProbe {
    nonce: u64,
    deadline: SimTime,
    misses: u32,
}

#[derive(Debug)]
struct PairState {
    peer: IpAddr,
    role: Role,
    epoch: Epoch,
    /// Outstanding peer probe (both roles probe continuously).
    probing: Option<PeerProbe>,
    /// When the next peer probe goes out.
    next_probe_at: SimTime,
    /// Set on self-promotion: the next peer probe the (possibly deposed)
    /// ex-active answers triggers a reliable reconciling snapshot.
    reconcile_pending: bool,
}

/// Tuning for failure identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeParams {
    /// How long to wait for a `ProbeAck`.
    pub timeout: SimDuration,
    /// Probe rounds before a silent replica is declared failed.
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

#[derive(Debug)]
struct ProbeRound {
    nonce: u64,
    deadline: SimTime,
    awaiting: BTreeSet<IpAddr>,
    attempt: u32,
}

#[derive(Debug, Default)]
struct ServiceState {
    chain: Vec<IpAddr>,
    probing: Option<ProbeRound>,
}

/// The replica management controller embedded in a redirector.
#[derive(Debug)]
pub struct ReplicaController {
    addr: IpAddr,
    endpoint: ReliableEndpoint,
    // Deterministic iteration: probe scheduling order is part of the
    // event schedule.
    services: BTreeMap<SockAddr, ServiceState>,
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

    /// Joins this controller to a redirector pair. The standby side starts
    /// probing the active peer; the active side replicates every table
    /// update to the standby.
    pub fn configure_pair(&mut self, cfg: PairConfig, now: SimTime) {
        self.pair = Some(PairState {
            peer: cfg.peer,
            role: if cfg.initially_active {
                Role::Active
            } else {
                Role::Standby
            },
            epoch: Epoch::default(),
            probing: None,
            next_probe_at: now + self.probe_params.timeout,
            reconcile_pending: false,
        });
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

    /// Wires telemetry: probe rounds, host removals, and committed chain
    /// reconfigurations are recorded on the timeline, plus a
    /// `mgmt.controller.<addr>.reconfigurations` counter.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The redirector address this controller runs at.
    pub fn addr(&self) -> IpAddr {
        self.addr
    }

    /// The current chain of `service` (primary first).
    pub fn chain(&self, service: SockAddr) -> Option<&[IpAddr]> {
        self.services.get(&service).map(|s| s.chain.as_slice())
    }

    /// Completed reconfigurations (diagnostics).
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Drains queued actions for the host node to execute.
    pub fn take_actions(&mut self) -> Vec<ControllerAction> {
        std::mem::take(&mut self.actions)
    }

    /// The earliest deadline (probe, retransmission, or peer probe).
    pub fn next_deadline(&self) -> Option<SimTime> {
        let probe = self
            .services
            .values()
            .filter_map(|s| s.probing.as_ref().map(|p| p.deadline))
            .min();
        let peer = self.pair.as_ref().map(|p| {
            p.probing
                .as_ref()
                .map_or(p.next_probe_at, |probe| probe.deadline)
        });
        [probe, peer, self.endpoint.next_deadline()]
            .into_iter()
            .flatten()
            .min()
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
            MgmtMsg::FailureReport { service, .. } => self.start_probe_round(service, now),
            MgmtMsg::ProbeAck { nonce } => {
                if self.pair.as_ref().is_some_and(|p| p.peer == src) {
                    self.on_peer_probe_ack(nonce, now);
                } else {
                    self.on_probe_ack(src, nonce);
                }
            }
            // Hosts never probe controllers, but a standby pair member
            // probes the active one; answer the peer, ignore the rest.
            MgmtMsg::Probe { nonce } => {
                if self.pair.as_ref().is_some_and(|p| p.peer == src) {
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

    /// Advances timers: reliable retransmissions, probe deadlines, and the
    /// standby's peer liveness probing.
    pub fn poll(&mut self, now: SimTime) {
        for out in self.endpoint.poll(now) {
            self.actions.push(ControllerAction::Send(out.0, out.1));
        }
        let expired: Vec<SockAddr> = self
            .services
            .iter()
            .filter(|(_, s)| s.probing.as_ref().is_some_and(|p| now >= p.deadline))
            .map(|(&sap, _)| sap)
            .collect();
        for service in expired {
            self.probe_deadline(service, now);
        }
        self.poll_pair(now);
    }

    // ------------------------------------------------------------------

    /// "Creation of primary server / creation of backup servers" (§4.4):
    /// first registrant becomes primary, later ones append as backups.
    fn register(&mut self, service: SockAddr, host: IpAddr, now: SimTime) {
        let state = self.services.entry(service).or_default();
        if state.chain.contains(&host) {
            // Idempotent re-registration: re-announce the host's role.
            let chain = state.chain.clone();
            self.push_roles_for(service, &chain, Some(host), now);
            return;
        }
        let old = state.chain.clone();
        state.chain.push(host);
        let new = state.chain.clone();
        self.push_table_update(service, &new, now);
        // Tell every host whose assignment changed (the new tail, and the
        // previous tail which now has a successor).
        let changed = changed_assignments(&old, &new);
        for a in changed {
            let msg = a.to_msg(service);
            self.send_reliable(a.host, msg, now);
        }
    }

    fn remove_hosts(&mut self, service: SockAddr, hosts: &[IpAddr], now: SimTime) {
        let Some(state) = self.services.get_mut(&service) else {
            return;
        };
        let old = state.chain.clone();
        state.chain.retain(|h| !hosts.contains(h));
        let new = state.chain.clone();
        if old == new {
            return;
        }
        self.reconfigurations += 1;
        for host in &old {
            if !new.contains(host) {
                self.obs.event(
                    now.as_nanos(),
                    kinds::HOST_REMOVED,
                    &[("service", service.to_string()), ("host", host.to_string())],
                );
            }
        }
        self.obs.event(
            now.as_nanos(),
            kinds::CHAIN_RECONFIGURED,
            &[
                ("service", service.to_string()),
                ("chain", describe(&new)),
                ("length", new.len().to_string()),
            ],
        );
        self.obs
            .counter(&format!("mgmt.controller.{}.reconfigurations", self.addr))
            .inc();
        self.push_table_update(service, &new, now);
        for a in changed_assignments(&old, &new) {
            let msg = a.to_msg(service);
            self.send_reliable(a.host, msg, now);
        }
    }

    /// "Reconfiguration after a failure detection: … the failed server
    /// needs to be identified" (§4.4): probe every chain member; whoever
    /// stays silent is declared failed.
    fn start_probe_round(&mut self, service: SockAddr, now: SimTime) {
        let Some(state) = self.services.get_mut(&service) else {
            return;
        };
        if state.probing.is_some() || state.chain.is_empty() {
            return; // a round is already under way
        }
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let awaiting: BTreeSet<IpAddr> = state.chain.iter().copied().collect();
        state.probing = Some(ProbeRound {
            nonce,
            deadline: now + self.probe_params.timeout,
            awaiting: awaiting.clone(),
            attempt: 1,
        });
        self.obs.event(
            now.as_nanos(),
            kinds::PROBE_STARTED,
            &[
                ("service", service.to_string()),
                ("nonce", nonce.to_string()),
                ("targets", awaiting.len().to_string()),
            ],
        );
        for host in awaiting {
            self.send_unreliable(host, MgmtMsg::Probe { nonce });
        }
    }

    fn on_probe_ack(&mut self, src: IpAddr, nonce: u64) {
        for state in self.services.values_mut() {
            if let Some(round) = state.probing.as_mut() {
                if round.nonce == nonce {
                    round.awaiting.remove(&src);
                }
            }
        }
    }

    fn probe_deadline(&mut self, service: SockAddr, now: SimTime) {
        let Some(state) = self.services.get_mut(&service) else {
            return;
        };
        let Some(round) = state.probing.take() else {
            return;
        };
        if round.awaiting.is_empty() {
            // Everyone answered: a false alarm (e.g. transient congestion
            // that cleared). Leave the chain as is.
            return;
        }
        if round.attempt < self.probe_params.attempts {
            let nonce = round.nonce;
            let awaiting = round.awaiting.clone();
            state.probing = Some(ProbeRound {
                nonce,
                deadline: now + self.probe_params.timeout,
                awaiting: awaiting.clone(),
                attempt: round.attempt + 1,
            });
            for host in awaiting {
                self.send_unreliable(host, MgmtMsg::Probe { nonce });
            }
            return;
        }
        // Silent replicas are failed: shut them out of the chain.
        let failed: Vec<IpAddr> = round.awaiting.into_iter().collect();
        self.remove_hosts(service, &failed, now);
    }

    fn push_table_update(&mut self, service: SockAddr, chain: &[IpAddr], now: SimTime) {
        self.actions.push(ControllerAction::UpdateTable {
            service,
            chain: chain.to_vec(),
        });
        // An active pair member replicates the update to its standby under
        // the next epoch sequence number.
        let Some(pair) = self.pair.as_mut() else {
            return;
        };
        if pair.role != Role::Active {
            return;
        }
        pair.epoch.seq += 1;
        let (peer, epoch) = (pair.peer, pair.epoch);
        let msg = MgmtMsg::TableReplicate {
            term: epoch.term,
            seq: epoch.seq,
            service,
            chain: chain.to_vec(),
        };
        self.send_reliable(peer, msg, now);
    }

    // ---------------------------- pair ----------------------------------

    /// Peer liveness probing, which *both* roles run continuously. The
    /// standby promotes itself after `attempts` consecutive unanswered
    /// probes; the active never promotes on misses — it probes so that a
    /// freshly promoted member notices when a deposed (crashed or
    /// partitioned) ex-active comes back, and can push it a reconciling
    /// snapshot (see [`Self::on_peer_probe_ack`]).
    fn poll_pair(&mut self, now: SimTime) {
        let Some(pair) = self.pair.as_ref() else {
            return;
        };
        let (attempts, peer, role) = (self.probe_params.attempts, pair.peer, pair.role);
        let due_misses = match &pair.probing {
            Some(p) if now >= p.deadline => Some(p.misses + 1),
            None if now >= pair.next_probe_at => Some(0),
            _ => None,
        };
        match due_misses {
            Some(misses) if misses >= attempts && role == Role::Standby => self.promote_self(now),
            // Cap the counter so an active member probing a long-dead peer
            // cannot overflow it.
            Some(misses) => self.send_peer_probe(peer, misses.min(attempts), now),
            None => {}
        }
    }

    fn send_peer_probe(&mut self, peer: IpAddr, misses: u32, now: SimTime) {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.send_unreliable(peer, MgmtMsg::Probe { nonce });
        if let Some(pair) = self.pair.as_mut() {
            pair.probing = Some(PeerProbe {
                nonce,
                deadline: now + self.probe_params.timeout,
                misses,
            });
        }
    }

    fn on_peer_probe_ack(&mut self, nonce: u64, now: SimTime) {
        let Some(pair) = self.pair.as_mut() else {
            return;
        };
        if pair.probing.as_ref().is_some_and(|p| p.nonce == nonce) {
            pair.probing = None;
            pair.next_probe_at = now + self.probe_params.timeout;
            // First sign of life from the peer since this side promoted:
            // the peer may be a deposed ex-active whose stale replication
            // was abandoned while the link was down, so push it a full
            // snapshot — receiving the newer epoch demotes and resyncs it.
            if pair.role == Role::Active && pair.reconcile_pending {
                pair.reconcile_pending = false;
                let peer = pair.peer;
                let snap = self.snapshot_msg();
                self.send_reliable(peer, snap, now);
            }
        }
    }

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
        pair.probing = None;
        pair.next_probe_at = now + self.probe_params.timeout;
        pair.reconcile_pending = true;
        let (peer, term) = (pair.peer, pair.epoch.term);
        self.promotions += 1;
        self.obs.event(
            now.as_nanos(),
            kinds::REDIRECTOR_PROMOTED,
            &[("peer", peer.to_string()), ("term", term.to_string())],
        );
        self.obs
            .counter(&format!("mgmt.controller.{}.promotions", self.addr))
            .inc();
        self.actions
            .push(ControllerAction::AnnounceRoutes { seq: term as u64 });
    }

    /// This side met a newer epoch: it was superseded while partitioned or
    /// slow. Drop back to standby and resume peer probing.
    fn demote_self(&mut self, epoch: Epoch, now: SimTime) {
        let Some(pair) = self.pair.as_mut() else {
            return;
        };
        pair.role = Role::Standby;
        pair.epoch = epoch;
        pair.probing = None;
        pair.next_probe_at = now + self.probe_params.timeout;
        pair.reconcile_pending = false;
        let peer = pair.peer;
        for state in self.services.values_mut() {
            state.probing = None; // abandon probe rounds started while active
        }
        self.obs.event(
            now.as_nanos(),
            kinds::REDIRECTOR_DEMOTED,
            &[("peer", peer.to_string()), ("epoch", epoch.to_string())],
        );
    }

    fn snapshot_msg(&self) -> MgmtMsg {
        let epoch = self.epoch();
        MgmtMsg::TableSnapshot {
            term: epoch.term,
            seq: epoch.seq,
            entries: self
                .services
                .iter()
                .map(|(&sap, s)| (sap, s.chain.clone()))
                .collect(),
        }
    }

    fn on_table_replicate(
        &mut self,
        src: IpAddr,
        incoming: Epoch,
        service: SockAddr,
        chain: Vec<IpAddr>,
        now: SimTime,
    ) {
        let Some(pair) = self.pair.as_mut() else {
            return;
        };
        if incoming.term < pair.epoch.term {
            // A partitioned ex-active catching up: reject the stale update
            // and push a snapshot so it can demote and resync.
            let epoch = pair.epoch;
            self.stale_rejections += 1;
            self.obs.event(
                now.as_nanos(),
                kinds::STALE_EPOCH_REJECTED,
                &[
                    ("from", src.to_string()),
                    ("stale", incoming.to_string()),
                    ("current", epoch.to_string()),
                ],
            );
            self.obs
                .counter(&format!("mgmt.controller.{}.stale_rejections", self.addr))
                .inc();
            let reject = MgmtMsg::EpochReject {
                term: epoch.term,
                seq: epoch.seq,
            };
            self.send_unreliable(src, reject);
            let snap = self.snapshot_msg();
            self.send_reliable(src, snap, now);
            return;
        }
        if incoming <= pair.epoch {
            return; // duplicate or reordered within the current term
        }
        let superseded = incoming.term > pair.epoch.term && pair.role == Role::Active;
        if superseded {
            self.demote_self(incoming, now);
        } else {
            pair.epoch = incoming;
        }
        if chain.is_empty() {
            self.services.remove(&service);
        } else {
            self.services.entry(service).or_default().chain = chain.clone();
        }
        // Install into the local engine table directly — never back through
        // push_table_update, which would re-replicate.
        self.actions
            .push(ControllerAction::UpdateTable { service, chain });
    }

    fn on_table_snapshot(
        &mut self,
        incoming: Epoch,
        entries: Vec<(SockAddr, Vec<IpAddr>)>,
        now: SimTime,
    ) {
        let Some(pair) = self.pair.as_mut() else {
            return;
        };
        if incoming < pair.epoch {
            return;
        }
        if incoming.term > pair.epoch.term && pair.role == Role::Active {
            self.demote_self(incoming, now);
        } else {
            pair.epoch = incoming;
        }
        // Remove services absent from the snapshot, then install the rest.
        let keep: BTreeSet<SockAddr> = entries.iter().map(|(sap, _)| *sap).collect();
        let stale: Vec<SockAddr> = self
            .services
            .keys()
            .filter(|sap| !keep.contains(sap))
            .copied()
            .collect();
        for sap in stale {
            self.services.remove(&sap);
            self.actions.push(ControllerAction::UpdateTable {
                service: sap,
                chain: Vec::new(),
            });
        }
        for (service, chain) in entries {
            self.services.entry(service).or_default().chain = chain.clone();
            self.actions
                .push(ControllerAction::UpdateTable { service, chain });
        }
    }

    fn on_epoch_reject(&mut self, src: IpAddr, incoming: Epoch, now: SimTime) {
        let Some(pair) = self.pair.as_ref() else {
            return;
        };
        if pair.peer != src || incoming <= pair.epoch {
            return;
        }
        if pair.role == Role::Active {
            self.demote_self(incoming, now);
        } else if let Some(pair) = self.pair.as_mut() {
            pair.epoch = incoming;
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

    fn push_roles_for(
        &mut self,
        service: SockAddr,
        chain: &[IpAddr],
        only: Option<IpAddr>,
        now: SimTime,
    ) {
        for a in assignments(chain) {
            if only.is_some_and(|h| h != a.host) {
                continue;
            }
            let msg = a.to_msg(service);
            self.send_reliable(a.host, msg, now);
        }
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
        let report = Envelope::Payload {
            id: 99,
            needs_ack: false,
            msg: MgmtMsg::FailureReport {
                service: service(),
                reporter: h(2),
                observed: 6,
            },
        }
        .encode();
        c.on_datagram(h(2), &report, SimTime::from_secs(1));
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
        let ack = Envelope::Payload {
            id: 1,
            needs_ack: false,
            msg: MgmtMsg::ProbeAck { nonce },
        }
        .encode();
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
        let report = Envelope::Payload {
            id: 99,
            needs_ack: false,
            msg: MgmtMsg::FailureReport {
                service: service(),
                reporter: h(2),
                observed: 5,
            },
        }
        .encode();
        c.on_datagram(h(2), &report, SimTime::from_secs(1));
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
            let ack = Envelope::Payload {
                id: 1,
                needs_ack: false,
                msg: MgmtMsg::ProbeAck { nonce },
            }
            .encode();
            c.on_datagram(host, &ack, SimTime::from_millis(1020));
        }
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
    /// returning the actions that were not network sends to it.
    fn shuttle(from: &mut ReplicaController, to: &mut ReplicaController, now: SimTime) {
        let from_addr = from.addr();
        for action in from.take_actions() {
            if let ControllerAction::Send(dst, bytes) = &action {
                if *dst == to.addr() {
                    to.on_datagram(from_addr, bytes, now);
                }
            }
        }
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
            let report = Envelope::Payload {
                id,
                needs_ack: false,
                msg: MgmtMsg::FailureReport {
                    service: service(),
                    reporter: h(2),
                    observed: 5,
                },
            }
            .encode();
            c.on_datagram(h(2), &report, SimTime::from_secs(1));
        }
        let probes = c
            .take_actions()
            .iter()
            .filter_map(decode_send)
            .filter(|(_, m)| matches!(m, MgmtMsg::Probe { .. }))
            .count();
        assert_eq!(probes, 2, "one round of two probes, not two rounds");
    }
}
