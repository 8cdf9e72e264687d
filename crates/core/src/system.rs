//! Assembling a HydraNet internetwork: clients, routers, redirectors, host
//! servers, and service deployment, with automatic route configuration.

use std::collections::{HashMap, VecDeque};

use hydranet_mgmt::failover::{PairConfig, ProbeParams};
use hydranet_netsim::link::{LinkId, LinkParams};
use hydranet_netsim::node::{IfaceId, NodeId, NodeParams};
use hydranet_netsim::packet::IpAddr;
use hydranet_netsim::routing::{Prefix, RouteTable, RouterNode};
use hydranet_netsim::sim::Simulator;
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_netsim::topology::TopologyBuilder;
use hydranet_obs::Obs;
use hydranet_tcp::conn::TcpConfig;
use hydranet_tcp::detector::DetectorParams;
use hydranet_tcp::segment::{Quad, SockAddr};
use hydranet_tcp::stack::{EphemeralPortsExhausted, SocketApp};

use crate::host::{ClientHost, HostServer};
use crate::redirector::ManagedRedirector;

/// What kind of node occupies a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An unmodified client host.
    Client,
    /// A HydraNet host server.
    HostServer,
    /// A managed redirector.
    Redirector,
    /// A plain IP router.
    Router,
}

#[derive(Debug, Clone)]
struct NodeInfo {
    kind: NodeKind,
    addr: Option<IpAddr>,
}

/// A declared active/standby redirector pair sharing a virtual address.
#[derive(Debug, Clone)]
struct PairSpec {
    primary: NodeId,
    backup: NodeId,
    vip: IpAddr,
    extra_virtuals: Vec<IpAddr>,
}

/// Deployment description of one fault-tolerant service.
#[derive(Debug, Clone)]
pub struct FtServiceSpec {
    /// The service access point clients connect to (virtual-host address
    /// and well-known port).
    pub service: SockAddr,
    /// Host servers to run replicas, in desired chain order (first becomes
    /// the primary).
    pub chain: Vec<NodeId>,
    /// Failure-estimator tuning passed to `setportopt`.
    pub detector: DetectorParams,
    /// When the first replica registers.
    pub registration_start: SimTime,
    /// Spacing between successive replicas' registrations (registration
    /// order defines the chain).
    pub registration_stagger: SimDuration,
}

impl FtServiceSpec {
    /// Creates a spec with default registration timing (start at 1 ms,
    /// 20 ms stagger).
    pub fn new(service: SockAddr, chain: Vec<NodeId>, detector: DetectorParams) -> Self {
        FtServiceSpec {
            service,
            chain,
            detector,
            registration_start: SimTime::from_millis(1),
            registration_stagger: SimDuration::from_millis(20),
        }
    }
}

/// Builder for a complete HydraNet system.
pub struct SystemBuilder {
    topo: TopologyBuilder,
    nodes: Vec<NodeInfo>,
    links: Vec<(NodeId, NodeId, IfaceId, IfaceId)>,
    default_tcp: TcpConfig,
    probe_params: ProbeParams,
    pairs: Vec<PairSpec>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .finish()
    }
}

impl SystemBuilder {
    /// Creates a builder; `default_tcp` is used by every stack.
    pub fn new(default_tcp: TcpConfig) -> Self {
        SystemBuilder {
            topo: TopologyBuilder::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            default_tcp,
            probe_params: ProbeParams::default(),
            pairs: Vec::new(),
        }
    }

    /// No-op, kept only because the frozen `benchmark/` harness calls it:
    /// every node already keeps at most one pending wakeup (DESIGN.md §5c).
    /// Goes away in the next PR that may edit `benchmark/`.
    #[doc(hidden)]
    pub fn set_coalesce_node_timers(&mut self, _on: bool) {}

    /// Overrides the failure-identification probe parameters used by
    /// redirectors added *after* this call.
    pub fn set_probe_params(&mut self, params: ProbeParams) {
        self.probe_params = params;
    }

    /// Adds an unmodified client host.
    pub fn add_client(&mut self, name: &str, addr: IpAddr) -> NodeId {
        self.add_client_with(name, addr, self.default_tcp.clone(), NodeParams::INSTANT)
    }

    /// Adds a client host with specific TCP configuration and CPU cost.
    pub fn add_client_with(
        &mut self,
        name: &str,
        addr: IpAddr,
        cfg: TcpConfig,
        params: NodeParams,
    ) -> NodeId {
        let id = self.topo.add_node(ClientHost::new(name, addr, cfg), params);
        self.note(id, NodeKind::Client, Some(addr));
        id
    }

    /// Adds a host server managed via the redirector at `redirector_addr`.
    pub fn add_host_server(&mut self, name: &str, addr: IpAddr, redirector_addr: IpAddr) -> NodeId {
        self.add_host_server_multi(name, addr, vec![redirector_addr])
    }

    /// Adds a host server managed via several redirectors (Figure 1's
    /// multi-ISP deployment).
    pub fn add_host_server_multi(
        &mut self,
        name: &str,
        addr: IpAddr,
        redirectors: Vec<IpAddr>,
    ) -> NodeId {
        let id = self.topo.add_node(
            HostServer::new(name, addr, redirectors, self.default_tcp.clone()),
            NodeParams::INSTANT,
        );
        self.note(id, NodeKind::HostServer, Some(addr));
        id
    }

    /// Adds a host server with specific TCP configuration and CPU cost.
    pub fn add_host_server_with(
        &mut self,
        name: &str,
        addr: IpAddr,
        redirector_addr: IpAddr,
        cfg: TcpConfig,
        params: NodeParams,
    ) -> NodeId {
        let id = self.topo.add_node(
            HostServer::new(name, addr, vec![redirector_addr], cfg),
            params,
        );
        self.note(id, NodeKind::HostServer, Some(addr));
        id
    }

    /// Adds a managed redirector.
    pub fn add_redirector(&mut self, name: &str, addr: IpAddr) -> NodeId {
        self.add_redirector_with(name, addr, NodeParams::INSTANT)
    }

    /// Adds a managed redirector with a CPU cost (the paper's redirector
    /// was a deliberately slow 486).
    pub fn add_redirector_with(&mut self, name: &str, addr: IpAddr, params: NodeParams) -> NodeId {
        let id = self.topo.add_node(
            ManagedRedirector::new(name, addr, self.probe_params),
            params,
        );
        self.note(id, NodeKind::Redirector, Some(addr));
        id
    }

    /// Adds an active/standby redirector *pair* sharing the virtual
    /// address `vip`: host daemons and clients address only the VIP and
    /// never learn which member serves it. The first member starts
    /// active; the standby probes it (with this builder's current probe
    /// parameters) and promotes itself on failure, flooding a route
    /// announcement that re-aims every adjacent router's anycast group
    /// at the survivor. Table updates replicate active → standby under a
    /// monotonic epoch, so a healed ex-active's stale updates are
    /// rejected and it resyncs as the new standby.
    ///
    /// Routers that should flip must be linked to *both* members.
    /// Returns `(primary, backup)`.
    ///
    /// # Panics
    ///
    /// Panics if `vip` collides with a node address.
    pub fn add_redirector_pair(
        &mut self,
        primary_name: &str,
        primary_addr: IpAddr,
        backup_name: &str,
        backup_addr: IpAddr,
        vip: IpAddr,
    ) -> (NodeId, NodeId) {
        assert!(
            !self.nodes.iter().any(|n| n.addr == Some(vip)),
            "virtual address {vip} collides with a node address"
        );
        let primary = self.add_redirector(primary_name, primary_addr);
        let backup = self.add_redirector(backup_name, backup_addr);
        self.pairs.push(PairSpec {
            primary,
            backup,
            vip,
            extra_virtuals: Vec::new(),
        });
        (primary, backup)
    }

    /// Routes `addr` — typically a service access point's virtual-host
    /// address, which belongs to no node — exactly like the pair's VIP:
    /// toward the initially-active member, re-aimed by the anycast flip
    /// on failover. Needed whenever a plain router sits between clients
    /// and the pair, since automatic routing only covers node addresses.
    ///
    /// # Panics
    ///
    /// Panics if no pair with virtual address `vip` was added.
    pub fn route_via_pair(&mut self, vip: IpAddr, addr: IpAddr) {
        let pair = self
            .pairs
            .iter_mut()
            .find(|p| p.vip == vip)
            .expect("no redirector pair with that VIP");
        pair.extra_virtuals.push(addr);
    }

    /// Adds a plain IP router (no redirection).
    pub fn add_router(&mut self, name: &str) -> NodeId {
        let id = self
            .topo
            .add_node(RouterNode::new(name), NodeParams::INSTANT);
        self.note(id, NodeKind::Router, None);
        id
    }

    /// Adds a plain IP router with a CPU cost.
    pub fn add_router_with(&mut self, name: &str, params: NodeParams) -> NodeId {
        let id = self.topo.add_node(RouterNode::new(name), params);
        self.note(id, NodeKind::Router, None);
        id
    }

    /// Connects two nodes.
    ///
    /// # Panics
    ///
    /// Panics if a host-type node (client/host server) would gain a second
    /// interface — hosts are single-homed.
    pub fn link(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> LinkId {
        for &n in &[a, b] {
            let host_like = matches!(
                self.nodes[n.index()].kind,
                NodeKind::Client | NodeKind::HostServer
            );
            if host_like {
                let existing = self
                    .links
                    .iter()
                    .filter(|&&(x, y, _, _)| x == n || y == n)
                    .count();
                assert_eq!(existing, 0, "host {n} must be single-homed");
            }
        }
        let (link, ia, ib) = self.topo.connect(a, b, params);
        self.links.push((a, b, ia, ib));
        link
    }

    /// Deploys a fault-tolerant service: installs listeners and virtual
    /// hosts on every chain member and schedules their staggered
    /// registrations with the redirector.
    ///
    /// `app_factory` is invoked once per accepted connection per replica;
    /// the applications must be deterministic for replication to hold.
    ///
    /// # Panics
    ///
    /// Panics if any chain member is not a host server.
    pub fn deploy_ft_service<F>(&mut self, spec: &FtServiceSpec, app_factory: F)
    where
        F: Fn(Quad) -> Box<dyn SocketApp> + Clone + 'static,
    {
        for (i, &node) in spec.chain.iter().enumerate() {
            assert_eq!(
                self.nodes[node.index()].kind,
                NodeKind::HostServer,
                "chain member {node} is not a host server"
            );
            let host = self.topo.node_mut::<HostServer>(node);
            host.stack_mut().add_local_addr(spec.service.addr);
            let factory = app_factory.clone();
            host.stack_mut()
                .listen(spec.service.port, move |quad| factory(quad));
            let at = spec
                .registration_start
                .saturating_add(spec.registration_stagger * i as u64);
            host.schedule_registration(spec.service, spec.detector, at);
        }
    }

    /// Runs arbitrary configuration against a node already added (e.g.
    /// installing listeners on a host, or static redirector-table entries).
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T`.
    pub fn configure<T: hydranet_netsim::node::Node>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T),
    ) {
        f(self.topo.node_mut::<T>(id));
    }

    /// Deploys a *scaled* (non-fault-tolerant) service in HydraNet's
    /// original load-diffusion mode (§3): the redirector forwards each
    /// matching packet to the nearest replica. Entries are installed
    /// statically; replicas get listeners and the virtual host.
    ///
    /// # Panics
    ///
    /// Panics if `redirector` is not a redirector or a replica is not a
    /// host server.
    pub fn deploy_scaled_service<F>(
        &mut self,
        redirector: NodeId,
        service: SockAddr,
        replicas: &[(NodeId, u32)],
        app_factory: F,
    ) where
        F: Fn(Quad) -> Box<dyn SocketApp> + Clone + 'static,
    {
        let locs: Vec<hydranet_redirect::table::ReplicaLoc> = replicas
            .iter()
            .map(|&(node, metric)| {
                assert_eq!(self.nodes[node.index()].kind, NodeKind::HostServer);
                hydranet_redirect::table::ReplicaLoc {
                    host: self.nodes[node.index()].addr.expect("host has address"),
                    metric,
                }
            })
            .collect();
        self.configure::<ManagedRedirector>(redirector, move |r| {
            r.engine_mut().table_mut().install(
                service,
                hydranet_redirect::table::ServiceEntry::Scaled { replicas: locs },
            );
        });
        for &(node, _) in replicas {
            let host = self.topo.node_mut::<HostServer>(node);
            host.stack_mut().add_local_addr(service.addr);
            let factory = app_factory.clone();
            host.stack_mut()
                .listen(service.port, move |quad| factory(quad));
        }
    }

    /// Finishes building: computes shortest-path routes for every router
    /// and redirector, wires the unified telemetry layer into every node,
    /// then constructs the simulator.
    pub fn build(self, seed: u64) -> System {
        let SystemBuilder {
            mut topo,
            nodes,
            links,
            pairs,
            ..
        } = self;
        let obs = Obs::enabled();

        // Adjacency: node -> [(neighbor, local iface)], in link order.
        let mut adj: HashMap<NodeId, Vec<(NodeId, IfaceId)>> = HashMap::new();
        for &(a, b, ia, ib) in &links {
            adj.entry(a).or_default().push((b, ia));
            adj.entry(b).or_default().push((a, ib));
        }
        // The interfaces of `x` whose link leads to a node `toward` accepts.
        let ifaces = |x: NodeId, toward: &dyn Fn(NodeId) -> bool| -> Vec<IfaceId> {
            let links = adj.get(&x).into_iter().flatten();
            links
                .filter(|&&(n, _)| toward(n))
                .map(|&(_, i)| i)
                .collect()
        };

        // For every routing node, BFS to find the egress interface toward
        // every addressed node.
        for (idx, info) in nodes.iter().enumerate() {
            let router_id = NodeId::from_index(idx);
            if !matches!(info.kind, NodeKind::Router | NodeKind::Redirector) {
                continue;
            }
            let mut first_hop: HashMap<NodeId, IfaceId> = HashMap::new();
            let mut queue = VecDeque::new();
            for &(n, iface) in adj.get(&router_id).into_iter().flatten() {
                if first_hop.insert(n, iface).is_none() {
                    queue.push_back(n);
                }
            }
            while let Some(at) = queue.pop_front() {
                let via = first_hop[&at];
                for &(next, _) in adj.get(&at).into_iter().flatten() {
                    if next != router_id && !first_hop.contains_key(&next) {
                        first_hop.insert(next, via);
                        queue.push_back(next);
                    }
                }
            }
            // Install host routes for every reachable addressed node.
            for (tidx, target) in nodes.iter().enumerate() {
                let target_id = NodeId::from_index(tidx);
                if target_id == router_id {
                    continue;
                }
                let (Some(addr), Some(&iface)) = (target.addr, first_hop.get(&target_id)) else {
                    continue;
                };
                routes_of(&mut topo, router_id, info.kind).add(Prefix::host(addr), iface);
            }
            // Each pair's VIP routes like a host attached to the
            // initially-active member; pair members themselves treat the
            // VIP as local, so they get no route for it.
            for pair in &pairs {
                if router_id == pair.primary || router_id == pair.backup {
                    continue;
                }
                let Some(&iface) = first_hop.get(&pair.primary) else {
                    continue;
                };
                for vaddr in std::iter::once(pair.vip).chain(pair.extra_virtuals.iter().copied()) {
                    routes_of(&mut topo, router_id, info.kind).add(Prefix::host(vaddr), iface);
                }
            }
        }

        // Wire each declared redirector pair: the members probe each other
        // and announce promotions out of every interface they own, and
        // each router linked to *both* members gets the two ifaces as its
        // anycast group, with all group routes initially aimed at the
        // primary (BFS tie-breaking may have preferred the backup).
        for pair in &pairs {
            let p_addr = nodes[pair.primary.index()].addr.expect("redirector addr");
            let b_addr = nodes[pair.backup.index()].addr.expect("redirector addr");
            topo.node_mut::<ManagedRedirector>(pair.primary)
                .configure_pair(
                    pair.vip,
                    PairConfig {
                        peer: b_addr,
                        initially_active: true,
                    },
                    ifaces(pair.primary, &|_| true),
                );
            topo.node_mut::<ManagedRedirector>(pair.backup)
                .configure_pair(
                    pair.vip,
                    PairConfig {
                        peer: p_addr,
                        initially_active: false,
                    },
                    ifaces(pair.backup, &|_| true),
                );
            for (idx, info) in nodes.iter().enumerate() {
                if info.kind != NodeKind::Router {
                    continue;
                }
                let rid = NodeId::from_index(idx);
                let to_primary = ifaces(rid, &|n| n == pair.primary).pop();
                let to_backup = ifaces(rid, &|n| n == pair.backup).pop();
                let (Some(pi), Some(bi)) = (to_primary, to_backup) else {
                    continue;
                };
                let group = vec![pi, bi];
                let router = topo.node_mut::<RouterNode>(rid);
                router.set_anycast_group(group.clone());
                router.routes_mut().retarget(&group, pi);
            }
        }

        // Wire the shared telemetry handle into every node so metrics and
        // timeline events from all layers land in one registry.
        for (idx, info) in nodes.iter().enumerate() {
            let id = NodeId::from_index(idx);
            match info.kind {
                NodeKind::Client => topo.node_mut::<ClientHost>(id).set_obs(obs.clone()),
                NodeKind::HostServer => topo.node_mut::<HostServer>(id).set_obs(obs.clone()),
                NodeKind::Redirector => topo.node_mut::<ManagedRedirector>(id).set_obs(obs.clone()),
                NodeKind::Router => {}
            }
        }

        let mut sim = topo.into_simulator(seed);
        sim.set_obs(obs.clone());
        System { sim, nodes, obs }
    }

    fn note(&mut self, id: NodeId, kind: NodeKind, addr: Option<IpAddr>) {
        debug_assert_eq!(id.index(), self.nodes.len());
        if let Some(a) = addr {
            assert!(
                !self.nodes.iter().any(|n| n.addr == Some(a)),
                "duplicate host address {a}"
            );
        }
        self.nodes.push(NodeInfo { kind, addr });
    }
}

/// The route table of the routing node `id` (a router or a redirector).
fn routes_of(topo: &mut TopologyBuilder, id: NodeId, kind: NodeKind) -> &mut RouteTable {
    match kind {
        NodeKind::Router => topo.node_mut::<RouterNode>(id).routes_mut(),
        NodeKind::Redirector => topo
            .node_mut::<ManagedRedirector>(id)
            .engine_mut()
            .routes_mut(),
        _ => unreachable!("only routers and redirectors route"),
    }
}

/// A built HydraNet system: the simulator plus node metadata.
pub struct System {
    /// The underlying simulator.
    pub sim: Simulator,
    nodes: Vec<NodeInfo>,
    obs: Obs,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System").field("sim", &self.sim).finish()
    }
}

impl System {
    /// The kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.index()].kind
    }

    /// The unified telemetry handle shared by every node in the system.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The measured fail-over detection latency — the span from the first
    /// `tcp.detector.suspected` event to the first promotion — in
    /// nanoseconds, once both have happened.
    pub fn detection_latency_nanos(&self) -> Option<u64> {
        self.obs.detection_latency_nanos()
    }

    /// Turns on the causal tracer (spans + flight recorder) for every node
    /// in the system; its views show the newest `capacity` retired spans. Tracing is
    /// purely observational: it draws nothing from the simulation RNG, so
    /// enabling it cannot perturb a deterministic run.
    pub fn enable_tracing(&self, capacity: usize) {
        self.obs.enable_tracing(capacity);
    }

    /// Turns on the per-subsystem event-attribution profiler: every
    /// simulator event is classified (tcp data / acks / ack-channel /
    /// timers / mgmt / redirector) and its wall-clock cost bucketed.
    /// Redirector nodes are marked so traffic *through* them attributes to
    /// the redirector, and the ack-channel UDP port is taken from
    /// [`hydranet_tcp::ft::ACK_CHANNEL_PORT`].
    pub fn enable_profiler(&mut self) {
        let redirectors: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == NodeKind::Redirector)
            .map(|(i, _)| NodeId::from_index(i))
            .collect();
        let p = self.sim.profiler_mut();
        p.set_ack_channel_port(hydranet_tcp::ft::ACK_CHANNEL_PORT);
        for id in redirectors {
            p.mark_redirector(id);
        }
        p.set_enabled(true);
    }

    /// Serialises the full telemetry report (metrics registry + failover
    /// timeline) as JSON, tagged with run metadata. Bench binaries write
    /// this next to their numeric output.
    pub fn telemetry_json(&self, scenario: &str) -> String {
        let events = self.sim.stats().events_processed;
        self.obs.to_json_with_meta(&[
            ("scenario", scenario.to_string()),
            ("sim_now_nanos", self.sim.now().as_nanos().to_string()),
            ("events_processed", events.to_string()),
            (
                "flight_recorder_evicted",
                self.obs.trace_evicted().to_string(),
            ),
            ("timeline_evicted", self.obs.timeline_evicted().to_string()),
        ])
    }

    /// The address of `node`, if it has one.
    pub fn addr(&self, node: NodeId) -> Option<IpAddr> {
        self.nodes[node.index()].addr
    }

    /// Borrows a client host.
    pub fn client(&self, id: NodeId) -> &ClientHost {
        self.sim.node::<ClientHost>(id)
    }

    /// Borrows a host server.
    pub fn host_server(&self, id: NodeId) -> &HostServer {
        self.sim.node::<HostServer>(id)
    }

    /// Borrows a redirector.
    pub fn redirector(&self, id: NodeId) -> &ManagedRedirector {
        self.sim.node::<ManagedRedirector>(id)
    }

    /// Opens a client connection to `remote`, running `app`.
    ///
    /// # Panics
    ///
    /// Panics if the client's ephemeral-port space to `remote` is
    /// exhausted; use [`try_connect_client`](Self::try_connect_client) to
    /// handle that recoverably. Panics if `client` is crashed, as
    /// [`Simulator::with_node_ctx`] does.
    pub fn connect_client(
        &mut self,
        client: NodeId,
        remote: SockAddr,
        app: Box<dyn SocketApp>,
    ) -> Quad {
        self.try_connect_client(client, remote, app)
            .expect("client ephemeral ports exhausted")
    }

    /// Opens a client connection to `remote`, running `app`, failing
    /// cleanly when the client's ephemeral-port space to `remote` is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`EphemeralPortsExhausted`] without creating any state.
    ///
    /// # Panics
    ///
    /// Panics if `client` is crashed, as [`Simulator::with_node_ctx`]
    /// does.
    pub fn try_connect_client(
        &mut self,
        client: NodeId,
        remote: SockAddr,
        app: Box<dyn SocketApp>,
    ) -> Result<Quad, EphemeralPortsExhausted> {
        self.sim
            .with_node_ctx::<ClientHost, _>(client, |host, ctx| host.connect(ctx, remote, app))
    }

    /// Runs until the redirector's chain for `service` has exactly
    /// `expected` members, or `deadline` passes. Returns whether the chain
    /// reached the expected size.
    pub fn wait_for_chain(
        &mut self,
        redirector: NodeId,
        service: SockAddr,
        expected: usize,
        deadline: SimTime,
    ) -> bool {
        loop {
            let len = self
                .redirector(redirector)
                .controller()
                .chain(service)
                .map_or(0, <[IpAddr]>::len);
            if len == expected {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
            let next = self.sim.now().saturating_add(SimDuration::from_millis(5));
            self.sim.run_until(next.min(deadline));
        }
    }
}
