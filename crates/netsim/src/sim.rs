//! The discrete-event simulation engine.
//!
//! A [`Simulator`] owns the nodes, links, clock, event calendar, and RNG.
//! Build one through [`TopologyBuilder`](crate::topology::TopologyBuilder),
//! then drive it with [`run_until`](Simulator::run_until) /
//! [`run_until_idle`](Simulator::run_until_idle) and inspect node state with
//! [`node`](Simulator::node).

use std::any::Any;

use hydranet_obs::{kinds, Obs};

use crate::event::{Event, EventKind, EventQueue};
use crate::frag::fragment_packet;
use crate::link::{Direction, Impairments, Link, LinkId};
use crate::node::{Action, Context, IfaceId, Node, NodeId, NodeParams};
use crate::packet::IpPacket;
use crate::profile::{EventCategory, EventProfiler};
use crate::rng::SimRng;
use crate::stats::{LinkStats, NodeStats, SimStats};
use crate::time::{SimDuration, SimTime};

pub(crate) struct NodeSlot {
    /// `None` only transiently while the node's callback runs.
    pub node: Option<Box<dyn Node>>,
    pub params: NodeParams,
    pub crashed: bool,
    /// Incremented on every crash; stale timers/dispatches are discarded.
    pub epoch: u64,
    pub cpu_free_at: SimTime,
    /// For each interface: the link it attaches to and the direction this
    /// node transmits in on that link.
    pub ifaces: Vec<(LinkId, Direction)>,
    pub stats: NodeStats,
}

/// The discrete-event simulator.
///
/// # Examples
///
/// ```
/// use hydranet_netsim::prelude::*;
///
/// struct Pinger { got_reply: bool }
/// impl Node for Pinger {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         let p = IpPacket::new(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2),
///                               Protocol::UDP, b"ping".to_vec());
///         ctx.send(IfaceId::from_index(0), p);
///     }
///     fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {
///         self.got_reply = true;
///     }
/// }
/// struct Echo;
/// impl Node for Echo {
///     fn on_packet(&mut self, ctx: &mut Context<'_>, iface: IfaceId, mut p: IpPacket) {
///         std::mem::swap(&mut p.header.src, &mut p.header.dst);
///         ctx.send(iface, p);
///     }
/// }
///
/// let mut t = TopologyBuilder::new();
/// let a = t.add_node(Pinger { got_reply: false }, NodeParams::INSTANT);
/// let b = t.add_node(Echo, NodeParams::INSTANT);
/// t.connect(a, b, LinkParams::default());
/// let mut sim = t.into_simulator(42);
/// sim.run_until_idle();
/// assert!(sim.node::<Pinger>(a).got_reply);
/// ```
pub struct Simulator {
    now: SimTime,
    events: EventQueue,
    pub(crate) nodes: Vec<NodeSlot>,
    pub(crate) links: Vec<Link>,
    rng: SimRng,
    stats: SimStats,
    profiler: EventProfiler,
    obs: Obs,
    actions_scratch: Vec<Action>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

impl Simulator {
    pub(crate) fn new(nodes: Vec<NodeSlot>, links: Vec<Link>, seed: u64) -> Self {
        let mut sim = Simulator {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            nodes,
            links,
            rng: SimRng::seed_from(seed),
            stats: SimStats::default(),
            profiler: EventProfiler::default(),
            obs: Obs::disabled(),
            actions_scratch: Vec::new(),
        };
        for i in 0..sim.nodes.len() {
            sim.events
                .push(SimTime::ZERO, EventKind::NodeStart(NodeId(i)));
        }
        sim
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the topology.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links in the topology.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Whole-run counters.
    pub fn stats(&self) -> SimStats {
        SimStats {
            calendar_peak: self.events.peak() as u64,
            ..self.stats
        }
    }

    /// Wires telemetry: fault-injection transitions (node crash/recover,
    /// link down/up) are recorded on the shared timeline.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The event-attribution profiler (enable, mark redirectors, and set
    /// the ack-channel port through [`EventProfiler`]'s methods).
    pub fn profiler_mut(&mut self) -> &mut EventProfiler {
        &mut self.profiler
    }

    /// The event-attribution profiler, read-only.
    pub fn profiler(&self) -> &EventProfiler {
        &self.profiler
    }

    /// Processes events until the calendar is exhausted or `limit` events
    /// have run. Returns the number of events processed.
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_until_idle_capped(u64::MAX)
    }

    /// Like [`run_until_idle`](Self::run_until_idle) but stops after at most
    /// `limit` events — useful as a runaway guard in tests.
    pub fn run_until_idle_capped(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }

    /// Processes all events with timestamps `<= deadline`, then sets the
    /// clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(ev) = self.events.pop_if_at_or_before(deadline) {
            self.run_event(ev);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs the simulation forward by `d` from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now.saturating_add(d);
        self.run_until(deadline);
    }

    /// Processes a single event. Returns `false` when the calendar is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.events.pop() else {
            return false;
        };
        self.run_event(ev);
        true
    }

    /// Schedules a fail-stop crash of `node` at time `at`.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        self.events.push(at, EventKind::Crash(node));
    }

    /// Schedules recovery of a crashed node at time `at`.
    pub fn schedule_recover(&mut self, node: NodeId, at: SimTime) {
        self.events.push(at, EventKind::Recover(node));
    }

    /// Schedules a link outage starting at `at`.
    pub fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        self.events.push(at, EventKind::LinkDown(link));
    }

    /// Schedules a link restoration at `at`.
    pub fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        self.events.push(at, EventKind::LinkUp(link));
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.index()].crashed
    }

    /// Immediately replaces the full impairment set of `link` (both
    /// directions).
    ///
    /// # Panics
    ///
    /// Panics if any probability in the set is out of range.
    pub fn set_link_impairments(&mut self, link: LinkId, imp: Impairments) {
        let params = self.links[link.index()]
            .params
            .clone()
            .with_impairments(imp);
        self.links[link.index()].params = params;
    }

    /// Schedules a replacement of `link`'s impairment set at time `at` —
    /// the building block for timed loss bursts and impairment windows.
    ///
    /// # Panics
    ///
    /// Panics (when the event fires) if any probability is out of range.
    pub fn schedule_impairments(&mut self, link: LinkId, imp: Impairments, at: SimTime) {
        self.events
            .push(at, EventKind::SetImpairments { link, imp });
    }

    /// The current impairment set of `link`.
    pub fn link_impairments(&self, link: LinkId) -> &Impairments {
        &self.links[link.index()].params.impairments
    }

    /// The two nodes `link` joins, in endpoint order.
    pub fn link_endpoints(&self, link: LinkId) -> [NodeId; 2] {
        self.links[link.index()].endpoints
    }

    /// Borrows a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T` or a callback on it is active.
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        let boxed = self.nodes[id.index()]
            .node
            .as_ref()
            .expect("node callback reentrancy");
        (boxed.as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutably borrows a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T` or a callback on it is active.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let boxed = self.nodes[id.index()]
            .node
            .as_mut()
            .expect("node callback reentrancy");
        (boxed.as_mut() as &mut dyn Any)
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Per-node counters.
    pub fn node_stats(&self, id: NodeId) -> &NodeStats {
        &self.nodes[id.index()].stats
    }

    /// Per-direction counters for `link`: `(a_to_b, b_to_a)`.
    pub fn link_stats(&self, id: LinkId) -> (&LinkStats, &LinkStats) {
        let l = &self.links[id.index()];
        (&l.dirs[0].stats, &l.dirs[1].stats)
    }

    /// Runs `f` with a [`Context`] for `node`, outside any engine callback.
    ///
    /// This is how scenario code injects work into a node mid-run (e.g. an
    /// application initiating a new connection at a chosen time).
    ///
    /// # Panics
    ///
    /// Panics if called from within a node callback on the same node.
    pub fn with_node_ctx<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_>) -> R,
    ) -> R {
        let mut boxed = self.nodes[id.index()]
            .node
            .take()
            .expect("node callback reentrancy");
        let mut actions = std::mem::take(&mut self.actions_scratch);
        let result = {
            let mut ctx = Context::new(self.now, id, &mut self.rng, &mut actions);
            let node = (boxed.as_mut() as &mut dyn Any)
                .downcast_mut::<T>()
                .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()));
            f(node, &mut ctx)
        };
        self.nodes[id.index()].node = Some(boxed);
        self.apply_actions(id, &mut actions);
        self.actions_scratch = actions;
        result
    }

    // ------------------------------------------------------------------
    // Engine internals
    // ------------------------------------------------------------------

    /// The one event-processing body: every driver (`run_until`, `step`,
    /// and through it `run_until_idle*`) advances the clock, counts the
    /// event and runs it here, so profiled and plain runs execute the same
    /// engine.
    #[inline]
    fn run_event(&mut self, ev: Event) {
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        self.stats.events_processed += 1;
        self.process_attributed(ev.payload);
    }

    /// [`process`](Self::process) plus optional profiler attribution.
    ///
    /// When the profiler is off this is one branch; when on, the event is
    /// classified before it runs (dispatch consumes the packet) and its
    /// wall-clock cost sampled around the run. Neither path touches the
    /// clock, calendar, or RNG, so attribution is observation-only.
    #[inline]
    fn process_attributed(&mut self, kind: EventKind) {
        if !self.profiler.enabled() {
            self.process(kind);
            return;
        }
        let cat = self.classify_event(&kind);
        let start = std::time::Instant::now();
        self.process(kind);
        self.profiler.record(cat, start.elapsed().as_nanos() as u64);
    }

    /// Attributes an event to a subsystem (see [`EventProfiler`] docs).
    fn classify_event(&self, kind: &EventKind) -> EventCategory {
        match kind {
            EventKind::Timer { .. } => EventCategory::Timers,
            EventKind::PacketArrival { node, packet, .. }
            | EventKind::PacketDispatch { node, packet, .. } => {
                if self.profiler.is_redirector(*node) {
                    EventCategory::Redirector
                } else {
                    self.profiler.classify_packet(packet)
                }
            }
            EventKind::LinkDequeue { link, dir, .. } => {
                // Attribute the dequeue to the packet about to transmit
                // (the front of this direction's queue), with the usual
                // receiver-side redirector precedence.
                let l = &self.links[link.index()];
                let (rx, _) = l.receiver(*dir);
                if self.profiler.is_redirector(rx) {
                    EventCategory::Redirector
                } else if let Some(p) = l.dirs[dir.index()].queue.front() {
                    self.profiler.classify_packet(p)
                } else {
                    EventCategory::Other
                }
            }
            _ => EventCategory::Other,
        }
    }

    fn process(&mut self, kind: EventKind) {
        match kind {
            EventKind::NodeStart(node) => {
                self.dispatch(node, |n, ctx| n.on_start(ctx));
            }
            EventKind::PacketArrival {
                node,
                iface,
                packet,
            } => {
                self.packet_arrival(node, iface, packet);
            }
            EventKind::PacketDispatch {
                node,
                iface,
                packet,
                epoch,
            } => {
                // A crash between arrival and dispatch — even one already
                // recovered from — discards the packet waiting for the CPU.
                let slot = &mut self.nodes[node.index()];
                if slot.crashed || slot.epoch != epoch {
                    slot.stats.dropped_crashed += 1;
                    return;
                }
                slot.stats.dispatched += 1;
                self.dispatch(node, |n, ctx| n.on_packet(ctx, IfaceId(iface), packet));
            }
            EventKind::LinkDequeue { link, dir, epoch } => {
                self.link_dequeue(link, dir, epoch);
            }
            EventKind::Timer { node, epoch } => {
                let slot = &self.nodes[node.index()];
                if slot.crashed || slot.epoch != epoch {
                    return;
                }
                self.stats.timers_fired += 1;
                self.dispatch(node, |n, ctx| n.on_timer(ctx));
            }
            EventKind::Crash(node) => {
                let slot = &mut self.nodes[node.index()];
                if slot.crashed {
                    return;
                }
                slot.crashed = true;
                slot.epoch += 1;
                slot.node
                    .as_mut()
                    .expect("node callback reentrancy")
                    .on_crash();
                self.obs.event(
                    self.now.as_nanos(),
                    kinds::NODE_CRASHED,
                    &[("node", node.to_string())],
                );
            }
            EventKind::Recover(node) => {
                let slot = &mut self.nodes[node.index()];
                if !slot.crashed {
                    return;
                }
                slot.crashed = false;
                slot.cpu_free_at = self.now;
                self.obs.event(
                    self.now.as_nanos(),
                    kinds::NODE_RECOVERED,
                    &[("node", node.to_string())],
                );
                self.dispatch(node, |n, ctx| n.on_recover(ctx));
            }
            EventKind::LinkDown(link) => {
                let l = &mut self.links[link.index()];
                if !l.up {
                    return;
                }
                l.up = false;
                for dir in &mut l.dirs {
                    dir.stats.dropped_down += dir.queue.len() as u64;
                    dir.queue.clear();
                    dir.transmitting = false;
                    // Invalidate any in-flight dequeue events.
                    dir.epoch += 1;
                }
                self.obs.event(
                    self.now.as_nanos(),
                    kinds::LINK_DOWN,
                    &[("link", link.to_string())],
                );
            }
            EventKind::LinkUp(link) => {
                self.links[link.index()].up = true;
                self.obs.event(
                    self.now.as_nanos(),
                    kinds::LINK_UP,
                    &[("link", link.to_string())],
                );
            }
            EventKind::SetImpairments { link, imp } => {
                let desc = imp.to_string();
                self.set_link_impairments(link, imp);
                self.obs.event(
                    self.now.as_nanos(),
                    kinds::LINK_IMPAIRED,
                    &[("link", link.to_string()), ("impairments", desc)],
                );
            }
        }
    }

    /// Runs a node callback and applies the actions it recorded.
    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Context<'_>)) {
        if self.nodes[id.index()].crashed {
            return;
        }
        let mut boxed = self.nodes[id.index()]
            .node
            .take()
            .expect("node callback reentrancy");
        let mut actions = std::mem::take(&mut self.actions_scratch);
        {
            let mut ctx = Context::new(self.now, id, &mut self.rng, &mut actions);
            f(boxed.as_mut(), &mut ctx);
        }
        self.nodes[id.index()].node = Some(boxed);
        self.apply_actions(id, &mut actions);
        self.actions_scratch = actions;
    }

    fn apply_actions(&mut self, id: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { iface, packet } => {
                    let slot = &self.nodes[id.index()];
                    let Some(&(link, dir)) = slot.ifaces.get(iface.index()) else {
                        panic!("{id} sent on nonexistent interface {iface}");
                    };
                    self.link_enqueue(link, dir, packet);
                }
                Action::SetTimer { at } => {
                    let epoch = self.nodes[id.index()].epoch;
                    self.events.push(at, EventKind::Timer { node: id, epoch });
                }
            }
        }
    }

    fn link_enqueue(&mut self, link_id: LinkId, dir: Direction, packet: IpPacket) {
        let link = &mut self.links[link_id.index()];
        if !link.up {
            link.dirs[dir.index()].stats.dropped_down += 1;
            return;
        }
        let fragments = match fragment_packet(packet, link.params.mtu) {
            Ok(f) => f,
            Err(_) => {
                link.dirs[dir.index()].stats.dropped_mtu += 1;
                return;
            }
        };
        let limit = link.params.queue_packets;
        for frag in fragments {
            let state = &mut link.dirs[dir.index()];
            if state.queue.len() >= limit {
                state.stats.dropped_queue += 1;
                continue;
            }
            state.stats.enqueued += 1;
            state.queue.push_back(frag);
            if !state.transmitting {
                state.transmitting = true;
                let epoch = state.epoch;
                self.events.push(
                    self.now,
                    EventKind::LinkDequeue {
                        link: link_id,
                        dir,
                        epoch,
                    },
                );
            }
        }
    }

    fn link_dequeue(&mut self, link_id: LinkId, dir: Direction, epoch: u64) {
        let link = &mut self.links[link_id.index()];
        if link.dirs[dir.index()].epoch != epoch {
            return; // stale event from before an outage
        }
        if !link.up {
            link.dirs[dir.index()].transmitting = false;
            return;
        }
        let Some(packet) = link.dirs[dir.index()].queue.pop_front() else {
            link.dirs[dir.index()].transmitting = false;
            return;
        };
        let tx = link.params.tx_time(packet.total_len());
        let ready_at = self.now + tx;
        // Keep the transmitter busy until this packet has left the wire.
        self.events.push(
            ready_at,
            EventKind::LinkDequeue {
                link: link_id,
                dir,
                epoch,
            },
        );

        let loss_p = link.params.impairments.loss_p;
        if loss_p > 0.0 && self.rng.chance(loss_p) {
            link.dirs[dir.index()].stats.dropped_loss += 1;
            return;
        }
        {
            let state = &mut link.dirs[dir.index()];
            state.stats.delivered += 1;
            state.stats.bytes_delivered += packet.total_len() as u64;
        }

        // The remaining impairments draw in a fixed order — corrupt,
        // duplicate, reorder(copy), reorder(original) — so the RNG stream
        // (and with it every downstream event) is a pure function of the
        // seed. A probability of zero draws nothing, leaving impairment-free
        // links byte-identical to runs from before impairments existed.
        let corrupt_p = link.params.impairments.corrupt_p;
        let duplicate_p = link.params.impairments.duplicate_p;
        let reorder_p = link.params.impairments.reorder_p;
        let jitter_nanos = link.params.impairments.reorder_jitter.as_nanos();

        let mut packet = packet;
        if corrupt_p > 0.0 && self.rng.chance(corrupt_p) && !packet.payload.is_empty() {
            // Flip one uniformly-chosen bit of the IP *payload*. The IP
            // header stays intact (real IP guards it with a header
            // checksum), so corruption always lands on transport bytes the
            // TCP/UDP checksum is responsible for catching.
            let bit = self.rng.range(0, packet.payload.len() as u64 * 8) as usize;
            let mut bytes = packet.payload.to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            // Rebuilding the payload loses the shared backing; keep the
            // lineage tag so even corrupted deliveries trace to their send.
            let lineage = packet.payload.lineage();
            packet.payload = crate::buf::PacketBuf::from(bytes).with_lineage(lineage);
            link.dirs[dir.index()].stats.corrupted += 1;
        }

        let (rx_node, rx_iface) = link.receiver(dir);
        let base_arrive = ready_at + link.params.delay;
        // Duplication delivers at most one extra copy per packet.
        if duplicate_p > 0.0 && self.rng.chance(duplicate_p) {
            link.dirs[dir.index()].stats.duplicated += 1;
            let copy_at = match draw_jitter(&mut self.rng, reorder_p, jitter_nanos) {
                Some(extra) => {
                    link.dirs[dir.index()].stats.reordered += 1;
                    base_arrive.saturating_add(extra)
                }
                None => base_arrive,
            };
            self.events.push(
                copy_at,
                EventKind::PacketArrival {
                    node: rx_node,
                    iface: rx_iface,
                    packet: packet.clone(),
                },
            );
        }
        let arrive_at = match draw_jitter(&mut self.rng, reorder_p, jitter_nanos) {
            Some(extra) => {
                link.dirs[dir.index()].stats.reordered += 1;
                base_arrive.saturating_add(extra)
            }
            None => base_arrive,
        };
        self.events.push(
            arrive_at,
            EventKind::PacketArrival {
                node: rx_node,
                iface: rx_iface,
                packet,
            },
        );
    }

    fn packet_arrival(&mut self, node: NodeId, iface: usize, packet: IpPacket) {
        let slot = &mut self.nodes[node.index()];
        if slot.crashed {
            slot.stats.dropped_crashed += 1;
            return;
        }
        let cost = slot.params.cost_for(packet.total_len());
        let start = self.now.max(slot.cpu_free_at);
        let done = start.saturating_add(cost);
        slot.cpu_free_at = done;
        slot.stats.cpu_busy_nanos += cost.as_nanos();
        let epoch = slot.epoch;
        self.events.push(
            done,
            EventKind::PacketDispatch {
                node,
                iface,
                packet,
                epoch,
            },
        );
    }
}

/// One reordering decision: with probability `p`, an extra delay uniform in
/// `1 ns ..= jitter_nanos`. Draws nothing when `p` is zero; draws the
/// chance but no jitter when the jitter bound is zero (a configured-off
/// no-op that keeps the stream shape stable).
fn draw_jitter(rng: &mut SimRng, p: f64, jitter_nanos: u64) -> Option<SimDuration> {
    if p > 0.0 && rng.chance(p) && jitter_nanos > 0 {
        Some(SimDuration::from_nanos(rng.range(1, jitter_nanos + 1)))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::packet::{IpAddr, Protocol};
    use crate::topology::TopologyBuilder;

    /// Sends `count` packets of `size` bytes at start, records arrivals.
    struct Blaster {
        count: usize,
        size: usize,
        received: Vec<(SimTime, usize)>,
    }

    impl Blaster {
        fn new(count: usize, size: usize) -> Self {
            Blaster {
                count,
                size,
                received: Vec::new(),
            }
        }
    }

    impl Node for Blaster {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.count {
                let p = IpPacket::new(
                    IpAddr::new(10, 0, 0, 1),
                    IpAddr::new(10, 0, 0, 2),
                    Protocol::UDP,
                    vec![0u8; self.size],
                );
                ctx.send(IfaceId::from_index(0), p);
            }
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, p: IpPacket) {
            self.received.push((ctx.now(), p.payload.len()));
        }
    }

    fn two_nodes(params: LinkParams) -> (Simulator, NodeId, NodeId, LinkId) {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
        let b = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
        let (link, _, _) = t.connect(a, b, params);
        (t.into_simulator(1), a, b, link)
    }

    #[test]
    fn packets_experience_tx_plus_propagation_delay() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Blaster::new(1, 1230), NodeParams::INSTANT);
        let b = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
        // 10 Mb/s, 1 ms propagation; 1250 wire bytes -> 1 ms tx.
        t.connect(
            a,
            b,
            LinkParams::new(10_000_000, SimDuration::from_millis(1)),
        );
        let mut sim = t.into_simulator(1);
        sim.run_until_idle();
        let b_node = sim.node::<Blaster>(b);
        assert_eq!(b_node.received.len(), 1);
        assert_eq!(b_node.received[0].0, SimTime::from_millis(2));
    }

    #[test]
    fn queue_serialises_back_to_back_packets() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Blaster::new(3, 1230), NodeParams::INSTANT);
        let b = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
        t.connect(a, b, LinkParams::new(10_000_000, SimDuration::ZERO));
        let mut sim = t.into_simulator(1);
        sim.run_until_idle();
        let times: Vec<u64> = sim
            .node::<Blaster>(b)
            .received
            .iter()
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(times, vec![1_000_000, 2_000_000, 3_000_000]);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Blaster::new(100, 1230), NodeParams::INSTANT);
        let b = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
        let (link, _, _) = t.connect(
            a,
            b,
            LinkParams::new(10_000_000, SimDuration::ZERO).with_queue(10),
        );
        let mut sim = t.into_simulator(1);
        sim.run_until_idle();
        let (ab, _) = sim.link_stats(link);
        // All 100 sends land before the first dequeue event runs, so exactly
        // the queue capacity (10) is accepted and the rest drop.
        assert_eq!(ab.dropped_queue, 90);
        assert_eq!(sim.node::<Blaster>(b).received.len(), 10);
    }

    #[test]
    fn oversized_packets_fragment_and_arrive() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Blaster::new(1, 4000), NodeParams::INSTANT);
        let b = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
        let (link, _, _) = t.connect(a, b, LinkParams::default().with_mtu(1500));
        let mut sim = t.into_simulator(1);
        sim.run_until_idle();
        let (ab, _) = sim.link_stats(link);
        assert!(
            ab.delivered >= 3,
            "expected >= 3 fragments, got {}",
            ab.delivered
        );
        // Fragments arrive as separate packets; hosts reassemble explicitly
        // (tested in the frag module). Here the raw node just counts them.
        assert_eq!(sim.node::<Blaster>(b).received.len() as u64, ab.delivered);
    }

    #[test]
    fn crashed_node_drops_traffic_and_recovers() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
        let b = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
        t.connect(
            a,
            b,
            LinkParams::new(10_000_000, SimDuration::from_micros(10)),
        );
        let mut sim = t.into_simulator(1);
        sim.schedule_crash(b, SimTime::from_millis(10));
        sim.schedule_recover(b, SimTime::from_millis(20));
        sim.run_until(SimTime::from_millis(15));
        assert!(sim.is_crashed(b));
        // Inject a packet mid-crash: it must be dropped.
        sim.with_node_ctx::<Blaster, _>(a, |_, ctx| {
            let p = IpPacket::new(
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
                Protocol::UDP,
                vec![0u8; 10],
            );
            ctx.send(IfaceId::from_index(0), p);
        });
        sim.run_until(SimTime::from_millis(25));
        assert!(!sim.is_crashed(b));
        assert_eq!(sim.node::<Blaster>(b).received.len(), 0);
        assert_eq!(sim.node_stats(b).dropped_crashed, 1);
        // After recovery traffic flows again.
        sim.with_node_ctx::<Blaster, _>(a, |_, ctx| {
            let p = IpPacket::new(
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
                Protocol::UDP,
                vec![0u8; 10],
            );
            ctx.send(IfaceId::from_index(0), p);
        });
        sim.run_until_idle();
        assert_eq!(sim.node::<Blaster>(b).received.len(), 1);
    }

    #[test]
    fn link_down_drops_in_flight_queue() {
        let (mut sim, a, _b, link) = two_nodes(LinkParams::new(1_000_000, SimDuration::ZERO));
        sim.with_node_ctx::<Blaster, _>(a, |_, ctx| {
            for _ in 0..5 {
                let p = IpPacket::new(
                    IpAddr::new(10, 0, 0, 1),
                    IpAddr::new(10, 0, 0, 2),
                    Protocol::UDP,
                    vec![0u8; 1000],
                );
                ctx.send(IfaceId::from_index(0), p);
            }
        });
        sim.schedule_link_down(link, SimTime::from_millis(1));
        sim.run_until_idle();
        let (ab, _) = sim.link_stats(link);
        assert!(ab.dropped_down > 0);
        assert!(ab.delivered < 5);
    }

    #[test]
    fn node_processing_cost_delays_dispatch() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Blaster::new(2, 100), NodeParams::INSTANT);
        let b = t.add_node(
            Blaster::new(0, 0),
            NodeParams::new(SimDuration::from_millis(5), SimDuration::ZERO),
        );
        t.connect(a, b, LinkParams::new(1_000_000_000, SimDuration::ZERO));
        let mut sim = t.into_simulator(1);
        sim.run_until_idle();
        let times: Vec<SimTime> = sim
            .node::<Blaster>(b)
            .received
            .iter()
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(times.len(), 2);
        // Second packet waits for the first's CPU slot: ~5 ms then ~10 ms.
        assert!(times[0] >= SimTime::from_millis(5));
        assert!(times[1] >= SimTime::from_millis(10));
        assert!(sim.node_stats(b).cpu_busy_nanos >= 10_000_000);
    }

    /// A packet waiting for the CPU when its node crashes is lost to the
    /// crash — whether the node is still down when the dispatch falls due
    /// or has recovered by then — and the node counters account for every
    /// arrival: dispatched or dropped as crashed.
    #[test]
    fn packets_waiting_for_the_cpu_at_a_crash_count_as_crash_drops() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Blaster::new(3, 100), NodeParams::INSTANT);
        let b = t.add_node(
            Blaster::new(0, 0),
            NodeParams::new(SimDuration::from_millis(5), SimDuration::ZERO),
        );
        let (link, _, _) = t.connect(a, b, LinkParams::new(1_000_000_000, SimDuration::ZERO));
        let mut sim = t.into_simulator(1);
        // All three arrive within microseconds and queue for b's CPU:
        // dispatches fall due just after 5, 10 and 15 ms. The second finds
        // b crashed, the third finds it recovered under a new epoch.
        sim.schedule_crash(b, SimTime::from_millis(7));
        sim.schedule_recover(b, SimTime::from_millis(12));
        sim.run_until_idle();
        let (ab, _) = sim.link_stats(link);
        let stats = sim.node_stats(b);
        assert_eq!(sim.node::<Blaster>(b).received.len(), 1);
        assert_eq!((stats.dispatched, stats.dropped_crashed), (1, 2));
        assert_eq!(stats.dispatched + stats.dropped_crashed, ab.delivered);
    }

    #[test]
    fn timers_fire_in_deadline_then_filing_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        type Log = Rc<RefCell<Vec<(SimTime, usize)>>>;
        /// Node 0 files 3 ms and 1 ms at start and 2 ms from its 1 ms
        /// timer; node 1 files 2 ms at start, so at 2 ms its timer is the
        /// one filed first although node 0 started first.
        struct TimerNode {
            tag: usize,
            log: Log,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let delays: &[u64] = if self.tag == 0 { &[3, 1] } else { &[2] };
                for &ms in delays {
                    ctx.set_timer(SimDuration::from_millis(ms));
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>) {
                self.log.borrow_mut().push((ctx.now(), self.tag));
                if self.tag == 0 && ctx.now() == SimTime::from_millis(1) {
                    ctx.set_timer_at(SimTime::from_millis(2));
                }
            }
        }
        let log = Log::default();
        let mut t = TopologyBuilder::new();
        for tag in 0..2 {
            let log = log.clone();
            t.add_node(TimerNode { tag, log }, NodeParams::INSTANT);
        }
        let mut sim = t.into_simulator(1);
        sim.run_until_idle();
        let ms = SimTime::from_millis;
        assert_eq!(
            *log.borrow(),
            vec![(ms(1), 0), (ms(2), 1), (ms(2), 0), (ms(3), 0)]
        );
        assert_eq!(sim.stats().timers_fired, 4);
    }

    #[test]
    fn crash_invalidates_pending_timers() {
        struct TickTock {
            ticks: u32,
        }
        impl Node for TickTock {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(10));
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>) {
                self.ticks += 1;
                ctx.set_timer(SimDuration::from_millis(10));
            }
        }
        let mut t = TopologyBuilder::new();
        let n = t.add_node(TickTock { ticks: 0 }, NodeParams::INSTANT);
        let mut sim = t.into_simulator(1);
        sim.schedule_crash(n, SimTime::from_millis(35));
        sim.schedule_recover(n, SimTime::from_millis(100));
        sim.run_until(SimTime::from_millis(200));
        // Ticks at 10, 20, 30 — then the pending tick at 40 dies with the
        // crash, and recovery does not restart the timer chain by itself.
        assert_eq!(sim.node::<TickTock>(n).ticks, 3);
        // The epoch is the only invalidation: a timer filed after recovery
        // carries the new epoch and fires.
        sim.with_node_ctx::<TickTock, _>(n, |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(10));
        });
        sim.run_until(SimTime::from_millis(215));
        assert_eq!(sim.node::<TickTock>(n).ticks, 4);
    }

    #[test]
    fn profiler_attributes_events_without_perturbing_the_run() {
        use crate::profile::EventCategory;
        let run = |profile: bool| {
            let mut t = TopologyBuilder::new();
            let a = t.add_node(Blaster::new(20, 512), NodeParams::INSTANT);
            let b = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
            t.connect(a, b, LinkParams::default());
            let mut sim = t.into_simulator(5);
            if profile {
                sim.profiler_mut().set_enabled(true);
            }
            sim.run_until_idle();
            sim
        };
        let plain = run(false);
        let profiled = run(true);
        // Observation only: identical event count and arrivals either way.
        assert_eq!(
            plain.stats().events_processed,
            profiled.stats().events_processed
        );
        assert_eq!(
            plain.node::<Blaster>(NodeId::from_index(1)).received,
            profiled.node::<Blaster>(NodeId::from_index(1)).received
        );
        assert_eq!(plain.profiler().total_events(), 0);
        // Every processed event lands in exactly one bucket.
        assert_eq!(
            profiled.profiler().total_events(),
            profiled.stats().events_processed
        );
        // Blaster sends raw UDP with a too-short payload for port parsing,
        // so packets classify as Other — the point here is full coverage
        // and zero perturbation, not the port heuristics (tested in
        // `profile`).
        assert!(profiled.profiler().stats(EventCategory::Other).events > 0);
    }

    /// What a same-instant run is compared on.
    #[derive(Debug, PartialEq)]
    struct SameInstantRun {
        /// Action logs of the sending and the replying node.
        sender: Vec<(SimTime, &'static str, usize)>,
        replier: Vec<(SimTime, &'static str, usize)>,
        stats: SimStats,
        /// Link counters, sender→replier then replier→sender.
        link: (LinkStats, LinkStats),
    }

    /// Same-instant dispatch is the one case the deleted burst collector
    /// treated specially. A link that duplicates every packet into an
    /// instant node makes original and copy dispatch at one timestamp on
    /// one interface — and with a serialisation time of zero, so do the
    /// twelve distinct packets, so a reordered burst shows in the log. The
    /// receiver replies and arms a timer per packet, and the replies are
    /// duplicated back. Every way of driving the engine — plain, profiled,
    /// `run_until` or a `step` loop — must produce the same deliveries in
    /// the same order.
    #[test]
    fn same_instant_dispatch_is_identical_however_the_engine_is_driven() {
        /// Logs everything it sees and does.
        struct Reflector {
            sends: usize,
            reply: bool,
            log: Vec<(SimTime, &'static str, usize)>,
        }
        impl Node for Reflector {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for i in 0..self.sends {
                    let p = IpPacket::new(
                        IpAddr::new(10, 0, 0, 1),
                        IpAddr::new(10, 0, 0, 2),
                        Protocol::UDP,
                        vec![0u8; 100 + i],
                    );
                    self.log.push((ctx.now(), "send", 100 + i));
                    ctx.send(IfaceId::from_index(0), p);
                }
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, iface: IfaceId, mut p: IpPacket) {
                self.log.push((ctx.now(), "rx", p.payload.len()));
                if self.reply {
                    std::mem::swap(&mut p.header.src, &mut p.header.dst);
                    p.payload = vec![0u8; p.payload.len() + 1000].into();
                    self.log.push((ctx.now(), "reply", p.payload.len()));
                    ctx.send(iface, p);
                    ctx.set_timer(SimDuration::from_micros(7));
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>) {
                self.log.push((ctx.now(), "timer", 0));
            }
        }

        #[derive(Clone, Copy)]
        enum Drive {
            RunUntil,
            /// `step` exactly this many times.
            Steps(u64),
        }
        let deadline = SimTime::from_millis(50);
        let run = |profile: bool, drive: Drive| -> SameInstantRun {
            let mut t = TopologyBuilder::new();
            let a = t.add_node(
                Reflector {
                    sends: 12,
                    reply: false,
                    log: vec![],
                },
                NodeParams::INSTANT,
            );
            let b = t.add_node(
                Reflector {
                    sends: 0,
                    reply: true,
                    log: vec![],
                },
                NodeParams::INSTANT,
            );
            let (link, _, _) = t.connect(
                a,
                b,
                LinkParams::new(u64::MAX, SimDuration::from_micros(50))
                    .with_queue(64)
                    .with_impairments(Impairments::NONE.with_duplication(1.0)),
            );
            let mut sim = t.into_simulator(7);
            sim.profiler_mut().set_enabled(profile);
            match drive {
                Drive::RunUntil => sim.run_until(deadline),
                Drive::Steps(n) => {
                    for _ in 0..n {
                        assert!(sim.step(), "calendar ran dry before {n} steps");
                    }
                    assert!(sim.now() <= deadline);
                    // Whatever is left lies beyond the deadline.
                    sim.run_until(deadline);
                    assert_eq!(sim.stats().events_processed, n);
                }
            }
            if profile {
                assert_eq!(
                    sim.profiler().total_events(),
                    sim.stats().events_processed,
                    "the profiler must see every event the engine counts"
                );
            }
            let (ab, ba) = sim.link_stats(link);
            SameInstantRun {
                sender: sim.node::<Reflector>(a).log.clone(),
                replier: sim.node::<Reflector>(b).log.clone(),
                stats: sim.stats(),
                link: (*ab, *ba),
            }
        };

        let plain = run(false, Drive::RunUntil);
        // The scenario is what it claims to be: all twelve packets and
        // their copies reach the replier at one instant, in send order,
        // each copy back to back with its original.
        let at = SimTime::from_nanos(50_000);
        let rx: Vec<_> = plain
            .replier
            .iter()
            .filter(|e| e.1 == "rx")
            .copied()
            .collect();
        let expected: Vec<_> = (0..24).map(|i| (at, "rx", 100 + i / 2)).collect();
        assert_eq!(rx, expected);
        assert_eq!(plain.link.0.duplicated, 12);
        assert_eq!(plain.link.1.duplicated, 24);
        assert_eq!(plain.sender.iter().filter(|e| e.1 == "rx").count(), 48);
        assert_eq!(plain.stats.timers_fired, 24);

        let profiled = run(true, Drive::RunUntil);
        assert_eq!(plain, profiled, "profiling changed the run");

        // `run_until(t)` and `step` agree event for event: the same number
        // of steps reproduces the same logs and counters.
        let stepped = run(false, Drive::Steps(plain.stats.events_processed));
        assert_eq!(plain, stepped);
    }

    #[test]
    fn corruption_preserves_lineage() {
        /// Sends one tagged packet; records the delivered lineage tags.
        struct LineageProbe {
            seen: Vec<u64>,
        }
        impl Node for LineageProbe {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let mut p = IpPacket::new(
                    IpAddr::new(10, 0, 0, 1),
                    IpAddr::new(10, 0, 0, 2),
                    Protocol::UDP,
                    vec![0u8; 64],
                );
                p.payload.set_lineage(0xFEED);
                ctx.send(IfaceId::from_index(0), p);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, p: IpPacket) {
                self.seen.push(p.payload.lineage());
            }
        }
        let mut t = TopologyBuilder::new();
        let a = t.add_node(LineageProbe { seen: vec![] }, NodeParams::INSTANT);
        let b = t.add_node(LineageProbe { seen: vec![] }, NodeParams::INSTANT);
        let (link, _, _) = t.connect(
            a,
            b,
            LinkParams::default().with_impairments(Impairments::NONE.with_corruption(1.0)),
        );
        let mut sim = t.into_simulator(3);
        sim.run_until_idle();
        let (ab, _) = sim.link_stats(link);
        assert_eq!(ab.corrupted, 1, "p=1.0 must corrupt the packet");
        // The rebuilt (bit-flipped) payload still carries the tag.
        assert_eq!(sim.node::<LineageProbe>(b).seen, vec![0xFEED]);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut t = TopologyBuilder::new();
            let a = t.add_node(Blaster::new(50, 512), NodeParams::INSTANT);
            let b = t.add_node(Blaster::new(0, 0), NodeParams::INSTANT);
            t.connect(
                a,
                b,
                LinkParams::default().with_impairments(Impairments::NONE.with_loss(0.2)),
            );
            let mut sim = t.into_simulator(99);
            sim.run_until_idle();
            sim.node::<Blaster>(b).received.clone()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn loss_draw_calibrated() {
        let imp = Impairments::NONE.with_loss(0.5);
        let (mut sim, a, b, link) = two_nodes(
            LinkParams::default()
                .with_queue(10_000)
                .with_impairments(imp),
        );
        blast_sizes(&mut sim, a, &[8; 10_000]);
        sim.run_until_idle();
        let (ab, _) = sim.link_stats(link);
        assert!(
            (4_500..5_500).contains(&ab.dropped_loss),
            "losses = {}",
            ab.dropped_loss
        );
        assert_eq!(ab.delivered + ab.dropped_loss, 10_000, "conservation");
        assert_eq!(sim.node::<Blaster>(b).received.len() as u64, ab.delivered);
    }

    /// A loss probability of zero draws nothing: after a link carried
    /// packets, the simulator's next draw is still the seed's first, so an
    /// unimpaired link leaves every later random decision unmoved.
    #[test]
    fn zero_loss_leaves_the_rng_stream_untouched() {
        let imp = Impairments::NONE.with_loss(0.0);
        let (mut sim, a, b, _) = two_nodes(LinkParams::default().with_impairments(imp));
        blast_sizes(&mut sim, a, &[8; 50]);
        sim.run_until_idle();
        assert_eq!(sim.node::<Blaster>(b).received.len(), 50);
        let next = sim.with_node_ctx::<Blaster, _>(a, |_, ctx| ctx.rng().next_u64());
        assert_eq!(next, SimRng::seed_from(1).next_u64());
    }

    /// Sends `sizes.len()` packets whose payload lengths encode their send
    /// order, so the receiver can check delivery as a multiset.
    fn blast_sizes(sim: &mut Simulator, a: NodeId, sizes: &[usize]) {
        let payloads: Vec<usize> = sizes.to_vec();
        sim.with_node_ctx::<Blaster, _>(a, |_, ctx| {
            for &size in &payloads {
                let p = IpPacket::new(
                    IpAddr::new(10, 0, 0, 1),
                    IpAddr::new(10, 0, 0, 2),
                    Protocol::UDP,
                    vec![0u8; size],
                );
                ctx.send(IfaceId::from_index(0), p);
            }
        });
    }

    /// Property: reordering shuffles arrival *times* but never creates,
    /// destroys, or resizes packets — the delivered multiset equals the
    /// sent multiset.
    #[test]
    fn reordering_preserves_delivered_multiset() {
        let imp = Impairments::NONE.with_reordering(0.5, SimDuration::from_millis(4));
        let (mut sim, a, b, link) = two_nodes(
            LinkParams::new(50_000_000, SimDuration::from_micros(50))
                .with_queue(1024)
                .with_impairments(imp),
        );
        let sizes: Vec<usize> = (1..=200).collect();
        blast_sizes(&mut sim, a, &sizes);
        sim.run_until_idle();
        let mut got: Vec<usize> = sim
            .node::<Blaster>(b)
            .received
            .iter()
            .map(|&(_, len)| len)
            .collect();
        got.sort_unstable();
        assert_eq!(
            got, sizes,
            "reordering must not add, drop, or resize packets"
        );
        let (ab, _) = sim.link_stats(link);
        assert!(
            ab.reordered > 0,
            "with p=0.5 over 200 packets some must reorder"
        );
        // And arrival order must actually differ from send order somewhere.
        let order: Vec<usize> = sim
            .node::<Blaster>(b)
            .received
            .iter()
            .map(|&(_, len)| len)
            .collect();
        assert_ne!(order, sizes, "jittered copies should arrive out of order");
    }

    /// Property: duplication injects at most one extra copy per packet, and
    /// every delivered packet is a copy of a sent one.
    #[test]
    fn duplication_bounded_one_extra_copy_per_packet() {
        let imp = Impairments::NONE.with_duplication(0.3);
        let (mut sim, a, b, link) = two_nodes(
            LinkParams::new(50_000_000, SimDuration::from_micros(50))
                .with_queue(1024)
                .with_impairments(imp),
        );
        let sizes: Vec<usize> = (1..=150).collect();
        blast_sizes(&mut sim, a, &sizes);
        sim.run_until_idle();
        let got: Vec<usize> = sim
            .node::<Blaster>(b)
            .received
            .iter()
            .map(|&(_, len)| len)
            .collect();
        let (ab, _) = sim.link_stats(link);
        assert!(
            ab.duplicated > 0,
            "with p=0.3 over 150 packets some must duplicate"
        );
        assert!(ab.duplicated <= sizes.len() as u64);
        assert_eq!(got.len(), sizes.len() + ab.duplicated as usize);
        // Each size appears once or twice, never more; none is missing.
        for &s in &sizes {
            let n = got.iter().filter(|&&g| g == s).count();
            assert!((1..=2).contains(&n), "size {s} delivered {n} times");
        }
    }

    /// Property: corruption flips payload bits but preserves packet count
    /// and length — damage is detectable only by a transport checksum.
    #[test]
    fn corruption_preserves_count_and_length() {
        let imp = Impairments::NONE.with_corruption(0.5);
        let (mut sim, a, b, link) = two_nodes(
            LinkParams::new(50_000_000, SimDuration::from_micros(50))
                .with_queue(1024)
                .with_impairments(imp),
        );
        // Non-zero payloads so a flipped bit is observable as a non-zero byte.
        sim.with_node_ctx::<Blaster, _>(a, |_, ctx| {
            for _ in 0..100 {
                let p = IpPacket::new(
                    IpAddr::new(10, 0, 0, 1),
                    IpAddr::new(10, 0, 0, 2),
                    Protocol::UDP,
                    vec![0u8; 64],
                );
                ctx.send(IfaceId::from_index(0), p);
            }
        });
        sim.run_until_idle();
        let received = sim.node::<Blaster>(b).received.clone();
        assert_eq!(received.len(), 100, "corruption must not drop packets");
        assert!(received.iter().all(|&(_, len)| len == 64));
        let (ab, _) = sim.link_stats(link);
        assert!(
            ab.corrupted > 0,
            "with p=0.5 over 100 packets some must corrupt"
        );
        assert_eq!(ab.delivered, 100);
    }

    #[test]
    fn scheduled_impairments_take_effect_at_time() {
        let (mut sim, _a, _b, link) = two_nodes(LinkParams::default());
        let imp = Impairments::NONE.with_duplication(0.9);
        sim.schedule_impairments(link, imp, SimTime::from_millis(5));
        sim.run_until(SimTime::from_millis(4));
        assert_eq!(sim.link_impairments(link).duplicate_p, 0.0);
        sim.run_until(SimTime::from_millis(6));
        assert_eq!(sim.link_impairments(link).duplicate_p, 0.9);
    }

    #[test]
    fn link_endpoints_reports_both_nodes() {
        let (sim, a, b, link) = two_nodes(LinkParams::default());
        assert_eq!(sim.link_endpoints(link), [a, b]);
    }

    #[test]
    fn impaired_links_deterministic_across_runs() {
        let build = || {
            let imp = Impairments::NONE
                .with_loss(0.05)
                .with_reordering(0.3, SimDuration::from_millis(2))
                .with_duplication(0.1)
                .with_corruption(0.1);
            let (mut sim, a, b, _link) = two_nodes(
                LinkParams::new(20_000_000, SimDuration::from_micros(100))
                    .with_queue(1024)
                    .with_impairments(imp),
            );
            let sizes: Vec<usize> = (1..=120).collect();
            blast_sizes(&mut sim, a, &sizes);
            sim.run_until_idle();
            sim.node::<Blaster>(b).received.clone()
        };
        assert_eq!(build(), build());
    }
}
