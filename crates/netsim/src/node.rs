//! The node model: anything attached to the network implements [`Node`].
//!
//! Hosts, routers, redirectors, and host servers are all nodes. The
//! simulator calls into a node when a packet is dispatched to it or one of
//! its timers fires; the node reacts through the [`Context`] it is handed,
//! whose sends and timers take effect when the node makes them.

use std::any::Any;
use std::fmt;

use crate::event::{EventKind, EventQueue};
use crate::link::Link;
use crate::packet::IpPacket;
use crate::rng::SimRng;
use crate::sim::{link_enqueue, NodeSlot, Simulator};
use crate::time::{SimDuration, SimTime};

/// Identifies a node within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Creates a node id from its index in the simulator's node table.
    /// Indices are assigned sequentially by
    /// [`TopologyBuilder::add_node`](crate::topology::TopologyBuilder::add_node).
    pub const fn from_index(index: usize) -> Self {
        NodeId(index)
    }

    /// The node's index in the simulator's node table.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a network interface *within one node* (its attachment to one
/// link). Interface numbers are assigned in the order links are connected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IfaceId(pub(crate) usize);

impl IfaceId {
    /// Creates an interface id from its per-node index.
    pub const fn from_index(index: usize) -> Self {
        IfaceId(index)
    }

    /// The per-node interface index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if{}", self.0)
    }
}

/// Per-node processing-cost parameters.
///
/// Models the CPU cost of handling one packet: `fixed` covers header
/// processing (interrupt, demux, checksums) and `per_byte` covers copying.
/// The paper deliberately used slow machines (486 redirector, Pentium/120
/// servers) "to measure the effects of bottlenecks"; these parameters are
/// how that shows up in the reproduction — small writes make the fixed
/// per-packet cost dominate, which is exactly the left side of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeParams {
    /// Fixed CPU cost per received packet.
    pub proc_fixed: SimDuration,
    /// Additional CPU cost per payload byte.
    pub proc_per_byte: SimDuration,
}

impl NodeParams {
    /// An infinitely fast node (zero processing cost).
    pub const INSTANT: NodeParams = NodeParams {
        proc_fixed: SimDuration::ZERO,
        proc_per_byte: SimDuration::ZERO,
    };

    /// Creates parameters with the given fixed and per-byte costs.
    pub const fn new(proc_fixed: SimDuration, proc_per_byte: SimDuration) -> Self {
        NodeParams {
            proc_fixed,
            proc_per_byte,
        }
    }

    /// The CPU time needed to process a packet of `len` on-wire bytes.
    pub fn cost_for(&self, len: usize) -> SimDuration {
        self.proc_fixed + SimDuration::from_nanos(self.proc_per_byte.as_nanos() * len as u64)
    }
}

impl Default for NodeParams {
    fn default() -> Self {
        NodeParams::INSTANT
    }
}

/// The environment a node callback runs in.
///
/// Provides the current simulated time, deterministic randomness, packet
/// transmission, and timer management. It borrows the node's slot, the
/// link table and the calendar, so every effect lands when the node makes
/// it: a send enters its link's queue and a timer is filed in the calendar
/// before the call returns.
pub struct Context<'a> {
    now: SimTime,
    node: NodeId,
    rng: &'a mut SimRng,
    slot: &'a mut NodeSlot,
    links: &'a mut [Link],
    events: &'a mut EventQueue,
}

impl fmt::Debug for Context<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<'a> Context<'a> {
    /// A context for `node`, whose callback object the caller has taken
    /// out of its slot.
    pub(crate) fn new(sim: &'a mut Simulator, node: NodeId) -> Self {
        Context {
            now: sim.now,
            node,
            rng: &mut sim.rng,
            slot: &mut sim.nodes[node.index()],
            links: &mut sim.links,
            events: &mut sim.events,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node this callback belongs to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The simulation's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Transmits `packet` on the given interface.
    ///
    /// The packet enters the link's queue at once, or is dropped by the
    /// queue limit or a link outage; the loss model may drop it later.
    ///
    /// # Panics
    ///
    /// Panics if the node has no interface `iface`.
    pub fn send(&mut self, iface: IfaceId, packet: IpPacket) {
        let Some(&(link, dir)) = self.slot.ifaces.get(iface.index()) else {
            panic!("{} sent on nonexistent interface {iface}", self.node);
        };
        link_enqueue(self.links, self.events, self.now, link, dir, packet);
    }

    /// Ensures a wakeup is pending at or before `deadline`: files a timer
    /// only when `deadline` is strictly earlier than the node's earliest
    /// pending one, or none is pending; `None` files nothing. A deadline
    /// that moved later is picked up when the pending wakeup fires and the
    /// node asks again, so a node that asks on every callback keeps at most
    /// one useful timer pending (DESIGN.md §5c). The simulator clears the
    /// mark when a timer fires at or after it and when the node crashes.
    pub fn wake_at(&mut self, deadline: Option<SimTime>) {
        let Some(t) = deadline else { return };
        if self.slot.wake.is_none_or(|w| t < w) {
            self.set_timer_at(t);
            self.slot.wake = Some(t);
        }
    }

    /// Schedules a timer to fire after `delay`, calling [`Node::on_timer`].
    /// A filed timer always fires unless the node crashes first; a node
    /// that no longer wants the wake-up ignores it. Leaves the
    /// [`wake_at`](Self::wake_at) mark alone.
    pub fn set_timer(&mut self, delay: SimDuration) {
        self.set_timer_at(self.now.saturating_add(delay));
    }

    /// Schedules a timer to fire at the absolute instant `at`.
    ///
    /// An instant in the past fires immediately (at the current time).
    pub fn set_timer_at(&mut self, at: SimTime) {
        let at = at.max(self.now);
        let (node, epoch) = (self.node, self.slot.epoch);
        self.events.push(at, EventKind::Timer { node, epoch });
    }
}

/// A participant in the simulated network.
///
/// Implementors receive packets and timer callbacks and react through the
/// provided [`Context`]. The `Any` supertrait lets scenario code downcast
/// nodes back to their concrete types after a run to inspect results (see
/// [`Simulator::node`](crate::sim::Simulator::node)).
pub trait Node: Any {
    /// Called once when the simulation starts (time zero), in node order.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when a packet has been dispatched to this node (after its CPU
    /// processing cost has elapsed).
    fn on_packet(&mut self, ctx: &mut Context<'_>, iface: IfaceId, packet: IpPacket);

    /// Called when a timer set by this node fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when the node crashes (fail-stop). The simulator discards the
    /// node's pending packets and timers and clears its
    /// [`Context::wake_at`] mark; implementations drop volatile protocol
    /// state here, and a node whose only volatile state is its wakeup needs
    /// no override.
    fn on_crash(&mut self) {}

    /// Called when a crashed node is brought back. The node restarts with
    /// whatever state `on_crash` left behind.
    fn on_recover(&mut self, _ctx: &mut Context<'_>) {}

    /// A short human-readable name used in traces.
    fn name(&self) -> &str {
        "node"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_params_cost() {
        let p = NodeParams::new(SimDuration::from_micros(10), SimDuration::from_nanos(100));
        assert_eq!(p.cost_for(0), SimDuration::from_micros(10));
        assert_eq!(p.cost_for(100), SimDuration::from_micros(20));
        assert_eq!(NodeParams::INSTANT.cost_for(1500), SimDuration::ZERO);
    }

    struct Quiet;

    impl Node for Quiet {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {}
    }

    /// A timer, a send and a past-due timer reach the calendar in call
    /// order, each under the next `seq`, before the callback returns.
    #[test]
    fn context_files_effects_in_call_order() {
        use crate::link::LinkParams;
        use crate::packet::{IpAddr, Protocol};
        use crate::topology::TopologyBuilder;

        let mut t = TopologyBuilder::new();
        let a = t.add_node(Quiet, NodeParams::INSTANT);
        let b = t.add_node(Quiet, NodeParams::INSTANT);
        let (link, _, _) = t.connect(a, b, LinkParams::default());
        let mut sim = t.into_simulator(0);
        let now = SimTime::from_secs(1);
        sim.run_until(now);
        let mut ctx = Context::new(&mut sim, a);
        assert_eq!(ctx.now(), now);
        assert_eq!(ctx.node_id(), a);
        ctx.set_timer(SimDuration::from_millis(5));
        let p = IpPacket::new(
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
            Protocol::UDP,
            vec![0u8; 10],
        );
        ctx.send(IfaceId(0), p);
        ctx.set_timer_at(SimTime::ZERO); // in the past
        let mut filed: Vec<_> = std::iter::from_fn(|| sim.events.pop()).collect();
        filed.sort_by_key(|e| e.seq);
        assert!(filed.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        let filed: Vec<(SimTime, &str)> = filed
            .iter()
            .map(|e| match e.payload {
                EventKind::Timer { node, epoch: 0 } if node == a => (e.time, "timer"),
                EventKind::LinkDequeue { link: l, .. } if l == link => (e.time, "dequeue"),
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            filed,
            vec![
                (now + SimDuration::from_millis(5), "timer"),
                (now, "dequeue"),
                // Past deadlines are clamped to now.
                (now, "timer"),
            ]
        );
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(IfaceId(2).to_string(), "if2");
        assert_eq!(IfaceId::from_index(2).index(), 2);
    }
}
