//! Declarative construction of a simulated internetwork.

use crate::link::{Link, LinkId, LinkParams};
use crate::node::{Node, NodeId, NodeParams};
use crate::sim::{NodeSlot, Simulator};

/// Builds a topology of nodes and links, then converts it into a running
/// [`Simulator`].
///
/// # Examples
///
/// See [`Simulator`] for a complete ping/echo example.
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeSlot>,
    links: Vec<Link>,
}

impl std::fmt::Debug for TopologyBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopologyBuilder")
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .finish()
    }
}

impl TopologyBuilder {
    /// Creates an empty topology.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Adds a node with the given processing-cost parameters, returning its
    /// id. Nodes receive `on_start` in insertion order at time zero.
    pub fn add_node(&mut self, node: impl Node, params: NodeParams) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSlot::new(Box::new(node), params));
        id
    }

    /// Connects two nodes with a duplex link, returning the link id and the
    /// interface index assigned at each endpoint (`a` first).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either id is unknown.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: LinkParams,
    ) -> (LinkId, crate::node::IfaceId, crate::node::IfaceId) {
        assert!(a != b, "self-links are not supported");
        assert!(a.index() < self.nodes.len(), "unknown node {a}");
        assert!(b.index() < self.nodes.len(), "unknown node {b}");
        let link_id = LinkId(self.links.len());
        let iface_a = self.nodes[a.index()].ifaces.len();
        let iface_b = self.nodes[b.index()].ifaces.len();
        self.nodes[a.index()]
            .ifaces
            .push((link_id, crate::link::Direction::AToB));
        self.nodes[b.index()]
            .ifaces
            .push((link_id, crate::link::Direction::BToA));
        self.links
            .push(Link::new(params, [a, b], [iface_a, iface_b]));
        (
            link_id,
            crate::node::IfaceId::from_index(iface_a),
            crate::node::IfaceId::from_index(iface_b),
        )
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links added so far.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Mutably borrows a node already added, downcast to its concrete type —
    /// useful for wiring configuration that needs interface ids returned by
    /// [`connect`](Self::connect).
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the node is not a `T`.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let boxed = self.nodes[id.index()]
            .node
            .as_mut()
            .expect("node present during building");
        (boxed.as_mut() as &mut dyn std::any::Any)
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Finishes building and returns a simulator seeded with `seed`.
    pub fn into_simulator(self, seed: u64) -> Simulator {
        Simulator::new(self.nodes, self.links, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Context, IfaceId};
    use crate::packet::IpPacket;

    struct Dummy(u32);
    impl Node for Dummy {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {}
    }

    #[test]
    fn assigns_sequential_ids_and_ifaces() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Dummy(0), NodeParams::INSTANT);
        let b = t.add_node(Dummy(1), NodeParams::INSTANT);
        let c = t.add_node(Dummy(2), NodeParams::INSTANT);
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        let (l0, ia, ib) = t.connect(a, b, LinkParams::default());
        let (l1, ia2, ic) = t.connect(a, c, LinkParams::default());
        assert_eq!(l0.index(), 0);
        assert_eq!(l1.index(), 1);
        assert_eq!(ia.index(), 0);
        assert_eq!(ia2.index(), 1); // second interface on a
        assert_eq!(ib.index(), 0);
        assert_eq!(ic.index(), 0);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
    }

    #[test]
    fn node_mut_downcasts() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Dummy(7), NodeParams::INSTANT);
        t.node_mut::<Dummy>(a).0 = 9;
        let sim = t.into_simulator(0);
        assert_eq!(sim.node::<Dummy>(a).0, 9);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn rejects_self_link() {
        let mut t = TopologyBuilder::new();
        let a = t.add_node(Dummy(0), NodeParams::INSTANT);
        t.connect(a, a, LinkParams::default());
    }
}
