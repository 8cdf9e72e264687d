//! # hydranet-netsim
//!
//! A deterministic discrete-event internetwork simulator: the substrate the
//! HydraNet-FT reproduction runs on, standing in for the paper's physical
//! FreeBSD testbed.
//!
//! The simulator models:
//!
//! - **Packets** ([`packet`]) with an IPv4-style 20-byte header, real byte
//!   payloads held in cheaply shareable buffers ([`buf::PacketBuf`]), and
//!   IP-in-IP encapsulation support.
//! - **Links** ([`link`]) with bandwidth, propagation delay, MTU, drop-tail
//!   queues, independent per-packet loss, reordering, duplication and
//!   corruption, and scheduled outages.
//! - **Fragmentation and reassembly** ([`frag`]) when packets exceed a
//!   link's MTU.
//! - **Nodes** ([`node`]) — hosts, routers, redirectors — with per-packet
//!   CPU processing costs (the paper deliberately used slow machines "to
//!   measure the effects of bottlenecks"; CPU cost is how that is modelled
//!   here).
//! - **Static routing** ([`routing`]) with longest-prefix matching.
//! - **Failure injection** ([`sim`]): fail-stop node crashes, recoveries,
//!   and link outages at scheduled instants.
//! - **Counters** ([`stats`]): every packet a link refuses, loses or
//!   delivers, and every packet a node dispatches or loses to a crash, is
//!   counted. The simulator keeps no per-packet log; the lineage id a
//!   packet carries ([`buf::PacketBuf::lineage`]) is what the spans of
//!   `hydranet-obs` note to follow it across hops.
//!
//! Everything is driven from a single seeded RNG ([`rng`]) and a calendar
//! queue ([`sim::Simulator`]), so any run is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use hydranet_netsim::prelude::*;
//!
//! struct Counter { seen: u32 }
//! impl Node for Counter {
//!     fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {
//!         self.seen += 1;
//!     }
//! }
//! struct Talker;
//! impl Node for Talker {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         let p = IpPacket::new(IpAddr::new(1, 0, 0, 1), IpAddr::new(1, 0, 0, 2),
//!                               Protocol::UDP, vec![0; 64]);
//!         ctx.send(IfaceId::from_index(0), p);
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {}
//! }
//!
//! let mut topo = TopologyBuilder::new();
//! let talker = topo.add_node(Talker, NodeParams::INSTANT);
//! let counter = topo.add_node(Counter { seen: 0 }, NodeParams::INSTANT);
//! topo.connect(talker, counter, LinkParams::default());
//! let mut sim = topo.into_simulator(7);
//! sim.run_until_idle();
//! assert_eq!(sim.node::<Counter>(counter).seen, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod event;

pub mod buf;
pub mod calendar;
pub mod frag;
pub mod hash;
pub mod link;
pub mod node;
pub mod packet;
pub mod profile;
pub mod rng;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

/// The calendar's former module path, still imported by the benchmark
/// harness's calendar rung.
#[doc(hidden)]
pub mod wheel {
    pub use crate::calendar::{Calendar as TimingWheel, TimerEntry};
}

/// Convenient glob-import of the types most simulations need.
pub mod prelude {
    pub use crate::buf::PacketBuf;
    pub use crate::frag::Reassembler;
    pub use crate::link::{Impairments, LinkId, LinkParams};
    pub use crate::node::{Context, IfaceId, Node, NodeId, NodeParams};
    pub use crate::packet::{IpAddr, IpPacket, Protocol};
    pub use crate::rng::SimRng;
    pub use crate::routing::{Prefix, RouteTable, RouterNode};
    pub use crate::sim::Simulator;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::TopologyBuilder;
}
