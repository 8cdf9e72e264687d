//! Exact per-layer counts, read from the layers' public counters after a
//! run. They come from a seeded deterministic simulation, so every rep of a
//! process must reproduce them bit for bit — which makes them the
//! correctness check as well as the per-layer work figures.

use hydranet_core::host::{ClientHost, HostServer};
use hydranet_core::system::{NodeKind, System};
use hydranet_netsim::link::LinkId;
use hydranet_netsim::node::NodeId;
use hydranet_obs::kinds;
use hydranet_tcp::stack::TcpStack;

use crate::json::Value;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    // netsim
    pub events: u64,
    pub timers_fired: u64,
    pub link_enqueued: u64,
    pub link_delivered: u64,
    pub link_queue_drops: u64,
    // tcp
    pub segments_rx: u64,
    pub fastpath_hits: u64,
    pub fastpath_misses: u64,
    pub retransmits: u64,
    pub ackchan_pairs_tx: u64,
    pub ackchan_coalesced: u64,
    /// Connection-state heap bytes and live connections on client stacks,
    /// sampled while the flows are held open.
    pub conn_bytes: u64,
    pub conn_count: u64,
    // redirect
    pub rd_redirected: u64,
    pub rd_copies: u64,
    pub rd_forwarded: u64,
    pub rd_local: u64,
    pub rd_syn_deferred: u64,
    pub rd_dropped_no_route: u64,
    pub rd_cache_hits: u64,
    pub rd_cache_misses: u64,
    // mgmt
    pub reconfigurations: u64,
    pub promotions: u64,
}

fn nodes(system: &System) -> impl Iterator<Item = NodeId> {
    (0..system.sim.node_count()).map(NodeId::from_index)
}

fn stack_of(system: &System, id: NodeId) -> Option<&TcpStack> {
    match system.kind(id) {
        NodeKind::Client => Some(system.sim.node::<ClientHost>(id).stack()),
        NodeKind::HostServer => Some(system.sim.node::<HostServer>(id).stack()),
        NodeKind::Redirector | NodeKind::Router => None,
    }
}

impl Counts {
    /// Adds what lives only in open connections — retransmission counts on
    /// every stack, per-flow memory on the clients — so it must be read
    /// before the connections close.
    pub fn absorb_connections(&mut self, system: &System) {
        for id in nodes(system) {
            let Some(stack) = stack_of(system, id) else {
                continue;
            };
            self.retransmits += stack
                .quads()
                .filter_map(|q| stack.conn(q))
                .map(|c| c.retransmit_count())
                .sum::<u64>();
            if system.kind(id) == NodeKind::Client {
                self.conn_bytes += stack.conn_memory_bytes() as u64;
                self.conn_count += stack.conn_count() as u64;
            }
        }
    }

    /// Adds the cumulative counters of a finished run.
    pub fn absorb_totals(&mut self, system: &System) {
        let sim = system.sim.stats();
        self.events += sim.events_processed;
        self.timers_fired += sim.timers_fired;
        for i in 0..system.sim.link_count() {
            let (fwd, rev) = system.sim.link_stats(LinkId::from_index(i));
            for dir in [fwd, rev] {
                self.link_enqueued += dir.enqueued;
                self.link_delivered += dir.delivered;
                self.link_queue_drops += dir.dropped_queue;
            }
        }
        for id in nodes(system) {
            if let Some(stack) = stack_of(system, id) {
                let s = stack.stats();
                self.segments_rx += s.tcp_rx;
                self.fastpath_hits += s.fastpath_hits;
                self.fastpath_misses += s.fastpath_misses;
                self.ackchan_pairs_tx += s.ackchan_tx;
                self.ackchan_coalesced += s.ackchan_coalesced;
            }
            if system.kind(id) == NodeKind::Redirector {
                let rd = system.redirector(id);
                let s = rd.engine().stats();
                self.rd_redirected += s.redirected;
                self.rd_copies += s.copies;
                self.rd_forwarded += s.forwarded;
                self.rd_local += s.local;
                self.rd_syn_deferred += s.syn_deferred;
                self.rd_dropped_no_route += s.dropped_no_route;
                self.reconfigurations += rd.controller().reconfigurations();
                let scope = format!("redirect.table.{}", rd.engine().addr());
                let obs = system.obs();
                self.rd_cache_hits += obs.counter(&format!("{scope}.target_cache_hits")).get();
                self.rd_cache_misses += obs.counter(&format!("{scope}.target_cache_misses")).get();
            }
        }
        // A replica taking over as primary and a standby redirector taking
        // over as active are both promotions the mgmt plane carried out.
        self.promotions += system
            .obs()
            .events()
            .iter()
            .filter(|e| e.kind == kinds::PROMOTED || e.kind == kinds::REDIRECTOR_PROMOTED)
            .count() as u64;
    }

    pub fn to_json(&self) -> Value {
        let fields: [(&str, u64); 23] = [
            ("netsim.events", self.events),
            ("netsim.timers_fired", self.timers_fired),
            ("netsim.link_enqueued", self.link_enqueued),
            ("netsim.link_delivered", self.link_delivered),
            ("netsim.link_queue_drops", self.link_queue_drops),
            ("tcp.segments_rx", self.segments_rx),
            ("tcp.fastpath_hits", self.fastpath_hits),
            ("tcp.fastpath_misses", self.fastpath_misses),
            ("tcp.retransmits", self.retransmits),
            ("tcp.ackchan_pairs_tx", self.ackchan_pairs_tx),
            ("tcp.ackchan_coalesced", self.ackchan_coalesced),
            ("tcp.conn_bytes", self.conn_bytes),
            ("tcp.conn_count", self.conn_count),
            ("redirect.redirected", self.rd_redirected),
            ("redirect.copies", self.rd_copies),
            ("redirect.forwarded", self.rd_forwarded),
            ("redirect.local", self.rd_local),
            ("redirect.syn_deferred", self.rd_syn_deferred),
            ("redirect.dropped_no_route", self.rd_dropped_no_route),
            ("redirect.target_cache_hits", self.rd_cache_hits),
            ("redirect.target_cache_misses", self.rd_cache_misses),
            ("mgmt.reconfigurations", self.reconfigurations),
            ("mgmt.promotions", self.promotions),
        ];
        Value::obj(fields.map(|(k, v)| (k, Value::Int(v))))
    }

    /// Packets that entered a redirector engine and were disposed of.
    pub fn rd_packets(&self) -> u64 {
        self.rd_redirected + self.rd_forwarded + self.rd_local + self.rd_dropped_no_route
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
