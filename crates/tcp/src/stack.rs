//! The host TCP/UDP stack: demultiplexing, listeners, applications, and the
//! ft-TCP replicated-port plumbing.
//!
//! A [`TcpStack`] is the per-host protocol engine. The owning node feeds it
//! IP packets and clock ticks; applications implement [`SocketApp`] and are
//! attached to listeners or outgoing connections; the stack queues outgoing
//! IP packets and [`StackEvent`]s for the host to act on.
//!
//! For HydraNet-FT, the stack implements everything the paper adds to the
//! FreeBSD kernel on host servers (§4.1, §4.3):
//!
//! - virtual-host addresses ([`TcpStack::add_local_addr`], the `v_host`
//!   system call);
//! - replicated ports ([`TcpStack::setportopt`]) with primary/backup modes;
//! - the acknowledgement channel: backups' would-be transmissions are
//!   stripped to their `(SEQ, ACK)` fields and forwarded over UDP to the
//!   chain predecessor, while incoming ack-channel messages raise the
//!   send/deposit gates of the matching connection;
//! - per-connection failure estimation by counting client retransmissions.
//!
//! # Many-flow scaling
//!
//! Connection state lives in a slab (`Vec` of generation-checked slots)
//! demultiplexed through a flat integer-hashed table keyed by a packed
//! 64-bit triple of the quad, and per-connection timers ride a per-stack
//! hierarchical timing wheel ([`hydranet_netsim::wheel`]), so the hot
//! paths — segment demux, [`TcpStack::on_timer`], and
//! [`TcpStack::next_deadline`] — cost `O(1)`/`O(due)` rather than
//! `O(#connections)`. Everywhere iteration order is schedule-visible
//! (timer processing, port re-gearing, ack-channel flushes) connections
//! are visited in ascending `Quad` order, exactly as the former
//! `BTreeMap<Quad, _>` table visited them, so the refactor is
//! schedule-invisible: pinned fingerprints do not move.

use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::frag::Reassembler;
use hydranet_netsim::hash::IntMap;
use hydranet_netsim::packet::{DecodeError, IpAddr, IpPacket, Protocol};
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_netsim::wheel::{TimerEntry, TimingWheel};
use hydranet_obs::metrics::{Counter, Histogram};
use hydranet_obs::Obs;

use crate::conn::{ConnEvent, ConnTelemetry, Connection, TcpConfig, TcpState};
use crate::detector::FailureDetector;
use crate::ft::{
    deterministic_iss, AckChanMsg, ReplicatedPortConfig, ACK_CHANNEL_PORT, ACK_CHAN_MAX_PAIRS,
    ACK_CHAN_PAIR_LEN,
};
use crate::segment::{Quad, SockAddr, TcpFlags, TcpSegment};
use crate::udp::{UdpDatagram, UDP_HEADER_LEN};

/// Application callbacks for one TCP connection.
///
/// Handlers receive a [`SocketIo`] scoped to the connection; they may read,
/// write, and close through it. One `SocketApp` instance serves exactly one
/// connection (listeners create one per accepted connection).
pub trait SocketApp {
    /// The three-way handshake completed.
    fn on_established(&mut self, _io: &mut SocketIo<'_>) {}
    /// New in-order data is readable.
    fn on_data(&mut self, _io: &mut SocketIo<'_>) {}
    /// Send-buffer space opened after being full.
    fn on_send_space(&mut self, _io: &mut SocketIo<'_>) {}
    /// The peer closed its direction.
    fn on_peer_fin(&mut self, _io: &mut SocketIo<'_>) {}
    /// The connection was reset.
    fn on_reset(&mut self, _quad: Quad) {}
    /// The connection closed cleanly.
    fn on_closed(&mut self, _quad: Quad) {}
}

/// A no-op application (useful for tests and pure sinks).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullApp;

impl SocketApp for NullApp {}

/// Error returned by [`TcpStack::connect`] when every ephemeral port to the
/// remote endpoint is held by a live connection. The connect fails cleanly:
/// no connection state is created and nothing is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EphemeralPortsExhausted {
    /// The remote endpoint whose port space is exhausted.
    pub remote: SockAddr,
}

impl std::fmt::Display for EphemeralPortsExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ephemeral port space to {} exhausted", self.remote)
    }
}

impl std::error::Error for EphemeralPortsExhausted {}

/// The application's handle to its connection during a callback.
#[derive(Debug)]
pub struct SocketIo<'a> {
    conn: &'a mut Connection,
    now: SimTime,
}

impl<'a> SocketIo<'a> {
    /// Reads up to `max` bytes of in-order data.
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        self.conn.read(max, self.now)
    }

    /// Reads everything currently available.
    pub fn read_all(&mut self) -> Vec<u8> {
        let n = self.conn.readable_len();
        self.conn.read(n, self.now)
    }

    /// Writes data; returns the number of bytes accepted.
    pub fn write(&mut self, data: &[u8]) -> usize {
        self.conn.write(data, self.now)
    }

    /// Initiates a graceful close.
    pub fn close(&mut self) {
        self.conn.close(self.now);
    }

    /// The connection four-tuple.
    pub fn quad(&self) -> Quad {
        self.conn.quad()
    }

    /// Bytes readable right now.
    pub fn readable_len(&self) -> usize {
        self.conn.readable_len()
    }

    /// Free send-buffer space.
    pub fn send_room(&self) -> usize {
        self.conn.send_room()
    }

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.conn.state()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

/// Events the stack surfaces to its host node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackEvent {
    /// A UDP datagram arrived for a port the stack does not handle
    /// internally (i.e. anything except the ack channel).
    UdpDelivery {
        /// Local endpoint it arrived on.
        local: SockAddr,
        /// Sender endpoint.
        remote: SockAddr,
        /// Datagram payload.
        payload: Vec<u8>,
    },
    /// A connection completed its handshake.
    ConnEstablished(Quad),
    /// A connection ended (cleanly or by reset).
    ConnClosed(Quad),
    /// The failure estimator on a replicated port crossed its threshold:
    /// the flow-control loop appears broken (§4.3). The host should report
    /// this through the replica management protocol.
    FailureSuspected {
        /// The replicated port.
        port: u16,
        /// The connection whose estimator fired.
        quad: Quad,
        /// Total duplicates observed on that connection.
        observed: u64,
    },
}

/// Counters kept by the stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// TCP segments accepted and demultiplexed.
    pub tcp_rx: u64,
    /// UDP datagrams accepted.
    pub udp_rx: u64,
    /// Packets dropped (bad decode, unknown address; includes corrupt).
    pub dropped: u64,
    /// TCP segments and UDP datagrams rejected by their checksum —
    /// in-flight corruption. Counted separately from framing errors so
    /// corruption injection is observable, and never delivered, so the
    /// duplicate-segment failure detector cannot see corrupt segments.
    pub rx_corrupt: u64,
    /// RSTs emitted for segments with no matching socket.
    pub rst_sent: u64,
    /// Ack-channel (SEQ, ACK) pairs put on the wire (backup output
    /// diversion). With batching, coalesced duplicates never count here —
    /// in a loss-free run this equals the predecessor's `ackchan_rx`.
    pub ackchan_tx: u64,
    /// Ack-channel pairs superseded in the pending batch before a flush
    /// (a fresher report for the same connection overwrote them). Each one
    /// is a datagram the per-segment protocol would have sent.
    pub ackchan_coalesced: u64,
    /// Ack-channel pairs received and applied.
    pub ackchan_rx: u64,
    /// IP-in-IP tunnelled packets decapsulated.
    pub decapsulated: u64,
    /// Ephemeral ports served from the per-remote recycle list instead of
    /// the allocation cursor.
    pub ports_recycled: u64,
    /// Packet/event drains served by swapping with a caller-retained
    /// scratch buffer — each one a heap allocation the former
    /// take-and-drop pattern would have re-paid on the next enqueue.
    pub bufs_recycled: u64,
    /// Always 0, kept only because the frozen `benchmark/` harness reads it.
    pub fastpath_hits: u64,
    /// Segments handed to an existing connection; the name is kept only
    /// because the frozen `benchmark/` harness reads it.
    pub fastpath_misses: u64,
}

struct ConnEntry {
    conn: Connection,
    app: Box<dyn SocketApp>,
    detector: Option<FailureDetector>,
}

type AppFactory = Box<dyn FnMut(Quad) -> Box<dyn SocketApp>>;

/// Packs the demux-relevant 64 bits of a quad: remote address (32),
/// remote port (16), local port (16). The local *address* is left out —
/// quads are per-stack and the local address is one of a handful of
/// stack-local addresses — so two quads collide on a key only when the
/// same remote endpoint reaches the same local port on two different
/// local addresses (virtual hosting); the slab entry carries the full
/// quad, lookups verify it, and such collisions overflow into a short
/// in-slot list.
fn demux_key(quad: Quad) -> u64 {
    (u64::from(quad.remote.addr.to_bits()) << 32)
        | (u64::from(quad.remote.port) << 16)
        | u64::from(quad.local.port)
}

/// Packed remote endpoint: the per-remote key of the ephemeral-port
/// recycle table.
fn eph_key(remote: SockAddr) -> u64 {
    (u64::from(remote.addr.to_bits()) << 16) | u64::from(remote.port)
}

/// Demux table value: almost always one slab slot; the rare full-key
/// collision (same remote endpoint, same local port, different local
/// address) spills into a vector that lookups scan with a full-quad
/// compare.
enum DemuxSlot {
    One(u32),
    Many(Vec<u32>),
}

/// One slab slot. `gen` increments on every free, so a stale reference
/// (a timer-wheel entry filed for a previous occupant) can be detected
/// in O(1).
struct ConnSlot {
    gen: u32,
    occ: Option<Occupant>,
}

struct Occupant {
    quad: Quad,
    /// Deadline of this connection's single *live* timer-wheel entry;
    /// kept equal to `conn.next_deadline()` after every interaction.
    /// Entries in the wheel whose time differs from this are stale and
    /// are discarded when popped.
    armed: Option<SimTime>,
    /// `None` while the entry is checked out for processing. Boxed so the
    /// check-out/check-in dance per segment moves one pointer, not the
    /// whole multi-hundred-byte connection, and so slab slots stay small.
    entry: Option<Box<ConnEntry>>,
}

/// Payload of a per-stack timer-wheel entry.
#[derive(Debug, Clone, Copy)]
enum StackTimer {
    /// A connection's earliest TCP deadline, referenced by
    /// generation-checked slab slot.
    Conn { slot: u32, gen: u32 },
    /// The ack-channel flush timer; live only while it matches
    /// `ackchan_flush_at` exactly.
    AckFlush,
}

/// Per-remote ephemeral-port bookkeeping: how many in-range ports are
/// held by parked connections, and closed ports awaiting reuse.
#[derive(Default)]
struct EphState {
    live: u32,
    free: Vec<u16>,
}

/// The per-host TCP/UDP protocol engine.
pub struct TcpStack {
    addrs: Vec<IpAddr>,
    /// Default connection configuration, shared by reference with every
    /// connection (a refcount bump per accept instead of a struct copy
    /// held inline in each connection).
    cfg: Rc<TcpConfig>,
    /// `cfg` with `delayed_ack` off — the variant every replica-port
    /// connection uses — pre-built so accepts on replicated ports share
    /// one allocation too.
    replica_cfg: Rc<TcpConfig>,
    // Listener and replicated-port tables stay BTree: they are small,
    // iterated rarely, and their order is schedule-visible.
    listeners: BTreeMap<u16, AppFactory>,
    replicated: BTreeMap<u16, ReplicatedPortConfig>,
    /// Connection slab: slots are recycled through `free_slots` and
    /// generation-checked so timer-wheel references cannot alias a new
    /// occupant.
    slots: Vec<ConnSlot>,
    free_slots: Vec<u32>,
    /// Flat demux table: packed 64-bit key → slab slot(s).
    demux: IntMap<u64, DemuxSlot>,
    live_conns: usize,
    /// Per-stack hierarchical timer wheel holding one live entry per
    /// connection with a deadline, plus the ack-channel flush timer.
    /// Lazily invalidated: superseded entries stay filed and are
    /// discarded on pop (the `armed` check). Only [`TcpStack::on_timer`]
    /// pops it — always bounded by `now` — so the wheel's internal clock
    /// never outruns simulation time and every future arm files at its
    /// real tick.
    timers: TimingWheel<StackTimer>,
    /// Companion min-heap over the same (lazily invalidated) timer
    /// entries, answering the exact-min [`TcpStack::next_deadline`] query.
    /// The wheel cannot answer it: finding a *future* minimum would force
    /// cascades that advance its clock past the present, after which an
    /// earlier re-arm files behind the cursor and is never popped again.
    /// The heap is clock-free and globally `(time, seq)`-ordered, so
    /// peeking is non-destructive.
    deadline_index: BinaryHeap<TimerEntry<StackTimer>>,
    timer_seq: u64,
    /// Per-remote ephemeral-port recycle state.
    eph: IntMap<u64, EphState>,
    reassembler: Reassembler,
    ip_id: u16,
    /// Per-stack packet-lineage counter. The stack mints a lineage id for
    /// every untagged payload it first puts on the wire:
    /// `(local address bits << 32) | counter`, so ids are globally unique
    /// and deterministic (no process-global state) and a dump reader can
    /// recover the originating host from the id alone.
    lineage_counter: u32,
    next_ephemeral: u16,
    /// Inclusive ephemeral-port range; shrinkable so exhaustion is testable
    /// without tens of thousands of live connections.
    ephemeral_range: (u16, u16),
    out: Vec<IpPacket>,
    events: Vec<StackEvent>,
    /// Latest (SEQ, ACK) report per connection awaiting an ack-channel
    /// flush. BTreeMap so a flush walks quads in a stable (ascending)
    /// order; the batch is capped well below any scale where that matters.
    /// Storing only the latest pair is sound because the predecessor's
    /// gates are monotonic maxima.
    ackchan_pending: BTreeMap<Quad, AckChanMsg>,
    /// Deadline of the armed ack-channel flush timer, if any.
    ackchan_flush_at: Option<SimTime>,
    stats: StackStats,
    /// Scratch stores recycled through the per-connection drain loop in
    /// `finish_entry`: the connection inherits the cleared allocation on
    /// every swap, so steady-state segment processing allocates nothing.
    scratch_events: Vec<ConnEvent>,
    scratch_segments: Vec<TcpSegment>,
    obs: Obs,
    /// The one set of series every connection of this stack records into.
    conn_telemetry: Option<Rc<ConnTelemetry>>,
    c_ackchan_tx: Counter,
    c_ackchan_rx: Counter,
    c_rx_corrupt: Counter,
    h_ackchan_pairs: Histogram,
}

impl std::fmt::Debug for TcpStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStack")
            .field("addrs", &self.addrs)
            .field("conns", &self.live_conns)
            .field("listeners", &self.listeners.len())
            .field("replicated_ports", &self.replicated.len())
            .finish()
    }
}

impl TcpStack {
    /// Creates a stack owning `addr`, with `cfg` as the default connection
    /// configuration.
    pub fn new(addr: IpAddr, cfg: TcpConfig) -> Self {
        // Replica connections forward their flow-control fields along the
        // ack channel the moment they would ack; delaying those reports
        // would stack a delayed-ack timer per chain stage onto the
        // client's ACK path and race its RTO.
        let mut replica_cfg = cfg.clone();
        replica_cfg.delayed_ack = false;
        TcpStack {
            addrs: vec![addr],
            cfg: Rc::new(cfg),
            replica_cfg: Rc::new(replica_cfg),
            listeners: BTreeMap::new(),
            replicated: BTreeMap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            demux: IntMap::default(),
            live_conns: 0,
            timers: TimingWheel::default(),
            deadline_index: BinaryHeap::new(),
            timer_seq: 0,
            eph: IntMap::default(),
            reassembler: Reassembler::new(),
            ip_id: 1,
            lineage_counter: 0,
            next_ephemeral: 40_000,
            ephemeral_range: (40_000, u16::MAX),
            out: Vec::new(),
            events: Vec::new(),
            ackchan_pending: BTreeMap::new(),
            ackchan_flush_at: None,
            stats: StackStats::default(),
            scratch_events: Vec::new(),
            scratch_segments: Vec::new(),
            obs: Obs::disabled(),
            conn_telemetry: None,
            c_ackchan_tx: Counter::default(),
            c_ackchan_rx: Counter::default(),
            c_rx_corrupt: Counter::default(),
            h_ackchan_pairs: Histogram::default(),
        }
    }

    /// Wires telemetry for this stack and every connection it creates from
    /// now on: ack-channel traffic counters under `tcp.stack.<addr>.*`,
    /// the connections' srtt/rto/cwnd/gate-stall histograms and duplicate
    /// counter aggregated under `tcp.stack.<addr>.conn.*` (one set per
    /// stack, whatever the connection count), and detector timeline
    /// events. Existing connections are re-wired too.
    pub fn set_obs(&mut self, obs: Obs) {
        let scope = format!("tcp.stack.{}", self.addrs[0]);
        self.c_ackchan_tx = obs.counter(&format!("{scope}.ackchan_tx"));
        self.c_ackchan_rx = obs.counter(&format!("{scope}.ackchan_rx"));
        self.c_rx_corrupt = obs.counter(&format!("{scope}.rx_corrupt"));
        self.h_ackchan_pairs = obs.histogram(&format!("{scope}.ackchan.pairs_per_datagram"));
        self.conn_telemetry = ConnTelemetry::new(&obs, &scope);
        self.timers.set_obs_prefixed(&obs, "tcp.timerwheel");
        for occ in self.slots.iter_mut().filter_map(|s| s.occ.as_mut()) {
            if let Some(entry) = occ.entry.as_mut() {
                entry.conn.set_telemetry(self.conn_telemetry.clone());
                if let Some(d) = entry.detector.as_mut() {
                    d.set_obs(obs.clone(), occ.quad);
                }
            }
        }
        self.obs = obs;
    }

    /// The host's primary address.
    pub fn primary_addr(&self) -> IpAddr {
        self.addrs[0]
    }

    /// Adds a local address — the paper's `v_host(ip_address)` system call:
    /// the host will accept traffic addressed to `addr` as its own, letting
    /// it "host IP services that may be known to the outside world under
    /// the IP address of another host" (§1).
    pub fn add_local_addr(&mut self, addr: IpAddr) {
        if !self.addrs.contains(&addr) {
            self.addrs.push(addr);
        }
    }

    /// Whether `addr` is local to this stack.
    pub fn is_local(&self, addr: IpAddr) -> bool {
        self.addrs.contains(&addr)
    }

    /// Counters.
    pub fn stats(&self) -> &StackStats {
        &self.stats
    }

    /// Installs a listener on `port`. `factory` is invoked once per
    /// accepted connection to create its application.
    pub fn listen(&mut self, port: u16, factory: impl FnMut(Quad) -> Box<dyn SocketApp> + 'static) {
        self.listeners.insert(port, Box::new(factory));
    }

    /// Marks `port` replicated — the paper's
    /// `setportopt(port, mode, detector-parameters)` system call — or
    /// updates its chain configuration. Existing connections on the port
    /// are re-geared immediately (promotion, chain membership changes).
    pub fn setportopt(&mut self, port: u16, config: ReplicatedPortConfig, now: SimTime) {
        let gated = config.gated();
        let promoted = config.mode.is_primary();
        self.replicated.insert(port, config);
        for quad in self.quads_on_port(port) {
            let Some((slot, mut entry)) = self.take_conn(quad) else {
                continue;
            };
            // Role changes only ever *loosen* gates on existing
            // connections. Tightening would make them wait on a successor
            // that has no per-connection state for them (a freshly joined
            // backup); connection-state transfer on re-commissioning is
            // future work in the paper (§6), so live connections are
            // grandfathered with their current chain discipline.
            if !gated {
                entry.conn.disable_send_gate(now);
                entry.conn.disable_deposit_gate(now);
            }
            if promoted {
                entry.conn.kick(now);
            }
            // A role change means a reconfiguration happened: clear the
            // failure estimator's latch so a *subsequent* failure on this
            // same connection can be reported too.
            if let Some(d) = entry.detector.as_mut() {
                d.reset();
            }
            self.finish_entry(Some(slot), entry, now);
        }
    }

    /// The replication configuration of `port`, if any.
    pub fn portopt(&self, port: u16) -> Option<&ReplicatedPortConfig> {
        self.replicated.get(&port)
    }

    /// Opens a connection from this host to `remote`, attaching `app`.
    /// Returns the connection's four-tuple.
    ///
    /// # Errors
    ///
    /// Fails cleanly (no state created, no packet sent) when every
    /// ephemeral port to `remote` is held by a live connection.
    pub fn connect(
        &mut self,
        remote: SockAddr,
        app: Box<dyn SocketApp>,
        now: SimTime,
    ) -> Result<Quad, EphemeralPortsExhausted> {
        let local = SockAddr::new(self.addrs[0], self.alloc_ephemeral(remote)?);
        let quad = Quad::new(local, remote);
        let iss = deterministic_iss(quad);
        let mut conn = Connection::connect(quad, Rc::clone(&self.cfg), iss, now);
        conn.set_telemetry(self.conn_telemetry.clone());
        self.span_conn_open(quad, "connect", now);
        let entry = Box::new(ConnEntry {
            conn,
            app,
            detector: None,
        });
        self.finish_entry(None, entry, now);
        Ok(quad)
    }

    /// Restricts the ephemeral-port range to `lo..=hi` (default
    /// `40_000..=65_535`), resets the allocation cursor, and rebuilds the
    /// per-remote recycle state against the new range. Mainly for tests
    /// exercising port exhaustion without tens of thousands of
    /// connections.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn set_ephemeral_range(&mut self, lo: u16, hi: u16) {
        assert!(lo <= hi, "empty ephemeral range");
        self.ephemeral_range = (lo, hi);
        self.next_ephemeral = lo;
        self.eph = IntMap::default();
        let addr0 = self.addrs[0];
        for slot in &self.slots {
            if let Some(occ) = &slot.occ {
                if occ.quad.local.addr == addr0 && (lo..=hi).contains(&occ.quad.local.port) {
                    self.eph.entry(eph_key(occ.quad.remote)).or_default().live += 1;
                }
            }
        }
    }

    /// Drops all connection state and replicated-port configuration, as a
    /// host reboot (fail-stop crash) would. Listeners, local addresses,
    /// and the default configuration survive — they model on-disk
    /// configuration that a restarted server re-applies.
    pub fn reset_volatile(&mut self) {
        self.slots.clear();
        self.free_slots.clear();
        self.demux = IntMap::default();
        self.live_conns = 0;
        self.eph = IntMap::default();
        self.timers = TimingWheel::default();
        self.timers.set_obs_prefixed(&self.obs, "tcp.timerwheel");
        self.replicated.clear();
        self.out.clear();
        self.events.clear();
        self.ackchan_pending.clear();
        self.ackchan_flush_at = None;
        self.reassembler = Reassembler::new();
    }

    /// Number of live connections.
    pub fn conn_count(&self) -> usize {
        self.live_conns
    }

    /// Read-only view of a connection.
    pub fn conn(&self, quad: Quad) -> Option<&Connection> {
        let slot = self.lookup_slot(quad)?;
        self.slots[slot as usize]
            .occ
            .as_ref()?
            .entry
            .as_ref()
            .map(|e| &e.conn)
    }

    /// Iterates over the quads of live connections, in ascending order.
    pub fn quads(&self) -> impl Iterator<Item = Quad> + '_ {
        let mut quads: Vec<Quad> = self
            .slots
            .iter()
            .filter_map(|s| s.occ.as_ref().map(|o| o.quad))
            .collect();
        quads.sort_unstable();
        quads.into_iter()
    }

    /// Approximate heap footprint of per-connection state in bytes: the
    /// slab, the demux table, and every parked connection (including its
    /// socket buffers). Deterministic — it depends only on the schedule —
    /// so scale benches can report per-flow memory without reading RSS.
    pub fn conn_memory_bytes(&self) -> usize {
        let mut total = self.slots.capacity() * std::mem::size_of::<ConnSlot>()
            + self.free_slots.capacity() * std::mem::size_of::<u32>()
            + self.demux.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<DemuxSlot>());
        for slot in &self.slots {
            if let Some(entry) = slot.occ.as_ref().and_then(|o| o.entry.as_ref()) {
                total += std::mem::size_of::<ConnEntry>() + entry.conn.memory_bytes();
            }
        }
        total
    }

    /// Runs `f` against a live connection's application I/O handle (for
    /// scenario drivers that inject work, e.g. a client writing on a
    /// schedule).
    pub fn with_io<R>(
        &mut self,
        quad: Quad,
        now: SimTime,
        f: impl FnOnce(&mut SocketIo<'_>) -> R,
    ) -> Option<R> {
        let (slot, mut entry) = self.take_conn(quad)?;
        let result = {
            let mut io = SocketIo {
                conn: &mut entry.conn,
                now,
            };
            f(&mut io)
        };
        self.finish_entry(Some(slot), entry, now);
        Some(result)
    }

    /// Sends a UDP datagram from `src` (one of this stack's addresses) to
    /// `dst`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `src.addr` is not local.
    pub fn udp_send(&mut self, src: SockAddr, dst: SockAddr, payload: Vec<u8>) {
        debug_assert!(self.is_local(src.addr), "udp_send from foreign address");
        let datagram = UdpDatagram {
            src_port: src.port,
            dst_port: dst.port,
            payload,
        };
        self.push_packet(src.addr, dst.addr, Protocol::UDP, datagram.encode());
    }

    /// Feeds one incoming IP packet (fragments are reassembled internally;
    /// IP-in-IP tunnels from redirectors are decapsulated).
    pub fn handle_packet(&mut self, packet: IpPacket, now: SimTime) {
        let Some(packet) = self.reassembler.push(now, packet) else {
            return;
        };
        self.handle_assembled(packet, now);
    }

    fn handle_assembled(&mut self, packet: IpPacket, now: SimTime) {
        match packet.protocol() {
            Protocol::IP_IN_IP => {
                match IpPacket::decode(&packet.payload) {
                    Ok(inner) => {
                        self.stats.decapsulated += 1;
                        // Tunnelled packets address the virtual host; the
                        // reassembler keyed the outer packet, the inner one
                        // may itself be fragmented end-to-end.
                        self.handle_packet(inner, now);
                    }
                    Err(_) => self.stats.dropped += 1,
                }
            }
            Protocol::TCP => {
                if !self.is_local(packet.dst()) {
                    self.stats.dropped += 1;
                    return;
                }
                match TcpSegment::decode(&packet.payload) {
                    Ok(seg) => self.handle_tcp(packet.src(), packet.dst(), seg, now),
                    Err(e) => self.drop_undecodable(e),
                }
            }
            Protocol::UDP => {
                if !self.is_local(packet.dst()) {
                    self.stats.dropped += 1;
                    return;
                }
                match UdpDatagram::decode(&packet.payload) {
                    Ok(dgram) => self.handle_udp(packet.src(), packet.dst(), dgram, now),
                    Err(e) => self.drop_undecodable(e),
                }
            }
            _ => self.stats.dropped += 1,
        }
    }

    /// Drops a transport PDU that failed to decode, counting checksum
    /// failures (in-flight corruption) separately. Corrupt segments never
    /// reach a connection — and therefore can never feed the
    /// duplicate-segment failure detector.
    fn drop_undecodable(&mut self, err: DecodeError) {
        self.stats.dropped += 1;
        if matches!(err, DecodeError::BadChecksum { .. }) {
            self.stats.rx_corrupt += 1;
            self.c_rx_corrupt.inc();
        }
    }

    /// Advances all due connection timers to `now`.
    ///
    /// Cost is `O(due)`, not `O(#connections)`: due timer-wheel entries
    /// are popped (discarding lazily-invalidated stale ones), and the
    /// matching connections are then ticked in ascending quad order — the
    /// exact set and order the former full scan produced, since a live
    /// entry exists at a connection's current `next_deadline()` at all
    /// times.
    pub fn on_timer(&mut self, now: SimTime) {
        let mut due: Vec<(Quad, u32)> = Vec::new();
        while let Some(e) = self.timers.pop_if_at_or_before(now) {
            match e.payload {
                StackTimer::Conn { slot, gen } => {
                    let Some(s) = self.slots.get_mut(slot as usize) else {
                        continue;
                    };
                    if s.gen != gen {
                        continue; // slot was recycled: stale
                    }
                    let Some(occ) = s.occ.as_mut() else {
                        continue;
                    };
                    if occ.armed != Some(e.time) {
                        continue; // deadline moved on: stale
                    }
                    // Consume the live entry; `finish_entry` re-arms from
                    // the connection's post-tick deadline.
                    occ.armed = None;
                    due.push((occ.quad, slot));
                }
                StackTimer::AckFlush => {
                    // Handled below off `ackchan_flush_at`, which is
                    // authoritative; the wheel entry is just its alarm.
                }
            }
        }
        due.sort_unstable();
        for (_, slot) in due {
            let occ = self.slots[slot as usize].occ.as_mut();
            if let Some(mut entry) = occ.and_then(|o| o.entry.take()) {
                entry.conn.on_tick(now);
                self.finish_entry(Some(slot), entry, now);
            }
        }
        // After connection ticks: their output may have queued more pairs,
        // which ride along with a due flush instead of re-arming the timer.
        if self.ackchan_flush_at.is_some_and(|t| t <= now) {
            self.flush_ackchan(now);
        }
    }

    /// The earliest timer deadline across all connections, including a
    /// pending ack-channel flush.
    ///
    /// Amortised `O(1)`: stale entries at the top of the deadline index
    /// are popped and dropped (each entry is dropped at most once over
    /// its lifetime); the first live entry — whose time is the exact
    /// minimum, because every connection keeps a live entry at its
    /// current deadline — is peeked, not removed. The wheel is left
    /// untouched: popping it here would advance its clock into the
    /// future and desynchronize it from simulation time.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(e) = self.deadline_index.peek() {
            if self.timer_is_live(e) {
                return Some(e.time);
            }
            self.deadline_index.pop();
        }
        None
    }

    /// Drains queued outgoing IP packets.
    pub fn take_packets(&mut self) -> Vec<IpPacket> {
        std::mem::take(&mut self.out)
    }

    /// Drains queued stack events.
    pub fn take_events(&mut self) -> Vec<StackEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains queued outgoing IP packets into `buf` (cleared first) by
    /// swapping buffers, so the stack keeps the caller's old allocation as
    /// its next queue and no fresh `Vec` is grown per flush.
    pub fn take_packets_into(&mut self, buf: &mut Vec<IpPacket>) {
        buf.clear();
        std::mem::swap(buf, &mut self.out);
        if self.out.capacity() > 0 {
            self.stats.bufs_recycled += 1;
        }
    }

    /// Drains queued stack events into `buf` (cleared first) by swapping
    /// buffers; same recycling contract as [`TcpStack::take_packets_into`].
    pub fn take_events_into(&mut self, buf: &mut Vec<StackEvent>) {
        buf.clear();
        std::mem::swap(buf, &mut self.events);
        if self.events.capacity() > 0 {
            self.stats.bufs_recycled += 1;
        }
    }

    // ------------------------------------------------------------------
    // Slab internals
    // ------------------------------------------------------------------

    fn lookup_slot(&self, quad: Quad) -> Option<u32> {
        match self.demux.get(&demux_key(quad))? {
            DemuxSlot::One(s) => (self.slot_quad(*s) == Some(quad)).then_some(*s),
            DemuxSlot::Many(v) => v.iter().copied().find(|&s| self.slot_quad(s) == Some(quad)),
        }
    }

    fn slot_quad(&self, slot: u32) -> Option<Quad> {
        self.slots.get(slot as usize)?.occ.as_ref().map(|o| o.quad)
    }

    /// Checks out a parked connection and names its slot. The slot stays
    /// occupied (its quad remains visible to demux) until `finish_entry`,
    /// handed the slot back, parks the connection again or reaps it.
    fn take_conn(&mut self, quad: Quad) -> Option<(u32, Box<ConnEntry>)> {
        let slot = self.lookup_slot(quad)?;
        Some((slot, self.slots[slot as usize].occ.as_mut()?.entry.take()?))
    }

    fn insert_conn(&mut self, quad: Quad, entry: Box<ConnEntry>) -> u32 {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.slots.push(ConnSlot { gen: 0, occ: None });
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize].occ = Some(Occupant {
            quad,
            armed: None,
            entry: Some(entry),
        });
        match self.demux.entry(demux_key(quad)) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(DemuxSlot::One(slot));
            }
            std::collections::hash_map::Entry::Occupied(mut o) => match o.get_mut() {
                DemuxSlot::One(first) => {
                    let f = *first;
                    *o.get_mut() = DemuxSlot::Many(vec![f, slot]);
                }
                DemuxSlot::Many(v) => v.push(slot),
            },
        }
        self.live_conns += 1;
        let (lo, hi) = self.ephemeral_range;
        if quad.local.addr == self.addrs[0] && (lo..=hi).contains(&quad.local.port) {
            self.eph.entry(eph_key(quad.remote)).or_default().live += 1;
        }
        slot
    }

    /// Frees a slot: demux unlinked, generation bumped (invalidating any
    /// timer-wheel references), ephemeral port returned to the recycle
    /// list.
    fn free_slot(&mut self, slot: u32) {
        let Some(occ) = self.slots[slot as usize].occ.take() else {
            return;
        };
        self.slots[slot as usize].gen = self.slots[slot as usize].gen.wrapping_add(1);
        self.free_slots.push(slot);
        self.live_conns -= 1;
        let key = demux_key(occ.quad);
        enum After {
            Keep,
            Remove,
            Collapse(u32),
        }
        let action = match self.demux.get_mut(&key) {
            None => After::Keep,
            Some(DemuxSlot::One(s)) => {
                if *s == slot {
                    After::Remove
                } else {
                    After::Keep
                }
            }
            Some(DemuxSlot::Many(v)) => {
                v.retain(|&s| s != slot);
                match v.len() {
                    0 => After::Remove,
                    1 => After::Collapse(v[0]),
                    _ => After::Keep,
                }
            }
        };
        match action {
            After::Keep => {}
            After::Remove => {
                self.demux.remove(&key);
            }
            After::Collapse(s) => {
                self.demux.insert(key, DemuxSlot::One(s));
            }
        }
        let (lo, hi) = self.ephemeral_range;
        if occ.quad.local.addr == self.addrs[0] && (lo..=hi).contains(&occ.quad.local.port) {
            let st = self.eph.entry(eph_key(occ.quad.remote)).or_default();
            st.live = st.live.saturating_sub(1);
            st.free.push(occ.quad.local.port);
        }
    }

    /// Live connection quads on `port`, ascending — the schedule-visible
    /// order role changes walk connections in.
    fn quads_on_port(&self, port: u16) -> Vec<Quad> {
        let mut quads: Vec<Quad> = self
            .slots
            .iter()
            .filter_map(|s| s.occ.as_ref().map(|o| o.quad))
            .filter(|q| q.local.port == port)
            .collect();
        quads.sort_unstable();
        quads
    }

    fn push_timer(&mut self, time: SimTime, payload: StackTimer) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(TimerEntry { time, seq, payload });
        self.deadline_index.push(TimerEntry { time, seq, payload });
    }

    /// Whether a filed timer entry still refers to a current deadline.
    /// Both the wheel and the deadline index hold superseded entries;
    /// this is the shared lazy-invalidation test.
    fn timer_is_live(&self, e: &TimerEntry<StackTimer>) -> bool {
        match e.payload {
            StackTimer::Conn { slot, gen } => self
                .slots
                .get(slot as usize)
                .filter(|s| s.gen == gen)
                .and_then(|s| s.occ.as_ref())
                .is_some_and(|o| o.armed == Some(e.time)),
            StackTimer::AckFlush => self.ackchan_flush_at == Some(e.time),
        }
    }

    /// Re-files the connection's wheel entry if its deadline changed since
    /// last armed. The superseded entry (if any) is left in the wheel and
    /// dies as stale on pop.
    fn arm_conn_timer(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        let gen = s.gen;
        let Some(occ) = s.occ.as_mut() else {
            return;
        };
        let Some(entry) = occ.entry.as_ref() else {
            return;
        };
        let next = entry.conn.next_deadline();
        if next == occ.armed {
            return;
        }
        occ.armed = next;
        if let Some(t) = next {
            self.push_timer(t, StackTimer::Conn { slot, gen });
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Allocates an ephemeral port such that `(local, remote)` is not a
    /// live connection. The cursor hands out ports sequentially (wrapping
    /// at the top of the range); when it lands on a held port the
    /// per-remote recycle list — ports returned by closed connections —
    /// answers in `O(1)` instead of probing onward. Exhaustion is detected
    /// up front from the per-remote live count. A quad still parked in the
    /// table but fully `Closed` does not pin its port: the stale entry is
    /// reaped and the port recycled.
    fn alloc_ephemeral(&mut self, remote: SockAddr) -> Result<u16, EphemeralPortsExhausted> {
        let (lo, hi) = self.ephemeral_range;
        let span = u32::from(hi - lo) + 1;
        if self
            .eph
            .get(&eph_key(remote))
            .is_some_and(|st| st.live >= span)
        {
            return Err(EphemeralPortsExhausted { remote });
        }
        for _ in 0..span {
            let port = self.next_ephemeral;
            self.next_ephemeral = if port >= hi { lo } else { port + 1 };
            let quad = Quad::new(SockAddr::new(self.addrs[0], port), remote);
            match self.lookup_slot(quad) {
                None => return Ok(port),
                Some(slot) => {
                    let closed = self.slots[slot as usize]
                        .occ
                        .as_ref()
                        .and_then(|o| o.entry.as_ref())
                        .is_some_and(|e| e.conn.state() == TcpState::Closed);
                    if closed {
                        self.free_slot(slot);
                        return Ok(port);
                    }
                    // Held by a live connection: try the recycle list
                    // before walking the cursor onward.
                    if let Some(p) = self.pop_recycled(remote) {
                        return Ok(p);
                    }
                }
            }
        }
        Err(EphemeralPortsExhausted { remote })
    }

    /// Pops a recycled port for `remote`, discarding entries invalidated
    /// by cursor reuse or a range change. Each stale entry is discarded at
    /// most once, so the amortised cost is `O(1)`.
    fn pop_recycled(&mut self, remote: SockAddr) -> Option<u16> {
        let (lo, hi) = self.ephemeral_range;
        loop {
            let p = self.eph.get_mut(&eph_key(remote))?.free.pop()?;
            if !(lo..=hi).contains(&p) {
                continue;
            }
            let quad = Quad::new(SockAddr::new(self.addrs[0], p), remote);
            if self.lookup_slot(quad).is_none() {
                self.stats.ports_recycled += 1;
                return Some(p);
            }
        }
    }

    fn handle_tcp(&mut self, src: IpAddr, dst: IpAddr, seg: TcpSegment, now: SimTime) {
        self.stats.tcp_rx += 1;
        let quad = Quad::new(
            SockAddr::new(dst, seg.dst_port),
            SockAddr::new(src, seg.src_port),
        );
        if self.obs.tracing_enabled() {
            // The decoded segment's payload is a view of the received
            // packet, so it carries the sender's lineage id: record it on
            // the connection span. On a wedged connection the last such
            // note names the final packet that made causal progress.
            self.obs.span_note(
                &format!("conn:{quad}"),
                now.as_nanos(),
                "last_rx_lineage",
                format!("{:#x} seq={}", seg.payload.lineage(), seg.seq.raw()),
            );
        }
        if let Some((slot, mut entry)) = self.take_conn(quad) {
            entry.conn.on_segment(seg, now);
            self.stats.fastpath_misses += 1;
            self.finish_entry(Some(slot), entry, now);
            return;
        }
        // New connection?
        if seg.flags.syn && !seg.flags.ack && self.listeners.contains_key(&seg.dst_port) {
            let replication = self.replicated.get(&seg.dst_port).cloned();
            let iss = deterministic_iss(quad);
            let gated = replication
                .as_ref()
                .is_some_and(ReplicatedPortConfig::gated);
            let conn_cfg = if replication.is_some() {
                Rc::clone(&self.replica_cfg)
            } else {
                Rc::clone(&self.cfg)
            };
            let mut conn =
                Connection::accept_replicated(quad, conn_cfg, iss, &seg, now, gated, gated);
            conn.set_telemetry(self.conn_telemetry.clone());
            self.span_conn_open(quad, if gated { "accept-gated" } else { "accept" }, now);
            let app = self
                .listeners
                .get_mut(&seg.dst_port)
                .expect("listener checked above")(quad);
            let detector = replication.as_ref().map(|r| {
                let mut d = FailureDetector::new(r.detector);
                d.set_obs(self.obs.clone(), quad);
                d
            });
            let entry = Box::new(ConnEntry {
                conn,
                app,
                detector,
            });
            self.finish_entry(None, entry, now);
            return;
        }
        // No socket. A replica that (re)joined a chain after a connection
        // was established does not know that connection; it must stay
        // silent rather than reset it (per-connection state transfer on
        // re-commissioning is the paper's declared future work, §6).
        if self.replicated.contains_key(&seg.dst_port) {
            return;
        }
        // Otherwise: answer with RST (unless the stray segment is itself a
        // RST).
        if !seg.flags.rst {
            self.stats.rst_sent += 1;
            let rst = TcpSegment {
                src_port: quad.local.port,
                dst_port: quad.remote.port,
                seq: if seg.flags.ack {
                    seg.ack
                } else {
                    crate::seq::SeqNum::new(0)
                },
                ack: seg.seq_end(),
                flags: TcpFlags {
                    rst: true,
                    ack: true,
                    ..TcpFlags::default()
                },
                window: 0,
                payload: PacketBuf::new(),
            };
            self.push_packet(
                quad.local.addr,
                quad.remote.addr,
                Protocol::TCP,
                rst.encode(),
            );
        }
    }

    fn handle_udp(&mut self, src: IpAddr, dst: IpAddr, dgram: UdpDatagram, now: SimTime) {
        self.stats.udp_rx += 1;
        if dgram.dst_port == ACK_CHANNEL_PORT {
            match AckChanMsg::decode_each(&dgram.payload, |msg| self.on_ack_chan(msg, now)) {
                Ok(_) => {}
                Err(_) => self.stats.dropped += 1,
            }
            return;
        }
        self.events.push(StackEvent::UdpDelivery {
            local: SockAddr::new(dst, dgram.dst_port),
            remote: SockAddr::new(src, dgram.src_port),
            payload: dgram.payload,
        });
    }

    /// Applies an ack-channel report from the chain successor: raises the
    /// matching connection's send gate (SEQ) and deposit gate (ACK).
    fn on_ack_chan(&mut self, msg: AckChanMsg, now: SimTime) {
        self.stats.ackchan_rx += 1;
        self.c_ackchan_rx.inc();
        if let Some((slot, mut entry)) = self.take_conn(msg.quad()) {
            entry.conn.raise_send_gate(msg.seq, now);
            entry.conn.raise_deposit_gate(msg.ack, now);
            self.finish_entry(Some(slot), entry, now);
        }
    }

    /// Common post-processing after any interaction with a connection:
    /// dispatch events to the application, route outgoing segments, reap it
    /// if closed, else park it in `slot` (`None`: a new slot) and re-arm.
    fn finish_entry(&mut self, slot: Option<u32>, mut entry: Box<ConnEntry>, now: SimTime) {
        let quad = entry.conn.quad();
        // Event/application loop: app actions may produce more events. The
        // iteration cap is a runaway-app backstop; hitting it is counted
        // rather than silently swallowed.
        let mut rounds = 0;
        // The scratch store is swapped into the connection each round, so
        // steady-state event dispatch recycles one allocation forever.
        let mut events = std::mem::take(&mut self.scratch_events);
        loop {
            rounds += 1;
            if rounds > 64 {
                self.stats.dropped += entry.conn.take_events().len() as u64;
                debug_assert!(false, "application event loop did not settle for {quad}");
                break;
            }
            entry.conn.take_events_into(&mut events);
            if events.is_empty() {
                break;
            }
            for &ev in events.iter() {
                match ev {
                    ConnEvent::Established => {
                        self.events.push(StackEvent::ConnEstablished(quad));
                        let mut io = SocketIo {
                            conn: &mut entry.conn,
                            now,
                        };
                        entry.app.on_established(&mut io);
                    }
                    ConnEvent::DataReadable => {
                        if let Some(d) = entry.detector.as_mut() {
                            d.on_progress(now);
                        }
                        let mut io = SocketIo {
                            conn: &mut entry.conn,
                            now,
                        };
                        entry.app.on_data(&mut io);
                    }
                    ConnEvent::SendSpace => {
                        let mut io = SocketIo {
                            conn: &mut entry.conn,
                            now,
                        };
                        entry.app.on_send_space(&mut io);
                    }
                    ConnEvent::PeerFin => {
                        let mut io = SocketIo {
                            conn: &mut entry.conn,
                            now,
                        };
                        entry.app.on_peer_fin(&mut io);
                    }
                    ConnEvent::Reset => {
                        entry.app.on_reset(quad);
                        self.events.push(StackEvent::ConnClosed(quad));
                    }
                    ConnEvent::Closed => {
                        entry.app.on_closed(quad);
                        self.events.push(StackEvent::ConnClosed(quad));
                    }
                    ConnEvent::AckProgress => {
                        if let Some(d) = entry.detector.as_mut() {
                            d.on_progress(now);
                        }
                    }
                    ConnEvent::DuplicateData
                    | ConnEvent::RetransmitTimeout
                    | ConnEvent::GateStarved => {
                        // The three §4.3 broken-loop signals feed one
                        // suspicion counter: a duplicate segment (the
                        // client retransmitted, so the primary stopped
                        // delivering); a retransmission timeout on our own
                        // data (for a replica, usually the primary that
                        // delivers the stream to the client is gone); and
                        // a send gate starved for a full RTO (the chain
                        // successor stopped reporting progress — the only
                        // client-invisible failure mode, since a dead tail
                        // leaves every client byte acknowledged and no
                        // retransmission ever reaches the estimator).
                        if let Some(d) = entry.detector.as_mut() {
                            if d.on_duplicate(now) {
                                self.events.push(StackEvent::FailureSuspected {
                                    port: quad.local.port,
                                    quad,
                                    observed: d.duplicates_total(),
                                });
                            }
                        }
                    }
                }
            }
        }
        self.scratch_events = events;
        // Route outgoing segments (same scratch-recycling discipline).
        let mut segments = std::mem::take(&mut self.scratch_segments);
        entry.conn.take_segments_into(&mut segments);
        if !segments.is_empty() {
            let divert = self
                .replicated
                .get(&quad.local.port)
                .filter(|r| r.diverts_output())
                .map(|r| r.predecessor);
            for seg in segments.drain(..) {
                match divert {
                    Some(Some(pred)) => {
                        // Backup: strip to (SEQ, ACK) and forward along the
                        // acknowledgement channel; discard the contents
                        // (§4.3).
                        let msg = AckChanMsg {
                            client: quad.remote,
                            service: quad.local,
                            seq: seg.seq_end(),
                            ack: seg.ack,
                        };
                        let control = seg.flags.syn || seg.flags.fin || seg.flags.rst;
                        self.queue_ack_report(quad, pred, msg, control, now);
                    }
                    Some(None) => {
                        // Backup with no predecessor configured yet: the
                        // report has nowhere to go; drop it (the management
                        // protocol will re-chain shortly).
                        self.stats.dropped += 1;
                    }
                    None => {
                        self.push_packet(
                            quad.local.addr,
                            quad.remote.addr,
                            Protocol::TCP,
                            seg.encode(),
                        );
                    }
                }
            }
        }
        self.scratch_segments = segments;
        if entry.conn.state() == TcpState::Closed {
            // Reaped; events already delivered.
            if let Some(slot) = slot {
                self.free_slot(slot);
            }
            if self.obs.tracing_enabled() {
                let key = format!("conn:{quad}");
                self.obs
                    .span_note(&key, now.as_nanos(), "final", entry.conn.span_summary());
                self.obs.span_close(&key, now.as_nanos());
            }
            return;
        }
        let slot = match slot {
            Some(s) => {
                let occ = self.slots[s as usize].occ.as_mut();
                occ.expect("checked-out slot is occupied").entry = Some(entry);
                s
            }
            None => self.insert_conn(quad, entry),
        };
        self.arm_conn_timer(slot);
    }

    /// Opens the lifecycle span of connection `quad` (no-op when tracing
    /// is off). `how` distinguishes active opens from (gated) accepts.
    fn span_conn_open(&mut self, quad: Quad, how: &str, now: SimTime) {
        if !self.obs.tracing_enabled() {
            return;
        }
        let key = format!("conn:{quad}");
        self.obs
            .span_open(&key, "conn", &quad.to_string(), None, now.as_nanos());
        self.obs
            .span_note(&key, now.as_nanos(), "open", how.to_string());
    }

    /// Accepts one diverted (SEQ, ACK) report for the ack channel. In the
    /// paper's protocol (§4.2) every report is its own datagram; here
    /// reports accumulate — latest per connection — and a short flush timer
    /// (well under the RTO floor) coalesces them into one batched datagram.
    /// The predecessor's gates see the same final values at nearly the same
    /// time, but the per-segment storm of duplicate reports from a gated
    /// replica collapses to one pair per flush window.
    ///
    /// Flushes immediately when the report carries connection-lifecycle
    /// state (SYN/FIN/RST segments — handshakes must not wait), when the
    /// batch reaches `ackchan_max_pairs`, or — `ackchan_flush_delay` of
    /// zero — always (the paper's per-segment behaviour, used as the
    /// reference arm in equivalence tests).
    ///
    /// The flush timer rides the stack's timer wheel like any connection
    /// deadline; `ackchan_flush_at` stays authoritative and orphaned wheel
    /// entries die as stale.
    fn queue_ack_report(
        &mut self,
        quad: Quad,
        pred: IpAddr,
        msg: AckChanMsg,
        control: bool,
        now: SimTime,
    ) {
        let delay = self.cfg.ackchan_flush_delay;
        if delay == SimDuration::ZERO {
            self.send_ack_batch(quad.local.addr, pred, &[msg], now);
            return;
        }
        if self.ackchan_pending.insert(quad, msg).is_some() {
            self.stats.ackchan_coalesced += 1;
        }
        if control || self.ackchan_pending.len() >= self.cfg.ackchan_max_pairs.max(1) {
            self.flush_ackchan(now);
        } else if self.ackchan_flush_at.is_none() {
            let at = now + delay;
            self.ackchan_flush_at = Some(at);
            self.push_timer(at, StackTimer::AckFlush);
        }
    }

    /// Sends every pending ack-channel report, coalescing runs of
    /// consecutive connections that share a (local address, predecessor)
    /// pair into single batched datagrams. The predecessor is resolved
    /// *now*, not at queue time: if the chain was reconfigured while a
    /// report waited (promotion, re-chaining), the stale report is dropped
    /// exactly as `Some(None)` diversion drops it.
    fn flush_ackchan(&mut self, now: SimTime) {
        self.ackchan_flush_at = None;
        if self.ackchan_pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.ackchan_pending);
        let mut batch: Vec<AckChanMsg> = Vec::new();
        let mut dest: Option<(IpAddr, IpAddr)> = None;
        for (quad, msg) in pending {
            let pred = self
                .replicated
                .get(&quad.local.port)
                .filter(|r| r.diverts_output())
                .and_then(|r| r.predecessor);
            let Some(pred) = pred else {
                self.stats.dropped += 1;
                continue;
            };
            let key = (quad.local.addr, pred);
            if dest != Some(key) || batch.len() >= ACK_CHAN_MAX_PAIRS {
                if let Some((src, to)) = dest {
                    self.send_ack_batch(src, to, &batch, now);
                }
                batch.clear();
                dest = Some(key);
            }
            batch.push(msg);
        }
        if let Some((src, to)) = dest {
            self.send_ack_batch(src, to, &batch, now);
        }
    }

    /// Encodes `batch` as one ack-channel datagram — single-pair wire
    /// format when the batch has one report, the multi-pair format
    /// otherwise — built in place in the packet buffer, and queues it.
    fn send_ack_batch(&mut self, src: IpAddr, pred: IpAddr, batch: &[AckChanMsg], now: SimTime) {
        debug_assert!(!batch.is_empty() && batch.len() <= ACK_CHAN_MAX_PAIRS);
        self.stats.ackchan_tx += batch.len() as u64;
        self.c_ackchan_tx.add(batch.len() as u64);
        self.h_ackchan_pairs.record(batch.len() as u64);
        let mut wire = Vec::with_capacity(UDP_HEADER_LEN + 2 + batch.len() * ACK_CHAN_PAIR_LEN);
        UdpDatagram::encode_with(ACK_CHANNEL_PORT, ACK_CHANNEL_PORT, &mut wire, |p| {
            if let [single] = batch {
                single.encode_into(p);
            } else {
                AckChanMsg::encode_batch_into(batch, p);
            }
        });
        self.push_packet(src, pred, Protocol::UDP, wire);
        if self.obs.tracing_enabled() {
            // An instantaneous flush span: pair count, each report, and the
            // lineage id `push_packet` just minted for the batch datagram.
            let at = now.as_nanos();
            let key = format!("ackchan:{src}->{pred}");
            self.obs
                .span_open(&key, "ackchan", &format!("flush {src}->{pred}"), None, at);
            self.obs
                .span_note(&key, at, "pairs", batch.len().to_string());
            for msg in batch {
                self.obs.span_note(&key, at, "pair", msg.brief());
            }
            let lineage = self.out.last().map_or(0, |p| p.payload.lineage());
            self.obs
                .span_note(&key, at, "lineage", format!("{lineage:#x}"));
            self.obs.span_close(&key, at);
        }
    }

    fn push_packet(
        &mut self,
        src: IpAddr,
        dst: IpAddr,
        proto: Protocol,
        payload: impl Into<PacketBuf>,
    ) {
        let mut packet = IpPacket::new(src, dst, proto, payload);
        packet.header.id = self.ip_id;
        self.ip_id = self.ip_id.wrapping_add(1);
        // Mint a lineage id at the packet's first encode. Payloads that
        // already carry one (e.g. forwarded views of a received packet)
        // keep their original id so the trace follows the end-to-end send.
        if packet.payload.lineage() == 0 {
            self.lineage_counter = self.lineage_counter.wrapping_add(1);
            let id = (u64::from(self.addrs[0].to_bits()) << 32) | u64::from(self.lineage_counter);
            packet.payload.set_lineage(id);
        }
        self.out.push(packet);
    }
}
