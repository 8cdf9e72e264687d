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
//! Connection state lives in a slab (`Vec` of recycled slots, each the
//! parked connection's box) demultiplexed through a flat integer-hashed
//! table keyed by the whole quad packed into 12 bytes (`DemuxKey`), and
//! each connection's earliest deadline is one entry in a per-stack indexed
//! min-heap, moved in place whenever it changes.
//! Segment demux costs `O(1)`, [`TcpStack::next_deadline`] `O(1)`, and
//! [`TcpStack::on_timer`] `O(due · log n)` — never
//! `O(#connections)`. Everywhere iteration order is schedule-visible
//! (timer processing, port re-gearing, ack-channel flushes) connections
//! are visited in ascending `Quad` order, exactly as the former
//! `BTreeMap<Quad, _>` table visited them, so the refactor is
//! schedule-invisible: pinned fingerprints do not move.

use std::collections::BTreeMap;

use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::frag::Reassembler;
use hydranet_netsim::hash::IntMap;
use hydranet_netsim::packet::{DecodeError, IpAddr, IpPacket, Protocol, IP_HEADER_LEN};
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_obs::metrics::Histogram;
use hydranet_obs::{trace, Obs};

use crate::conn::{ConnEvent, ConnQueues, ConnTelemetry, Connection, TcpConfig, TcpState};
use crate::deadlines::Deadlines;
use crate::detector::FailureDetector;
use crate::ft::{
    deterministic_iss, AckChanMsg, ReplicatedPortConfig, ACK_CHANNEL_PORT, ACK_CHAN_MAX_PAIRS,
};
use crate::segment::{Quad, SockAddr, TcpFlags, TcpSegment, TCP_HEADER_LEN};
use crate::udp::{UdpDatagram, UDP_HEADER_LEN};

/// How long a backup may hold diverted `(SEQ, ACK)` reports before
/// flushing them as one ack-channel datagram. Same discipline as the
/// delayed-ACK hold, much tighter: a held report delays the predecessor's
/// gates, and those stack per chain stage on the client's ACK path. 4 ms is
/// 50x under the RTO floor, so a full chain of flush holds can never race a
/// retransmission timer.
const ACKCHAN_FLUSH_DELAY: SimDuration = SimDuration::from_millis(4);

/// Pending ack-channel reports (one per connection) that force a flush
/// before the flush timer: a full batch gains nothing by waiting.
const ACKCHAN_FLUSH_PAIRS: usize = 32;

// A flush never holds more pairs than one frame carries, so every run of
// reports bound for one predecessor fits one datagram.
const _: () = assert!(ACKCHAN_FLUSH_PAIRS <= ACK_CHAN_MAX_PAIRS);

/// The largest MSS whose segment still fits one IP datagram: a larger
/// payload overflows the 16-bit length fields of both headers.
const MAX_MSS: usize = u16::MAX as usize - IP_HEADER_LEN - TCP_HEADER_LEN;

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

/// The application's handle to its connection during a callback: the
/// connection and the stack's queues its output goes to.
#[derive(Debug)]
pub struct SocketIo<'a> {
    conn: &'a mut Connection,
    q: &'a mut ConnQueues,
    now: SimTime,
}

impl<'a> SocketIo<'a> {
    /// Appends everything readable to `out` and returns how many bytes
    /// that was: each byte is copied once, from the packet it arrived in,
    /// into room `out` grows once and nothing zero-fills.
    pub fn read_to_end(&mut self, out: &mut Vec<u8>) -> usize {
        self.conn.read(out, usize::MAX, self.q)
    }

    /// Reads up to `max` bytes of in-order data into a new vector.
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.conn.read(&mut out, max, self.q);
        out
    }

    /// Reads everything currently available into a new vector.
    pub fn read_all(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.read_to_end(&mut out);
        out
    }

    /// Writes data; returns the number of bytes accepted.
    pub fn write(&mut self, data: &[u8]) -> usize {
        self.conn.write(data, self.now, self.q)
    }

    /// Initiates a graceful close.
    pub fn close(&mut self) {
        self.conn.close(self.now, self.q);
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
        self.conn.send_room(self.q)
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
        /// Datagram payload: a view of the packet it arrived in.
        payload: PacketBuf,
    },
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
    /// Packets dropped (bad decode, unknown address, a tunnel inside a
    /// tunnel; includes corrupt).
    pub dropped: u64,
    /// TCP segments and UDP datagrams rejected by their checksum —
    /// in-flight corruption. Counted separately from framing errors so
    /// corruption injection is observable, and never delivered, so the
    /// duplicate-segment failure detector cannot see corrupt segments.
    pub rx_corrupt: u64,
    /// RSTs emitted for segments with no matching socket.
    pub rst_sent: u64,
    /// Ack-channel (SEQ, ACK) pairs put on the wire (backup output
    /// diversion). Coalesced duplicates never count here — in a loss-free
    /// run this equals the predecessor's `ackchan_rx`.
    pub ackchan_tx: u64,
    /// Ack-channel pairs superseded in the pending batch before a flush
    /// (a fresher report for the same connection overwrote them). Each one
    /// is a report the paper's §4.2 protocol would have sent in a datagram
    /// of its own.
    pub ackchan_coalesced: u64,
    /// Ack-channel pairs received and applied.
    pub ackchan_rx: u64,
    /// IP-in-IP tunnelled packets decapsulated.
    pub decapsulated: u64,
    /// Always 0, kept only because the frozen `benchmark/` harness reads it.
    pub fastpath_hits: u64,
    /// Segments handed to an existing connection; the name is kept only
    /// because the frozen `benchmark/` harness reads it.
    pub fastpath_misses: u64,
}

struct ConnEntry {
    conn: Connection,
    app: Box<dyn SocketApp>,
    /// The failure estimator of a watched connection (see
    /// [`Connection::is_watched`]), built at its first broken-loop signal:
    /// most replicated connections never see one, so they pay 8 B for the
    /// pointer rather than a detector each.
    detector: Option<Box<FailureDetector>>,
}

/// One slab slot: the parked connection, or `None` while the slot is free
/// or its connection is checked out for processing. Boxed so the
/// check-out/check-in dance per segment moves one pointer, not the whole
/// multi-hundred-byte connection, and so a slot is one pointer. The quad
/// lives in the connection and the deadline in the stack's heap, so the
/// slot repeats neither.
type ConnSlot = Option<Box<ConnEntry>>;

/// The demux key: a quad's 96 bits as `[remote addr, local addr, remote
/// port << 16 | local port]`. Its bucket in the demux table is 16 B where a
/// `u128` key ([`Quad::key`], which trace ids keep) made it 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DemuxKey([u32; 3]);

impl DemuxKey {
    fn of(quad: Quad) -> Self {
        let ports = u32::from(quad.remote.port) << 16 | u32::from(quad.local.port);
        DemuxKey([quad.remote.addr.to_bits(), quad.local.addr.to_bits(), ports])
    }
}

impl std::hash::Hash for DemuxKey {
    /// Two integer writes, one multiply each: the addresses as one `u64`,
    /// then the ports. `IntHasher`'s final fold brings the first word's
    /// high half (the local address) down to the bucket index, and
    /// `demux_key_distinguishes_every_quad_field` checks that flows spread.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let [remote, local, ports] = self.0;
        state.write_u64(u64::from(local) << 32 | u64::from(remote));
        state.write_u32(ports);
    }
}

// `conn_memory_bytes` charges `size_of::<ConnEntry>()` per parked
// connection and the `PINNED_SCALE` fingerprint covers that charge, so any
// change to the record moves the pin. The many-flow runs also pay it once
// per live connection per replica, 60,002 records at `flows_20k`'s peak,
// but peak RSS moves in steps of the allocator's chunk, not per byte:
// glibc rounds the box plus its 8 B header up to a multiple of 16 B, so
// every record of 353 to 360 B, this one included, takes a 368 B chunk.
// Each 16 B step is about 0.9 MiB of `flows_20k` peak RSS, and a cut that
// stays within one step moves none (the 424 → 416 B cut left
// `peak_rss_mib` unmoved, both in a 432 B chunk). The `Connection` inside
// the record is pinned too, so a size change names the type that moved.
// The slab slot and the demux bucket are charged per slot and per bucket
// likewise.
const _: () = assert!(std::mem::size_of::<ConnEntry>() == 360);
const _: () = assert!(std::mem::size_of::<Connection>() == 336);
const _: () = assert!(std::mem::size_of::<ConnSlot>() == 8);
const _: () = assert!(std::mem::size_of::<(DemuxKey, u32)>() == 16);

type AppFactory = Box<dyn FnMut(Quad) -> Box<dyn SocketApp>>;

/// The per-host TCP/UDP protocol engine.
pub struct TcpStack {
    addrs: Vec<IpAddr>,
    // Listener and replicated-port tables stay BTree: they are small,
    // iterated rarely, and their order is schedule-visible.
    listeners: BTreeMap<u16, AppFactory>,
    replicated: BTreeMap<u16, ReplicatedPortConfig>,
    /// Connection slab: slots are recycled through `free_slots`.
    slots: Vec<ConnSlot>,
    free_slots: Vec<u32>,
    /// Flat demux table: [`DemuxKey`] → slab slot.
    demux: IntMap<DemuxKey, u32>,
    live_conns: usize,
    /// Exactly one entry per connection with a deadline, keyed by slot.
    /// The ack-channel flush deadline is `ackchan_flush_at`, not an entry.
    deadlines: Deadlines,
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
    /// The configuration and telemetry every connection shares, and the
    /// queues every connection call writes its segments and events into;
    /// `finish_entry` drains both before the connection parks, so they are
    /// empty between calls. No connection holds a queue, and steady-state
    /// segment processing allocates none.
    queues: ConnQueues,
    /// The event vector `finish_entry`'s drain loop trades with
    /// `queues.events` each round, recycled likewise.
    scratch_events: Vec<ConnEvent>,
    /// Due `(quad, slot)` pairs of one `on_timer` call, recycled likewise.
    scratch_due: Vec<(Quad, u32)>,
    /// One datagram's run of ack-channel reports, recycled across flushes.
    scratch_batch: Vec<AckChanMsg>,
    obs: Obs,
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
    /// Bytes of one parked connection's record: its state machine,
    /// application handle and failure-detector pointer, before the heap
    /// behind its buffers and detector. [`TcpStack::conn_memory_bytes`]
    /// charges it per connection.
    pub const CONN_RECORD_BYTES: usize = std::mem::size_of::<ConnEntry>();

    /// Creates a stack owning `addr`, with `cfg` as the configuration of
    /// every connection it opens or accepts.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.mss` is 0 or larger than 65,495 (the payload of a
    /// full-size IP datagram), or if `cfg.recv_buf` exceeds `u32::MAX`.
    pub fn new(addr: IpAddr, cfg: TcpConfig) -> Self {
        assert!(cfg.mss > 0, "TcpConfig::mss must be at least 1");
        assert!(
            cfg.mss <= MAX_MSS,
            "TcpConfig::mss {} exceeds {MAX_MSS}",
            cfg.mss
        );
        assert!(
            u32::try_from(cfg.recv_buf).is_ok(),
            "TcpConfig::recv_buf {} exceeds u32::MAX",
            cfg.recv_buf
        );
        TcpStack {
            addrs: vec![addr],
            listeners: BTreeMap::new(),
            replicated: BTreeMap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            demux: IntMap::default(),
            live_conns: 0,
            deadlines: Deadlines::default(),
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
            queues: ConnQueues::new(cfg),
            scratch_events: Vec::new(),
            scratch_batch: Vec::new(),
            scratch_due: Vec::new(),
            obs: Obs::disabled(),
            h_ackchan_pairs: Histogram::default(),
        }
    }

    /// Wires telemetry for this stack and its connections, live ones
    /// included from their next call: the ack-channel batch-size histogram
    /// under `tcp.stack.<addr>.*`, the connections' srtt/rto/cwnd/gate-stall
    /// histograms and duplicate counter aggregated under
    /// `tcp.stack.<addr>.conn.*` (one set per stack, whatever the
    /// connection count), and detector timeline events.
    pub fn set_obs(&mut self, obs: Obs) {
        let scope = format!("tcp.stack.{}", self.addrs[0]);
        self.h_ackchan_pairs = obs.histogram(&format!("{scope}.ackchan.pairs_per_datagram"));
        self.queues.telemetry = ConnTelemetry::new(&obs, &scope);
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
    /// Re-gearing covers the failure estimator: a connection builds its
    /// detector at its first broken-loop signal, from the port's
    /// parameters in force then, so new `DetectorParams` reach every
    /// connection that has seen none yet. A detector already built keeps
    /// its parameters and is only unlatched.
    pub fn setportopt(&mut self, port: u16, config: ReplicatedPortConfig, now: SimTime) {
        let gated = config.has_successor;
        let promoted = config.predecessor.is_none();
        self.replicated.insert(port, config);
        for quad in self.parked_quads(|q| q.local.port == port) {
            let Some((slot, mut entry)) = self.take_conn(quad) else {
                continue;
            };
            // Role changes only ever *loosen* gates on existing
            // connections. Tightening would make them wait on a successor
            // that has no per-connection state for them (a freshly joined
            // backup); connection-state transfer on re-commissioning is
            // future work in the paper (§6), so live connections are
            // grandfathered with their current chain discipline.
            let q = &mut self.queues;
            if !gated {
                entry.conn.open_gate(now, q);
            }
            if promoted {
                entry.conn.kick(now, q);
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
        let conn = Connection::connect(quad, iss, now, &mut self.queues);
        self.span_conn_open(quad, "connect", now);
        let entry = ConnEntry {
            conn,
            app,
            detector: None,
        };
        self.finish_entry(None, Box::new(entry), now);
        Ok(quad)
    }

    /// Restricts the ephemeral-port range to `lo..=hi` (default
    /// `40_000..=65_535`) and resets the allocation cursor. Mainly for
    /// tests exercising port exhaustion without tens of thousands of
    /// connections.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn set_ephemeral_range(&mut self, lo: u16, hi: u16) {
        assert!(lo <= hi, "empty ephemeral range");
        self.ephemeral_range = (lo, hi);
        self.next_ephemeral = lo;
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
        self.deadlines = Deadlines::default();
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
        self.slots[slot as usize].as_ref().map(|e| &e.conn)
    }

    /// Iterates over the quads of live connections, in ascending order.
    pub fn quads(&self) -> impl Iterator<Item = Quad> + '_ {
        self.parked_quads(|_| true).into_iter()
    }

    /// Approximate heap footprint of per-connection state in bytes: the
    /// slab, the demux table, and every parked connection — its record
    /// once, plus the heap behind its socket buffers and, once built, its
    /// failure detector's box and recent-duplicate list. Deterministic — it
    /// depends only on the schedule — so scale benches can report per-flow
    /// memory without reading RSS.
    pub fn conn_memory_bytes(&self) -> usize {
        let mut total = self.slots.capacity() * std::mem::size_of::<ConnSlot>()
            + self.free_slots.capacity() * std::mem::size_of::<u32>()
            + self.demux.capacity() * std::mem::size_of::<(DemuxKey, u32)>();
        for entry in self.slots.iter().flatten() {
            total += std::mem::size_of::<ConnEntry>() + entry.conn.heap_bytes();
            if let Some(d) = &entry.detector {
                total += std::mem::size_of::<FailureDetector>() + d.heap_bytes();
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
        let result = f(&mut SocketIo {
            conn: &mut entry.conn,
            q: &mut self.queues,
            now,
        });
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
        let datagram = UdpDatagram::encode_parts(src.port, dst.port, &payload);
        self.push_packet(src.addr, dst.addr, Protocol::UDP, datagram);
    }

    /// Feeds one incoming IP packet (fragments are reassembled internally;
    /// one layer of IP-in-IP tunnelling from a redirector is decapsulated).
    pub fn handle_packet(&mut self, packet: IpPacket, now: SimTime) {
        let Some(packet) = self.reassembler.push(now, packet) else {
            return;
        };
        self.handle_assembled(packet, now);
    }

    fn handle_assembled(&mut self, packet: IpPacket, now: SimTime) {
        match packet.protocol() {
            Protocol::IP_IN_IP => match IpPacket::decode(&packet.payload) {
                // Tunnelled packets address the virtual host; the
                // reassembler keyed the outer packet, the inner one may
                // itself be fragmented end-to-end. Redirectors tunnel once,
                // so a second layer is dropped rather than unwrapped.
                Ok(inner) if inner.protocol() != Protocol::IP_IN_IP => {
                    self.stats.decapsulated += 1;
                    self.handle_packet(inner, now);
                }
                _ => self.stats.dropped += 1,
            },
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
        }
    }

    /// Advances all due connection timers to `now`.
    ///
    /// Cost is `O(due · log n)`, not `O(#connections)`: the due entries
    /// are popped off the deadline heap, and their connections are then
    /// ticked in ascending quad order — the exact set and order the former
    /// full scan produced, since every connection's heap entry sits at its
    /// current `next_deadline()` at all times.
    pub fn on_timer(&mut self, now: SimTime) {
        let mut due = std::mem::take(&mut self.scratch_due);
        while let Some(slot) = self.deadlines.pop_due(now) {
            // The entry is consumed; `finish_entry` re-arms from the
            // connection's post-tick deadline.
            if let Some(entry) = &self.slots[slot as usize] {
                due.push((entry.conn.quad(), slot));
            }
        }
        due.sort_unstable();
        for &(_, slot) in &due {
            if let Some(mut entry) = self.slots[slot as usize].take() {
                entry.conn.on_tick(now, &mut self.queues);
                self.finish_entry(Some(slot), entry, now);
            }
        }
        due.clear();
        self.scratch_due = due;
        // After connection ticks: their output may have queued more pairs,
        // which ride along with a due flush instead of re-arming the timer.
        if self.ackchan_flush_at.is_some_and(|t| t <= now) {
            self.flush_ackchan(now);
        }
    }

    /// The earliest timer deadline across all connections, including a
    /// pending ack-channel flush. `O(1)`: the deadline heap's root and
    /// `ackchan_flush_at`.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let conns = self.deadlines.peek();
        conns.into_iter().chain(self.ackchan_flush_at).min()
    }

    /// Drains queued outgoing IP packets.
    pub fn take_packets(&mut self) -> Vec<IpPacket> {
        std::mem::take(&mut self.out)
    }

    /// Drains queued outgoing IP packets into `buf` (cleared first) by
    /// swapping buffers, so the stack keeps the caller's old allocation as
    /// its next queue and no fresh `Vec` is grown per flush. For a caller
    /// that holds the packets across further calls into the stack (the
    /// frozen `benchmark/` ladder); hosts drain in place
    /// ([`TcpStack::drain_packets`]) and keep no second vector.
    pub fn take_packets_into(&mut self, buf: &mut Vec<IpPacket>) {
        buf.clear();
        std::mem::swap(buf, &mut self.out);
    }

    /// Drains queued outgoing IP packets in place: the stack keeps its one
    /// queue's allocation, so the caller needs no buffer of its own. The
    /// stack must not be fed while the drain is alive (the borrow checker
    /// sees to that).
    pub fn drain_packets(&mut self) -> std::vec::Drain<'_, IpPacket> {
        self.out.drain(..)
    }

    /// Drains queued stack events in place, as
    /// [`TcpStack::drain_packets`] drains packets.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, StackEvent> {
        self.events.drain(..)
    }

    // ------------------------------------------------------------------
    // Slab internals
    // ------------------------------------------------------------------

    fn lookup_slot(&self, quad: Quad) -> Option<u32> {
        self.demux.get(&DemuxKey::of(quad)).copied()
    }

    /// Checks out a parked connection and names its slot. The slot stays
    /// taken (its quad remains in demux, the slot off the free list) until
    /// `finish_entry`, handed the slot back, parks the connection again or
    /// reaps it.
    fn take_conn(&mut self, quad: Quad) -> Option<(u32, Box<ConnEntry>)> {
        let slot = self.lookup_slot(quad)?;
        Some((slot, self.slots[slot as usize].take()?))
    }

    /// Parks a new connection in a free slot and links it into demux.
    fn insert_conn(&mut self, entry: Box<ConnEntry>) -> u32 {
        let key = DemuxKey::of(entry.conn.quad());
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(entry);
                s
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        };
        self.demux.insert(key, slot);
        self.live_conns += 1;
        slot
    }

    /// Frees the slot of checked-out connection `quad`: deadline
    /// withdrawn, demux unlinked.
    fn free_slot(&mut self, slot: u32, quad: Quad) {
        debug_assert!(self.slots[slot as usize].is_none(), "slot still parked");
        self.deadlines.set(slot, None);
        self.free_slots.push(slot);
        self.live_conns -= 1;
        self.demux.remove(&DemuxKey::of(quad));
    }

    /// Quads of the parked connections that `keep` accepts, ascending — the
    /// schedule-visible order role changes walk connections in.
    fn parked_quads(&self, keep: impl Fn(&Quad) -> bool) -> Vec<Quad> {
        let mut quads: Vec<Quad> = self
            .slots
            .iter()
            .flatten()
            .map(|e| e.conn.quad())
            .filter(keep)
            .collect();
        quads.sort_unstable();
        quads
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Allocates an ephemeral port such that `(local, remote)` is not a
    /// live connection: the cursor hands out ports sequentially (wrapping
    /// at the top of the range) and steps past held ones, giving up after
    /// one full lap.
    fn alloc_ephemeral(&mut self, remote: SockAddr) -> Result<u16, EphemeralPortsExhausted> {
        let (lo, hi) = self.ephemeral_range;
        for _ in lo..=hi {
            let port = self.next_ephemeral;
            self.next_ephemeral = if port >= hi { lo } else { port + 1 };
            let quad = Quad::new(SockAddr::new(self.addrs[0], port), remote);
            if self.lookup_slot(quad).is_none() {
                return Ok(port);
            }
        }
        Err(EphemeralPortsExhausted { remote })
    }

    fn handle_tcp(&mut self, src: IpAddr, dst: IpAddr, seg: TcpSegment, now: SimTime) {
        self.stats.tcp_rx += 1;
        let quad = Quad::new(
            SockAddr::new(dst, seg.dst_port),
            SockAddr::new(src, seg.src_port),
        );
        if self.obs.tracing_enabled() {
            // The decoded segment's payload is a view of the received
            // packet, so it carries the sender's lineage id: note it under
            // the connection's key, for every segment, before demux. On a
            // wedged connection the last such note names the final packet
            // that made causal progress.
            let lineage = format!("{:#x} seq={}", seg.payload.lineage(), seg.seq.raw());
            let note = [("last_rx_lineage", lineage)];
            self.obs
                .trace(now.as_nanos(), trace::NOTE, quad.key(), note);
        }
        if let Some((slot, mut entry)) = self.take_conn(quad) {
            entry.conn.on_segment(seg, now, &mut self.queues);
            self.stats.fastpath_misses += 1;
            self.finish_entry(Some(slot), entry, now);
            return;
        }
        // New connection?
        if seg.flags.syn && !seg.flags.ack && self.listeners.contains_key(&seg.dst_port) {
            let replication = self.replicated.get(&seg.dst_port).cloned();
            let iss = deterministic_iss(quad);
            let gated = replication.as_ref().is_some_and(|r| r.has_successor);
            // Replica connections forward their flow-control fields along
            // the ack channel the moment they would ack; delaying those
            // reports would stack a delayed-ack timer per chain stage onto
            // the client's ACK path and race its RTO.
            let q = &mut self.queues;
            let delayed_ack = q.cfg.delayed_ack && replication.is_none();
            let mut conn = Connection::accept(quad, iss, &seg, now, gated, delayed_ack, q);
            if replication.is_some() {
                conn.watch();
            }
            self.span_conn_open(quad, if gated { "accept-gated" } else { "accept" }, now);
            let app = self
                .listeners
                .get_mut(&seg.dst_port)
                .expect("listener checked above")(quad);
            let entry = ConnEntry {
                conn,
                app,
                detector: None,
            };
            self.finish_entry(None, Box::new(entry), now);
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
                rst.into_wire(),
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

    /// Applies an ack-channel report from the chain successor to the
    /// matching connection's gate: SEQ raises its send limit, ACK its
    /// deposit limit.
    fn on_ack_chan(&mut self, msg: AckChanMsg, now: SimTime) {
        self.stats.ackchan_rx += 1;
        if let Some((slot, mut entry)) = self.take_conn(msg.quad()) {
            let q = &mut self.queues;
            entry.conn.on_report(msg.seq, msg.ack, now, q);
            self.finish_entry(Some(slot), entry, now);
        }
    }

    /// Common post-processing after any interaction with a checked-out
    /// connection: dispatch the queued events to the application, route
    /// the queued segments, reap it if closed, else park it in `slot`
    /// (`None`: a new slot) and re-arm. Leaves both queues empty.
    fn finish_entry(&mut self, slot: Option<u32>, mut entry: Box<ConnEntry>, now: SimTime) {
        let quad = entry.conn.quad();
        // Event/application loop: app actions may produce more events. The
        // iteration cap is a runaway-app backstop; hitting it is counted
        // rather than silently swallowed.
        let mut rounds = 0;
        // Each round the event queue trades places with this one, so
        // callbacks queue into one vector while the loop walks the other.
        let mut events = std::mem::take(&mut self.scratch_events);
        loop {
            rounds += 1;
            events.clear();
            std::mem::swap(&mut events, &mut self.queues.events);
            if rounds > 64 {
                self.stats.dropped += events.len() as u64;
                events.clear();
                debug_assert!(false, "application event loop did not settle for {quad}");
                break;
            }
            if events.is_empty() {
                break;
            }
            for &ev in events.iter() {
                // The detector hears of progress before the application.
                if matches!(ev, ConnEvent::DataReadable | ConnEvent::AckProgress) {
                    if let Some(d) = entry.detector.as_mut() {
                        d.on_progress(now, &self.obs, quad);
                    }
                }
                let mut io = SocketIo {
                    conn: &mut entry.conn,
                    q: &mut self.queues,
                    now,
                };
                match ev {
                    ConnEvent::Established => entry.app.on_established(&mut io),
                    ConnEvent::DataReadable => entry.app.on_data(&mut io),
                    ConnEvent::SendSpace => entry.app.on_send_space(&mut io),
                    ConnEvent::PeerFin => entry.app.on_peer_fin(&mut io),
                    ConnEvent::Reset => entry.app.on_reset(quad),
                    ConnEvent::Closed => entry.app.on_closed(quad),
                    ConnEvent::AckProgress => {}
                    ConnEvent::BrokenLoop(signal) => {
                        // The §4.3 broken-loop signals feed one suspicion
                        // counter: a duplicate segment (the client
                        // retransmitted, so the primary stopped
                        // delivering); a retransmission timeout on our own
                        // data (for a replica, usually the primary that
                        // delivers the stream to the client is gone); and
                        // a send or deposit gate starved for a full RTO
                        // (the chain successor stopped reporting progress).
                        // Only the gates see a dead tail in bounded time:
                        // reply bytes held at the send gate are never
                        // transmitted, and client bytes held at the deposit
                        // gate reach the estimator as client duplicates
                        // only once the client's backed-off RTOs add up
                        // (about 3 s at threshold 4). `Signal` names which
                        // one each observation was.
                        if entry.conn.is_watched() {
                            let d = entry.detector.get_or_insert_with(|| {
                                // A port stays replicated while connections
                                // accepted on it live: only `reset_volatile`
                                // forgets one, and it drops them all.
                                let port = &self.replicated[&quad.local.port];
                                Box::new(FailureDetector::new(port.detector))
                            });
                            if d.on_duplicate(now, signal, &self.obs, quad) {
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
        let mut segments = std::mem::take(&mut self.queues.segments);
        if !segments.is_empty() {
            let divert = self
                .replicated
                .get(&quad.local.port)
                .is_some_and(|r| r.predecessor.is_some());
            for seg in segments.drain(..) {
                if divert {
                    // Backup: strip to (SEQ, ACK) and forward along the
                    // acknowledgement channel; discard the contents (§4.3).
                    // The predecessor is resolved again at flush time.
                    let msg = AckChanMsg {
                        client: quad.remote,
                        service: quad.local,
                        seq: seg.seq_end(),
                        ack: seg.ack,
                    };
                    let control = seg.flags.syn || seg.flags.fin || seg.flags.rst;
                    self.queue_ack_report(quad, msg, control, now);
                } else {
                    self.push_packet(
                        quad.local.addr,
                        quad.remote.addr,
                        Protocol::TCP,
                        seg.into_wire(),
                    );
                }
            }
        }
        self.queues.segments = segments;
        if entry.conn.state() == TcpState::Closed {
            // Reaped; events already delivered.
            if let Some(slot) = slot {
                self.free_slot(slot, quad);
            }
            if self.obs.tracing_enabled() {
                let last = [("final", entry.conn.span_summary())];
                self.obs.trace(now.as_nanos(), trace::END, quad.key(), last);
            }
            return;
        }
        // Files, moves or withdraws the heap entry; an unchanged deadline
        // leaves the heap untouched.
        let next = entry.conn.next_deadline();
        let slot = match slot {
            Some(s) => {
                let parked = self.slots[s as usize].replace(entry);
                debug_assert!(parked.is_none(), "checked-out slot was refilled");
                s
            }
            None => self.insert_conn(entry),
        };
        self.deadlines.set(slot, next);
    }

    /// Logs the begin entry of connection `quad`'s lifecycle span (no-op
    /// when tracing is off). `how` distinguishes active opens from (gated)
    /// accepts.
    fn span_conn_open(&mut self, quad: Quad, how: &'static str, now: SimTime) {
        if !self.obs.tracing_enabled() {
            return;
        }
        let fields = [("conn", quad.to_string()), ("open", how.to_string())];
        self.obs
            .trace(now.as_nanos(), trace::BEGIN, quad.key(), fields);
    }

    /// Accepts one diverted (SEQ, ACK) report for the ack channel. In the
    /// paper's protocol (§4.2) every report is its own datagram; here
    /// reports accumulate — latest per connection — and a short flush timer
    /// (well under the RTO floor) coalesces them into one batched datagram.
    /// The predecessor's gates see the same final values at nearly the same
    /// time, but the per-segment storm of duplicate reports from a gated
    /// replica collapses to one pair per flush window.
    ///
    /// Flushes after [`ACKCHAN_FLUSH_DELAY`], or immediately when the
    /// report carries connection-lifecycle state (SYN/FIN/RST segments —
    /// handshakes must not wait) or the batch reaches
    /// [`ACKCHAN_FLUSH_PAIRS`].
    ///
    /// The flush deadline is `ackchan_flush_at` itself, which
    /// [`TcpStack::next_deadline`] folds in beside the connections' heap.
    fn queue_ack_report(&mut self, quad: Quad, msg: AckChanMsg, control: bool, now: SimTime) {
        if self.ackchan_pending.insert(quad, msg).is_some() {
            self.stats.ackchan_coalesced += 1;
        }
        if control || self.ackchan_pending.len() >= ACKCHAN_FLUSH_PAIRS {
            self.flush_ackchan(now);
        } else if self.ackchan_flush_at.is_none() {
            self.ackchan_flush_at = Some(now + ACKCHAN_FLUSH_DELAY);
        }
    }

    /// Sends every pending ack-channel report, coalescing runs of
    /// consecutive connections that share a (local address, predecessor)
    /// pair into single batched datagrams. The predecessor is resolved
    /// *now*, not at queue time: if the chain was reconfigured while a
    /// report waited, it goes to the new predecessor, and a report whose
    /// port has none any more (promotion) is dropped.
    fn flush_ackchan(&mut self, now: SimTime) {
        self.ackchan_flush_at = None;
        if self.ackchan_pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.ackchan_pending);
        let mut batch = std::mem::take(&mut self.scratch_batch);
        batch.clear();
        let mut dest: Option<(IpAddr, IpAddr)> = None;
        for (quad, msg) in pending {
            let pred = self
                .replicated
                .get(&quad.local.port)
                .and_then(|r| r.predecessor);
            let Some(pred) = pred else {
                self.stats.dropped += 1;
                continue;
            };
            let key = (quad.local.addr, pred);
            if dest != Some(key) {
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
        self.scratch_batch = batch;
    }

    /// Encodes `batch` as one ack-channel datagram, built in place in the
    /// packet buffer, and queues it.
    fn send_ack_batch(&mut self, src: IpAddr, pred: IpAddr, batch: &[AckChanMsg], now: SimTime) {
        self.stats.ackchan_tx += batch.len() as u64;
        self.h_ackchan_pairs.record(batch.len() as u64);
        let frame_len = AckChanMsg::frame_len(batch.len());
        let wire = PacketBuf::with_headroom(IP_HEADER_LEN, UDP_HEADER_LEN + frame_len, |d| {
            AckChanMsg::write_frame(batch, &mut d[UDP_HEADER_LEN..]);
            UdpDatagram::write_header(ACK_CHANNEL_PORT, ACK_CHANNEL_PORT, d);
        });
        self.push_packet(src, pred, Protocol::UDP, wire);
        if self.obs.tracing_enabled() {
            // An instant flush span: pair count, each report, and the
            // lineage id `push_packet` just minted for the batch datagram.
            let lineage = self.out.last().map_or(0, |p| p.payload.lineage());
            let head = [
                ("ackchan", format!("flush {src}->{pred}")),
                ("pairs", batch.len().to_string()),
            ];
            let fields = head
                .into_iter()
                .chain(batch.iter().map(|msg| ("pair", msg.brief())))
                .chain([("lineage", format!("{lineage:#x}"))]);
            self.obs.trace(now.as_nanos(), trace::INSTANT, 0, fields);
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
#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use hydranet_netsim::hash::IntBuildHasher;
    use hydranet_netsim::rng::SimRng;
    use hydranet_obs::kinds;

    use super::*;
    use crate::detector::DetectorParams;
    use crate::seq::SeqNum;

    const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
    const SERVICE: IpAddr = IpAddr::new(192, 20, 225, 20);
    const PRIMARY: IpAddr = IpAddr::new(10, 0, 2, 1);
    const BACKUP: IpAddr = IpAddr::new(10, 0, 3, 1);

    /// Whether `stack`'s connection queues are empty, as every call must
    /// leave them: a segment or event left behind would go out as the
    /// next processed connection's.
    fn queues_drained(stack: &TcpStack) -> bool {
        stack.queues.segments.is_empty() && stack.queues.events.is_empty()
    }

    /// Writes its payload once established.
    struct Writer(&'static [u8]);

    impl SocketApp for Writer {
        fn on_established(&mut self, io: &mut SocketIo<'_>) {
            io.write(self.0);
        }
    }

    /// Reads everything, and closes when the peer does.
    struct Drain;

    impl SocketApp for Drain {
        fn on_data(&mut self, io: &mut SocketIo<'_>) {
            io.read_all();
        }

        fn on_peer_fin(&mut self, io: &mut SocketIo<'_>) {
            io.close();
        }
    }

    /// Runs two directly wired stacks until `until`, checking after every
    /// call that the stack's queues are drained. Returns how many
    /// `on_timer` calls ticked a connection that then stayed parked.
    fn run_checked(a: &mut TcpStack, b: &mut TcpStack, mut now: SimTime, until: SimTime) -> usize {
        let mut parked_after_tick = 0;
        loop {
            let (to_b, to_a) = (a.take_packets(), b.take_packets());
            if !(to_a.is_empty() && to_b.is_empty()) {
                for (to, packets) in [(&mut *a, to_a), (&mut *b, to_b)] {
                    for packet in packets {
                        to.handle_packet(packet, now);
                        assert!(queues_drained(to));
                    }
                }
                continue;
            }
            let next = a.next_deadline().into_iter().chain(b.next_deadline()).min();
            match next {
                Some(t) if t <= until => now = t,
                _ => return parked_after_tick,
            }
            for stack in [&mut *a, &mut *b] {
                let ticks_conn = stack.deadlines.peek().is_some_and(|t| t <= now);
                if stack.next_deadline().is_some_and(|t| t <= now) {
                    stack.on_timer(now);
                    assert!(queues_drained(stack));
                    if ticks_conn && stack.conn_count() > 0 {
                        parked_after_tick += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn queues_are_drained_after_every_call_through_a_transfer_and_close() {
        let mut client = TcpStack::new(CLIENT, TcpConfig::default());
        let mut server = TcpStack::new(SERVICE, TcpConfig::default());
        server.listen(80, |_| Box::new(Drain));
        let remote = SockAddr::new(SERVICE, 80);
        let quad = client.connect(remote, Box::new(Writer(&[7; 3000])), SimTime::ZERO);
        let quad = quad.expect("port free");
        assert!(queues_drained(&client), "the SYN went out");
        // Slow start sends a lone first segment, whose ACK the server holds
        // until the delayed-ACK timer ticks the connection; it parks again.
        let ticked = run_checked(
            &mut client,
            &mut server,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        assert!(ticked > 0, "no timer tick left a connection parked");
        assert_eq!(server.conn_count(), 1);
        let conn = server.conn(quad.flipped()).expect("server side");
        assert_eq!(conn.snd_una(), conn.iss() + 1, "the server sent no data");
        let conn = client.conn(quad).expect("client side");
        assert_eq!(conn.snd_una(), conn.iss() + 1 + 3000, "all 3,000 B acked");
        client.with_io(quad, SimTime::from_secs(1), |io| io.close());
        let end = SimTime::from_secs(100);
        run_checked(&mut client, &mut server, SimTime::from_secs(1), end);
        assert_eq!(
            client.conn_count() + server.conn_count(),
            0,
            "TIME-WAIT ended"
        );
    }

    /// Asserts `stack` holds nothing for any connection: every slot free
    /// and on the free list, demux and the deadline heap empty.
    fn assert_no_conn_state(stack: &TcpStack) {
        assert_eq!(stack.conn_count(), 0);
        assert_eq!(stack.quads().count(), 0);
        assert!(stack.slots.iter().all(Option::is_none), "a slot is parked");
        assert_eq!(stack.free_slots.len(), stack.slots.len(), "a slot leaked");
        assert!(stack.demux.is_empty(), "demux still links a quad");
        assert_eq!(stack.deadlines.peek(), None, "a deadline is still filed");
    }

    #[test]
    fn a_reaped_connection_leaves_no_slot_demux_or_deadline() {
        // Closed through `with_io` in SYN-SENT: reaped inside the call,
        // with the SYN's retransmission deadline filed.
        let mut client = TcpStack::new(CLIENT, TcpConfig::default());
        let remote = SockAddr::new(SERVICE, 80);
        let quad = client.connect(remote, Box::new(NullApp), SimTime::ZERO);
        let quad = quad.expect("port free");
        assert!(client.deadlines.peek().is_some(), "the SYN is armed");
        client.with_io(quad, SimTime::ZERO, |io| io.close());
        assert!(client.conn(quad).is_none());
        assert_no_conn_state(&client);
        // A transfer closed by both ends: one side is reaped by a segment,
        // the other by its TIME-WAIT timer. The next connect reuses the
        // freed slot.
        let mut server = TcpStack::new(SERVICE, TcpConfig::default());
        server.listen(80, |_| Box::new(Drain));
        let app = Box::new(Writer(&[7; 3000]));
        let quad = client.connect(remote, app, SimTime::ZERO);
        let quad = quad.expect("port free");
        assert_eq!(client.slots.len(), 1, "the freed slot was reused");
        let t = SimTime::from_secs(1);
        run_checked(&mut client, &mut server, SimTime::ZERO, t);
        assert_eq!(server.conn_count(), 1);
        client.with_io(quad, t, |io| io.close());
        run_checked(&mut client, &mut server, t, SimTime::from_secs(100));
        assert_no_conn_state(&client);
        assert_no_conn_state(&server);
    }

    /// Seeded quads that differ from another in any one field get a
    /// different demux key; a quad built again from the same fields gets
    /// the same key and hash.
    #[test]
    fn demux_key_distinguishes_every_quad_field() {
        let hasher = IntBuildHasher::default();
        let mut rng = SimRng::seed_from(0xDE_3A);
        let addr = |rng: &mut SimRng| IpAddr::from_bits(rng.next_u64() as u32);
        for _ in 0..1_000 {
            let local = SockAddr::new(addr(&mut rng), rng.next_u64() as u16);
            let remote = SockAddr::new(addr(&mut rng), rng.next_u64() as u16);
            let q = Quad::new(local, remote);
            let key = DemuxKey::of(q);
            let again = DemuxKey::of(Quad::new(
                SockAddr::new(local.addr, local.port),
                SockAddr::new(remote.addr, remote.port),
            ));
            assert_eq!(key, again);
            assert_eq!(hasher.hash_one(key), hasher.hash_one(again));
            // Each field flipped in one random bit, so it surely differs.
            let mut flip16 = |v: u16| v ^ 1 << rng.range(0, 16);
            let (lp, rp) = (flip16(local.port), flip16(remote.port));
            let mut flip32 = |v: IpAddr| IpAddr::from_bits(v.to_bits() ^ 1 << rng.range(0, 32));
            let (la, ra) = (flip32(local.addr), flip32(remote.addr));
            let variants = [
                Quad::new(SockAddr::new(la, local.port), remote),
                Quad::new(SockAddr::new(local.addr, lp), remote),
                Quad::new(local, SockAddr::new(ra, remote.port)),
                Quad::new(local, SockAddr::new(remote.addr, rp)),
            ];
            for v in variants {
                assert_ne!(DemuxKey::of(v), key, "{v} and {q} share a key");
            }
        }
        // The bucket index comes from the hash's low bits: 4,096 flows of
        // a client (consecutive local ports) and of a replica (consecutive
        // remote ports, eight service addresses) must spread across them.
        for replica in [false, true] {
            let low: std::collections::BTreeSet<u64> = (0..4_096u16)
                .map(|i| {
                    let client = SockAddr::new(CLIENT, 40_000 + i);
                    let vip = IpAddr::new(192, 20, 225, 20 + (i % 8) as u8);
                    let q = if replica {
                        Quad::new(SockAddr::new(vip, 80), client)
                    } else {
                        Quad::new(client, SockAddr::new(SERVICE, 80))
                    };
                    hasher.hash_one(DemuxKey::of(q)) & 0xFFF
                })
                .collect();
            let n = low.len();
            assert!(n > 2_500, "replica {replica}: {n} of 4,096 bucket indices");
        }
    }

    /// A client segment to `SERVICE:80` from port `port`.
    fn from_client(port: u16, seq: SeqNum, ack: SeqNum, flags: TcpFlags, data: &[u8]) -> IpPacket {
        let seg = TcpSegment {
            src_port: port,
            dst_port: 80,
            seq,
            ack,
            flags,
            window: u16::MAX,
            payload: PacketBuf::from(data.to_vec()),
        };
        IpPacket::new(CLIENT, SERVICE, Protocol::TCP, seg.into_wire())
    }

    /// Reports from more connections than one flush carries, all inside
    /// one flush window: the batch never holds more than a frame's worth,
    /// and every report leaves, in datagrams of at most that many pairs.
    #[test]
    fn ackchan_pending_is_flushed_at_the_pair_limit() {
        let mut backup = TcpStack::new(BACKUP, TcpConfig::default());
        backup.add_local_addr(SERVICE);
        backup.listen(80, |_| Box::new(NullApp));
        let port_cfg = ReplicatedPortConfig {
            predecessor: Some(PRIMARY),
            has_successor: false,
            detector: DetectorParams::DEFAULT,
        };
        backup.setportopt(80, port_cfg, SimTime::ZERO);
        let conns = ACKCHAN_FLUSH_PAIRS as u16 + 8;
        let ports = 40_000..40_000 + conns;
        let client_iss = SeqNum::new(1_000);
        for port in ports.clone() {
            let iss = deterministic_iss(Quad::new(
                SockAddr::new(SERVICE, 80),
                SockAddr::new(CLIENT, port),
            ));
            let syn = from_client(port, client_iss, SeqNum::new(0), TcpFlags::SYN, b"");
            backup.handle_packet(syn, SimTime::ZERO);
            let ack = from_client(port, client_iss + 1, iss + 1, TcpFlags::ACK, b"");
            backup.handle_packet(ack, SimTime::ZERO);
        }
        assert_eq!(backup.conn_count(), usize::from(conns));
        backup.take_packets(); // the handshakes' reports
        let at = SimTime::from_millis(10);
        for port in ports {
            let iss = deterministic_iss(Quad::new(
                SockAddr::new(SERVICE, 80),
                SockAddr::new(CLIENT, port),
            ));
            let data = from_client(port, client_iss + 1, iss + 1, TcpFlags::ACK, b"data");
            backup.handle_packet(data, at);
            assert!(backup.ackchan_pending.len() <= ACKCHAN_FLUSH_PAIRS);
        }
        backup.on_timer(at + ACKCHAN_FLUSH_DELAY);
        assert!(backup.ackchan_pending.is_empty());
        let mut pairs = Vec::new();
        for packet in backup.take_packets() {
            assert_eq!(packet.dst(), PRIMARY);
            let dgram = UdpDatagram::decode(&packet.payload).expect("a datagram");
            let n = AckChanMsg::decode_each(&dgram.payload, |m| pairs.push(m.client.port));
            assert!(n.expect("a frame") <= ACKCHAN_FLUSH_PAIRS);
        }
        pairs.sort_unstable();
        assert_eq!(pairs, (40_000..40_000 + conns).collect::<Vec<_>>());
    }

    const CLIENT_ISS: SeqNum = SeqNum::new(1_000);

    /// A service stack listening on port 80, replicated with `params` as
    /// a sole primary when given, that accepted one connection from
    /// `CLIENT:40000` and saw its handshake complete. Returns the stack
    /// and the connection's quad.
    fn accepted(params: Option<DetectorParams>) -> (TcpStack, Quad) {
        let mut stack = TcpStack::new(SERVICE, TcpConfig::default());
        stack.listen(80, |_| Box::new(NullApp));
        if let Some(params) = params {
            let cfg = ReplicatedPortConfig::sole_primary(params);
            stack.setportopt(80, cfg, SimTime::ZERO);
        }
        let quad = Quad::new(SockAddr::new(SERVICE, 80), SockAddr::new(CLIENT, 40_000));
        let syn = from_client(40_000, CLIENT_ISS, SeqNum::new(0), TcpFlags::SYN, b"");
        stack.handle_packet(syn, SimTime::ZERO);
        let ack = client_data(quad, 0, b"");
        stack.handle_packet(ack, SimTime::ZERO);
        let state = stack.conn(quad).map(Connection::state);
        assert_eq!(state, Some(TcpState::Established));
        stack.take_packets();
        (stack, quad)
    }

    /// A client segment on `quad` carrying `data` at stream offset `off`.
    fn client_data(quad: Quad, off: u32, data: &[u8]) -> IpPacket {
        let (seq, ack) = (CLIENT_ISS + 1 + off, deterministic_iss(quad) + 1);
        from_client(quad.remote.port, seq, ack, TcpFlags::ACK, data)
    }

    /// The failure detector parked with connection `quad`, if built.
    fn detector_of(stack: &TcpStack, quad: Quad) -> Option<&FailureDetector> {
        let slot = stack.lookup_slot(quad)?;
        stack.slots[slot as usize].as_ref()?.detector.as_deref()
    }

    /// A connection accepted on a replicated port holds no detector through
    /// new data, and builds one at its first duplicate; `conn_memory_bytes`
    /// charges the box and the heap behind its duplicate list from then on.
    /// A connection on a plain port never builds one.
    #[test]
    fn a_watched_connection_builds_its_detector_at_its_first_duplicate() {
        for replicated in [true, false] {
            let (mut stack, quad) = accepted(replicated.then_some(DetectorParams::DEFAULT));
            let watched = stack.conn(quad).map(Connection::is_watched);
            assert_eq!(watched, Some(replicated));
            stack.handle_packet(client_data(quad, 0, b"hello"), SimTime::from_millis(1));
            let built = detector_of(&stack, quad).is_some();
            assert!(!built, "built before a duplicate");
            let before = stack.conn_memory_bytes();
            stack.handle_packet(client_data(quad, 0, b"hello"), SimTime::from_millis(2));
            let charged = stack.conn_memory_bytes() - before;
            match detector_of(&stack, quad) {
                Some(d) => {
                    assert!(replicated, "a plain connection built a detector");
                    assert_eq!(d.duplicates_total(), 1);
                    assert!(d.heap_bytes() >= std::mem::size_of::<SimTime>());
                    let detector = std::mem::size_of::<FailureDetector>() + d.heap_bytes();
                    assert_eq!(charged, detector, "the detector's charge");
                }
                None => {
                    assert!(!replicated, "no detector after a duplicate");
                    assert_eq!(charged, 0);
                }
            }
        }
    }

    /// One seeded stream of new data, duplicates and re-gearing, fed to a
    /// connection whose detector is built at its first duplicate and to one
    /// given a detector at accept, as the record once held: both raise the
    /// same suspicions with the same `observed` counts and log the same
    /// timeline.
    #[test]
    fn a_lazy_detector_reports_what_an_eager_one_does() {
        let params = DetectorParams::new(3, SimDuration::from_millis(150));
        let run = |eager: bool| {
            let (mut stack, quad) = accepted(Some(params));
            if eager {
                let slot = stack.lookup_slot(quad).expect("parked") as usize;
                let entry = stack.slots[slot].as_mut().expect("parked");
                entry.detector = Some(Box::new(FailureDetector::new(params)));
            }
            let obs = Obs::enabled();
            stack.set_obs(obs.clone());
            let mut rng = SimRng::seed_from(0x1A2_7D37);
            let mut now = SimTime::ZERO;
            let mut sent = 0u32;
            let mut suspicions = Vec::new();
            for step in 0..600 {
                now += SimDuration::from_millis(rng.range(1, 60));
                if step % 97 == 96 {
                    let cfg = ReplicatedPortConfig::sole_primary(params);
                    stack.setportopt(80, cfg, now);
                } else if sent == 0 || rng.chance(0.3) {
                    stack.handle_packet(client_data(quad, sent, &[7; 16]), now);
                    sent += 16;
                } else {
                    let off = 16 * rng.range(0, u64::from(sent / 16)) as u32;
                    stack.handle_packet(client_data(quad, off, &[7; 16]), now);
                }
                stack.take_packets();
                suspicions.extend(stack.drain_events());
            }
            let observed = detector_of(&stack, quad).map(FailureDetector::duplicates_total);
            (suspicions, observed, obs.events())
        };
        let (suspicions, observed, timeline) = run(false);
        let eager = run(true);
        assert!(
            suspicions.len() >= 3,
            "only {} suspicions",
            suspicions.len()
        );
        let cleared = timeline
            .iter()
            .filter(|e| e.kind == kinds::DETECTOR_CLEARED);
        assert!(cleared.count() > 0, "progress cleared no duplicate");
        assert_eq!(suspicions, eager.0, "suspicions differ");
        assert_eq!(observed, eager.1, "duplicate totals differ");
        assert_eq!(timeline, eager.2, "timelines differ");
    }

    /// `setportopt` with new detector parameters reaches a live connection
    /// that has seen no duplicate yet: its detector, built at the first
    /// one, takes the parameters in force then.
    #[test]
    fn new_detector_params_reach_a_live_connection_from_its_first_duplicate() {
        let (mut stack, quad) = accepted(Some(DetectorParams::DEFAULT));
        stack.handle_packet(client_data(quad, 0, b"hello"), SimTime::from_millis(1));
        let eager = DetectorParams::new(1, SimDuration::from_secs(1));
        let cfg = ReplicatedPortConfig::sole_primary(eager);
        stack.setportopt(80, cfg, SimTime::from_millis(2));
        stack.handle_packet(client_data(quad, 0, b"hello"), SimTime::from_millis(3));
        let events: Vec<StackEvent> = stack.drain_events().collect();
        let suspected = StackEvent::FailureSuspected {
            port: 80,
            quad,
            observed: 1,
        };
        assert_eq!(events, [suspected]);
        assert_eq!(
            detector_of(&stack, quad).map(FailureDetector::params),
            Some(eager)
        );
    }

    /// Telemetry wired after a connection opened reaches it: from its next
    /// segment on, the connection records into the stack's one set of
    /// `conn.*` series.
    #[test]
    fn set_obs_reaches_a_connection_opened_before_it() {
        let mut client = TcpStack::new(CLIENT, TcpConfig::default());
        let mut server = TcpStack::new(SERVICE, TcpConfig::default());
        server.listen(80, |_| Box::new(Drain));
        let remote = SockAddr::new(SERVICE, 80);
        let quad = client.connect(remote, Box::new(NullApp), SimTime::ZERO);
        let quad = quad.expect("port free");
        let t = SimTime::from_secs(1);
        run_checked(&mut client, &mut server, SimTime::ZERO, t);
        assert_eq!(server.conn_count(), 1, "established before set_obs");
        let obs = Obs::enabled();
        server.set_obs(obs.clone());
        let rx_before = server.stats().tcp_rx;
        client.with_io(quad, t, |io| io.write(&[7; 3000]));
        run_checked(&mut client, &mut server, t, SimTime::from_secs(2));
        let segments = server.stats().tcp_rx - rx_before;
        assert!(segments >= 3, "3,000 B take at least three segments");
        for series in ["cwnd", "rto_us"] {
            let h = obs.histogram(&format!("tcp.stack.{SERVICE}.conn.{series}"));
            assert_eq!(h.count(), segments, "one {series} sample per segment");
        }
    }

    #[test]
    #[should_panic(expected = "TcpConfig::mss must be at least 1")]
    fn a_zero_mss_is_rejected() {
        TcpStack::new(
            CLIENT,
            TcpConfig {
                mss: 0,
                ..TcpConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "TcpConfig::mss 65496 exceeds 65495")]
    fn an_mss_past_one_ip_datagram_is_rejected() {
        let cfg = TcpConfig {
            mss: MAX_MSS,
            ..TcpConfig::default()
        };
        TcpStack::new(CLIENT, cfg.clone());
        TcpStack::new(
            CLIENT,
            TcpConfig {
                mss: MAX_MSS + 1,
                ..cfg
            },
        );
    }

    #[test]
    #[should_panic(expected = "TcpConfig::recv_buf 4294967296 exceeds u32::MAX")]
    fn a_recv_buf_past_u32_is_rejected() {
        let cfg = TcpConfig {
            recv_buf: u32::MAX as usize,
            ..TcpConfig::default()
        };
        TcpStack::new(CLIENT, cfg.clone());
        TcpStack::new(
            CLIENT,
            TcpConfig {
                recv_buf: u32::MAX as usize + 1,
                ..cfg
            },
        );
    }
}
