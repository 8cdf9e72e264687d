//! Allocation budgets of the packet path (DESIGN.md §5a): a packet owns one
//! buffer, allocated where its bytes first exist, and no later hop, header
//! or tunnel allocates another.
//!
//! The file installs its own counting allocator. It counts allocator calls
//! and tracks live and peak-live requested bytes, all per thread, so tests
//! running in parallel cannot add to each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hydranet_bench::chaos::{ChaosConfig, ChaosRun, FaultClass};
use hydranet_bench::fig4::{run_point, Fig4Config, Fig4Params};
use hydranet_bench::scale::{aggregate_bytes_per_flow, run_cell, run_scale, ScaleConfig};
use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::frag::{fragment_packet, Reassembler};
use hydranet_netsim::link::LinkParams;
use hydranet_netsim::node::{Context, IfaceId, Node, NodeId, NodeParams};
use hydranet_netsim::packet::{IpAddr, IpPacket, Protocol, IP_HEADER_LEN};
use hydranet_netsim::routing::{Prefix, RouterNode};
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_netsim::topology::TopologyBuilder;
use hydranet_tcp::buffer::{Offer, RecvBuffer};
use hydranet_tcp::conn::{Connection, TcpConfig};
use hydranet_tcp::ft::ChainGate;
use hydranet_tcp::segment::SockAddr;
use hydranet_tcp::seq::SeqNum;
use hydranet_tcp::stack::{SocketApp, TcpStack};
use hydranet_tcp::udp::UdpDatagram;

thread_local! {
    /// Allocator calls (alloc, zeroed alloc, realloc) made on this thread.
    /// Const-initialised with no destructor, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Requested bytes allocated and not yet freed on this thread. Signed:
    /// a block another thread allocated may be freed here.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has reached since `peak_heap` last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Moves this thread's live byte count by `delta`, raising its peak.
fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// `size` as a signed byte count.
fn bytes(size: usize) -> i64 {
    i64::try_from(size).expect("allocation larger than i64::MAX bytes")
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(bytes(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-bytes(layout.size()));
        // SAFETY: `ptr` came from `System` through this shim with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(bytes(layout.size()));
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this shim with `layout`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            track(bytes(new_size) - bytes(layout.size()));
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the most requested bytes it held
/// live at once on this thread, above what was live when it started.
fn peak_heap<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let r = f();
    let peak = PEAK.with(Cell::get) - base;
    (
        r,
        u64::try_from(peak).expect("the peak is at least the base"),
    )
}

#[test]
fn with_headroom_is_one_allocation_and_push_front_in_place_is_none() {
    let (mut buf, allocs) =
        count(|| PacketBuf::with_headroom(IP_HEADER_LEN, 512, |p| p.fill(7)).with_lineage(1));
    assert_eq!(allocs, 1, "refcounts and bytes share one allocation");
    let ((), allocs) = count(|| buf.push_front(IP_HEADER_LEN).fill(0x45));
    assert_eq!(allocs, 0, "a unique handle writes into its headroom");
    // No headroom left: the next header copies once into a fresh backing.
    let ((), allocs) = count(|| buf.push_front(4).fill(1));
    assert_eq!(allocs, 1);
    assert_eq!(buf.len(), 4 + IP_HEADER_LEN + 512);
    assert_eq!(buf.lineage(), 1);
}

/// Receives and drops; the sending end of the chain never receives.
#[derive(Default)]
struct Sink {
    got: u64,
}

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _packet: IpPacket) {
        self.got += 1;
    }
}

/// Allocations spent delivering one 1000-byte packet from a source
/// through `k` plain forwarding routers to a sink over links of `mtu`
/// bytes, and the packets (fragments, past a small MTU) the sink got per
/// send. A first packet walks the path beforehand, so every queue, the
/// calendar and the dispatch scratch have grown to what one packet in
/// flight needs.
fn allocs_over_hops(k: usize, mtu: usize) -> (u64, u64) {
    const DST: IpAddr = IpAddr::new(10, 0, 9, 1);
    let link = LinkParams::new(10_000_000, SimDuration::from_micros(100)).with_mtu(mtu);
    let mut t = TopologyBuilder::new();
    let src = t.add_node(Sink::default(), NodeParams::INSTANT);
    let mut prev = src;
    for i in 0..k {
        let r = t.add_node(RouterNode::new(format!("r{i}")), NodeParams::INSTANT);
        t.connect(prev, r, link.clone());
        prev = r;
    }
    let dst = t.add_node(Sink::default(), NodeParams::INSTANT);
    t.connect(prev, dst, link);
    for i in 0..k {
        // Interface 0 faces the source, interface 1 the sink.
        let router = t.node_mut::<RouterNode>(NodeId::from_index(1 + i));
        router
            .routes_mut()
            .add(Prefix::host(DST), IfaceId::from_index(1));
    }
    let mut sim = t.into_simulator(1);
    let packet = IpPacket::new(
        IpAddr::new(10, 0, 1, 1),
        DST,
        Protocol::UDP,
        vec![5u8; 1000],
    );
    let send = |sim: &mut hydranet_netsim::sim::Simulator| {
        sim.with_node_ctx::<Sink, _>(src, |_, ctx| {
            ctx.send(IfaceId::from_index(0), packet.clone())
        });
        sim.run_until_idle();
    };
    send(&mut sim);
    let pieces = sim.node::<Sink>(dst).got;
    let ((), allocs) = count(|| send(&mut sim));
    assert_eq!(
        sim.node::<Sink>(dst).got,
        2 * pieces,
        "both packets crossed {k} hops"
    );
    (allocs, pieces)
}

/// A hop costs no allocation: a packet that fits the MTU is queued on
/// each link as it is, so four routers cost what one does.
#[test]
fn a_forwarding_hop_allocates_nothing() {
    let (one, _) = allocs_over_hops(1, 1500);
    let (four, _) = allocs_over_hops(4, 1500);
    assert_eq!(one, four, "1 hop: {one} allocations, 4 hops: {four}");
}

/// Nor does a hop over a link whose MTU splits the packet: the first link
/// queues each fragment, a view of the packet's payload, as it is cut,
/// and the fragments cross the later links as they are.
#[test]
fn a_hop_over_an_mtu_limited_link_allocates_nothing() {
    for k in [1, 4] {
        let (allocs, pieces) = allocs_over_hops(k, 600);
        assert_eq!(pieces, 2, "600 B links split a 1,020 B packet in two");
        assert_eq!(allocs, 0, "{k} hops at MTU 600: {allocs} allocations");
    }
}

/// A 2,000-byte UDP packet, id `id`, and its fragments at a 1,500-byte
/// MTU, in order.
fn mtu_split(id: u16) -> (IpPacket, Vec<IpPacket>) {
    let payload: Vec<u8> = (0..2_000u32).map(|i| (i % 251) as u8).collect();
    let mut packet = IpPacket::new(
        IpAddr::new(10, 0, 1, 1),
        IpAddr::new(10, 0, 2, 1),
        Protocol::UDP,
        payload,
    );
    packet.header.id = id;
    let fragments: Vec<IpPacket> = fragment_packet(packet.clone(), 1500)
        .expect("fragments")
        .collect();
    assert_eq!(fragments.len(), 2);
    (packet, fragments)
}

/// Offers `fragments` to `r` and returns the datagram they complete.
fn reassemble(r: &mut Reassembler, fragments: Vec<IpPacket>) -> IpPacket {
    let mut whole = None;
    for f in fragments {
        whole = r.push(SimTime::ZERO, f).or(whole);
    }
    whole.expect("the train completes")
}

/// In-order fragments of one datagram (the redirector's tunnelled
/// full-size segment, split at the 1,500 B MTU) rejoin as one view of the
/// payload they were cut from: reassembly copies nothing and allocates
/// nothing.
#[test]
fn in_order_fragments_reassemble_as_a_view_with_no_allocation() {
    let mut r = Reassembler::new();
    // Warm the partial-datagram table with one train.
    reassemble(&mut r, mtu_split(1).1);
    let (packet, fragments) = mtu_split(2);
    let (whole, allocs) = count(|| reassemble(&mut r, fragments));
    assert_eq!(whole.payload, packet.payload);
    assert!(PacketBuf::same_backing(&whole.payload, &packet.payload));
    assert_eq!(allocs, 0, "reassembly allocated {allocs} times");
}

/// A train whose pieces are views of different backings (reversed, or
/// one fragment re-backed by in-flight corruption) is gathered with one
/// copy, byte for byte what arrived.
#[test]
fn reversed_and_corrupted_trains_reassemble_byte_exact() {
    let mut r = Reassembler::new();
    let (packet, mut fragments) = mtu_split(3);
    fragments.reverse();
    let whole = reassemble(&mut r, fragments);
    assert_eq!(whole.payload, packet.payload);

    let (packet, mut fragments) = mtu_split(4);
    // Corruption copies the fragment's payload and flips a bit in it.
    let mut bytes = fragments[1].payload.to_vec();
    bytes[7] ^= 0x10;
    fragments[1].payload = PacketBuf::from(bytes);
    let mut expect = packet.payload.to_vec();
    expect[fragments[0].payload.len() + 7] ^= 0x10;
    let whole = reassemble(&mut r, fragments);
    assert_eq!(whole.payload, expect);
    assert!(!PacketBuf::same_backing(&whole.payload, &packet.payload));
}

/// Decoding a datagram, as the ack channel and the management plane do
/// with each one they receive, allocates nothing: the payload is a view
/// of the packet.
#[test]
fn udp_decode_allocates_nothing() {
    let wire = UdpDatagram::encode_parts(7101, 7101, &[9u8; 48]);
    let (datagram, allocs) = count(|| UdpDatagram::decode(&wire).expect("a datagram"));
    assert_eq!(allocs, 0, "decode allocated {allocs} times");
    assert_eq!(datagram.payload, [9u8; 48][..]);
    assert!(PacketBuf::same_backing(&datagram.payload, &wire));
}

/// Allocations and events of a Figure 4 primary+backup transfer of 64 KiB
/// in `write`-byte writes, seed 42, registration and system build
/// included.
fn fig4_primary_backup(write: usize) -> (u64, u64) {
    let params = Fig4Params {
        total_bytes: 64 * 1024,
        ..Fig4Params::default()
    };
    let (point, allocs) = count(|| run_point(Fig4Config::PrimaryBackup, write, &params, 42));
    assert!(point.completed, "{write} B transfer did not complete");
    (allocs, point.events)
}

/// Allocations per simulator event of the 512-byte transfer. Measured
/// 0.2683 (879 allocations over 3,276 events) since in-order fragments
/// rejoin as a view, UDP payloads are views, the fragmenter fills no
/// vector, the core apps read into their own buffers and timeline facts
/// keep their fields instead of cloning them, down from 0.3471 (1,137);
/// 0.3523 (1,154) since a connection queues
/// its SYN or SYN-ACK straight into its stack's queue, down from 0.3529
/// (1,156) when each opened connection allocated an outbox of its own,
/// 0.3935 (1,289) when every received run took a deque slot, 0.4255
/// (1,394) when a gated replica copied each held segment into a staging
/// tree and then again into a readable ring, and 0.981 (3,214) before each packet owned one buffer. The bound
/// leaves 5 % above the measured value for drift in set-up code, so one
/// more allocation per client data segment breaks it (with no room for the
/// IP header in the send buffer's copy, the redirector copies each segment
/// again).
#[test]
fn fig4_primary_backup_allocations_per_event_stay_bounded() {
    const BOUND: f64 = 0.282;
    let (allocs, events) = fig4_primary_backup(512);
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= BOUND,
        "{allocs} allocations over {events} events = {per_event:.4} per event (bound {BOUND})"
    );
}

/// Prints allocations and events of three Figure 4 shapes, the left end,
/// the middle and the MTU-sized write, so a change's counts can be read
/// from the test log (`cargo test --release --test alloc_budget --
/// --nocapture`). Each shape runs on a fresh thread, so none inherits
/// another's thread-local set-up.
#[test]
fn fig4_primary_backup_allocation_counts() {
    for write in [16, 512, 1024] {
        let (allocs, events) = std::thread::spawn(move || fig4_primary_backup(write))
            .join()
            .expect("shape ran");
        println!("fig4 primary+backup 64 KiB seed 42, {write:>4} B writes: {allocs} allocations, {events} events");
    }
}

/// Allocations, peak live heap and events of a chaos echo run, seed 7001,
/// for four fail-over classes, each with set-up (rig build, registration,
/// fault plan) and run (the 90 KB echo through the faults) apart, so a
/// change's counts on the fail-over path can be read from the test log.
/// Each class runs on a fresh thread, so none inherits another's
/// thread-local set-up.
#[test]
fn chaos_echo_allocation_counts() {
    let classes = [
        FaultClass::PrimaryCrash,
        FaultClass::TailCrash,
        FaultClass::AckChannelBurst,
        FaultClass::RedirectorFailover,
    ];
    for class in classes {
        let [build, run] = std::thread::spawn(move || {
            let cfg = ChaosConfig::default();
            let ((built, build_allocs), build_peak) =
                peak_heap(|| count(|| ChaosRun::build(&cfg, class, 7001)));
            let build_events = built.events();
            let ((outcome, run_allocs), run_peak) = peak_heap(|| count(|| built.run()));
            assert!(outcome.invariants_hold(), "{} seed 7001", outcome.class);
            [
                (build_allocs, build_peak, build_events),
                (run_allocs, run_peak, outcome.events - build_events),
            ]
        })
        .join()
        .expect("class ran");
        let name = class.name();
        for ((allocs, peak, events), phase) in [(build, "build"), (run, "run")] {
            println!("chaos {name:<14} seed 7001 {phase:<5}: {allocs} allocations, peak live heap {peak} B, {events} events");
        }
    }
}

/// A warmed receive buffer holds gated and out-of-order segments as views
/// of the segments themselves: offering one allocates nothing.
#[test]
fn held_segments_are_views_not_copies() {
    const SEGMENTS: u32 = 64;
    let base = SeqNum::new(1000);
    let segments: Vec<PacketBuf> = (0..2 * SEGMENTS as u8)
        .map(|i| PacketBuf::from([i; 16]))
        .collect();
    let mut rb = RecvBuffer::new(base, 64 * 1024);
    let gated = ChainGate::closed(base, base).deposit_limit();
    // Warm the run list to the slots it will need, then drain it, gate
    // and all, keeping its storage by leaving one held run behind.
    for (i, seg) in segments.iter().enumerate() {
        rb.offer(base + 16 * i as u32, seg.clone(), gated);
    }
    rb.deposit(None);
    rb.read(&mut Vec::new(), 16 * (2 * SEGMENTS as usize - 1));
    let next = base + 16 * 2 * SEGMENTS;
    let gated = ChainGate::closed(next, next).deposit_limit();
    let ((), allocs) = count(|| {
        // Gated, in order: every segment is held behind the gate.
        for i in 0..SEGMENTS {
            let offer = rb.offer(next + 16 * i, segments[i as usize].clone(), gated);
            assert_eq!(offer, Offer::Held);
        }
        // Out of order: every other segment past a hole.
        for i in (1..SEGMENTS).step_by(2) {
            let seq = next + 16 * (SEGMENTS + i);
            let offer = rb.offer(seq, segments[i as usize].clone(), gated);
            assert_eq!(offer, Offer::Held);
        }
    });
    assert_eq!(allocs, 0, "offering held segments allocated {allocs} times");
}

/// Per-connection memory of the tiny scale run (what `bytes_per_flow`
/// reports), bounded at 2 % above the measured 398 B. A parked connection
/// costs its record (`TcpStack::CONN_RECORD_BYTES`, printed with it, with
/// the glibc chunk the boxed record lands in and with the `Connection`
/// inside it), its slab slot and the heap behind its buffers, and nothing
/// it needs only while the stack processes it. This
/// read 1,645 before the stack lent its outbox and event queue at
/// check-out and the record shrank 704 → 584 B, 1,206 before the record
/// lost its queues and test-only counters (584 → 440 B) and stopped being
/// charged twice, 542 before `Connection` stopped pointing at the stack's
/// config and telemetry (440 → 424 B), and 526 before the slab slot
/// became the parked box (40 → 8 B), the demux bucket shrank 32 → 16 B
/// and the detector 56 → 48 B (record 424 → 416 B), and 454 before the
/// detector was built at a connection's first duplicate and emptied send
/// rings were released (record 416 → 360 B).
#[test]
fn scale_tiny_bytes_per_conn_stay_bounded() {
    const MEASURED: u64 = 398;
    let per_conn = aggregate_bytes_per_flow(&run_scale(&ScaleConfig::tiny(), 1));
    // glibc's chunk for a request: the size plus its 8 B header, rounded
    // up to 16 B. Peak RSS moves with the chunk, not with the record.
    let chunk = (TcpStack::CONN_RECORD_BYTES + 8).next_multiple_of(16);
    println!(
        "scale tiny: {per_conn} B/conn, connection record {} B (glibc chunk {chunk} B), Connection {} B",
        TcpStack::CONN_RECORD_BYTES,
        std::mem::size_of::<Connection>()
    );
    assert!(
        per_conn <= MEASURED * 102 / 100,
        "{per_conn} B/conn (measured {MEASURED}, bound +2 %)"
    );
}

/// Peak live heap of one many-flow cell, per connection the client holds
/// at peak: every byte the run requests (simulator, redirector, both
/// replicas' stacks, applications), sampled by this file's allocator, so
/// the figure is the same on every host. Bounded at 2 % above the
/// measured 2,446 B (3,426 before the record shrank 584 → 440 B, 2,970
/// before it shrank 440 → 424 B, 2,839 before the slab slot, the demux
/// bucket, the detector and the hosts' second packet and event vectors
/// shrank or went, 2,616 before the detector became lazy and emptied send
/// rings were released); printed for the log.
#[test]
fn scale_peak_heap_per_conn_stays_bounded() {
    const MEASURED: u64 = 2_446;
    let cfg = ScaleConfig {
        cells: 1,
        flows_per_cell: 1_000,
        ..ScaleConfig::smoke()
    };
    let (cell, peak) = peak_heap(|| run_cell(&cfg, cfg.base_seed));
    let held = cell.client_conns_at_sample;
    assert!(held >= 1_000, "only {held} flows held");
    let per_conn = peak / held;
    println!("scale 1 x 1,000 flows: peak live heap {peak} B, {per_conn} B per held connection");
    assert!(
        per_conn <= MEASURED * 102 / 100,
        "{per_conn} B/conn (measured {MEASURED}, bound +2 %)"
    );
}

/// An application with state, so its box is a real allocation.
struct Held(#[allow(dead_code)] u64);

impl SocketApp for Held {}

/// On a warmed stack, a connect allocates the connection's record box, the
/// application's box and the SYN's one packet buffer: the SYN goes
/// straight into the stack's queue. Each connect also allocated and freed
/// an outbox of its own before connections wrote into their stack's
/// queues.
#[test]
fn a_connect_allocates_its_record_app_and_syn() {
    let mut stack = TcpStack::new(IpAddr::new(10, 0, 1, 1), TcpConfig::default());
    let remote = SockAddr::new(IpAddr::new(10, 0, 2, 1), 80);
    let mut packets = Vec::new();
    let mut connect = |stack: &mut TcpStack| {
        let quad = stack.connect(remote, Box::new(Held(0)), SimTime::ZERO);
        stack.take_packets_into(&mut packets);
        quad.expect("a free port")
    };
    // Warm the slab, demux, deadline heap and queues: a close in SYN-SENT
    // reaps the connection at once, freeing its slot for the next.
    for _ in 0..8 {
        let quad = connect(&mut stack);
        stack.with_io(quad, SimTime::ZERO, |io| io.close());
    }
    let (_, allocs) = count(|| connect(&mut stack));
    assert_eq!(allocs, 3, "record, app and SYN; got {allocs} allocations");
}
