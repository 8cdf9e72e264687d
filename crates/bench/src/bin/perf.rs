//! Wall-clock performance of the multicast data path, measured in *real*
//! time rather than simulated time, at two levels:
//!
//! 1. **End-to-end**: the fig4 `ttcp` scenario at chain lengths 1–4 —
//!    events/sec (simulator events per wall-clock second) and receiver
//!    goodput per wall-clock second. Dominated by event-queue and dispatch
//!    overhead, so it bounds any *regression* from the buffer work more
//!    than it exhibits the win.
//! 2. **Redirector hot loop**: `RedirectorEngine::process` driven
//!    directly, no simulator — packets/sec and forwarded payload bytes/sec
//!    through the N-replica multicast path. This is where the paper's own
//!    bottleneck lives (its Figure 6 measures redirector forwarding
//!    overhead) and where per-replica encode/copy costs show up
//!    undiluted.
//!
//! 3. **Event-calendar microbench**: timer-churn workloads driven straight
//!    through `Simulator::run_until` — one with heavy pending
//!    cancellations (tombstone pops), one that cancels only already-fired
//!    timers (the historical `cancelled_timers` leak) — plus the fig4
//!    end-to-end transfer as a calendar workload. Point names keep the
//!    `_wheel` suffix they were recorded under, so the committed baselines
//!    still pair with them.
//! 4. **Parallel runner**: the seed-sweep workload at 1/2/4 threads —
//!    aggregate events/sec and speedup through the experiment engine
//!    (`hydranet_bench::runner`). Speedup is hardware-bound: on a 1-CPU
//!    host it stays ~1.0x by construction.
//! 5. **Event attribution**: the fig4 chain-2 transfer re-run with the
//!    [`EventProfiler`](hydranet_netsim::profile) on — per-subsystem event
//!    counts and wall-clock share (tcp data / acks / ack channel / timers /
//!    mgmt / redirector), recorded as a table in `BENCH_perf.json`.
//! 6. **Tracing overhead**: the fig4 wheel workload re-run with the causal
//!    tracer *enabled* (informational, same-run pair), plus a ratcheted
//!    guard that tracing *disabled* — the shipping default — costs ≤ 1%
//!    wall on the fig4 calendar point vs the committed baseline.
//! 7. **Redirector flow sweep**: `RedirectorEngine::process` per packet
//!    round-robin over 1 / 2,800 / 20,000 live flows shaped like the scale
//!    workload's (one client address, sequential ports, eight services).
//!    The 20,000-over-1 cost ratio is pinned under `--ratchet`: the flow
//!    cache must stay one O(1) probe however many flows are live.
//!
//! Usage:
//!
//! ```text
//! perf --save-baseline     # record crates/bench/data/perf_baseline.json
//! perf                     # measure, pair with the saved baseline, write
//!                          # BENCH_perf.json (before/after + ratios)
//! perf --smoke             # quick CI variant (small transfer, best of 5)
//! perf --require-baseline  # fail (exit 1) instead of continuing without
//!                          # a baseline file — CI uses this so a missing
//!                          # baseline is loud, not silent
//! perf --ratchet 0.95      # fail (exit 1) if any end-to-end goodput
//!                          # ratio (fixed transfer / wall; events/sec is
//!                          # printed but not gated — it falls when cheap
//!                          # no-op events are removed) or redirector
//!                          # packets_per_sec ratio vs the baseline falls
//!                          # below the threshold — the CI perf ratchet.
//!                          # Ratios are normalized by a host-speed
//!                          # calibration, and a below-threshold pass is
//!                          # re-measured up to twice so only persistent
//!                          # regressions fail the gate
//! ```
//!
//! Every run prints a table; the default mode writes `BENCH_perf.json` in
//! the current directory so the perf trajectory is recorded per PR.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use hydranet_bench::ablations::{build_star, service};
use hydranet_bench::render_table;
use hydranet_bench::sweep::{run_seed_sweep, total_events, SweepConfig};
use hydranet_core::prelude::*;
use hydranet_netsim::node::{Context as NetCtx, IfaceId as NetIface, Node, TimerId, TimerToken};
use hydranet_netsim::profile::CategoryStats;
use hydranet_netsim::topology::TopologyBuilder;
use hydranet_obs::json::{push_f64, push_string, push_u64};
use hydranet_redirect::redirector::RedirectorEngine;
use hydranet_redirect::table::ServiceEntry;
use hydranet_tcp::segment::{TcpFlags, TcpSegment};
use hydranet_tcp::seq::SeqNum;

const SEED: u64 = 11;
const CHAINS: [usize; 4] = [1, 2, 3, 4];
/// The tracing layer's contract: compiled in but *disabled* (the shipping
/// default), it may cost at most 1% wall on the end-to-end event loop.
/// Enforced whenever `--ratchet` is set, on the fig4 calendar point,
/// host-speed-normalized and re-measured like every other gated ratio.
const TRACING_OFF_MIN_RATIO: f64 = 0.99;
/// The calendar workload the tracing-disabled guard applies to: the real
/// end-to-end event mix (the synthetic churn workloads never touch the
/// traced subsystems).
const TRACING_OFF_GUARDED: &str = "fig4_e2e_wheel";

/// The ratchet threshold for a calendar workload, if it is gated: the
/// tracing-disabled guard on the fig4 point, the `--ratchet` threshold on
/// the small-write point, nothing on the synthetic churn workloads.
fn cal_gate_min(name: &str, ratchet: Option<f64>) -> Option<f64> {
    if name == TRACING_OFF_GUARDED {
        ratchet.map(|_| TRACING_OFF_MIN_RATIO)
    } else if name == "fig4_small16" {
        ratchet
    } else {
        None
    }
}

/// Per-packet application payload in the hot-loop bench: a full MSS, the
/// steady-state segment size of a bulk `ttcp` transfer.
const RD_PAYLOAD: usize = 1460;

/// One measured configuration (best-of-`iters` wall clock).
#[derive(Debug, Clone)]
struct PerfPoint {
    chain: usize,
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
    goodput_wall_mbps: f64,
    sim_throughput_kbps: f64,
    completed: bool,
}

/// Measurement knobs (shrunk by `--smoke` for CI).
#[derive(Debug, Clone, Copy)]
struct PerfConfig {
    total_bytes: usize,
    rd_packets: usize,
    iters: usize,
    /// Timer fires per calendar-microbench run.
    cal_fires: u64,
    /// Seeds in the runner speedup workload.
    runner_seeds: u64,
}

/// One measured hot-loop configuration (best-of-`iters` wall clock).
#[derive(Debug, Clone)]
struct RdPoint {
    chain: usize,
    wall_secs: f64,
    packets: u64,
    packets_per_sec: f64,
    goodput_wall_mbps: f64,
}

/// Builds a redirector engine with an `n`-member fault-tolerant chain and
/// pushes MSS-sized TCP packets through [`RedirectorEngine::process`],
/// measuring the multicast fast path with no simulator around it.
fn measure_redirector(chain: usize, cfg: PerfConfig) -> RdPoint {
    use hydranet_netsim::node::IfaceId;
    use hydranet_netsim::packet::{IpPacket, Protocol};
    use hydranet_netsim::routing::Prefix;

    let rd = IpAddr::new(10, 9, 0, 1);
    let client = IpAddr::new(10, 0, 1, 1);
    let svc = service();
    let mut engine = RedirectorEngine::new(rd);
    let mut hosts = Vec::new();
    for i in 0..chain {
        let host = IpAddr::new(10, 0, 2 + i as u8, 1);
        engine
            .routes_mut()
            .add(Prefix::host(host), IfaceId::from_index(i));
        hosts.push(host);
    }
    engine
        .table_mut()
        .install(svc, ServiceEntry::FaultTolerant { chain: hosts });

    let seg = TcpSegment {
        src_port: 40_000,
        dst_port: svc.port,
        seq: SeqNum::new(1),
        ack: SeqNum::new(0),
        flags: TcpFlags::ACK,
        window: 65_000,
        payload: vec![9u8; RD_PAYLOAD].into(),
    };
    let template = IpPacket::new(client, svc.addr, Protocol::TCP, seg.encode());

    let packets = cfg.rd_packets as u64;
    let mut best: Option<RdPoint> = None;
    for _ in 0..cfg.iters {
        let mut out = Vec::with_capacity(chain);
        let started = Instant::now();
        for _ in 0..packets {
            out.clear();
            let _ = engine.process(template.clone(), SimTime::ZERO, &mut out);
            black_box(&out);
        }
        let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
        let point = RdPoint {
            chain,
            wall_secs,
            packets,
            packets_per_sec: packets as f64 / wall_secs,
            goodput_wall_mbps: (packets as usize * RD_PAYLOAD) as f64 / wall_secs / 1e6,
        };
        let better = best.as_ref().is_none_or(|b| point.wall_secs < b.wall_secs);
        if better {
            best = Some(point);
        }
    }
    let best = best.expect("at least one iteration");
    assert_eq!(
        engine.stats().copies,
        packets * chain as u64 * cfg.iters as u64,
        "every packet must be multicast to the full chain"
    );
    best
}

// ----------------------------------------------------------------------
// Event-calendar microbench
// ----------------------------------------------------------------------

/// Which side of the calendar a churn run stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnMode {
    /// Every fire sets two timers and cancels one *before* it fires: the
    /// calendar constantly pops tombstoned events, so the
    /// `cancelled_timers` probe-and-remove path runs hot.
    PendingCancel,
    /// Every fire cancels a timer that *already fired*: semantically a
    /// no-op, but historically each such cancel left a permanent entry in
    /// `cancelled_timers` — the unbounded-growth case the pop-side purge
    /// fixes.
    StaleCancel,
}

impl ChurnMode {
    fn name(self) -> &'static str {
        match self {
            ChurnMode::PendingCancel => "pending_cancel_wheel",
            ChurnMode::StaleCancel => "stale_cancel_wheel",
        }
    }
}

/// A self-driving timer workload: a chain of short timers that reschedules
/// itself `max_fires` times, plus mode-specific cancellation churn.
struct TimerChurn {
    mode: ChurnMode,
    fires: u64,
    max_fires: u64,
    /// Ids this node has set, oldest first (the chain fires in set order,
    /// so entries more than one step behind the tail have already fired).
    history: VecDeque<TimerId>,
}

impl TimerChurn {
    fn new(mode: ChurnMode, max_fires: u64) -> Self {
        TimerChurn {
            mode,
            fires: 0,
            max_fires,
            history: VecDeque::new(),
        }
    }
}

impl Node for TimerChurn {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        // A resting population of far-future timers gives the calendar
        // realistic depth under the churn.
        for i in 0..1024u64 {
            ctx.set_timer(SimDuration::from_millis(10_000 + i), TimerToken(u64::MAX));
        }
        let id = ctx.set_timer(SimDuration::from_micros(1), TimerToken(0));
        self.history.push_back(id);
    }

    fn on_packet(
        &mut self,
        _ctx: &mut NetCtx<'_>,
        _iface: NetIface,
        _p: hydranet_netsim::packet::IpPacket,
    ) {
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: TimerToken) {
        if token == TimerToken(u64::MAX) {
            return; // resting-population timer draining at the end
        }
        self.fires += 1;
        if self.fires >= self.max_fires {
            return;
        }
        match self.mode {
            ChurnMode::PendingCancel => {
                let _keep = ctx.set_timer(SimDuration::from_micros(1), TimerToken(0));
                let doomed = ctx.set_timer(SimDuration::from_micros(2), TimerToken(1));
                ctx.cancel_timer(doomed);
            }
            ChurnMode::StaleCancel => {
                let id = ctx.set_timer(SimDuration::from_micros(1), TimerToken(0));
                self.history.push_back(id);
                // Everything more than a few entries behind the tail fired
                // long ago; cancelling it is a no-op — or a leak.
                if self.history.len() > 4 {
                    let old = self.history.pop_front().expect("history non-empty");
                    ctx.cancel_timer(old);
                }
            }
        }
    }
}

/// One measured calendar workload (best-of-`iters` wall clock).
#[derive(Debug, Clone)]
struct CalPoint {
    name: String,
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
}

fn measure_calendar(mode: ChurnMode, cfg: PerfConfig) -> CalPoint {
    let mut best: Option<CalPoint> = None;
    for _ in 0..cfg.iters {
        let mut t = TopologyBuilder::new();
        t.add_node(TimerChurn::new(mode, cfg.cal_fires), NodeParams::INSTANT);
        let mut sim = t.into_simulator(SEED);
        let started = Instant::now();
        sim.run_until(SimTime::from_secs(3_600));
        let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
        let events = sim.stats().events_processed;
        assert!(
            sim.stats().timers_fired >= cfg.cal_fires,
            "churn chain ended early: {} fires",
            sim.stats().timers_fired
        );
        let point = CalPoint {
            name: mode.name().to_string(),
            wall_secs,
            events,
            events_per_sec: events as f64 / wall_secs,
        };
        let better = best.as_ref().is_none_or(|b| point.wall_secs < b.wall_secs);
        if better {
            best = Some(point);
        }
    }
    best.expect("at least one iteration")
}

/// The fig4 chain-2 transfer as a calendar workload: unlike the synthetic
/// timer churn, this is the real event mix (packet arrivals, link
/// dequeues, RTO/delayed-ack timers) the calendar serves. With
/// `traced` the causal tracer runs live (`_traced` name suffix) — the
/// same-run pair against the untraced point prices tracing *enabled*;
/// tracing *disabled* is priced against the committed baseline instead,
/// since its only cost is the branch left in the hot path.
fn measure_fig4_calendar(traced: bool, cfg: PerfConfig) -> CalPoint {
    let name = if traced {
        "fig4_e2e_wheel_traced"
    } else {
        "fig4_e2e_wheel"
    };
    let mut best: Option<CalPoint> = None;
    for _ in 0..cfg.iters {
        let mut star = build_star(2, DetectorParams::DEFAULT, false, SEED);
        if traced {
            star.system.enable_tracing(16_384);
        }
        let ttcp = TtcpConfig {
            total_bytes: cfg.total_bytes,
            write_size: 1024,
            deadline: SimTime::from_secs(120),
        };
        let sink = star.sinks[0].clone();
        let events_before = star.system.sim.stats().events_processed;
        let started = Instant::now();
        let result = run_ttcp(&mut star.system, star.client, service(), &sink, &ttcp);
        let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
        assert!(result.completed, "fig4 calendar workload must complete");
        let events = star.system.sim.stats().events_processed - events_before;
        let point = CalPoint {
            name: name.to_string(),
            wall_secs,
            events,
            events_per_sec: events as f64 / wall_secs,
        };
        let better = best.as_ref().is_none_or(|b| point.wall_secs < b.wall_secs);
        if better {
            best = Some(point);
        }
    }
    best.expect("at least one iteration")
}

/// The cold-start stress point: a fig4 chain-2 transfer written 16 bytes
/// at a time, so every connection spends its life in the small-buffer
/// regime the grow-on-demand buffers were shrunk for. Guarded by the
/// ratchet so lean-memory work can never quietly tax tiny writes.
fn measure_fig4_small(cfg: PerfConfig) -> CalPoint {
    let name = "fig4_small16".to_string();
    let mut best: Option<CalPoint> = None;
    for _ in 0..cfg.iters {
        let mut star = build_star(2, DetectorParams::DEFAULT, false, SEED);
        let ttcp = TtcpConfig {
            total_bytes: cfg.total_bytes / 16,
            write_size: 16,
            deadline: SimTime::from_secs(120),
        };
        let sink = star.sinks[0].clone();
        let events_before = star.system.sim.stats().events_processed;
        let started = Instant::now();
        let result = run_ttcp(&mut star.system, star.client, service(), &sink, &ttcp);
        let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
        assert!(result.completed, "small-write workload must complete");
        let events = star.system.sim.stats().events_processed - events_before;
        let point = CalPoint {
            name: name.clone(),
            wall_secs,
            events,
            events_per_sec: events as f64 / wall_secs,
        };
        let better = best.as_ref().is_none_or(|b| point.wall_secs < b.wall_secs);
        if better {
            best = Some(point);
        }
    }
    best.expect("at least one iteration")
}

// ----------------------------------------------------------------------
// Per-packet / per-segment cost sweeps
// ----------------------------------------------------------------------

/// One measured microbench workload (best-of-`iters` wall clock).
#[derive(Debug, Clone)]
struct MicroPoint {
    name: &'static str,
    wall_secs: f64,
    ops: u64,
    ops_per_sec: f64,
}

fn micro_point(name: &'static str, iters: usize, ops: u64, mut run: impl FnMut()) -> MicroPoint {
    let mut best = f64::MAX;
    for _ in 0..iters {
        let started = Instant::now();
        run();
        best = best.min(started.elapsed().as_secs_f64().max(1e-9));
    }
    MicroPoint {
        name,
        wall_secs: best,
        ops,
        ops_per_sec: ops as f64 / best,
    }
}

/// Live-flow counts the redirector microbench sweeps: one hot flow (the
/// fig4 shape), and the per-redirector populations of the scale workload's
/// default cell (2,800) and its 20,000-flow cell.
const RD_FLOWS: [(usize, &str); 3] = [
    (1, "rd_flows_1"),
    (2_800, "rd_flows_2800"),
    (20_000, "rd_flows_20000"),
];
/// Pinned ceiling on the per-packet cost at 20,000 flows over the cost at
/// one flow: the flow cache is one O(1) probe at any flow count, so the
/// ratio only reflects the table outgrowing the host's caches. (It was x60
/// when the flow hash left the source port out of the slot index.)
const RD_FLOWS_MAX_RATIO: f64 = 3.0;

/// Redirector per-packet cost against the live-flow count, over the key
/// pattern the scale workload presents: one client address, sequential
/// ephemeral ports, eight services differing in the address's low byte.
/// Each run walks every flow round-robin through
/// [`RedirectorEngine::process`] on a chain-2 fault-tolerant engine, so at
/// 20,000 flows no packet finds its flow-cache line recently touched.
/// Returns one point per [`RD_FLOWS`] entry.
fn measure_flows_micro(cfg: PerfConfig) -> Vec<MicroPoint> {
    use hydranet_netsim::node::IfaceId;
    use hydranet_netsim::packet::{IpPacket, Protocol};
    use hydranet_netsim::routing::Prefix;

    const SERVICES: usize = 8;
    let rd = IpAddr::new(10, 9, 0, 1);
    let client = IpAddr::new(10, 0, 1, 1);
    let mut engine = RedirectorEngine::new(rd);
    let hosts = [IpAddr::new(10, 0, 2, 1), IpAddr::new(10, 0, 3, 1)];
    for (i, &host) in hosts.iter().enumerate() {
        engine
            .routes_mut()
            .add(Prefix::host(host), IfaceId::from_index(i));
    }
    let services: Vec<SockAddr> = (0..SERVICES)
        .map(|i| SockAddr::new(IpAddr::new(192, 20, 225, 20 + i as u8), 80))
        .collect();
    for &svc in &services {
        engine.table_mut().install(
            svc,
            ServiceEntry::FaultTolerant {
                chain: hosts.to_vec(),
            },
        );
    }
    let flow_packet = |i: usize| {
        let svc = services[i % SERVICES];
        let seg = TcpSegment {
            src_port: 30_000 + i as u16,
            dst_port: svc.port,
            seq: SeqNum::new(1),
            ack: SeqNum::new(0),
            flags: TcpFlags::ACK,
            window: 65_000,
            payload: vec![9u8; RD_PAYLOAD].into(),
        };
        IpPacket::new(client, svc.addr, Protocol::TCP, seg.encode())
    };

    RD_FLOWS
        .iter()
        .map(|&(flows, name)| {
            let templates: Vec<IpPacket> = (0..flows).map(flow_packet).collect();
            // At least one pass over every flow per run.
            let n = cfg.rd_packets.max(flows);
            let mut out = Vec::with_capacity(hosts.len());
            // A ratio of two sub-5ms walls is noise bait on a shared host;
            // spend extra iterations on this pin.
            micro_point(name, cfg.iters * 3, n as u64, || {
                for template in templates.iter().cycle().take(n) {
                    out.clear();
                    let _ = engine.process(template.clone(), SimTime::ZERO, &mut out);
                    black_box(&out);
                }
            })
        })
        .collect()
}

/// Per-op cost at the last (largest) population of a sweep over the cost at
/// the first (smallest).
fn cost_ratio(points: &[MicroPoint]) -> f64 {
    points[0].ops_per_sec / points[points.len() - 1].ops_per_sec
}

/// Measures a population sweep and, under `--ratchet`, pins its
/// [`cost_ratio`] at `max`. A wall-clock pin on shared hardware: on a miss,
/// re-measure (up to twice) and keep each point's best wall across attempts.
fn pinned_cost_ratio(
    what: &str,
    max: f64,
    ratchet: bool,
    mut measure: impl FnMut() -> Vec<MicroPoint>,
) -> (Vec<MicroPoint>, f64) {
    let mut points = measure();
    let mut ratio = cost_ratio(&points);
    if ratchet {
        for attempt in 1..=2 {
            if ratio <= max {
                break;
            }
            eprintln!("{what}: x{ratio:.2} above x{max}, re-measuring (retry {attempt}/2)");
            for (point, again) in points.iter_mut().zip(measure()) {
                if again.wall_secs < point.wall_secs {
                    *point = again;
                }
            }
            ratio = cost_ratio(&points);
        }
        assert!(ratio <= max, "{what} must stay <= x{max}, got x{ratio:.2}");
    }
    (points, ratio)
}

/// Staged-run populations the gated-connection microbench sweeps: one run
/// behind the deposit gate, and 256 (4 KiB of 16 B writes awaiting the
/// successor's report).
const STAGED_RUNS: [(u32, &str); 2] = [(1, "gated_seg_staged_1"), (256, "gated_seg_staged_256")];
/// Pinned ceiling on the per-segment cost at 256 staged runs over the cost
/// at one: the receive buffer answers `staged_bytes`/`coverage`/`window`
/// from a running counter, so only the staging tree's O(log runs) insert
/// grows. (It was linear when each of those walked every staged run.)
const STAGED_MAX_RATIO: f64 = 2.0;

/// Per-segment cost on a deposit-gated (backup) connection against the
/// number of 16 B runs staged behind the gate. Each op is one steady-state
/// cycle of the §4.3 deposit gate: a new in-order segment arrives and is
/// staged, the successor's report releases the oldest run, the application
/// reads it — so the staged population holds at the sweep's value.
fn measure_staged_micro(cfg: PerfConfig) -> Vec<MicroPoint> {
    use hydranet_tcp::conn::Connection;

    const WRITE: u32 = 16;
    let quad = Quad {
        local: SockAddr::new(IpAddr::new(10, 0, 2, 1), 80),
        remote: SockAddr::new(IpAddr::new(10, 0, 1, 1), 40_000),
    };
    let (irs, iss) = (SeqNum::new(100), SeqNum::new(5_000));
    let segment = |seq: SeqNum, flags: TcpFlags, len: u32| TcpSegment {
        src_port: quad.remote.port,
        dst_port: quad.local.port,
        seq,
        ack: iss + 1,
        flags,
        window: 65_000,
        payload: vec![7u8; len as usize].into(),
    };
    let now = SimTime::ZERO;
    STAGED_RUNS
        .iter()
        .map(|&(runs, name)| {
            let n = cfg.rd_packets as u32;
            let (mut segs, mut events) = (Vec::new(), Vec::new());
            micro_point(name, cfg.iters, u64::from(n), || {
                let syn = segment(irs, TcpFlags::SYN, 0);
                let mut conn = Connection::accept_replicated(
                    quad,
                    TcpConfig::default(),
                    iss,
                    &syn,
                    now,
                    false,
                    true,
                );
                let first = irs + 1;
                for i in 0..runs {
                    conn.on_segment(segment(first + i * WRITE, TcpFlags::ACK, WRITE), now);
                }
                assert_eq!(conn.rcv_nxt(), first, "the gate holds every run staged");
                for i in 0..n {
                    conn.on_segment(
                        segment(first + (runs + i) * WRITE, TcpFlags::ACK, WRITE),
                        now,
                    );
                    conn.raise_deposit_gate(first + (i + 1) * WRITE, now);
                    black_box(conn.read(WRITE as usize, now));
                    conn.take_segments_into(&mut segs);
                    conn.take_events_into(&mut events);
                }
                assert_eq!(conn.rcv_nxt(), first + n * WRITE);
                assert_eq!(conn.duplicate_data_count(), 0);
            })
        })
        .collect()
}

fn print_micro_points(points: &[MicroPoint]) {
    let header = vec![
        "workload".to_string(),
        "wall (s)".to_string(),
        "ops".to_string(),
        "ops/sec".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.4}", p.wall_secs),
                p.ops.to_string(),
                format!("{:.0}", p.ops_per_sec),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
}

fn push_micro_point(out: &mut String, p: &MicroPoint) {
    out.push_str("    {\"micro\": ");
    push_string(out, p.name);
    out.push_str(", \"wall_secs\": ");
    push_f64(out, p.wall_secs);
    out.push_str(", \"ops\": ");
    push_u64(out, p.ops);
    out.push_str(", \"ops_per_sec\": ");
    push_f64(out, p.ops_per_sec);
    out.push('}');
}

// ----------------------------------------------------------------------
// Per-subsystem event attribution
// ----------------------------------------------------------------------

/// One fig4 chain-2 transfer with the [`EventProfiler`] on: where do the
/// simulator's events (and the wall-clock spent processing them) actually
/// go? Event counts are deterministic; wall shares are this host's.
///
/// [`EventProfiler`]: hydranet_netsim::profile::EventProfiler
fn measure_attribution(cfg: PerfConfig) -> Vec<(&'static str, CategoryStats)> {
    let mut star = build_star(2, DetectorParams::DEFAULT, false, SEED);
    star.system.enable_profiler();
    let ttcp = TtcpConfig {
        total_bytes: cfg.total_bytes,
        write_size: 1024,
        deadline: SimTime::from_secs(120),
    };
    let sink = star.sinks[0].clone();
    let result = run_ttcp(&mut star.system, star.client, service(), &sink, &ttcp);
    assert!(result.completed, "attribution workload must complete");
    star.system.sim.profiler().snapshot()
}

fn print_attribution(rows_in: &[(&'static str, CategoryStats)]) {
    let total_events: u64 = rows_in.iter().map(|(_, s)| s.events).sum();
    let total_wall: u64 = rows_in.iter().map(|(_, s)| s.wall_nanos).sum();
    let header: Vec<String> = ["subsystem", "events", "events %", "wall ms", "wall %"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = rows_in
        .iter()
        .map(|(name, s)| {
            vec![
                name.to_string(),
                s.events.to_string(),
                format!(
                    "{:.1}",
                    100.0 * s.events as f64 / total_events.max(1) as f64
                ),
                format!("{:.2}", s.wall_nanos as f64 / 1e6),
                format!(
                    "{:.1}",
                    100.0 * s.wall_nanos as f64 / total_wall.max(1) as f64
                ),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
}

// ----------------------------------------------------------------------
// Parallel runner speedup
// ----------------------------------------------------------------------

/// One measured runner configuration.
#[derive(Debug, Clone)]
struct RunnerPoint {
    threads: usize,
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
    speedup_vs_1: f64,
}

fn measure_runner(cfg: PerfConfig) -> Vec<RunnerPoint> {
    let sweep_cfg = SweepConfig {
        seeds: cfg.runner_seeds,
        crash_payload: 60_000,
        lossy_payload: 60_000,
        lossy_deadline: SimTime::from_secs(15),
        ..SweepConfig::default()
    };
    let mut points = Vec::new();
    let mut base_wall = None;
    for threads in [1usize, 2, 4] {
        let (outcomes, stats) = run_seed_sweep(&sweep_cfg, threads);
        let events = total_events(&outcomes);
        let wall_secs = (stats.wall_nanos as f64 / 1e9).max(1e-9);
        let base = *base_wall.get_or_insert(wall_secs);
        points.push(RunnerPoint {
            threads,
            wall_secs,
            events,
            events_per_sec: events as f64 / wall_secs,
            speedup_vs_1: base / wall_secs,
        });
    }
    points
}

fn measure_chain(chain: usize, cfg: PerfConfig) -> PerfPoint {
    let mut best: Option<PerfPoint> = None;
    for _ in 0..cfg.iters {
        // Build + convergence excluded: the hot loop under test is the
        // steady-state data path, not topology setup.
        let mut star = build_star(chain, DetectorParams::DEFAULT, false, SEED);
        let ttcp = TtcpConfig {
            total_bytes: cfg.total_bytes,
            write_size: 1024,
            deadline: SimTime::from_secs(120),
        };
        let sink = star.sinks[0].clone();
        let events_before = star.system.sim.stats().events_processed;
        let started = Instant::now();
        let result = run_ttcp(&mut star.system, star.client, service(), &sink, &ttcp);
        let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
        let events = star.system.sim.stats().events_processed - events_before;
        let point = PerfPoint {
            chain,
            wall_secs,
            events,
            events_per_sec: events as f64 / wall_secs,
            goodput_wall_mbps: result.bytes_received as f64 / wall_secs / 1e6,
            sim_throughput_kbps: result.throughput_kbps,
            completed: result.completed,
        };
        let better = best.as_ref().is_none_or(|b| point.wall_secs < b.wall_secs);
        if better {
            best = Some(point);
        }
    }
    best.expect("at least one iteration")
}

// ----------------------------------------------------------------------
// JSON (hand-rolled, no deps) — one point per line so the pairing step
// can read a baseline back without a full parser.
// ----------------------------------------------------------------------

fn push_point(out: &mut String, p: &PerfPoint) {
    out.push_str("    {\"chain\": ");
    push_u64(out, p.chain as u64);
    out.push_str(", \"wall_secs\": ");
    push_f64(out, p.wall_secs);
    out.push_str(", \"events\": ");
    push_u64(out, p.events);
    out.push_str(", \"events_per_sec\": ");
    push_f64(out, p.events_per_sec);
    out.push_str(", \"goodput_wall_mbps\": ");
    push_f64(out, p.goodput_wall_mbps);
    out.push_str(", \"sim_throughput_kbps\": ");
    push_f64(out, p.sim_throughput_kbps);
    out.push_str(", \"completed\": ");
    out.push_str(if p.completed { "true" } else { "false" });
    out.push('}');
}

fn push_rd_point(out: &mut String, p: &RdPoint) {
    out.push_str("    {\"rd_chain\": ");
    push_u64(out, p.chain as u64);
    out.push_str(", \"wall_secs\": ");
    push_f64(out, p.wall_secs);
    out.push_str(", \"packets\": ");
    push_u64(out, p.packets);
    out.push_str(", \"packets_per_sec\": ");
    push_f64(out, p.packets_per_sec);
    out.push_str(", \"goodput_wall_mbps\": ");
    push_f64(out, p.goodput_wall_mbps);
    out.push('}');
}

fn push_cal_point(out: &mut String, p: &CalPoint) {
    out.push_str("    {\"calendar\": ");
    push_string(out, &p.name);
    out.push_str(", \"wall_secs\": ");
    push_f64(out, p.wall_secs);
    out.push_str(", \"events\": ");
    push_u64(out, p.events);
    out.push_str(", \"events_per_sec\": ");
    push_f64(out, p.events_per_sec);
    out.push('}');
}

fn push_runner_point(out: &mut String, p: &RunnerPoint) {
    out.push_str("    {\"runner_threads\": ");
    push_u64(out, p.threads as u64);
    out.push_str(", \"wall_secs\": ");
    push_f64(out, p.wall_secs);
    out.push_str(", \"events\": ");
    push_u64(out, p.events);
    out.push_str(", \"events_per_sec\": ");
    push_f64(out, p.events_per_sec);
    out.push_str(", \"speedup_vs_1\": ");
    push_f64(out, p.speedup_vs_1);
    out.push('}');
}

/// Product-code-free host-speed calibration: FNV-1a over a fixed buffer,
/// best of three ~20 ms runs. Wall-clock ratios against a baseline pinned
/// on different hardware (or the same box in a different throttling state)
/// conflate host speed with code speed; the ratchet divides ratios by the
/// host-speed ratio so machine-wide swings cancel while regressions in the
/// measured code do not.
fn measure_host_speed() -> f64 {
    let buf: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let mut best = 0.0f64;
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..3 {
        let started = Instant::now();
        for round in 0..400u64 {
            acc ^= round;
            for &b in &buf {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        best = best.max((400 * buf.len() as u64) as f64 / secs);
    }
    black_box(acc);
    best
}

fn run_json(
    label: &str,
    cfg: PerfConfig,
    host_speed: f64,
    points: &[PerfPoint],
    rd_points: &[RdPoint],
    cal_points: &[CalPoint],
    runner_points: &[RunnerPoint],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"label\": ");
    push_string(&mut out, label);
    out.push_str(",\n  \"scenario\": ");
    push_string(
        &mut out,
        "fig4 ttcp upstream end-to-end + redirector multicast hot loop, chain lengths 1-4",
    );
    out.push_str(",\n  \"total_bytes\": ");
    push_u64(&mut out, cfg.total_bytes as u64);
    out.push_str(",\n  \"rd_packets\": ");
    push_u64(&mut out, cfg.rd_packets as u64);
    out.push_str(",\n  \"iters\": ");
    push_u64(&mut out, cfg.iters as u64);
    out.push_str(",\n  \"host_speed\": ");
    push_f64(&mut out, host_speed);
    out.push_str(",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        push_point(&mut out, p);
        if i + 1 < points.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"redirector_mcast\": [\n");
    for (i, p) in rd_points.iter().enumerate() {
        push_rd_point(&mut out, p);
        if i + 1 < rd_points.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"calendar\": [\n");
    for (i, p) in cal_points.iter().enumerate() {
        push_cal_point(&mut out, p);
        if i + 1 < cal_points.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"runner\": [\n");
    for (i, p) in runner_points.iter().enumerate() {
        push_runner_point(&mut out, p);
        if i + 1 < runner_points.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}");
    out
}

/// Extracts `"key": <number>` from one JSON point line (the format written
/// by [`push_point`] — this is a pairing convenience, not a JSON parser).
fn extract_f64(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Reads `(chain, events_per_sec, goodput_wall_mbps)` triples back out of a
/// previously written run document.
fn baseline_points(doc: &str) -> Vec<(usize, f64, f64)> {
    doc.lines()
        .filter(|l| l.contains("\"chain\": ") && !l.contains("\"rd_chain\": "))
        .filter_map(|l| {
            Some((
                extract_f64(l, "chain")? as usize,
                extract_f64(l, "events_per_sec")?,
                extract_f64(l, "goodput_wall_mbps")?,
            ))
        })
        .collect()
}

/// Reads `(chain, packets_per_sec, goodput_wall_mbps)` triples for the
/// redirector hot-loop section of a previously written run document.
fn baseline_rd_points(doc: &str) -> Vec<(usize, f64, f64)> {
    doc.lines()
        .filter(|l| l.contains("\"rd_chain\": "))
        .filter_map(|l| {
            Some((
                extract_f64(l, "rd_chain")? as usize,
                extract_f64(l, "packets_per_sec")?,
                extract_f64(l, "goodput_wall_mbps")?,
            ))
        })
        .collect()
}

/// Reads `(events_per_sec, wall_secs)` for a named calendar workload back
/// out of a previously written run document.
fn baseline_cal_point(doc: &str, name: &str) -> Option<(f64, f64)> {
    let needle = format!("\"calendar\": \"{name}\"");
    let line = doc.lines().find(|l| l.contains(&needle))?;
    Some((
        extract_f64(line, "events_per_sec")?,
        extract_f64(line, "wall_secs")?,
    ))
}

/// One ratchet check: records `what` as a failure when `ratio`, divided by
/// the host-speed ratio `norm`, is below `min`.
///
/// The fig4 points are gated on fixed work over wall (goodput for the chain
/// points, `wall_ratio` = baseline wall / wall for the calendar points —
/// the transfer is the same on both sides), never on events/sec: removing
/// cheap no-op events lowers events/sec while the run gets faster.
fn gate(failures: &mut Vec<String>, what: &str, ratio: f64, norm: f64, min: f64) {
    if ratio / norm < min {
        failures.push(format!(
            "{what} {ratio:.3} ({:.3} host-speed-normalized) < {min}",
            ratio / norm
        ));
    }
}

/// Reads `(events_per_sec, speedup_vs_1)` for a runner thread count from a
/// previously written run document.
fn baseline_runner_point(doc: &str, threads: usize) -> Option<(f64, f64)> {
    let needle = format!("\"runner_threads\": {threads},");
    let line = doc.lines().find(|l| l.contains(&needle))?;
    Some((
        extract_f64(line, "events_per_sec")?,
        extract_f64(line, "speedup_vs_1")?,
    ))
}

/// Reads the calibration number back out of a previously written run
/// document (absent in pre-calibration baselines).
fn baseline_host_speed(doc: &str) -> Option<f64> {
    doc.lines()
        .find(|l| l.contains("\"host_speed\": "))
        .and_then(|l| extract_f64(l, "host_speed"))
}

/// Smoke and full mode measure different workloads, so each compares
/// against (and re-pins) its own baseline file — a 64-vs-1024 KiB ratio
/// would make the ratchet meaningless.
fn baseline_path(smoke: bool) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(if smoke {
            "perf_baseline_smoke.json"
        } else {
            "perf_baseline.json"
        })
}

fn print_rd_points(points: &[RdPoint]) {
    let header = vec![
        "chain".to_string(),
        "wall (s)".to_string(),
        "packets".to_string(),
        "packets/sec".to_string(),
        "goodput (MB/s wall)".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.chain.to_string(),
                format!("{:.3}", p.wall_secs),
                p.packets.to_string(),
                format!("{:.0}", p.packets_per_sec),
                format!("{:.2}", p.goodput_wall_mbps),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
}

fn print_points(points: &[PerfPoint]) {
    let header = vec![
        "chain".to_string(),
        "wall (s)".to_string(),
        "events".to_string(),
        "events/sec".to_string(),
        "goodput (MB/s wall)".to_string(),
        "sim kB/s".to_string(),
        "completed".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.chain.to_string(),
                format!("{:.3}", p.wall_secs),
                p.events.to_string(),
                format!("{:.0}", p.events_per_sec),
                format!("{:.2}", p.goodput_wall_mbps),
                format!("{:.1}", p.sim_throughput_kbps),
                p.completed.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
}

fn print_cal_points(points: &[CalPoint]) {
    let header = vec![
        "workload".to_string(),
        "wall (s)".to_string(),
        "events".to_string(),
        "events/sec".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.3}", p.wall_secs),
                p.events.to_string(),
                format!("{:.0}", p.events_per_sec),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
}

fn print_runner_points(points: &[RunnerPoint]) {
    let header = vec![
        "threads".to_string(),
        "wall (s)".to_string(),
        "events".to_string(),
        "events/sec".to_string(),
        "speedup".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                format!("{:.3}", p.wall_secs),
                p.events.to_string(),
                format!("{:.0}", p.events_per_sec),
                format!("{:.2}x", p.speedup_vs_1),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let save_baseline = args.iter().any(|a| a == "--save-baseline");
    let smoke = args.iter().any(|a| a == "--smoke");
    let require_baseline = args.iter().any(|a| a == "--require-baseline");
    let ratchet: Option<f64> = args.iter().position(|a| a == "--ratchet").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("error: --ratchet requires a numeric threshold, e.g. --ratchet 0.95");
                std::process::exit(2);
            })
    });
    let cfg = if smoke {
        PerfConfig {
            total_bytes: 256 * 1024,
            rd_packets: 20_000,
            // Best-of-5 even in smoke mode: the ratchet compares wall-clock
            // ratios, and sub-millisecond iterations are scheduler-noise
            // bait.
            iters: 5,
            cal_fires: 30_000,
            runner_seeds: 8,
        }
    } else {
        PerfConfig {
            total_bytes: 1024 * 1024,
            rd_packets: 100_000,
            iters: 9,
            cal_fires: 300_000,
            runner_seeds: 32,
        }
    };

    if require_baseline && !save_baseline && !baseline_path(smoke).exists() {
        eprintln!(
            "error: --require-baseline set but no baseline at {} — run `perf --save-baseline` and commit the file",
            baseline_path(smoke).display()
        );
        std::process::exit(1);
    }

    println!(
        "HydraNet-FT reproduction — wall-clock perf (best of {})\n",
        cfg.iters
    );
    println!(
        "fig4 ttcp end-to-end ({} KiB transfer):",
        cfg.total_bytes / 1024
    );
    let points: Vec<PerfPoint> = CHAINS.iter().map(|&n| measure_chain(n, cfg)).collect();
    print_points(&points);
    println!(
        "\nredirector multicast hot loop ({} packets x {} B):",
        cfg.rd_packets, RD_PAYLOAD
    );
    let rd_points: Vec<RdPoint> = CHAINS.iter().map(|&n| measure_redirector(n, cfg)).collect();
    print_rd_points(&rd_points);
    println!(
        "\nevent-calendar microbench ({} timer fires):",
        cfg.cal_fires
    );
    let cal_points = vec![
        measure_calendar(ChurnMode::PendingCancel, cfg),
        measure_calendar(ChurnMode::StaleCancel, cfg),
        measure_fig4_calendar(false, cfg),
        measure_fig4_calendar(true, cfg),
        measure_fig4_small(cfg),
    ];
    print_cal_points(&cal_points);
    if let (Some(off), Some(on)) = (
        cal_points.iter().find(|p| p.name == "fig4_e2e_wheel"),
        cal_points
            .iter()
            .find(|p| p.name == "fig4_e2e_wheel_traced"),
    ) {
        println!(
            "tracing enabled vs disabled (same run): events/sec x{:.2}",
            on.events_per_sec / off.events_per_sec
        );
    }
    println!("\nredirector per-packet cost vs live flows (chain 2, 8 services):");
    let (flow_points, flows_ratio) = pinned_cost_ratio(
        "a redirected packet at 20,000 flows over one at 1 flow",
        RD_FLOWS_MAX_RATIO,
        ratchet.is_some(),
        || measure_flows_micro(cfg),
    );
    print_micro_points(&flow_points);
    println!(
        "  20,000 flows cost x{flows_ratio:.2} one flow per packet \
         (pinned <= x{RD_FLOWS_MAX_RATIO} under --ratchet)"
    );
    let mut micro_points = flow_points;
    println!("\ngated-connection per-segment cost vs staged runs (16 B writes):");
    let (staged_points, staged_ratio) = pinned_cost_ratio(
        "a gated segment at 256 staged runs over one at 1 staged run",
        STAGED_MAX_RATIO,
        ratchet.is_some(),
        || measure_staged_micro(cfg),
    );
    print_micro_points(&staged_points);
    println!(
        "  256 staged runs cost x{staged_ratio:.2} one staged run per segment \
         (pinned <= x{STAGED_MAX_RATIO} under --ratchet)"
    );
    micro_points.extend(staged_points);
    println!("\nper-subsystem event attribution (fig4 chain-2 transfer):");
    let attribution = measure_attribution(cfg);
    print_attribution(&attribution);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nparallel runner, seed-sweep workload ({} seeds; host has {} cpu(s)):",
        cfg.runner_seeds, host_cpus
    );
    let runner_points = measure_runner(cfg);
    print_runner_points(&runner_points);
    let host_speed = measure_host_speed();

    if save_baseline {
        let path = baseline_path(smoke);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create baseline dir");
        }
        let doc = run_json(
            "baseline (pre event-calendar fast path)",
            cfg,
            host_speed,
            &points,
            &rd_points,
            &cal_points,
            &runner_points,
        );
        std::fs::write(&path, doc).expect("write baseline");
        println!("baseline written to {}", path.display());
        return;
    }

    // Pair with the recorded baseline (if any) and report ratios.
    let after = run_json(
        "after (event-calendar fast path + parallel runner)",
        cfg,
        host_speed,
        &points,
        &rd_points,
        &cal_points,
        &runner_points,
    );
    let before = std::fs::read_to_string(baseline_path(smoke)).ok();
    // Host-speed normalization for the ratchet: a ratio of 0.8 on a host
    // running at 0.8x the baseline machine's speed is not a regression.
    let speed_norm = before
        .as_deref()
        .and_then(baseline_host_speed)
        .map(|base| host_speed / base)
        .filter(|r| r.is_finite() && *r > 0.0)
        .unwrap_or(1.0);
    let mut ratchet_failures: Vec<String> = Vec::new();
    let mut out = String::new();
    out.push_str("{\n\"bench\": \"perf\",\n\"before\": ");
    match &before {
        Some(doc) => out.push_str(doc),
        None => out.push_str("null"),
    }
    out.push_str(",\n\"after\": ");
    out.push_str(&after);
    out.push_str(",\n\"improvement\": ");
    match &before {
        Some(doc) => {
            let base = baseline_points(doc);
            let rd_base = baseline_rd_points(doc);
            out.push_str("[\n");
            let mut first = true;
            println!("vs. baseline:");
            for p in &points {
                let Some(&(_, base_eps, base_goodput)) =
                    base.iter().find(|(c, _, _)| *c == p.chain)
                else {
                    continue;
                };
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let eps_ratio = p.events_per_sec / base_eps;
                let goodput_ratio = p.goodput_wall_mbps / base_goodput;
                if let Some(min) = ratchet {
                    gate(
                        &mut ratchet_failures,
                        &format!("chain {}: goodput_ratio", p.chain),
                        goodput_ratio,
                        speed_norm,
                        min,
                    );
                }
                out.push_str("    {\"chain\": ");
                push_u64(&mut out, p.chain as u64);
                out.push_str(", \"events_per_sec_ratio\": ");
                push_f64(&mut out, eps_ratio);
                out.push_str(", \"goodput_ratio\": ");
                push_f64(&mut out, goodput_ratio);
                print!(
                    "  chain {}: end-to-end events/sec x{:.2}, wall goodput x{:.2}",
                    p.chain, eps_ratio, goodput_ratio
                );
                if let Some((rp, &(_, base_pps, base_rd_goodput))) = rd_points
                    .iter()
                    .find(|r| r.chain == p.chain)
                    .zip(rd_base.iter().find(|(c, _, _)| *c == p.chain))
                {
                    let pps_ratio = rp.packets_per_sec / base_pps;
                    let rd_goodput_ratio = rp.goodput_wall_mbps / base_rd_goodput;
                    if let Some(min) = ratchet {
                        gate(
                            &mut ratchet_failures,
                            &format!("chain {}: redirector_packets_per_sec_ratio", p.chain),
                            pps_ratio,
                            speed_norm,
                            min,
                        );
                    }
                    out.push_str(", \"redirector_packets_per_sec_ratio\": ");
                    push_f64(&mut out, pps_ratio);
                    out.push_str(", \"redirector_goodput_ratio\": ");
                    push_f64(&mut out, rd_goodput_ratio);
                    print!(
                        "; redirector packets/sec x{pps_ratio:.2}, goodput x{rd_goodput_ratio:.2}"
                    );
                }
                out.push('}');
                println!();
            }
            out.push_str("\n  ]");
        }
        None => {
            out.push_str("null");
            println!(
                "(no baseline at {} — ratios omitted)",
                baseline_path(smoke).display()
            );
        }
    }
    out.push_str(",\n\"calendar_improvement\": ");
    match &before {
        Some(doc) => {
            out.push_str("[\n");
            for (i, p) in cal_points.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str("    {\"calendar\": ");
                push_string(&mut out, &p.name);
                out.push_str(", \"events_per_sec_ratio\": ");
                match baseline_cal_point(doc, &p.name) {
                    Some((base_eps, base_wall)) => {
                        let ratio = p.events_per_sec / base_eps;
                        let wall_ratio = base_wall / p.wall_secs;
                        push_f64(&mut out, ratio);
                        out.push_str(", \"wall_ratio\": ");
                        push_f64(&mut out, wall_ratio);
                        println!(
                            "  calendar {}: events/sec x{ratio:.2}, wall x{wall_ratio:.2}",
                            p.name
                        );
                        if let Some(min) = cal_gate_min(&p.name, ratchet) {
                            gate(
                                &mut ratchet_failures,
                                &format!("calendar {}: wall_ratio", p.name),
                                wall_ratio,
                                speed_norm,
                                min,
                            );
                        }
                    }
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            out.push_str("\n  ]");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\n\"runner_improvement\": ");
    match &before {
        Some(doc) => {
            out.push_str("[\n");
            for (i, p) in runner_points.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str("    {\"runner_threads\": ");
                push_u64(&mut out, p.threads as u64);
                out.push_str(", \"speedup_vs_1\": ");
                push_f64(&mut out, p.speedup_vs_1);
                out.push_str(", \"events_per_sec_ratio\": ");
                match baseline_runner_point(doc, p.threads) {
                    Some((base_eps, _)) => {
                        let ratio = p.events_per_sec / base_eps;
                        push_f64(&mut out, ratio);
                        println!(
                            "  runner threads={}: events/sec x{ratio:.2} vs baseline, speedup x{:.2} vs 1 thread",
                            p.threads, p.speedup_vs_1
                        );
                    }
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            out.push_str("\n  ]");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\n\"scale_micro\": [\n");
    for (i, p) in micro_points.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        push_micro_point(&mut out, p);
    }
    out.push_str("\n  ],\n\"scale_micro_ratios\": {\"rd_cost_20000_flows_over_1\": ");
    push_f64(&mut out, flows_ratio);
    out.push('}');
    out.push_str(",\n\"event_attribution\": [\n");
    let attr_events: u64 = attribution.iter().map(|(_, s)| s.events).sum();
    let attr_wall: u64 = attribution.iter().map(|(_, s)| s.wall_nanos).sum();
    for (i, (name, s)) in attribution.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    {\"subsystem\": ");
        push_string(&mut out, name);
        out.push_str(", \"events\": ");
        push_u64(&mut out, s.events);
        out.push_str(", \"events_share\": ");
        push_f64(&mut out, s.events as f64 / attr_events.max(1) as f64);
        out.push_str(", \"wall_nanos\": ");
        push_u64(&mut out, s.wall_nanos);
        out.push_str(", \"wall_share\": ");
        push_f64(&mut out, s.wall_nanos as f64 / attr_wall.max(1) as f64);
        out.push('}');
    }
    out.push_str("\n  ],\n\"host_cpus\": ");
    push_u64(&mut out, host_cpus as u64);
    out.push_str(",\n\"host_speed_ratio\": ");
    push_f64(&mut out, speed_norm);
    out.push_str("\n}\n");
    std::fs::write("BENCH_perf.json", &out).expect("write BENCH_perf.json");
    println!("\nwritten to BENCH_perf.json");

    if let Some(min) = ratchet {
        println!("host speed x{speed_norm:.2} vs baseline (ratchet ratios normalized by this)");
        if before.is_none() {
            eprintln!("error: --ratchet set but no baseline to ratchet against");
            std::process::exit(1);
        }
        // A wall-clock gate on shared hardware must distinguish a code
        // regression (persists) from an interference window (does not):
        // re-measure the gated sections up to twice before failing.
        // BENCH_perf.json keeps the first measurement either way.
        if !ratchet_failures.is_empty() {
            if let Some(doc) = before.as_deref() {
                let base = baseline_points(doc);
                let rd_base = baseline_rd_points(doc);
                let base_speed = baseline_host_speed(doc);
                for attempt in 1..=2 {
                    eprintln!(
                        "perf ratchet: {} ratio(s) below {min}, re-measuring (retry {attempt}/2)",
                        ratchet_failures.len()
                    );
                    ratchet_failures.clear();
                    let norm = base_speed
                        .map(|b| measure_host_speed() / b)
                        .filter(|r| r.is_finite() && *r > 0.0)
                        .unwrap_or(1.0);
                    for &chain in CHAINS.iter() {
                        let p = measure_chain(chain, cfg);
                        if let Some(&(_, _, base_goodput)) =
                            base.iter().find(|(c, _, _)| *c == chain)
                        {
                            gate(
                                &mut ratchet_failures,
                                &format!("chain {chain}: goodput_ratio"),
                                p.goodput_wall_mbps / base_goodput,
                                norm,
                                min,
                            );
                        }
                        let rp = measure_redirector(chain, cfg);
                        if let Some(&(_, base_pps, _)) =
                            rd_base.iter().find(|(c, _, _)| *c == chain)
                        {
                            gate(
                                &mut ratchet_failures,
                                &format!("chain {chain}: redirector_packets_per_sec_ratio"),
                                rp.packets_per_sec / base_pps,
                                norm,
                                min,
                            );
                        }
                    }
                    for p in [measure_fig4_calendar(false, cfg), measure_fig4_small(cfg)] {
                        if let (Some((_, base_wall)), Some(cal_min)) = (
                            baseline_cal_point(doc, &p.name),
                            cal_gate_min(&p.name, ratchet),
                        ) {
                            gate(
                                &mut ratchet_failures,
                                &format!("calendar {}: wall_ratio", p.name),
                                base_wall / p.wall_secs,
                                norm,
                                cal_min,
                            );
                        }
                    }
                    if ratchet_failures.is_empty() {
                        break;
                    }
                }
            }
        }
        if !ratchet_failures.is_empty() {
            eprintln!("perf ratchet FAILED (threshold {min}):");
            for f in &ratchet_failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("perf ratchet passed (all ratios >= {min})");
    }
}
