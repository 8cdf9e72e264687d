//! Many-flow scale workload: thousands of concurrent client connections
//! across many replicated services through shared redirectors.
//!
//! Every other bench in this crate drives *one* client flow through one
//! service; this one drives the "heavy traffic from millions of users"
//! regime the ROADMAP targets. The workload is sharded into **cells** —
//! independent deterministic simulations, one per redirector domain — that
//! fan out across the experiment engine ([`crate::runner`]). Each cell:
//!
//! - one client host opening flows with **open-loop Poisson arrivals**
//!   (exponential inter-arrival gaps from [`SimRng`]) across several
//!   replicated services (2-replica chains on two shared host servers),
//!   all through one shared redirector;
//! - **heavy-tailed flow sizes** from a bounded-Pareto distribution
//!   (`min_flow_bytes`, `max_flow_bytes`, `pareto_alpha`);
//! - a background **cross-traffic** bulk transfer competing for the
//!   redirector's link queues;
//! - flows *hold their connections open* after completing, so concurrency
//!   accumulates to the full arrival count and the stack's slab, demux and
//!   deadline-heap paths are exercised at peak population while the hot
//!   flows keep demuxing through the same tables.
//!
//! Each flow speaks a tiny framed protocol: an 8-byte big-endian length
//! header, `size` payload bytes, then the service answers with a 1-byte
//! receipt once the full payload arrived. Connection-completion latency is
//! arrival → receipt, so it covers the handshake, the transfer, the chain's
//! gating, and queueing behind the cross traffic.
//!
//! The merged report is **byte-identical at any runner thread count**:
//! every number in it derives from simulated time or seed-determined state.
//! Wall-clock throughput (events/sec) lives in the `scale` binary's timing
//! section, outside the report.
//!
//! [`SimRng`]: hydranet_netsim::rng::SimRng

use std::fmt::Write as _;

use hydranet_core::prelude::*;
use hydranet_netsim::profile::CategoryStats;
use hydranet_netsim::rng::SimRng;
use hydranet_obs::Obs;
use hydranet_tcp::stack::{SocketApp, SocketIo};

use crate::quantile;
use crate::runner::{run_tasks, total_events, Outcome, RunnerStats, Task};

/// The `scale` binary's number-valued flags (besides `--threads`).
pub const VALUE_FLAGS: &[&str] = &["--cells", "--flows"];

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const CROSS: IpAddr = IpAddr::new(10, 0, 1, 2);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS1: IpAddr = IpAddr::new(10, 0, 2, 1);
const HS2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE_PORT: u16 = 80;
const FLOW_HEADER_LEN: usize = 8;

/// The service access point of service `i` in a cell.
fn service_addr(i: usize) -> SockAddr {
    SockAddr::new(IpAddr::new(192, 20, 225, 10 + i as u8), SERVICE_PORT)
}

/// The cross-traffic service access point.
fn cross_service() -> SockAddr {
    SockAddr::new(IpAddr::new(192, 20, 226, 1), SERVICE_PORT)
}

/// Knobs for the scale workload.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Independent redirector domains (one runner task each).
    pub cells: usize,
    /// Flow arrivals per cell.
    pub flows_per_cell: usize,
    /// Replicated services per cell (flows pick one uniformly).
    pub services: usize,
    /// First cell seed; cell *i* runs with `base_seed + i`.
    pub base_seed: u64,
    /// Window the Poisson arrivals are spread over (open-loop: the rate is
    /// `flows_per_cell / arrival_window`, never feedback-controlled).
    pub arrival_window: SimDuration,
    /// Bounded-Pareto flow-size floor in bytes.
    pub min_flow_bytes: u64,
    /// Bounded-Pareto flow-size ceiling in bytes.
    pub max_flow_bytes: u64,
    /// Bounded-Pareto tail exponent (smaller = heavier tail).
    pub pareto_alpha: f64,
    /// Background bulk-transfer size competing for the shared links.
    pub cross_bytes: usize,
    /// Settle time after the last arrival before the close wave.
    pub drain: SimDuration,
    /// Per-connection socket-buffer size (send and receive). Scaled down
    /// from the general default so 10k+ flows stay within real memory.
    pub buf_bytes: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            cells: 4,
            flows_per_cell: 2_800,
            services: 8,
            base_seed: 70_000,
            arrival_window: SimDuration::from_secs(2),
            min_flow_bytes: 512,
            max_flow_bytes: 32_768,
            pareto_alpha: 1.2,
            cross_bytes: 2_000_000,
            drain: SimDuration::from_secs(3),
            buf_bytes: 8_192,
        }
    }
}

impl ScaleConfig {
    /// A reduced flow-count configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ScaleConfig {
            cells: 2,
            flows_per_cell: 400,
            services: 4,
            cross_bytes: 400_000,
            ..ScaleConfig::default()
        }
    }

    /// A tiny configuration for unit tests (debug-build friendly).
    pub fn tiny() -> Self {
        ScaleConfig {
            cells: 2,
            flows_per_cell: 60,
            services: 2,
            arrival_window: SimDuration::from_millis(400),
            cross_bytes: 60_000,
            drain: SimDuration::from_secs(2),
            ..ScaleConfig::default()
        }
    }
}

/// Everything one cell measured. All fields derive from simulated time or
/// seed-determined state — nothing wall-clock — so outcome vectors compare
/// bit-identical across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// The cell's seed.
    pub seed: u64,
    /// Flow arrivals attempted.
    pub flows: u64,
    /// Flows whose connect was accepted (ephemeral space permitting).
    pub connected: u64,
    /// Flows that received their receipt byte.
    pub completed: u64,
    /// Highest concurrent connection count observed on the client stack.
    pub peak_concurrent: u64,
    /// Payload bytes delivered end-to-end by completed flows.
    pub bytes: u64,
    /// Simulated events processed by the cell.
    pub events: u64,
    /// The most events the cell's calendar held at once.
    pub calendar_peak: u64,
    /// Arrival→receipt latency per completed flow, in completion order.
    pub completion_ns: Vec<u64>,
    /// Client-stack connection-state heap bytes, sampled at peak hold.
    pub client_conn_bytes: u64,
    /// Client-stack live connections at that same sample.
    pub client_conns_at_sample: u64,
    /// Primary host-server connection-state heap bytes at the same instant.
    pub primary_conn_bytes: u64,
    /// Connections still live on the client after the close wave drained.
    pub residual_conns: u64,
}

impl CellOutcome {
    /// Client-side per-flow memory at peak, in bytes.
    pub fn per_flow_bytes(&self) -> u64 {
        self.client_conn_bytes
            .checked_div(self.client_conns_at_sample)
            .unwrap_or(0)
    }
}

impl Outcome for CellOutcome {
    fn events(&self) -> u64 {
        self.events
    }
}

/// Shared per-cell scoreboard the flow apps report into.
#[derive(Debug, Default)]
struct CellBoard {
    completion_ns: Vec<u64>,
    bytes: u64,
}

/// 1 KiB of deterministic filler the client streams from (content never
/// matters to the protocol; only the byte count does).
fn pattern() -> &'static [u8] {
    static PATTERN: [u8; 1024] = {
        let mut p = [0u8; 1024];
        let mut i = 0;
        while i < 1024 {
            p[i] = (i % 251) as u8;
            i += 1;
        }
        p
    };
    &PATTERN
}

/// Client side of one flow: streams the length header plus `size` pattern
/// bytes, then waits for the 1-byte receipt. The connection is *held open*
/// after completion (the scenario's close wave ends it) so concurrency
/// accumulates.
struct FlowApp {
    size: u64,
    /// Bytes written so far across header + payload.
    cursor: u64,
    started_at: SimTime,
    done: bool,
    board: Shared<CellBoard>,
}

impl FlowApp {
    fn new(size: u64, started_at: SimTime, board: Shared<CellBoard>) -> Self {
        FlowApp {
            size,
            cursor: 0,
            started_at,
            done: false,
            board,
        }
    }

    fn pump(&mut self, io: &mut SocketIo<'_>) {
        let header = self.size.to_be_bytes();
        let total = FLOW_HEADER_LEN as u64 + self.size;
        while self.cursor < total {
            let n = if self.cursor < FLOW_HEADER_LEN as u64 {
                io.write(&header[self.cursor as usize..])
            } else {
                let sent = self.cursor - FLOW_HEADER_LEN as u64;
                let remaining = (self.size - sent) as usize;
                let pat = pattern();
                let off = (sent as usize) % pat.len();
                let chunk = remaining.min(pat.len() - off);
                io.write(&pat[off..off + chunk])
            };
            if n == 0 {
                break;
            }
            self.cursor += n as u64;
        }
    }
}

impl SocketApp for FlowApp {
    fn on_established(&mut self, io: &mut SocketIo<'_>) {
        self.pump(io);
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        self.pump(io);
    }

    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        if !data.is_empty() && !self.done {
            self.done = true;
            let mut board = self.board.borrow_mut();
            board
                .completion_ns
                .push(io.now().as_nanos() - self.started_at.as_nanos());
            board.bytes += self.size;
        }
    }
}

/// Service side of one flow: reads the length header, counts payload
/// bytes, and answers with a single receipt byte once the full payload
/// arrived. Deterministic (a pure function of the byte stream), as every
/// replicated application must be.
#[derive(Default)]
struct ReceiptApp {
    header: [u8; FLOW_HEADER_LEN],
    header_got: usize,
    expected: u64,
    got: u64,
    replied: bool,
}

impl SocketApp for ReceiptApp {
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        let mut rest = &data[..];
        if self.header_got < FLOW_HEADER_LEN {
            let take = rest.len().min(FLOW_HEADER_LEN - self.header_got);
            self.header[self.header_got..self.header_got + take].copy_from_slice(&rest[..take]);
            self.header_got += take;
            rest = &rest[take..];
            if self.header_got == FLOW_HEADER_LEN {
                self.expected = u64::from_be_bytes(self.header);
            }
        }
        self.got += rest.len() as u64;
        if self.header_got == FLOW_HEADER_LEN && self.got >= self.expected && !self.replied {
            self.replied = true;
            io.write(&[0xAB]);
        }
    }

    fn on_peer_fin(&mut self, io: &mut SocketIo<'_>) {
        io.close();
    }
}

/// One precomputed arrival.
struct Arrival {
    at: SimTime,
    size: u64,
    service: usize,
}

/// Draws a bounded-Pareto flow size by inverse-CDF.
fn bounded_pareto(rng: &mut SimRng, lo: u64, hi: u64, alpha: f64) -> u64 {
    let u = rng.unit();
    let l = lo as f64;
    let h = hi as f64;
    let ratio = (l / h).powf(alpha);
    let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
    (x as u64).clamp(lo, hi)
}

/// Runs one cell. Pure function of `(cfg, seed)` — the unit of parallel
/// work — returned with the cell's [`EventProfiler`] attribution snapshot.
/// `profile` turns the profiler on; it only measures wall time, so the
/// outcome is identical either way, but the snapshot is wall-clock data and
/// must stay out of the deterministic report (all zeros when off).
///
/// [`EventProfiler`]: hydranet_netsim::profile::EventProfiler
pub fn run_cell(
    cfg: &ScaleConfig,
    seed: u64,
    profile: bool,
) -> (CellOutcome, Vec<(&'static str, CategoryStats)>) {
    let tcp = TcpConfig {
        send_buf: cfg.buf_bytes,
        recv_buf: cfg.buf_bytes,
        // Short TIME_WAIT so the close wave's drain is cheap; the hold
        // phase, not socket lingering, is what sustains concurrency.
        time_wait: SimDuration::from_secs(1),
        ..TcpConfig::default()
    };
    let mut b = SystemBuilder::new(tcp);
    let client = b.add_client("client", CLIENT);
    let cross = b.add_client("cross", CROSS);
    let rd = b.add_redirector("rd", RD);
    let hs1 = b.add_host_server("hs1", HS1, RD);
    let hs2 = b.add_host_server("hs2", HS2, RD);
    // Fast links with deeper queues: the bench measures engine scaling, so
    // the network should carry a 10k-flow storm without collapsing into a
    // retransmission soak (loss still happens when the cross traffic
    // fills a queue — that is the point of the cross traffic).
    let fast = || {
        let mut p = LinkParams::new(1_000_000_000, SimDuration::from_micros(200));
        p.queue_packets = 256;
        p
    };
    b.link(client, rd, fast());
    b.link(cross, rd, fast());
    b.link(rd, hs1, fast());
    b.link(rd, hs2, fast());
    let detector = DetectorParams::new(8, SimDuration::from_secs(120));
    for i in 0..cfg.services {
        // Alternate chain order so primary load splits across the two
        // shared host servers.
        let chain = if i % 2 == 0 {
            vec![hs1, hs2]
        } else {
            vec![hs2, hs1]
        };
        let spec = FtServiceSpec::new(service_addr(i), chain, detector);
        b.deploy_ft_service(&spec, |_quad| Box::new(ReceiptApp::default()));
    }
    let cross_spec = FtServiceSpec::new(cross_service(), vec![hs1], detector);
    b.deploy_ft_service(&cross_spec, |_quad| Box::new(ReceiptApp::default()));
    let mut system = b.build(seed);
    if profile {
        system.enable_profiler();
    }

    // Converge every chain before traffic starts.
    let deadline = SimTime::from_secs(10);
    for i in 0..cfg.services {
        assert!(
            system.wait_for_chain(rd, service_addr(i), 2, deadline),
            "service {i} chain did not converge"
        );
    }
    assert!(system.wait_for_chain(rd, cross_service(), 1, deadline));

    // Precompute the open-loop arrival schedule.
    let mut rng = SimRng::seed_from(seed);
    let start = system.sim.now();
    let window_ns = cfg.arrival_window.as_nanos().max(1) as f64;
    let rate = cfg.flows_per_cell as f64 / window_ns; // arrivals per ns
    let mut arrivals = Vec::with_capacity(cfg.flows_per_cell);
    let mut t = start.as_nanos() as f64;
    for _ in 0..cfg.flows_per_cell {
        t += -(1.0 - rng.unit()).ln() / rate;
        arrivals.push(Arrival {
            at: SimTime::from_nanos(t as u64),
            size: bounded_pareto(
                &mut rng,
                cfg.min_flow_bytes,
                cfg.max_flow_bytes,
                cfg.pareto_alpha,
            ),
            service: rng.range(0, cfg.services as u64) as usize,
        });
    }

    // Background cross traffic: one bulk transfer competing for the shared
    // redirector links for the whole arrival window.
    let cross_state = shared(SenderState::default());
    let payload: Vec<u8> = (0..cfg.cross_bytes).map(|i| (i % 251) as u8).collect();
    system.connect_client(
        cross,
        cross_service(),
        Box::new(StreamSenderApp::new(payload, true, cross_state)),
    );

    // Main arrival loop.
    let board: Shared<CellBoard> = shared(CellBoard::default());
    let mut connected = 0u64;
    let mut peak = 0u64;
    let mut last_at = start;
    for a in &arrivals {
        if a.at > system.sim.now() {
            system.sim.run_until(a.at);
        }
        last_at = a.at;
        let app = FlowApp::new(a.size, system.sim.now(), board.clone());
        if system
            .try_connect_client(client, service_addr(a.service), Box::new(app))
            .is_ok()
        {
            connected += 1;
        }
        peak = peak.max(system.client(client).stack().conn_count() as u64);
    }

    // Drain: let in-flight transfers finish while every flow holds its
    // connection open, then sample the held population.
    system.sim.run_until(last_at.saturating_add(cfg.drain));
    let client_conns = system.client(client).stack().conn_count() as u64;
    peak = peak.max(client_conns);
    let client_conn_bytes = system.client(client).stack().conn_memory_bytes() as u64;
    let primary_conn_bytes = system
        .host_server(hs1)
        .stack()
        .conn_memory_bytes()
        .max(system.host_server(hs2).stack().conn_memory_bytes())
        as u64;

    // Close wave: the client half-closes every held flow; services answer
    // with their own FIN (ReceiptApp closes on peer FIN).
    let close_at = system.sim.now();
    system
        .sim
        .with_node_ctx::<hydranet_core::host::ClientHost, _>(client, |host, ctx| {
            let quads: Vec<Quad> = host.stack().quads().collect();
            let now = ctx.now();
            for q in quads {
                host.stack_mut().with_io(q, now, |io| io.close());
            }
            host.flush(ctx);
        });
    system
        .sim
        .run_until(close_at.saturating_add(SimDuration::from_secs(8)));

    let (completion_ns, bytes) = {
        let b = board.borrow();
        (b.completion_ns.clone(), b.bytes)
    };
    let outcome = CellOutcome {
        seed,
        flows: cfg.flows_per_cell as u64,
        connected,
        completed: completion_ns.len() as u64,
        peak_concurrent: peak,
        bytes,
        events: system.sim.stats().events_processed,
        calendar_peak: system.sim.stats().calendar_peak,
        completion_ns,
        client_conn_bytes,
        client_conns_at_sample: client_conns,
        primary_conn_bytes,
        residual_conns: system.client(client).stack().conn_count() as u64,
    };
    (outcome, system.sim.profiler().snapshot())
}

/// Runs the scale workload across the experiment engine. Outcomes come
/// back in cell order regardless of `threads`.
pub fn run_scale(cfg: &ScaleConfig, threads: usize) -> (Vec<CellOutcome>, RunnerStats) {
    let tasks: Vec<Task<CellOutcome>> = (0..cfg.cells)
        .map(|i| {
            let seed = cfg.base_seed + i as u64;
            let cfg = cfg.clone();
            Task::new(move || run_cell(&cfg, seed, false).0)
        })
        .collect();
    run_tasks(tasks, threads)
}

/// Total payload bytes delivered across a set of outcomes.
pub fn total_bytes(outcomes: &[CellOutcome]) -> u64 {
    outcomes.iter().map(|o| o.bytes).sum()
}

/// Aggregate client-side per-flow memory at peak hold: total sampled
/// connection-state heap bytes over total sampled connections, across all
/// cells. Comes from the stack's slab/buffer accounting
/// (`conn_memory_bytes`), so it prices what the engine actually allocates
/// per held connection — slab slots, socket buffers, boxed cold state —
/// not a struct-size guess.
pub fn aggregate_bytes_per_flow(outcomes: &[CellOutcome]) -> u64 {
    let bytes: u64 = outcomes.iter().map(|o| o.client_conn_bytes).sum();
    let conns: u64 = outcomes.iter().map(|o| o.client_conns_at_sample).sum();
    bytes.checked_div(conns).unwrap_or(0)
}

/// Builds the deterministic merged report: aggregate counts, completion
/// tail latency (p50/p99/p999 over the merged distribution), per-flow
/// memory, events-per-byte, and a per-cell array.
///
/// Contains **no wall-clock data**, so for a fixed `cfg` the string is
/// byte-identical however the cells were scheduled across threads.
pub fn merged_report(cfg: &ScaleConfig, outcomes: &[CellOutcome]) -> String {
    let obs = Obs::enabled();
    let cells = obs.counter("scale.cells");
    let flows = obs.counter("scale.flows");
    let connected = obs.counter("scale.connected");
    let completed = obs.counter("scale.completed");
    let peak = obs.counter("scale.peak_concurrent_flows");
    let bytes = obs.counter("scale.bytes_delivered");
    let events = obs.counter("scale.total_events");
    let residual = obs.counter("scale.residual_conns");
    let h_latency = obs.histogram("scale.completion_ns");
    let h_per_flow = obs.histogram("scale.per_flow_client_bytes");
    let mut merged: Vec<u64> = Vec::new();
    for o in outcomes {
        cells.inc();
        flows.add(o.flows);
        connected.add(o.connected);
        completed.add(o.completed);
        peak.add(o.peak_concurrent);
        bytes.add(o.bytes);
        events.add(o.events);
        residual.add(o.residual_conns);
        for &ns in &o.completion_ns {
            h_latency.record(ns);
        }
        merged.extend_from_slice(&o.completion_ns);
        h_per_flow.record(o.per_flow_bytes());
    }
    merged.sort_unstable();
    let total_bytes = total_bytes(outcomes);
    let events_per_byte = if total_bytes == 0 {
        0.0
    } else {
        total_events(outcomes) as f64 / total_bytes as f64
    };
    let bytes_per_flow = aggregate_bytes_per_flow(outcomes);
    let summary = obs.to_json_with_meta(&[
        ("workload", "scale".into()),
        ("cells", cfg.cells.to_string()),
        ("flows_per_cell", cfg.flows_per_cell.to_string()),
        ("services_per_cell", cfg.services.to_string()),
        ("base_seed", cfg.base_seed.to_string()),
        ("pareto_alpha", format!("{}", cfg.pareto_alpha)),
        (
            "flow_bytes_range",
            format!("{}..{}", cfg.min_flow_bytes, cfg.max_flow_bytes),
        ),
        ("events_per_byte", format!("{events_per_byte:.4}")),
        ("bytes_per_flow", bytes_per_flow.to_string()),
        ("completion_p50_ns", quantile(&merged, 0.50).to_string()),
        ("completion_p99_ns", quantile(&merged, 0.99).to_string()),
        ("completion_p999_ns", quantile(&merged, 0.999).to_string()),
    ]);

    let mut out = String::with_capacity(summary.len() + outcomes.len() * 192);
    out.push_str("{\n\"summary\": ");
    out.push_str(summary.trim_end());
    out.push_str(",\n\"cells\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let mut sorted = o.completion_ns.clone();
        sorted.sort_unstable();
        let _ = write!(
            out,
            "  {{\"seed\": {}, \"flows\": {}, \"connected\": {}, \"completed\": {}, \
             \"peak_concurrent\": {}, \"bytes\": {}, \"events\": {}, \
             \"per_flow_client_bytes\": {}, \"primary_conn_bytes\": {}, \
             \"residual_conns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
            o.seed,
            o.flows,
            o.connected,
            o.completed,
            o.peak_concurrent,
            o.bytes,
            o.events,
            o.per_flow_bytes(),
            o.primary_conn_bytes,
            o.residual_conns,
            quantile(&sorted, 0.50),
            quantile(&sorted, 0.99),
            quantile(&sorted, 0.999)
        );
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cells_complete_and_hold_concurrency() {
        let cfg = ScaleConfig::tiny();
        let (outcomes, stats) = run_scale(&cfg, 1);
        assert_eq!(outcomes.len(), cfg.cells);
        assert_eq!(stats.tasks_completed, cfg.cells as u64);
        for o in &outcomes {
            assert_eq!(o.connected, o.flows, "cell {} refused connects", o.seed);
            assert_eq!(o.completed, o.flows, "cell {} lost flows", o.seed);
            // Flows hold their connections: the peak equals the population.
            assert!(
                o.peak_concurrent >= o.flows,
                "cell {} peak {} < {}",
                o.seed,
                o.peak_concurrent,
                o.flows
            );
            assert_eq!(o.residual_conns, 0, "cell {} leaked conns", o.seed);
            assert!(o.per_flow_bytes() > 0);
            assert!(o.events > 0);
            assert!(o.calendar_peak > 0 && o.calendar_peak < o.events);
        }
    }

    #[test]
    fn merged_report_is_thread_count_invariant() {
        let cfg = ScaleConfig::tiny();
        let (seq, _) = run_scale(&cfg, 1);
        let (par, _) = run_scale(&cfg, 3);
        assert_eq!(seq, par);
        assert_eq!(merged_report(&cfg, &seq), merged_report(&cfg, &par));
    }

    #[test]
    fn merged_report_has_scale_metrics() {
        let cfg = ScaleConfig::tiny();
        let (outcomes, _) = run_scale(&cfg, 2);
        let report = merged_report(&cfg, &outcomes);
        for needle in [
            "\"workload\": \"scale\"",
            "scale.peak_concurrent_flows",
            "scale.completion_ns",
            "\"completion_p999_ns\"",
            "\"events_per_byte\"",
            "\"cells\": [",
            "\"per_flow_client_bytes\"",
            "\"bytes_per_flow\"",
        ] {
            assert!(report.contains(needle), "missing {needle} in {report}");
        }
    }
}
