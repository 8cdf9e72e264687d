//! `flows_3k` and `flows_20k`: thousands of concurrent client connections
//! across replicated services through one shared redirector. Ported from
//! `crates/bench/src/scale.rs` (`run_cell`).
//!
//! Open loop: flows open on a precomputed Poisson schedule whatever the
//! system's progress, with bounded-Pareto sizes; a background bulk transfer
//! competes for the redirector's link queues; every flow holds its
//! connection open after completing, so the stacks run at peak population,
//! and a close wave ends them all. Each flow sends an 8-byte length header
//! and its payload, and the service answers one receipt byte once it has
//! read the whole payload. A flow's latency runs from the instant it was
//! *due* to the receipt, so a stalled generator would show as latency, and
//! how late the generator ran is reported (it must be 0: arrivals are
//! simulated time).

use hydranet_core::prelude::*;

use crate::gen::{self, Arrival, ScheduleShape};
use crate::probe::Probe;
use crate::workloads::SimOutcome;

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const CROSS: IpAddr = IpAddr::new(10, 0, 1, 2);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS1: IpAddr = IpAddr::new(10, 0, 2, 1);
const HS2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE_PORT: u16 = 80;
const HEADER_LEN: usize = 8;

fn service_addr(i: usize) -> SockAddr {
    SockAddr::new(IpAddr::new(192, 20, 225, 10 + i as u8), SERVICE_PORT)
}

fn cross_service() -> SockAddr {
    SockAddr::new(IpAddr::new(192, 20, 226, 1), SERVICE_PORT)
}

/// One many-flow workload: `cells` independent redirector domains run one
/// after another, cell *i* on seed `seed + i`.
#[derive(Debug, Clone)]
pub struct FlowsWorkload {
    pub cells: usize,
    pub flows_per_cell: usize,
    pub services: usize,
    pub arrival_window: SimDuration,
    pub min_flow_bytes: u64,
    pub max_flow_bytes: u64,
    pub pareto_alpha: f64,
    pub cross_bytes: usize,
    /// Settle time after the last arrival before the close wave.
    pub drain: SimDuration,
    /// Per-connection socket buffers, scaled down so 10k+ flows fit memory.
    pub buf_bytes: usize,
}

impl FlowsWorkload {
    /// `scale`'s default cell shape with the given population.
    pub fn new(cells: usize, flows_per_cell: usize) -> Self {
        FlowsWorkload {
            cells,
            flows_per_cell,
            services: 8,
            arrival_window: SimDuration::from_secs(2),
            min_flow_bytes: 512,
            max_flow_bytes: 32_768,
            pareto_alpha: 1.2,
            cross_bytes: 2_000_000,
            drain: SimDuration::from_secs(3),
            buf_bytes: 8_192,
        }
    }

    fn shape(&self) -> ScheduleShape {
        ScheduleShape {
            flows: self.flows_per_cell,
            window: self.arrival_window,
            min_bytes: self.min_flow_bytes,
            max_bytes: self.max_flow_bytes,
            alpha: self.pareto_alpha,
            services: self.services,
        }
    }
}

/// Generated inputs of one process.
#[derive(Debug)]
pub struct Inputs {
    seed: u64,
    /// Per cell: the arrival schedule, anchored at chain convergence.
    schedules: Vec<Vec<Arrival>>,
    /// Filler the flows stream from.
    filler: Vec<u8>,
    /// What the background bulk transfer sends.
    cross_payload: Vec<u8>,
}

/// What the applications of one cell report.
#[derive(Debug, Default)]
struct Board {
    /// Due→receipt latency per completed flow, in completion order.
    completion_ns: Vec<u64>,
    /// Payload bytes of completed flows.
    bytes: u64,
    last_receipt: SimTime,
    /// Payload bytes the service replicas read and found to be the filler.
    verified: u64,
    corrupt: bool,
}

/// Client side of one flow.
struct FlowApp {
    size: u64,
    /// Bytes written so far across header and payload.
    cursor: u64,
    due: SimTime,
    done: bool,
    filler: Shared<Vec<u8>>,
    board: Shared<Board>,
}

impl FlowApp {
    /// Header first, then the payload in writes that end on 1 KiB
    /// boundaries: each write reaches the connection as `scale`'s does, so
    /// segmentation — and with it every simulated instant — is the same.
    fn pump(&mut self, io: &mut SocketIo<'_>) {
        const CHUNK: usize = 1024;
        let header = self.size.to_be_bytes();
        let total = HEADER_LEN as u64 + self.size;
        while self.cursor < total {
            let n = if self.cursor < HEADER_LEN as u64 {
                io.write(&header[self.cursor as usize..])
            } else {
                let sent = (self.cursor - HEADER_LEN as u64) as usize;
                let end = (self.size as usize).min(sent - sent % CHUNK + CHUNK);
                io.write(&self.filler.borrow()[sent..end])
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
                .push(io.now().duration_since(self.due).as_nanos());
            board.bytes += self.size;
            board.last_receipt = io.now();
        }
    }
}

/// Service side of one flow: reads the header, checks the payload against
/// the filler, and answers one receipt byte once it has all arrived. A pure
/// function of the byte stream, as every replicated application must be.
struct ReceiptApp {
    header: [u8; HEADER_LEN],
    header_got: usize,
    expected: u64,
    got: u64,
    replied: bool,
    board: Shared<Board>,
}

impl SocketApp for ReceiptApp {
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        let mut rest = &data[..];
        if self.header_got < HEADER_LEN {
            let take = rest.len().min(HEADER_LEN - self.header_got);
            self.header[self.header_got..self.header_got + take].copy_from_slice(&rest[..take]);
            self.header_got += take;
            rest = &rest[take..];
            if self.header_got == HEADER_LEN {
                self.expected = u64::from_be_bytes(self.header);
            }
        }
        {
            let mut board = self.board.borrow_mut();
            if gen::pattern_matches(self.got, rest) {
                board.verified += rest.len() as u64;
            } else {
                board.corrupt = true;
            }
        }
        self.got += rest.len() as u64;
        if self.header_got == HEADER_LEN && self.got >= self.expected && !self.replied {
            self.replied = true;
            io.write(&[0xAB]);
        }
    }

    fn on_peer_fin(&mut self, io: &mut SocketIo<'_>) {
        io.close();
    }
}

/// A built cell with every chain converged.
struct Cell {
    system: System,
    client: NodeId,
    cross: NodeId,
    board: Shared<Board>,
}

impl FlowsWorkload {
    pub fn prepare(&self, seed: u64) -> Inputs {
        let shape = self.shape();
        Inputs {
            seed,
            schedules: (0..self.cells)
                .map(|i| gen::poisson_schedule(seed + i as u64, &shape))
                .collect(),
            filler: gen::pattern(self.max_flow_bytes as usize),
            cross_payload: gen::pattern(self.cross_bytes),
        }
    }

    fn build(&self, seed: u64, probe: &mut Probe) -> Cell {
        let span = probe.open("build");
        let tcp = TcpConfig {
            send_buf: self.buf_bytes,
            recv_buf: self.buf_bytes,
            // Short TIME_WAIT so the close wave's drain is cheap; the hold
            // phase, not socket lingering, is what sustains concurrency.
            time_wait: SimDuration::from_secs(1),
            ..TcpConfig::default()
        };
        let mut b = SystemBuilder::new(tcp);
        // As `scale` runs it: without coalescing, stale node-timer wakeups
        // are ~95 % of all events at this population.
        b.set_coalesce_node_timers(true);
        let client = b.add_client("client", CLIENT);
        let cross = b.add_client("cross", CROSS);
        let rd = b.add_redirector("rd", RD);
        let hs1 = b.add_host_server("hs1", HS1, RD);
        let hs2 = b.add_host_server("hs2", HS2, RD);
        // Fast links with deep queues: the network should carry the storm
        // without collapsing into a retransmission soak (loss still happens
        // when the cross traffic fills a queue — that is its point).
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
        // A listener is keyed by port alone and every service here shares
        // port 80, so one factory serves them all.
        let board = shared(Board::default());
        let factory = {
            let board = board.clone();
            move |_quad: Quad| -> Box<dyn SocketApp> {
                Box::new(ReceiptApp {
                    header: [0; HEADER_LEN],
                    header_got: 0,
                    expected: 0,
                    got: 0,
                    replied: false,
                    board: board.clone(),
                })
            }
        };
        for i in 0..self.services {
            // Alternate chain order so primary load splits across the two
            // shared host servers.
            let chain = if i % 2 == 0 {
                vec![hs1, hs2]
            } else {
                vec![hs2, hs1]
            };
            let spec = FtServiceSpec::new(service_addr(i), chain, detector);
            b.deploy_ft_service(&spec, factory.clone());
        }
        let cross_spec = FtServiceSpec::new(cross_service(), vec![hs1], detector);
        b.deploy_ft_service(&cross_spec, factory);
        let mut system = b.build(seed);
        probe.arm(&mut system);
        probe.close(span);

        let span = probe.open_run("converge", &system);
        let deadline = SimTime::from_secs(10);
        for i in 0..self.services {
            assert!(
                system.wait_for_chain(rd, service_addr(i), 2, deadline),
                "service {i} chain did not converge"
            );
        }
        assert!(system.wait_for_chain(rd, cross_service(), 1, deadline));
        probe.close_run(span, &system);
        Cell {
            system,
            client,
            cross,
            board,
        }
    }

    /// One set-up, for `setup_s`: schedules generated, every cell built and
    /// its nine chains converged, no flow opened.
    pub fn set_up(&self, seed: u64) {
        let inputs = self.prepare(seed);
        for i in 0..self.cells {
            std::hint::black_box(self.build(inputs.seed + i as u64, &mut Probe::off()));
        }
    }

    pub fn run_rep(&self, inputs: &Inputs, probe: &mut Probe) -> SimOutcome {
        let mut out = SimOutcome::default();
        let filler = shared(inputs.filler.clone());
        for (i, schedule) in inputs.schedules.iter().enumerate() {
            let seed = inputs.seed + i as u64;
            self.run_cell(
                seed,
                schedule,
                &inputs.cross_payload,
                &filler,
                probe,
                &mut out,
            );
        }
        out.op_ns.sort_unstable();
        out
    }

    fn run_cell(
        &self,
        seed: u64,
        schedule: &[Arrival],
        cross_payload: &[u8],
        filler: &Shared<Vec<u8>>,
        probe: &mut Probe,
        out: &mut SimOutcome,
    ) {
        let Cell {
            mut system,
            client,
            cross,
            board,
        } = self.build(seed, probe);
        let start = system.sim.now();
        let due = gen::due_times(start, schedule);

        // Background cross traffic, exactly as `scale` offers it. It never
        // gets going: replicated-port options are keyed by port alone, the
        // cross service shares port 80 with chains on which hs1 is a
        // backup, and a backup's SYN-ACK is diverted — so the SYN is
        // retransmitted into silence and no byte is ever accepted. The
        // flows are the measured operations; this connection is part of
        // the ported load, not an operation (see README, Findings).
        system.connect_client(
            cross,
            cross_service(),
            Box::new(StreamSenderApp::new(
                cross_payload.to_vec(),
                true,
                shared(SenderState::default()),
            )),
        );

        let span = probe.open_run("arrivals", &system);
        let mut connected = 0u64;
        let mut peak = 0u64;
        let mut last_due = start;
        for (a, &at) in schedule.iter().zip(&due) {
            if at > system.sim.now() {
                system.sim.run_until(at);
            }
            probe.pace();
            // How late the generator opens the flow: 0 in simulated time.
            out.lateness_ns = out
                .lateness_ns
                .max(system.sim.now().duration_since(at).as_nanos());
            last_due = at;
            let app = FlowApp {
                size: a.size,
                cursor: 0,
                due: at,
                done: false,
                filler: filler.clone(),
                board: board.clone(),
            };
            if system
                .try_connect_client(client, service_addr(a.service), Box::new(app))
                .is_ok()
            {
                connected += 1;
            }
            peak = peak.max(system.client(client).stack().conn_count() as u64);
        }
        probe.close_run(span, &system);

        // Drain: in-flight transfers finish while every flow holds its
        // connection open; then sample the held population.
        let span = probe.open_run("drain", &system);
        probe.run_until(&mut system, last_due.saturating_add(self.drain));
        probe.close_run(span, &system);
        peak = peak.max(system.client(client).stack().conn_count() as u64);
        out.counts.absorb_connections(&system);

        // Close wave: the client half-closes every held flow; services
        // answer with their own FIN.
        let span = probe.open_run("close_wave", &system);
        let close_at = system.sim.now();
        system
            .sim
            .with_node_ctx::<ClientHost, _>(client, |host, ctx| {
                let quads: Vec<Quad> = host.stack().quads().collect();
                let now = ctx.now();
                for q in quads {
                    host.stack_mut().with_io(q, now, |io| io.close());
                }
                host.flush(ctx);
            });
        probe.run_until(
            &mut system,
            close_at.saturating_add(SimDuration::from_secs(8)),
        );
        probe.close_run(span, &system);

        out.counts.absorb_totals(&system);
        probe.retire(&system);
        let flows = schedule.len() as u64;
        let sent: u64 = schedule.iter().map(|a| a.size).sum();
        let b = board.borrow();
        let completed = b.completion_ns.len() as u64;
        out.attempted += flows;
        out.failed += flows - completed.min(flows);
        let mut fail = |why: String| out.failures.push(format!("cell {seed}: {why}"));
        if completed != flows || connected != flows {
            fail(format!(
                "{completed} of {flows} flows completed, {connected} connected"
            ));
        }
        // Every payload byte reaches both replicas of its service intact.
        if b.corrupt || b.verified != 2 * sent {
            fail(format!(
                "replicas verified {} of {} payload bytes (corrupt: {})",
                b.verified,
                2 * sent,
                b.corrupt
            ));
        }
        if peak < flows {
            fail(format!(
                "peak concurrency {peak} below {flows}: flows did not hold"
            ));
        }
        out.payload_bytes += b.bytes;
        out.payload_bytes_all += b.bytes;
        out.sim_busy_ns += b.last_receipt.duration_since(start).as_nanos();
        out.op_ns.extend_from_slice(&b.completion_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    /// `ScaleConfig::tiny()`'s cell shape.
    fn tiny() -> FlowsWorkload {
        FlowsWorkload {
            cells: 2,
            flows_per_cell: 60,
            services: 2,
            arrival_window: SimDuration::from_millis(400),
            cross_bytes: 60_000,
            drain: SimDuration::from_secs(2),
            ..FlowsWorkload::new(2, 60)
        }
    }

    /// The port must be `scale::run_cell`: on `ScaleConfig::tiny()` at seed
    /// 70000 it completes every flow and gives the merged p50/p99 and event
    /// count `hydranet-bench`'s `scale` gives at the baseline commit.
    #[test]
    fn port_matches_crates_bench_scale() {
        let w = tiny();
        let out = w.run_rep(&w.prepare(70_000), &mut Probe::off());
        assert_eq!(out.failures, Vec::<String>::new());
        assert_eq!((out.attempted, out.failed, out.lateness_ns), (120, 0, 0));
        assert_eq!(
            (
                quantile(&out.op_ns, 0.50),
                quantile(&out.op_ns, 0.99),
                out.payload_bytes,
                out.counts.events
            ),
            EXPECTED_TINY
        );
    }

    const EXPECTED_TINY: (u64, u64, u64, u64) = (10_938_282, 22_401_423, 212_378, 25_816);

    #[test]
    fn reps_repeat_and_seeds_differ() {
        let w = tiny();
        let a = w.run_rep(&w.prepare(5), &mut Probe::off());
        let again = w.run_rep(&w.prepare(5), &mut Probe::off());
        let b = w.run_rep(&w.prepare(6), &mut Probe::off());
        assert_eq!(a, again);
        assert_ne!(a.op_ns, b.op_ns);
        assert_eq!(b.failed, 0);
    }
}
