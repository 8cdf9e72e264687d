//! `bulk_1k` and `tiny_16`: the paper's Figure 4 testbed — one closed-loop
//! `ttcp` flow over 10 Mb/s links between deliberately slow machines — in
//! the four configurations of the figure. Ported from
//! `crates/bench/src/fig4.rs`; the applications at both ends are the
//! benchmark's own so they can time every write and check every byte.

use std::rc::Rc;

use hydranet_core::prelude::*;

use crate::counts::Counts;
use crate::gen;
use crate::probe::Probe;
use crate::workloads::{member_spec, SimOutcome};

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS1: IpAddr = IpAddr::new(10, 0, 2, 1);
const HS2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE: SockAddr = SockAddr::new(IpAddr::new(192, 20, 225, 20), 5001);

/// The four measurement series of Figure 4, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Unmodified software everywhere, no redirection: the baseline.
    Clean,
    /// HydraNet-FT software on router and receiver, nothing redirected.
    NoRedirect,
    /// Redirected to a sole primary: the tunnelling penalty.
    PrimaryOnly,
    /// Multicast to primary and backup: the full fault-tolerant mode.
    PrimaryBackup,
}

pub const SERIES: [Series; 4] = [
    Series::Clean,
    Series::NoRedirect,
    Series::PrimaryOnly,
    Series::PrimaryBackup,
];

impl Series {
    pub fn label(self) -> &'static str {
        match self {
            Series::Clean => "clean",
            Series::NoRedirect => "no_redirect",
            Series::PrimaryOnly => "primary_only",
            Series::PrimaryBackup => "primary_backup",
        }
    }
}

/// One Figure 4 workload: a write size and a transfer length.
#[derive(Debug, Clone)]
pub struct Fig4Workload {
    pub write_size: usize,
    pub total_bytes: usize,
    /// Stretch each link's propagation delay per seed (see
    /// [`gen::link_delays`]); off, the testbed is `crates/bench`'s exactly.
    pub seeded_cables: bool,
}

/// Generated inputs of one process: the bytes to send and the cable lengths.
#[derive(Debug)]
pub struct Inputs {
    seed: u64,
    /// Shared with every sender: a rep must not copy 8 MiB four times.
    payload: Rc<Vec<u8>>,
    link_delays: Vec<SimDuration>,
}

/// What the two ends of the transfer recorded.
#[derive(Debug, Default)]
struct Progress {
    /// `(bytes accepted by the socket so far, when)`, one entry per pump.
    written: Vec<(u64, SimTime)>,
    /// `(bytes the service application has read so far, when)`.
    received: Vec<(u64, SimTime)>,
    /// Bytes received that were not the filler at their offset.
    corrupt: bool,
}

/// `ttcp -t`: streams the payload as fast as the socket accepts it.
struct Sender {
    payload: Rc<Vec<u8>>,
    cursor: usize,
    progress: Shared<Progress>,
}

impl Sender {
    fn pump(&mut self, io: &mut SocketIo<'_>) {
        let before = self.cursor;
        while self.cursor < self.payload.len() {
            let n = io.write(&self.payload[self.cursor..]);
            if n == 0 {
                break;
            }
            self.cursor += n;
        }
        if self.cursor > before {
            self.progress
                .borrow_mut()
                .written
                .push((self.cursor as u64, io.now()));
        }
    }
}

impl SocketApp for Sender {
    fn on_established(&mut self, io: &mut SocketIo<'_>) {
        self.pump(io);
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        self.pump(io);
    }
}

/// `ttcp -r`: reads everything, checks it against the filler, keeps time.
struct Receiver {
    got: u64,
    progress: Shared<Progress>,
}

impl SocketApp for Receiver {
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        let mut p = self.progress.borrow_mut();
        if !gen::pattern_matches(self.got, &data) {
            p.corrupt = true;
        }
        self.got += data.len() as u64;
        p.received.push((self.got, io.now()));
    }
}

fn receiver(progress: &Shared<Progress>) -> impl Fn(Quad) -> Box<dyn SocketApp> + Clone + 'static {
    let progress = progress.clone();
    move |_q| {
        Box::new(Receiver {
            got: 0,
            progress: progress.clone(),
        })
    }
}

/// A built and converged testbed for one series.
struct Testbed {
    system: System,
    client: NodeId,
    target: SockAddr,
    /// Progress at the measured receiver (the primary) and the sender.
    primary: Shared<Progress>,
    /// Progress at the backup, when the series has one.
    backup: Option<Shared<Progress>>,
}

impl Fig4Workload {
    pub fn prepare(&self, seed: u64) -> Inputs {
        let base = SimDuration::from_micros(200);
        Inputs {
            seed,
            payload: Rc::new(gen::pattern(self.total_bytes)),
            link_delays: if self.seeded_cables {
                gen::link_delays(seed, base, 3)
            } else {
                vec![base; 3]
            },
        }
    }

    /// Builds the testbed of `series` and waits for its chain. Calibrated
    /// per-packet CPU costs stand in for the paper's Pentium/120 hosts and
    /// 486 redirector; delayed ACKs are off and the MSS is pinned to the
    /// write size, so one write is one packet (§5).
    fn build(&self, series: Series, inputs: &Inputs, probe: &mut Probe) -> Testbed {
        let span = probe.open("build");
        let tcp = TcpConfig {
            mss: self.write_size,
            delayed_ack: false,
            ..TcpConfig::default()
        };
        let host_fixed = SimDuration::from_micros(350);
        let host_per_byte = SimDuration::from_nanos(900);
        let router_fixed = SimDuration::from_micros(500);
        let router_per_byte = SimDuration::from_nanos(1200);
        let hydranet_overhead = SimDuration::from_micros(40);
        let clean_host = NodeParams::new(host_fixed, host_per_byte);
        let hydranet_host = NodeParams::new(host_fixed + hydranet_overhead, host_per_byte);
        let clean_router = NodeParams::new(router_fixed, router_per_byte);
        let hydranet_router = NodeParams::new(router_fixed + hydranet_overhead, router_per_byte);
        // Queue above the 64 kB maximum window: the measurement is CPU- and
        // wire-limited, not burst-overflow-limited.
        let link = |i: usize| {
            LinkParams::new(10_000_000, inputs.link_delays[i])
                .with_mtu(1500)
                .with_queue(128)
        };

        let mut b = SystemBuilder::new(tcp.clone());
        let primary = shared(Progress::default());
        let mut backup = None;
        let (client, target, chain_wait) = match series {
            Series::Clean | Series::NoRedirect => {
                let modified = series == Series::NoRedirect;
                let host = if modified { hydranet_host } else { clean_host };
                let client = b.add_client_with("client", CLIENT, tcp.clone(), host);
                let middle = if modified {
                    // Empty redirector table: every packet takes the
                    // table-miss path and is forwarded unchanged.
                    b.add_redirector_with("rd", RD, hydranet_router)
                } else {
                    b.add_router_with("router", clean_router)
                };
                let server = b.add_host_server_with("server", HS1, RD, tcp.clone(), host);
                b.link(client, middle, link(0));
                b.link(middle, server, link(1));
                let factory = receiver(&primary);
                b.configure::<HostServer>(server, move |hs| {
                    hs.stack_mut().listen(SERVICE.port, factory);
                });
                (client, SockAddr::new(HS1, SERVICE.port), None)
            }
            Series::PrimaryOnly | Series::PrimaryBackup => {
                let client = b.add_client_with("client", CLIENT, tcp.clone(), hydranet_host);
                let rd = b.add_redirector_with("rd", RD, hydranet_router);
                let hs1 = b.add_host_server_with("hs1", HS1, RD, tcp.clone(), hydranet_host);
                b.link(client, rd, link(0));
                b.link(rd, hs1, link(1));
                let mut chain = vec![(hs1, primary.clone())];
                if series == Series::PrimaryBackup {
                    let hs2 = b.add_host_server_with("hs2", HS2, RD, tcp.clone(), hydranet_host);
                    b.link(rd, hs2, link(2));
                    let progress = shared(Progress::default());
                    backup = Some(progress.clone());
                    chain.push((hs2, progress));
                }
                // One deployment per replica, so each replica's application
                // reports into its own progress record.
                let base = FtServiceSpec::new(
                    SERVICE,
                    chain.iter().map(|(n, _)| *n).collect(),
                    DetectorParams::DEFAULT,
                );
                for (i, (replica, progress)) in chain.iter().enumerate() {
                    let one = member_spec(&base, i, *replica);
                    b.deploy_ft_service(&one, receiver(progress));
                }
                (client, SERVICE, Some((rd, chain.len())))
            }
        };
        let mut system = b.build(inputs.seed);
        probe.arm(&mut system);
        probe.close(span);

        if let Some((rd, replicas)) = chain_wait {
            let span = probe.open_run("converge", &system);
            let converged = system.wait_for_chain(rd, SERVICE, replicas, SimTime::from_secs(2));
            probe.close_run(span, &system);
            assert!(converged, "{}: replica registration failed", series.label());
        }
        Testbed {
            system,
            client,
            target,
            primary,
            backup,
        }
    }

    /// One set-up, for `setup_s`: inputs generated, every testbed built and
    /// converged, nothing transferred.
    pub fn set_up(&self, seed: u64) {
        let inputs = self.prepare(seed);
        for series in SERIES {
            std::hint::black_box(self.build(series, &inputs, &mut Probe::off()));
        }
    }

    /// Runs the transfer in all four series. The primary+backup series is
    /// the measured replicated path; `clean` is its baseline.
    pub fn run_rep(&self, inputs: &Inputs, probe: &mut Probe) -> SimOutcome {
        let mut out = SimOutcome::default();
        let mut kbps = [0.0f64; 4];
        for (i, series) in SERIES.into_iter().enumerate() {
            let point = self.run_series(series, inputs, probe, &mut out.counts);
            kbps[i] = point.kbps;
            out.attempted += 1;
            if let Some(why) = point.failure {
                out.failed += 1;
                out.failures.push(format!("{}: {why}", series.label()));
            }
            out.payload_bytes_all += point.bytes;
            out.series_kbps.push((series.label(), point.kbps));
            out.series_retransmits
                .push((series.label(), point.retransmits));
            if series == Series::PrimaryBackup {
                out.payload_bytes = point.bytes;
                out.sim_busy_ns = point.duration_ns;
                out.op_ns = point.write_latency_ns;
                out.op_ns.sort_unstable();
            }
        }
        out.ft_overhead_pct = 100.0 * (1.0 - kbps[3] / kbps[0]);
        out
    }

    fn run_series(
        &self,
        series: Series,
        inputs: &Inputs,
        probe: &mut Probe,
        counts: &mut Counts,
    ) -> Point {
        let Testbed {
            mut system,
            client,
            target,
            primary,
            backup,
        } = self.build(series, inputs, probe);

        let span = probe.open_run("transfer", &system);
        let sender = Sender {
            payload: Rc::clone(&inputs.payload),
            cursor: 0,
            progress: primary.clone(),
        };
        let quad = system.connect_client(client, target, Box::new(sender));
        // Poll in 1 ms steps so completion is read with 1 ms accuracy.
        let total = self.total_bytes as u64;
        let done = |p: &Shared<Progress>| p.borrow().received.last().is_some_and(|r| r.0 >= total);
        let deadline = SimTime::from_secs(300);
        while system.sim.now() < deadline && !done(&primary) {
            let next = system.sim.now().saturating_add(SimDuration::from_millis(1));
            system.sim.run_until(next.min(deadline));
            probe.pace();
        }
        probe.close_run(span, &system);

        let retransmits = system
            .client(client)
            .stack()
            .conn(quad)
            .map_or(0, |c| c.retransmit_count());
        counts.absorb_connections(&system);
        counts.absorb_totals(&system);
        probe.retire(&system);

        let p = primary.borrow();
        let (first, last) = match (p.received.first(), p.received.last()) {
            (Some(a), Some(b)) => (a.1, b.1),
            _ => (SimTime::ZERO, SimTime::ZERO),
        };
        let bytes = p.received.last().map_or(0, |r| r.0).min(total);
        let duration_ns = last.duration_since(first).as_nanos();
        // Receiver-side sustained throughput in kB/s, the paper's unit.
        let kbps = if duration_ns == 0 {
            0.0
        } else {
            (bytes as f64 / 1000.0) / (duration_ns as f64 / 1e9)
        };
        let failure = if bytes < total {
            Some(format!("received {bytes} of {total} bytes"))
        } else if p.corrupt {
            Some("receiver saw bytes that were not sent".to_string())
        } else if let Some(b) = &backup {
            let b = b.borrow();
            let got = b.received.last().map_or(0, |r| r.0);
            if got < total {
                Some(format!("backup consumed {got} of {total} bytes"))
            } else if b.corrupt {
                Some("backup saw bytes that were not sent".to_string())
            } else {
                None
            }
        } else {
            None
        };
        Point {
            kbps,
            bytes,
            duration_ns,
            retransmits,
            write_latency_ns: write_latencies(&p, self.write_size as u64, bytes),
            failure,
        }
    }
}

struct Point {
    kbps: f64,
    bytes: u64,
    duration_ns: u64,
    retransmits: u64,
    write_latency_ns: Vec<u64>,
    failure: Option<String>,
}

/// Per-write delivery latency: from the instant a write's last byte was
/// accepted by the client socket to the instant the service application had
/// read it. Both logs are cumulative and ascending, so one merge pass does.
fn write_latencies(p: &Progress, write_size: u64, bytes: u64) -> Vec<u64> {
    let writes = bytes / write_size;
    let mut out = Vec::with_capacity(writes as usize);
    let (mut w, mut r) = (0usize, 0usize);
    for k in 1..=writes {
        let end = k * write_size;
        while p.written[w].0 < end {
            w += 1;
        }
        while p.received[r].0 < end {
            r += 1;
        }
        out.push(p.received[r].1.duration_since(p.written[w].1).as_nanos());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The port must be `crates/bench`'s testbed: with seeded cables off, a
    /// 64 KiB transfer at seed 1 gives the kB/s `fig4::run_point` gives
    /// today (values printed by `hydranet-bench` at the baseline commit).
    #[test]
    fn port_matches_crates_bench_fig4() {
        let w = Fig4Workload {
            write_size: 512,
            total_bytes: 64 * 1024,
            seeded_cables: false,
        };
        let out = w.run_rep(&w.prepare(1), &mut Probe::off());
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        let got: Vec<String> = out
            .series_kbps
            .iter()
            .map(|(label, kbps)| format!("{label}={kbps:.3}"))
            .collect();
        assert_eq!(got, EXPECTED_512, "ported fig4 drifted from crates/bench");
        assert_eq!(out.op_ns.len(), 128);
        assert!(out.ft_overhead_pct > 0.0 && out.ft_overhead_pct < 70.0);
    }

    const EXPECTED_512: [&str; 4] = [
        "clean=321.238",
        "no_redirect=306.142",
        "primary_only=306.002",
        "primary_backup=224.291",
    ];

    #[test]
    fn seeded_cables_move_the_timing_not_the_outcome() {
        let w = Fig4Workload {
            write_size: 1024,
            total_bytes: 32 * 1024,
            seeded_cables: true,
        };
        let a = w.run_rep(&w.prepare(11), &mut Probe::off());
        let again = w.run_rep(&w.prepare(11), &mut Probe::off());
        let b = w.run_rep(&w.prepare(12), &mut Probe::off());
        assert_eq!(a, again, "same seed, same run");
        assert_eq!((a.failed, b.failed), (0, 0));
        assert_ne!(a.op_ns, b.op_ns, "another seed, other cable lengths");
    }

    #[test]
    fn write_latency_merges_the_two_logs() {
        let t = SimTime::from_micros;
        let p = Progress {
            written: vec![(20, t(0)), (40, t(100))],
            received: vec![(10, t(50)), (30, t(150)), (40, t(260))],
            corrupt: false,
        };
        // Writes of 10 bytes: the first two were accepted at t=0, the last
        // two at t=100; they were read at 50, 150, 150 and 260.
        assert_eq!(
            write_latencies(&p, 10, 40),
            vec![50_000, 150_000, 50_000, 160_000]
        );
    }
}
