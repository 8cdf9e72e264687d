//! Figure 4 reproduction: `ttcp` throughput in four configurations.
//!
//! The paper's testbed (§5): "two Pentium/120 PC and two 486 PCs … we
//! purposely used slow machines to measure the effects of bottlenecks. We
//! set one 486 PC to act as the redirector and the two Pentiums as Primary
//! and Backup. Another 486 PC is client." Links are 10 Mb/s Ethernet.
//! Sender-side batching of small segments is off, so each write is one
//! packet; the write size is the "Packet Size" axis of Figure 4.
//!
//! The reproduction models the slow machines as per-packet CPU costs
//! ([`NodeParams`]): a fixed header-processing cost plus a per-byte copy
//! cost, with the HydraNet-modified kernels slightly more expensive than
//! the clean ones (virtual-host and replicated-port lookups on the fast
//! path). Everything else — tunnelling overhead, multicast copies, chain
//! synchronisation, fragmentation past the MTU — emerges from the protocol
//! implementations themselves.

use hydranet_core::prelude::*;

/// The four measurement series of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig4Config {
    /// "All machines run unmodified system software. No redirection
    /// happens and no services are replicated." The baseline.
    Clean,
    /// "The routers and the receivers run the HydraNet-FT modified system
    /// software. There is no redirection."
    NoRedirection,
    /// "Packets … destined to a port on a non-existent host with a replica
    /// running as Primary server on the host server. There are no backup
    /// servers." Isolates the redirection/tunnelling penalty.
    PrimaryOnly,
    /// "The redirector multicasts packets to the Primary and the Backup
    /// server." The full fault-tolerant mode.
    PrimaryBackup,
}

impl Fig4Config {
    /// All four configurations in the paper's order.
    pub const ALL: [Fig4Config; 4] = [
        Fig4Config::Clean,
        Fig4Config::NoRedirection,
        Fig4Config::PrimaryOnly,
        Fig4Config::PrimaryBackup,
    ];

    /// The label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Fig4Config::Clean => "clean",
            Fig4Config::NoRedirection => "no_redirect",
            Fig4Config::PrimaryOnly => "primary_only",
            Fig4Config::PrimaryBackup => "primary+backup",
        }
    }
}

/// Testbed parameters for the Figure 4 runs.
#[derive(Debug, Clone)]
pub struct Fig4Params {
    /// Link rate (paper: 10 Mb/s Ethernet).
    pub link_bps: u64,
    /// One-way link propagation delay.
    pub link_delay: SimDuration,
    /// Link MTU.
    pub mtu: usize,
    /// Per-packet CPU cost of an *unmodified* kernel on the Pentium hosts.
    pub host_fixed: SimDuration,
    /// Per-byte CPU (copy) cost on hosts.
    pub host_per_byte: SimDuration,
    /// Per-packet CPU cost of the 486 redirector/router.
    pub router_fixed: SimDuration,
    /// Per-byte CPU cost of the 486 redirector/router.
    pub router_per_byte: SimDuration,
    /// Extra per-packet cost of the HydraNet-FT modified kernel (virtual
    /// host and replicated-port checks on the fast path).
    pub hydranet_overhead: SimDuration,
    /// Bytes transferred per measurement point.
    pub total_bytes: usize,
    /// Give up after this much simulated time per point.
    pub deadline: SimTime,
}

impl Default for Fig4Params {
    fn default() -> Self {
        Fig4Params {
            link_bps: 10_000_000,
            link_delay: SimDuration::from_micros(200),
            mtu: 1500,
            host_fixed: SimDuration::from_micros(350),
            host_per_byte: SimDuration::from_nanos(900),
            router_fixed: SimDuration::from_micros(500),
            router_per_byte: SimDuration::from_nanos(1200),
            hydranet_overhead: SimDuration::from_micros(40),
            total_bytes: 256 * 1024,
            deadline: SimTime::from_secs(300),
        }
    }
}

/// The write sizes of Figure 4 (16 … 1024 bytes). The extended sweep in
/// [`extended_write_sizes`] adds sizes around and past the MTU to exhibit
/// the fragmentation drop the paper describes in prose ("beyond packet
/// size of MTU, the throughput drops again … due to the fragmentation of
/// packets", §5).
pub fn paper_write_sizes() -> Vec<usize> {
    vec![16, 32, 64, 128, 256, 512, 1024]
}

/// Paper write sizes plus 1460 (largest single-packet payload at a
/// 1500-byte MTU), 1600 (just past it: two fragments, the worst
/// fixed-cost-per-byte point), and 2048.
pub fn extended_write_sizes() -> Vec<usize> {
    let mut v = paper_write_sizes();
    v.extend([1460, 1600, 2048]);
    v
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// The configuration measured.
    pub config: Fig4Config,
    /// The write ("packet") size in bytes.
    pub write_size: usize,
    /// Receiver-side sustained throughput in kB/s.
    pub throughput_kbps: f64,
    /// Whether the transfer completed before the deadline.
    pub completed: bool,
    /// Client retransmissions during the run.
    pub retransmits: u64,
    /// Simulator events the whole run processed (registration included).
    pub events: u64,
    /// How many of those events were node-timer wakeups.
    pub timers_fired: u64,
}

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS1: IpAddr = IpAddr::new(10, 0, 2, 1);
const HS2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE_ADDR: IpAddr = IpAddr::new(192, 20, 225, 20);
const PORT: u16 = 5001; // ttcp's default port

/// Runs one Figure 4 measurement point.
pub fn run_point(
    config: Fig4Config,
    write_size: usize,
    params: &Fig4Params,
    seed: u64,
) -> Fig4Point {
    run_point_traced(config, write_size, params, seed, None).0
}

/// [`run_point`] with the causal tracer optionally enabled: when
/// `trace_capacity` is set, the run records spans into a flight ring of
/// that size and the Chrome trace-event JSON comes back alongside the
/// point (the `--trace` export of the `fig4` binary). Tracing draws
/// nothing from the simulation RNG, so the measured point is identical
/// either way.
pub fn run_point_traced(
    config: Fig4Config,
    write_size: usize,
    params: &Fig4Params,
    seed: u64,
    trace_capacity: Option<usize>,
) -> (Fig4Point, Option<String>) {
    // ttcp semantics: one write = one packet. The measurement connection
    // runs with MSS = write_size (the paper turned off sender-side
    // batching; pinning the MSS reproduces the one-write-one-packet
    // property exactly).
    // Delayed ACKs are off in every configuration: mixing per-packet and
    // delayed ACKing across series would measure ACK-clocking policy, not
    // HydraNet overhead (and replica connections always report
    // per-packet, see the stack).
    let tcp = TcpConfig {
        mss: write_size,
        delayed_ack: false,
        ..TcpConfig::default()
    };

    let clean_host = NodeParams::new(params.host_fixed, params.host_per_byte);
    let hydranet_host = NodeParams::new(
        params.host_fixed + params.hydranet_overhead,
        params.host_per_byte,
    );
    let clean_router = NodeParams::new(params.router_fixed, params.router_per_byte);
    let hydranet_router = NodeParams::new(
        params.router_fixed + params.hydranet_overhead,
        params.router_per_byte,
    );
    // Queue sized above the 64 kB maximum window so the measurement is
    // CPU/wire-limited rather than burst-overflow-limited (the client can
    // dump a full window back to back).
    let link = LinkParams::new(params.link_bps, params.link_delay)
        .with_mtu(params.mtu)
        .with_queue(128);

    let mut b = SystemBuilder::new(tcp.clone());
    let sink = shared(SinkState::default());

    let (mut system, client, target) = match config {
        Fig4Config::Clean | Fig4Config::NoRedirection => {
            let (host_params, router_is_redirector) = match config {
                Fig4Config::Clean => (clean_host, false),
                _ => (hydranet_host, true),
            };
            let client = b.add_client_with("client", CLIENT, tcp.clone(), host_params);
            let middle = if router_is_redirector {
                // Modified software, empty redirector table: every packet
                // takes the table-miss path and is forwarded unchanged.
                b.add_redirector_with("rd", RD, hydranet_router)
            } else {
                b.add_router_with("router", clean_router)
            };
            // The server runs a plain listener on its own address (no
            // virtual host): HydraNet host-server software only in the
            // NoRedirection case.
            let server = b.add_host_server_with("server", HS1, RD, tcp.clone(), host_params);
            b.link(client, middle, link.clone());
            b.link(middle, server, link.clone());
            let handle = sink.clone();
            b.configure::<HostServer>(server, move |hs| {
                hs.stack_mut()
                    .listen(PORT, move |_q| Box::new(EchoApp::sink(handle.clone())));
            });
            (b.build(seed), client, SockAddr::new(HS1, PORT))
        }
        Fig4Config::PrimaryOnly | Fig4Config::PrimaryBackup => {
            let client = b.add_client_with("client", CLIENT, tcp.clone(), hydranet_host);
            let rd = b.add_redirector_with("rd", RD, hydranet_router);
            let hs1 = b.add_host_server_with("hs1", HS1, RD, tcp.clone(), hydranet_host);
            b.link(client, rd, link.clone());
            b.link(rd, hs1, link.clone());
            let mut chain = vec![hs1];
            if config == Fig4Config::PrimaryBackup {
                let hs2 = b.add_host_server_with("hs2", HS2, RD, tcp.clone(), hydranet_host);
                b.link(rd, hs2, link.clone());
                chain.push(hs2);
            }
            let service = SockAddr::new(SERVICE_ADDR, PORT);
            let base = FtServiceSpec::new(service, chain.clone(), DetectorParams::DEFAULT);
            // Deploy per replica: only the *primary's* application feeds the
            // measurement sink (the backup consumes the same stream, but
            // counting it would double the measured bytes).
            for (i, &replica) in chain.iter().enumerate() {
                let mut one = FtServiceSpec {
                    chain: vec![replica],
                    ..base.clone()
                };
                one.registration_start = base
                    .registration_start
                    .saturating_add(base.registration_stagger * i as u64);
                if i == 0 {
                    let handle = sink.clone();
                    b.deploy_ft_service(&one, move |_q| Box::new(EchoApp::sink(handle.clone())));
                } else {
                    let spare = shared(SinkState::default());
                    b.deploy_ft_service(&one, move |_q| Box::new(EchoApp::sink(spare.clone())));
                }
            }
            let mut system = b.build(seed);
            let rd_node = rd;
            assert!(
                system.wait_for_chain(rd_node, service, chain.len(), SimTime::from_secs(2)),
                "replica registration failed"
            );
            (system, client, service)
        }
    };

    if let Some(capacity) = trace_capacity {
        system.enable_tracing(capacity);
    }
    let cfg = TtcpConfig {
        total_bytes: params.total_bytes,
        write_size,
        deadline: params.deadline,
    };
    let result = run_ttcp(&mut system, client, target, &sink, &cfg);
    let chrome = trace_capacity.map(|_| system.obs().chrome_trace_json());
    let stats = system.sim.stats();
    (
        Fig4Point {
            config,
            write_size,
            throughput_kbps: result.throughput_kbps,
            completed: result.completed,
            retransmits: result.client_retransmits,
            events: stats.events_processed,
            timers_fired: stats.timers_fired,
        },
        chrome,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> Fig4Params {
        Fig4Params {
            total_bytes: 64 * 1024,
            ..Fig4Params::default()
        }
    }

    #[test]
    fn all_configs_complete_at_512() {
        for config in Fig4Config::ALL {
            let p = run_point(config, 512, &quick_params(), 1);
            assert!(p.completed, "{config:?} did not complete");
            assert!(p.throughput_kbps > 0.0);
        }
    }

    #[test]
    fn ordering_matches_paper_at_256() {
        // clean >= no_redirect >= primary_only >= primary_backup, with a
        // modest overall gap ("not unreasonably lower", §5).
        let pts: Vec<f64> = Fig4Config::ALL
            .iter()
            .map(|&c| run_point(c, 256, &quick_params(), 1).throughput_kbps)
            .collect();
        assert!(
            pts[0] >= pts[1],
            "clean {} < no_redirect {}",
            pts[0],
            pts[1]
        );
        assert!(
            pts[1] >= pts[2],
            "no_redirect {} < primary {}",
            pts[1],
            pts[2]
        );
        assert!(
            pts[2] >= pts[3],
            "primary {} < primary+backup {}",
            pts[2],
            pts[3]
        );
        assert!(
            pts[3] > pts[0] * 0.3,
            "ft mode unreasonably slow: {} vs clean {}",
            pts[3],
            pts[0]
        );
    }

    #[test]
    fn throughput_rises_with_write_size() {
        let small = run_point(Fig4Config::Clean, 16, &quick_params(), 1);
        let large = run_point(Fig4Config::Clean, 1024, &quick_params(), 1);
        assert!(
            large.throughput_kbps > small.throughput_kbps * 3.0,
            "16B {} vs 1024B {}",
            small.throughput_kbps,
            large.throughput_kbps
        );
    }

    #[test]
    fn fragmentation_past_mtu_drops_throughput() {
        // 1460 B fills one packet exactly; 1600 B fragments into two, so
        // the per-packet fixed costs are paid twice for barely more data.
        let at_mtu = run_point(Fig4Config::Clean, 1460, &quick_params(), 1);
        let past_mtu = run_point(Fig4Config::Clean, 1600, &quick_params(), 1);
        assert!(
            past_mtu.throughput_kbps < at_mtu.throughput_kbps,
            "no fragmentation drop: 1460B {} vs 1600B {}",
            at_mtu.throughput_kbps,
            past_mtu.throughput_kbps
        );
    }
}
