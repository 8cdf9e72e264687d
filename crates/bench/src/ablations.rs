//! Design-space ablations the paper discusses in prose (§4.3–§4.4):
//!
//! - **A1** detector threshold vs. detection latency and false positives;
//! - **A2** client-visible disruption across a primary fail-over;
//! - **A3** throughput vs. daisy-chain length;
//! - **A4** ack-channel (backup branch) loss vs. throughput and client
//!   retransmissions.

use hydranet_core::prelude::*;
use hydranet_netsim::link::LinkId;

use crate::runner::{run_tasks, Task};

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS: [IpAddr; 4] = [
    IpAddr::new(10, 0, 2, 1),
    IpAddr::new(10, 0, 3, 1),
    IpAddr::new(10, 0, 4, 1),
    IpAddr::new(10, 0, 5, 1),
];
const SERVICE_ADDR: IpAddr = IpAddr::new(192, 20, 225, 20);
const PORT: u16 = 80;

/// The service access point used by all ablations.
pub fn service() -> SockAddr {
    SockAddr::new(SERVICE_ADDR, PORT)
}

/// A deployed star with a client, redirector, and `n` replicas, plus the
/// per-replica sinks and link ids for fault injection.
pub struct Star {
    /// The built system.
    pub system: System,
    /// The client node.
    pub client: NodeId,
    /// The redirector node.
    pub rd: NodeId,
    /// Replica nodes in chain order.
    pub replicas: Vec<NodeId>,
    /// The replica-side sinks (per replica).
    pub sinks: Vec<Shared<SinkState>>,
    /// Link from redirector to each replica (same order).
    pub replica_links: Vec<LinkId>,
    /// Link from client to redirector.
    pub client_link: LinkId,
}

/// Deploys [`service`] on `replicas` — echoing, or a plain sink — one
/// registration per replica, staggered so the chain forms in this order.
/// Returns the per-replica sinks.
pub fn deploy_echo_chain(
    b: &mut SystemBuilder,
    replicas: &[NodeId],
    detector: DetectorParams,
    echo: bool,
) -> Vec<Shared<SinkState>> {
    let base = FtServiceSpec::new(service(), replicas.to_vec(), detector);
    replicas
        .iter()
        .enumerate()
        .map(|(i, &replica)| {
            let sink = shared(SinkState::default());
            let one = FtServiceSpec {
                chain: vec![replica],
                registration_start: base
                    .registration_start
                    .saturating_add(base.registration_stagger * i as u64),
                ..base.clone()
            };
            let app_sink = sink.clone();
            b.deploy_ft_service(&one, move |_q| {
                if echo {
                    Box::new(EchoApp::new(app_sink.clone()))
                } else {
                    Box::new(EchoApp::sink(app_sink.clone()))
                }
            });
            sink
        })
        .collect()
}

/// Builds and converges a star deployment with an echoing service.
pub fn build_star(n_replicas: usize, detector: DetectorParams, echo: bool, seed: u64) -> Star {
    assert!((1..=HS.len()).contains(&n_replicas));
    let mut b = SystemBuilder::new(TcpConfig::default());
    b.set_probe_params(ProbeParams {
        timeout: SimDuration::from_millis(200),
        attempts: 2,
    });
    let client = b.add_client("client", CLIENT);
    let rd = b.add_redirector("rd", RD);
    let mut replicas = Vec::new();
    for (i, addr) in HS.iter().take(n_replicas).enumerate() {
        replicas.push(b.add_host_server(&format!("hs{}", i + 1), *addr, RD));
    }
    let client_link = b.link(client, rd, LinkParams::default());
    let mut replica_links = Vec::new();
    for &r in &replicas {
        replica_links.push(b.link(rd, r, LinkParams::default()));
    }
    let sinks = deploy_echo_chain(&mut b, &replicas, detector, echo);
    let mut system = b.build(seed);
    assert!(
        system.wait_for_chain(rd, service(), n_replicas, SimTime::from_secs(3)),
        "chain failed to form"
    );
    Star {
        system,
        client,
        rd,
        replicas,
        sinks,
        replica_links,
        client_link,
    }
}

/// The `i % 251` byte pattern every echo experiment streams.
pub fn pattern(total: usize) -> Vec<u8> {
    (0..total).map(|i| (i % 251) as u8).collect()
}

/// Connects `client` to [`service`] streaming `payload`, lets `inject`
/// schedule the run's faults (after the connect, so every caller files its
/// events in the same order), then steps the simulation in 20 ms slices
/// until the whole echo is back or `deadline` passes.
pub fn stream_echo(
    system: &mut System,
    client: NodeId,
    payload: Vec<u8>,
    deadline: SimTime,
    inject: impl FnOnce(&mut System),
) -> Shared<SenderState> {
    let total = payload.len();
    let state = shared(SenderState::default());
    let app = StreamSenderApp::new(payload, false, state.clone());
    system.connect_client(client, service(), Box::new(app));
    inject(system);
    let mut step = system.sim.now();
    while system.sim.now() < deadline && state.borrow().replies.data.len() < total {
        step = step.saturating_add(SimDuration::from_millis(20));
        system.sim.run_until(step);
    }
    state
}

// --------------------------------------------------------------------
// A1: detector threshold
// --------------------------------------------------------------------

/// One detector-threshold measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorPoint {
    /// Retransmission threshold swept.
    pub threshold: u32,
    /// Time from the primary's crash to the redirector completing the
    /// reconfiguration (`None` if never detected before the deadline).
    pub detection_latency: Option<SimDuration>,
    /// Estimator misfires in the lossy-but-healthy run: failure reports
    /// sent although every replica was alive.
    pub false_reports: u64,
    /// Of those, how many survived the redirector's probe round and caused
    /// an actual (spurious) reconfiguration.
    pub false_reconfigurations: u64,
}

/// Workload knobs for the A1 sweep. The default reproduces the historical
/// `detector_sweep` sizes; tests and the deterministic-equivalence guard
/// use a scaled-down grid via [`DetectorGridConfig::quick`].
#[derive(Debug, Clone)]
pub struct DetectorGridConfig {
    /// Bytes streamed in the crash run (a).
    pub crash_payload: usize,
    /// Deadline for detecting the crash in run (a).
    pub crash_deadline: SimTime,
    /// Bytes streamed in the lossy-but-healthy run (b).
    pub lossy_payload: usize,
    /// Simulated end time of run (b).
    pub lossy_deadline: SimTime,
    /// Bernoulli loss probability on the primary's branch in run (b).
    pub loss_p: f64,
}

impl Default for DetectorGridConfig {
    fn default() -> Self {
        DetectorGridConfig {
            crash_payload: 200_000,
            crash_deadline: SimTime::from_secs(120),
            lossy_payload: 400_000,
            lossy_deadline: SimTime::from_secs(60),
            loss_p: 0.03,
        }
    }
}

impl DetectorGridConfig {
    /// A scaled-down grid for fast tests (~4× smaller payloads).
    pub fn quick() -> Self {
        DetectorGridConfig {
            crash_payload: 60_000,
            crash_deadline: SimTime::from_secs(60),
            lossy_payload: 100_000,
            lossy_deadline: SimTime::from_secs(20),
            loss_p: 0.03,
        }
    }
}

/// One A1 grid cell: both measurement runs for a single threshold value.
/// Pure function of `(threshold, cfg, seed)` — the unit of parallel work.
pub fn detector_point(threshold: u32, cfg: &DetectorGridConfig, seed: u64) -> DetectorPoint {
    let detector = DetectorParams::new(threshold, SimDuration::from_secs(60));

    // (a) real crash: measure reconfiguration latency.
    let mut star = build_star(2, detector, false, seed);
    let state = shared(SenderState::default());
    let app = StreamSenderApp::new(pattern(cfg.crash_payload), false, state);
    star.system
        .connect_client(star.client, service(), Box::new(app));
    let crash_at = star
        .system
        .sim
        .now()
        .saturating_add(SimDuration::from_millis(50));
    star.system.sim.schedule_crash(star.replicas[0], crash_at);
    let mut detection_latency = None;
    while star.system.sim.now() < cfg.crash_deadline {
        if star
            .system
            .redirector(star.rd)
            .controller()
            .reconfigurations()
            > 0
        {
            detection_latency = Some(star.system.sim.now().duration_since(crash_at));
            break;
        }
        let next = star
            .system
            .sim
            .now()
            .saturating_add(SimDuration::from_millis(10));
        star.system.sim.run_until(next);
    }

    // (b) healthy but lossy: count spurious reconfigurations.
    // The loss sits on the *primary's* branch: packets the backup
    // received but the primary lost make the client retransmit,
    // and those retransmissions are exactly the duplicates the
    // backup's estimator counts — ordinary congestion loss looking
    // like a failure (§4.3's false-positive risk).
    let mut star = build_star(2, detector, false, seed + 1);
    star.system.sim.set_link_impairments(
        star.replica_links[0],
        Impairments::NONE.with_loss(cfg.loss_p),
    );
    let state = shared(SenderState::default());
    let app = StreamSenderApp::new(pattern(cfg.lossy_payload), false, state);
    star.system
        .connect_client(star.client, service(), Box::new(app));
    star.system.sim.run_until(cfg.lossy_deadline);
    let false_reports: u64 = star
        .replicas
        .iter()
        .map(|&r| star.system.host_server(r).daemon().reports_sent())
        .sum();
    let false_reconfigurations = star
        .system
        .redirector(star.rd)
        .controller()
        .reconfigurations();

    DetectorPoint {
        threshold,
        detection_latency,
        false_reports,
        false_reconfigurations,
    }
}

/// A1: sweeps the detector threshold. For each value, measures (a) crash →
/// reconfiguration latency, and (b) reconfigurations triggered by a healthy
/// run over a lossy primary branch (false positives). Each grid cell is an
/// independent task on the experiment engine; results come back in
/// threshold order regardless of thread count.
pub fn detector_sweep(
    thresholds: &[u32],
    cfg: &DetectorGridConfig,
    seed: u64,
    threads: usize,
) -> Vec<DetectorPoint> {
    let tasks = thresholds
        .iter()
        .map(|&threshold| -> Task<DetectorPoint> {
            let cfg = cfg.clone();
            Box::new(move || detector_point(threshold, &cfg, seed))
        })
        .collect();
    run_tasks(tasks, threads)
}

// --------------------------------------------------------------------
// A2: fail-over disruption
// --------------------------------------------------------------------

/// One fail-over measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverPoint {
    /// Scenario label.
    pub scenario: &'static str,
    /// Whether the client's transfer completed.
    pub completed: bool,
    /// Largest client-visible gap between reply bytes.
    pub stall: Option<SimDuration>,
    /// Bytes the client received by the deadline.
    pub bytes: usize,
    /// Detection latency measured on the telemetry timeline (first
    /// `tcp.detector.suspected` → first promotion), when a fail-over ran.
    pub detection_latency: Option<SimDuration>,
    /// The run's full telemetry report (metrics registry + timeline) as
    /// JSON.
    pub telemetry: String,
}

/// The A2 scenario grid: `(label, replica count, crash the primary?)`.
pub const FAILOVER_SCENARIOS: [(&str, usize, bool); 3] = [
    ("no failure (2 replicas)", 2, false),
    ("primary crash (1 backup)", 2, true),
    ("server crash (no backup)", 1, true),
];

/// One A2 scenario run. Pure function of its arguments.
pub fn failover_point(
    scenario: &'static str,
    replicas: usize,
    crash: bool,
    total: usize,
    seed: u64,
) -> FailoverPoint {
    let detector = DetectorParams::new(4, SimDuration::from_secs(60));
    let mut star = build_star(replicas, detector, true, seed);
    let primary = star.replicas[0];
    let deadline = SimTime::from_secs(120);
    let state = stream_echo(
        &mut star.system,
        star.client,
        pattern(total),
        deadline,
        |system| {
            if crash {
                let at = system
                    .sim
                    .now()
                    .saturating_add(SimDuration::from_millis(50));
                system.sim.schedule_crash(primary, at);
            }
        },
    );
    let st = state.borrow();
    FailoverPoint {
        scenario,
        completed: st.replies.data.len() >= total,
        stall: st.replies.max_gap_duration(),
        bytes: st.replies.data.len(),
        detection_latency: star
            .system
            .detection_latency_nanos()
            .map(SimDuration::from_nanos),
        telemetry: star.system.telemetry_json(scenario),
    }
}

/// A2: measures client-visible disruption for (i) a baseline run without
/// failure, (ii) a primary crash with one backup, and (iii) a primary crash
/// with **no** backup (plain single server) — the paper's motivating
/// disaster case.
pub fn failover_disruption(seed: u64) -> Vec<FailoverPoint> {
    FAILOVER_SCENARIOS
        .iter()
        .map(|&(scenario, replicas, crash)| {
            failover_point(scenario, replicas, crash, 600_000, seed)
        })
        .collect()
}

// --------------------------------------------------------------------
// A3: chain length
// --------------------------------------------------------------------

/// One chain-length measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainPoint {
    /// Number of replicas (1 = sole primary).
    pub replicas: usize,
    /// Receiver-side throughput in kB/s (at the primary's application).
    pub throughput_kbps: f64,
    /// Whether the transfer completed.
    pub completed: bool,
}

/// One A3 chain-length point: `ttcp` through an `n`-replica chain. Pure
/// function of `(n, seed)`.
pub fn chain_point(n: usize, seed: u64) -> ChainPoint {
    let mut star = build_star(n, DetectorParams::DEFAULT, false, seed);
    let cfg = TtcpConfig {
        total_bytes: 256 * 1024,
        write_size: 1024,
        deadline: SimTime::from_secs(120),
    };
    let sink = star.sinks[0].clone();
    let result = run_ttcp(&mut star.system, star.client, service(), &sink, &cfg);
    ChainPoint {
        replicas: n,
        throughput_kbps: result.throughput_kbps,
        completed: result.completed,
    }
}

/// A3: upstream `ttcp` throughput vs. number of chained replicas.
pub fn chain_scaling(max_replicas: usize, seed: u64) -> Vec<ChainPoint> {
    (1..=max_replicas).map(|n| chain_point(n, seed)).collect()
}

// --------------------------------------------------------------------
// A4: ack-channel loss
// --------------------------------------------------------------------

/// One ack-channel-loss measurement.
#[derive(Debug, Clone)]
pub struct AckChanPoint {
    /// Loss probability on the backup's branch (which carries both its
    /// inbound multicast copies and its outbound ack-channel reports).
    pub loss: f64,
    /// Receiver-side throughput in kB/s.
    pub throughput_kbps: f64,
    /// Client retransmissions — the cost the paper accepts for the
    /// unreliable UDP channel ("trading low overhead against … client
    /// re-transmissions if packets on the acknowledgement channel are
    /// lost", §4.3).
    pub client_retransmits: u64,
    /// Whether the transfer completed.
    pub completed: bool,
}

/// A4: sweeps loss on the backup branch of a 2-replica chain.
pub fn ackchan_loss(losses: &[f64], seed: u64) -> Vec<AckChanPoint> {
    losses
        .iter()
        .map(|&loss| {
            // A high detector threshold keeps reconfiguration out of the
            // picture: this measures the lossy chain in steady state.
            let detector = DetectorParams::new(1000, SimDuration::from_secs(1));
            let mut star = build_star(2, detector, false, seed);
            star.system
                .sim
                .set_link_impairments(star.replica_links[1], Impairments::NONE.with_loss(loss));
            let cfg = TtcpConfig {
                total_bytes: 128 * 1024,
                write_size: 1024,
                deadline: SimTime::from_secs(240),
            };
            let sink = star.sinks[0].clone();
            let result = run_ttcp(&mut star.system, star.client, service(), &sink, &cfg);
            AckChanPoint {
                loss,
                throughput_kbps: result.throughput_kbps,
                client_retransmits: result.client_retransmits,
                completed: result.completed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_converges_for_all_sizes() {
        for n in 1..=4 {
            let star = build_star(n, DetectorParams::DEFAULT, false, 3);
            assert_eq!(
                star.system
                    .redirector(star.rd)
                    .controller()
                    .chain(service())
                    .unwrap()
                    .len(),
                n
            );
        }
    }

    #[test]
    fn failover_beats_no_backup() {
        let points = failover_disruption(5);
        assert!(points[0].completed, "baseline failed");
        assert!(points[1].completed, "fail-over run failed");
        assert!(
            !points[2].completed,
            "unreplicated server 'survived' a crash"
        );
        // The paper's claim: with a backup the disruption is bounded; with
        // none the service is simply gone.
        let stall = points[1].stall.expect("stall measured");
        assert!(stall < SimDuration::from_secs(30), "stall {stall}");
    }

    #[test]
    fn chain_throughput_decreases_monotonically_ish() {
        let points = chain_scaling(3, 7);
        assert!(points.iter().all(|p| p.completed));
        // Adding replicas must not make things faster.
        assert!(points[0].throughput_kbps >= points[1].throughput_kbps * 0.98);
        assert!(points[1].throughput_kbps >= points[2].throughput_kbps * 0.98);
    }

    #[test]
    fn ackchan_loss_costs_retransmissions() {
        let points = ackchan_loss(&[0.0, 0.05], 9);
        assert!(points[0].completed && points[1].completed);
        assert!(
            points[1].client_retransmits > points[0].client_retransmits,
            "lossy channel should induce client retransmissions: {} vs {}",
            points[1].client_retransmits,
            points[0].client_retransmits
        );
        assert!(points[1].throughput_kbps < points[0].throughput_kbps);
    }
}
