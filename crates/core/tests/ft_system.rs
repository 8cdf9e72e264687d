//! End-to-end fault-tolerance tests against the assembled system: a
//! mid-chain backup crash under load, and the deterministic-replay
//! guarantee the README advertises.

use hydranet_core::prelude::*;
use hydranet_netsim::profile::EventCategory;

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS: [IpAddr; 3] = [
    IpAddr::new(10, 0, 2, 1),
    IpAddr::new(10, 0, 3, 1),
    IpAddr::new(10, 0, 4, 1),
];

fn service() -> SockAddr {
    SockAddr::new(IpAddr::new(192, 20, 225, 20), 80)
}

struct Deployment {
    system: System,
    client: NodeId,
    rd: NodeId,
    replicas: Vec<NodeId>,
    sinks: Vec<Shared<SinkState>>,
}

/// A converged 3-replica echo chain behind a redirector.
fn deploy(seed: u64) -> Deployment {
    let mut b = SystemBuilder::new(TcpConfig::default());
    b.set_probe_params(ProbeParams {
        timeout: SimDuration::from_millis(200),
        attempts: 2,
    });
    let client = b.add_client("client", CLIENT);
    let rd = b.add_redirector("rd", RD);
    let replicas: Vec<NodeId> = HS
        .iter()
        .enumerate()
        .map(|(i, addr)| b.add_host_server(&format!("hs{}", i + 1), *addr, RD))
        .collect();
    b.link(client, rd, LinkParams::default());
    for &r in &replicas {
        b.link(rd, r, LinkParams::default());
    }
    let sinks: Vec<Shared<SinkState>> = (0..replicas.len())
        .map(|_| shared(SinkState::default()))
        .collect();
    let detector = DetectorParams::new(4, SimDuration::from_secs(60));
    let base = FtServiceSpec::new(service(), replicas.clone(), detector);
    for (i, &replica) in replicas.iter().enumerate() {
        let sink = sinks[i].clone();
        let mut one = FtServiceSpec {
            chain: vec![replica],
            ..base.clone()
        };
        one.registration_start = base
            .registration_start
            .saturating_add(base.registration_stagger * i as u64);
        b.deploy_ft_service(&one, move |_q| Box::new(EchoApp::new(sink.clone())));
    }
    let mut system = b.build(seed);
    assert!(
        system.wait_for_chain(rd, service(), replicas.len(), SimTime::from_secs(3)),
        "chain failed to form"
    );
    Deployment {
        system,
        client,
        rd,
        replicas,
        sinks,
    }
}

/// Streams `payload` through the chain, runs `plan`, and polls until the
/// client has the full echo or `deadline`. Returns (reply bytes, intact).
fn run_transfer(
    d: &mut Deployment,
    payload: &[u8],
    plan: FaultPlan,
    deadline: SimTime,
) -> (usize, bool) {
    let state = shared(SenderState::default());
    let app = StreamSenderApp::new(payload.to_vec(), false, state.clone());
    d.system.connect_client(d.client, service(), Box::new(app));
    plan.apply(&mut d.system);
    let mut step = d.system.sim.now();
    while d.system.sim.now() < deadline {
        if state.borrow().replies.data.len() >= payload.len() {
            break;
        }
        step = step.saturating_add(SimDuration::from_millis(10));
        d.system.sim.run_until(step);
    }
    let st = state.borrow();
    (st.replies.data.len(), st.replies.data == payload)
}

/// The paper's signature scenario, aimed at the middle of the chain: a
/// backup that is neither head nor tail dies while a transfer is in full
/// flight. The estimator must notice (via the ack channel going quiet), the
/// redirector must splice it out, and — critically — the surviving tail
/// must not be left with a permanently gated deposit buffer: both survivors
/// must consume the complete client stream and the client must see the
/// complete echo, exactly once.
#[test]
fn mid_chain_backup_crash_under_load() {
    let mut d = deploy(42);
    let payload: Vec<u8> = (0..60_000).map(|i| (i % 251) as u8).collect();
    let victim = d.replicas[1];
    let plan = FaultPlan::new().crash(victim, SimTime::from_millis(60));

    let (bytes, intact) = run_transfer(&mut d, &payload, plan, SimTime::from_secs(30));
    assert_eq!(bytes, payload.len(), "client reply stream incomplete");
    assert!(intact, "client reply stream corrupted or reordered");

    // The redirector spliced the dead backup out of the chain.
    let chain: Vec<IpAddr> = d
        .system
        .redirector(d.rd)
        .controller()
        .chain(service())
        .expect("service still installed")
        .to_vec();
    assert_eq!(
        chain,
        vec![HS[0], HS[2]],
        "chain did not splice to head+tail"
    );
    assert!(
        d.system.redirector(d.rd).controller().reconfigurations() > 0,
        "no reconfiguration recorded"
    );
    // A mid-chain splice promotes nobody (the head stays head), so there is
    // no detect->promote latency — but the detector must have fired and the
    // controller must have removed the dead host.
    assert!(
        d.system
            .obs()
            .first_event_at("tcp.detector.suspected")
            .is_some(),
        "estimator never suspected the dead backup"
    );
    assert!(
        d.system
            .obs()
            .first_event_at("mgmt.controller.host_removed")
            .is_some(),
        "controller never removed the dead backup"
    );

    // No permanently gated deposit buffer: both survivors consumed the
    // entire client stream even though their chain positions changed
    // mid-transfer.
    assert_eq!(d.sinks[0].borrow().data, payload, "head sink incomplete");
    assert_eq!(d.sinks[2].borrow().data, payload, "tail sink incomplete");
}

/// A deliberately tiny flight recorder must evict retired spans under a
/// traced failover, and the eviction counter must surface in the
/// telemetry JSON. The event-attribution
/// profiler rides along: every simulated event lands in exactly one
/// subsystem bucket, and the hot subsystems are non-empty.
#[test]
fn traced_run_surfaces_evictions_and_attribution() {
    let mut d = deploy(42);
    // Cap of 4 retired spans: ack-channel flushes and redirector fan-outs
    // alone retire far more than that during a 60 kB transfer.
    d.system.enable_tracing(4);
    d.system.enable_profiler();
    let events_before_profiling = d.system.sim.stats().events_processed;
    let payload: Vec<u8> = (0..60_000).map(|i| (i % 251) as u8).collect();
    let plan = FaultPlan::new().crash(d.replicas[1], SimTime::from_millis(60));
    let (bytes, intact) = run_transfer(&mut d, &payload, plan, SimTime::from_secs(30));
    assert_eq!(bytes, payload.len(), "client reply stream incomplete");
    assert!(intact, "client reply stream corrupted");

    // Cap-and-evict: the ring stayed bounded and counted what it shed.
    let evicted = d.system.obs().trace_evicted();
    assert!(evicted > 0, "tiny flight recorder never evicted");
    let json = d.system.telemetry_json("traced");
    assert!(
        json.contains(&format!("\"flight_recorder_evicted\": \"{evicted}\"")),
        "eviction counter missing from telemetry meta: {json}"
    );

    // The flight recorder still dumps (newest spans survive), and the
    // Chrome export is well-formed enough to contain span records.
    let dump = d.system.obs().flight_recorder_json(&[]);
    assert!(dump.contains("\"evicted\""), "{dump}");
    assert!(!d.system.obs().chrome_trace_json().is_empty());

    // Attribution: every processed event is in exactly one bucket, and the
    // subsystems this scenario exercises are all non-empty.
    let profiler = d.system.sim.profiler();
    assert_eq!(
        profiler.total_events(),
        d.system.sim.stats().events_processed - events_before_profiling,
        "profiler lost or double-counted events"
    );
    for subsystem in ["tcp_data", "tcp_ack", "ack_channel", "timers", "redirector"] {
        let cat = EventCategory::ALL
            .into_iter()
            .find(|c| c.name() == subsystem)
            .expect("category present");
        let events = profiler.stats(cat).events;
        assert!(events > 0, "no events attributed to {subsystem}");
    }

    // The instrumented engine is the shipped engine: the same seed with
    // neither tracer nor profiler runs exactly as many events.
    let mut plain = deploy(42);
    let plan = FaultPlan::new().crash(plain.replicas[1], SimTime::from_millis(60));
    let (bytes, intact) = run_transfer(&mut plain, &payload, plan, SimTime::from_secs(30));
    assert!(
        bytes == payload.len() && intact,
        "unobserved run incomplete"
    );
    assert_eq!(
        plain.system.sim.stats().events_processed,
        d.system.sim.stats().events_processed,
        "profiled + traced run diverged from the unobserved run"
    );
}

/// Every run is a pure function of the topology and one RNG seed: repeating
/// the same crash scenario with the same seed replays the identical event
/// sequence, byte counts, and telemetry timeline.
#[test]
fn deterministic_replay() {
    let run = |seed: u64| {
        let mut d = deploy(seed);
        let payload: Vec<u8> = (0..30_000).map(|i| (i % 251) as u8).collect();
        let plan = FaultPlan::new().crash(d.replicas[1], SimTime::from_millis(60));
        let (bytes, intact) = run_transfer(&mut d, &payload, plan, SimTime::from_secs(30));
        let events = d.system.sim.stats().events_processed;
        let timeline = d.system.telemetry_json("deterministic_replay");
        (bytes, intact, events, timeline)
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.0, b.0, "byte counts diverged");
    assert_eq!(a.2, b.2, "event counts diverged");
    assert_eq!(a.3, b.3, "telemetry timelines diverged");
    assert!(a.1, "reply stream must be intact");

    // A different seed still completes, but is allowed to (and in practice
    // does) schedule differently.
    let c = run(8);
    assert!(c.1, "reply stream must be intact under any seed");
}
