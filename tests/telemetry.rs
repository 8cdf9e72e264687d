//! Acceptance test for the unified telemetry layer: a fail-over scenario
//! run through `hydranet-core` must export a JSON report carrying
//! per-stack connection RTO/cwnd histograms, the detector's duplicate-count
//! trajectory, and a timeline whose `detect -> promote` span yields a
//! measured detection latency.

use hydranet::obs::kinds;
use hydranet::prelude::*;

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS1: IpAddr = IpAddr::new(10, 0, 2, 1);
const HS2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE_ADDR: IpAddr = IpAddr::new(192, 20, 225, 20);

fn service() -> SockAddr {
    SockAddr::new(SERVICE_ADDR, 80)
}

/// Client — redirector — two replicated echo servers, chain converged.
/// Returns the system, the client and the primary.
fn two_replica_system() -> (System, NodeId, NodeId) {
    let mut b = SystemBuilder::new(TcpConfig::default());
    b.set_probe_params(ProbeParams {
        timeout: SimDuration::from_millis(200),
        attempts: 2,
    });
    let client = b.add_client("client", CLIENT);
    let rd = b.add_redirector("rd", RD);
    let hs1 = b.add_host_server("hs1", HS1, RD);
    let hs2 = b.add_host_server("hs2", HS2, RD);
    b.link(client, rd, LinkParams::default());
    b.link(rd, hs1, LinkParams::default());
    b.link(rd, hs2, LinkParams::default());
    let detector = DetectorParams::new(4, SimDuration::from_secs(30));
    let sink1 = shared(SinkState::default());
    let sink2 = shared(SinkState::default());
    for (i, (&replica, sink)) in [(hs1, sink1), (hs2, sink2)]
        .iter()
        .map(|(r, s)| (r, s.clone()))
        .enumerate()
    {
        let mut spec = FtServiceSpec::new(service(), vec![replica], detector);
        spec.registration_start = spec
            .registration_start
            .saturating_add(spec.registration_stagger * i as u64);
        b.deploy_ft_service(&spec, move |_q| Box::new(EchoApp::new(sink.clone())));
    }
    let mut system = b.build(11);
    assert!(system.wait_for_chain(rd, service(), 2, SimTime::from_secs(2)));
    (system, client, hs1)
}

/// The primary is crashed mid-transfer so the full fail-over narrative
/// lands on the timeline.
fn run_failover_scenario() -> System {
    let (mut system, client, hs1) = two_replica_system();
    let state = shared(SenderState::default());
    let payload: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
    let app = StreamSenderApp::new(payload, false, state);
    system.connect_client(client, service(), Box::new(app));
    let crash_at = system
        .sim
        .now()
        .saturating_add(SimDuration::from_millis(50));
    system.sim.schedule_crash(hs1, crash_at);
    system.sim.run_until(SimTime::from_secs(60));
    system
}

#[test]
fn failover_run_exports_full_telemetry_report() {
    let system = run_failover_scenario();
    let obs = system.obs();

    // The detect -> promote span is measurable from the timeline.
    let detect = obs
        .first_event_at(kinds::DETECTOR_SUSPECTED)
        .expect("detector fired");
    let latency = system
        .detection_latency_nanos()
        .expect("promotion observed after detection");
    assert!(latency > 0, "promotion cannot be instantaneous");
    let promote = obs
        .first_event_at(kinds::PROMOTED)
        .expect("promotion recorded");
    assert_eq!(promote - detect, latency);

    // The duplicate-count trajectory: each observation carries a running
    // total that must be strictly increasing up to the threshold.
    let dups: Vec<u64> = obs
        .events()
        .iter()
        .filter(|e| e.kind == kinds::DETECTOR_DUPLICATE)
        .map(|e| e.field("total").expect("total field").parse().unwrap())
        .collect();
    assert!(dups.len() >= 4, "threshold-4 detector saw {dups:?}");
    assert!(dups.windows(2).all(|w| w[1] > w[0]), "trajectory {dups:?}");

    // The reconfiguration steps all made it onto the timeline, in causal
    // order.
    for kind in [
        kinds::NODE_CRASHED,
        kinds::FAILURE_REPORTED,
        kinds::PROBE_STARTED,
        kinds::HOST_REMOVED,
        kinds::CHAIN_RECONFIGURED,
        kinds::TABLE_INSTALLED,
    ] {
        let at = obs
            .first_event_at(kind)
            .unwrap_or_else(|| panic!("missing {kind}"));
        assert!(at <= promote, "{kind} after promotion");
    }

    // The JSON report carries the connections' RTO and cwnd histograms (one
    // set per stack, `tcp.stack.<addr>.conn.*`) with real observations,
    // plus the timeline.
    let report = system.telemetry_json("telemetry-acceptance");
    assert!(report.contains("\"scenario\": \"telemetry-acceptance\""));
    let rto = report.match_indices(".rto_us\"").count();
    let cwnd = report.match_indices(".cwnd\"").count();
    assert!(
        rto >= 2,
        "expected client+server rto histograms, found {rto}"
    );
    assert!(
        cwnd >= 2,
        "expected client+server cwnd histograms, found {cwnd}"
    );
    assert!(report.contains("tcp.detector.suspected"));
    assert!(report.contains("mgmt.daemon.promoted"));

    // Histogram handles back the JSON: the client's connection recorded
    // nonzero RTO samples.
    let h = obs.histogram(&format!("tcp.stack.{CLIENT}.conn.rto_us"));
    assert!(h.count() > 0, "client rto histogram empty");
    assert!(h.min() > 0, "rto of zero recorded");
}

/// Client — redirector — one echo replica, with `conns` client streams of
/// 20 kB each run to completion. Returns the system, the client node and
/// the redirector node.
fn run_healthy(seed: u64, conns: usize) -> (System, NodeId, NodeId) {
    let mut b = SystemBuilder::new(TcpConfig::default());
    let client = b.add_client("client", CLIENT);
    let rd = b.add_redirector("rd", RD);
    let hs1 = b.add_host_server("hs1", HS1, RD);
    b.link(client, rd, LinkParams::default());
    b.link(rd, hs1, LinkParams::default());
    let sink = shared(SinkState::default());
    let spec = FtServiceSpec::new(
        service(),
        vec![hs1],
        DetectorParams::new(4, SimDuration::from_secs(30)),
    );
    let app_sink = sink.clone();
    b.deploy_ft_service(&spec, move |_q| Box::new(EchoApp::new(app_sink.clone())));
    let mut system = b.build(seed);
    assert!(system.wait_for_chain(rd, service(), 1, SimTime::from_secs(2)));
    for _ in 0..conns {
        let state = shared(SenderState::default());
        let app = StreamSenderApp::new(vec![7u8; 20_000], false, state);
        system.connect_client(client, service(), Box::new(app));
    }
    system.sim.run_until(SimTime::from_secs(60));
    assert_eq!(sink.borrow().len(), 20_000 * conns);
    (system, client, rd)
}

/// A fault is recorded once, by the simulator, when it fires: a scripted
/// crash and recovery leave the timeline in time order, with one
/// `netsim.node.crashed` and one `netsim.node.recovered`.
#[test]
fn fault_plan_timeline_is_in_time_order() {
    let (mut system, _, hs1) = two_replica_system();
    let crash_at = system
        .sim
        .now()
        .saturating_add(SimDuration::from_millis(50));
    let downtime = SimDuration::from_millis(200);
    FaultPlan::new()
        .crash_for(hs1, crash_at, downtime)
        .apply(&mut system);
    system.sim.run_until(crash_at.saturating_add(downtime * 2));

    let events = system.obs().events();
    let out_of_order = events.windows(2).find(|w| w[1].at_nanos < w[0].at_nanos);
    assert!(
        out_of_order.is_none(),
        "timeline out of order: {out_of_order:?}"
    );
    for kind in [kinds::NODE_CRASHED, kinds::NODE_RECOVERED] {
        let n = events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(n, 1, "{kind} recorded {n} times");
    }
}

#[test]
fn healthy_run_records_no_failover_events() {
    let (system, _, rd) = run_healthy(13, 1);
    let obs = system.obs();
    assert!(system.detection_latency_nanos().is_none());
    for kind in [
        kinds::DETECTOR_SUSPECTED,
        kinds::FAILURE_REPORTED,
        kinds::PROMOTED,
        kinds::HOST_REMOVED,
    ] {
        assert!(obs.first_event_at(kind).is_none(), "spurious {kind}");
    }
    // But steady-state metrics still flowed: the registry's histograms
    // and target-cache counters, and the engine's own stats.
    let report = system.telemetry_json("healthy");
    assert!(report.contains(".srtt_us\""));
    assert!(report.contains(&format!("redirect.table.{RD}.target_cache_hits")));
    assert!(system.redirector(rd).engine().stats().redirected > 0);
}

/// Every dotted key of the report's `metrics` object — the registry's
/// counter and histogram names (histogram fields carry no dot).
fn metric_names(report: &str) -> Vec<String> {
    let metrics =
        &report[report.find("\"metrics\"").unwrap()..report.find("\"timeline\"").unwrap()];
    let pieces: Vec<&str> = metrics.split('"').collect();
    pieces
        .windows(2)
        .skip(1)
        .step_by(2)
        .filter(|w| w[0].contains('.') && w[1].starts_with(": "))
        .map(|w| w[0].to_string())
        .collect()
}

/// The registry's series count is independent of the connection count:
/// connections record into one shared `tcp.stack.<addr>.conn.*` set, and
/// those histograms take exactly one sample per segment a connection
/// processed.
#[test]
fn series_count_is_independent_of_connection_count() {
    let (one, _, _) = run_healthy(13, 1);
    let (many, client, _) = run_healthy(13, 200);
    let names = metric_names(&one.telemetry_json("one"));
    // Counters, then histograms, each sorted: every count a stats struct
    // keeps stays out of the registry.
    let expected = [
        "redirect.table.10.9.0.1.target_cache_hits",
        "redirect.table.10.9.0.1.target_cache_misses",
        "tcp.stack.10.0.1.1.conn.duplicate_segments",
        "tcp.stack.10.0.2.1.conn.duplicate_segments",
        "tcp.stack.10.0.1.1.ackchan.pairs_per_datagram",
        "tcp.stack.10.0.1.1.conn.cwnd",
        "tcp.stack.10.0.1.1.conn.gate_stall_us",
        "tcp.stack.10.0.1.1.conn.rto_us",
        "tcp.stack.10.0.1.1.conn.srtt_us",
        "tcp.stack.10.0.2.1.ackchan.pairs_per_datagram",
        "tcp.stack.10.0.2.1.conn.cwnd",
        "tcp.stack.10.0.2.1.conn.gate_stall_us",
        "tcp.stack.10.0.2.1.conn.rto_us",
        "tcp.stack.10.0.2.1.conn.srtt_us",
    ];
    assert_eq!(names, expected);
    assert_eq!(names, metric_names(&many.telemetry_json("many")));

    // The two `fastpath_*` fields survive only for the `benchmark/`
    // harness: `hits` is always 0 and `misses` counts every segment handed
    // to a connection — which is what `rto_us` samples once each.
    let stats = many.client(client).stack().stats();
    assert_eq!(stats.fastpath_hits, 0);
    let processed = stats.fastpath_misses;
    assert!(
        processed > 200 * 10,
        "200 streams processed {processed} segments"
    );
    let conn_series = |name: &str| {
        many.obs()
            .histogram(&format!("tcp.stack.{CLIENT}.conn.{name}"))
    };
    assert_eq!(conn_series("rto_us").count(), processed);
    assert_eq!(conn_series("cwnd").count(), processed);
    // srtt has no value to sample until a connection's first RTT measurement.
    let srtt = conn_series("srtt_us").count();
    assert!(srtt > 0 && srtt <= processed, "srtt samples {srtt}");
}

/// Per-flow detail lives where it is bounded: with tracing on, a closing
/// connection's span ends with one `final` note carrying its srtt/rto/cwnd
/// and total deposit-gate stall — and the gated primary did stall.
#[test]
fn closing_connection_span_carries_final_summary() {
    let (mut system, client, _) = two_replica_system();
    system.enable_tracing(8192);
    let state = shared(SenderState::default());
    let app = StreamSenderApp::new(vec![5u8; 50_000], true, state);
    system.connect_client(client, service(), Box::new(app));
    system.sim.run_until(SimTime::from_secs(60));

    let dump = system.obs().flight_recorder_json(&[]);
    let finals: Vec<&str> = dump
        .split("\"final\", \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect();
    assert!(finals.len() >= 2, "closing notes: {finals:?}");
    for note in &finals {
        let keys: Vec<&str> = note
            .split(' ')
            .map(|kv| kv.split_once('=').expect("k=v").0)
            .collect();
        assert_eq!(keys, ["srtt_us", "rto_us", "cwnd", "gate_stall_us"]);
        assert!(!note.contains("rto_us=0 "), "{note}");
    }
    assert!(
        finals.iter().any(|n| !n.ends_with("gate_stall_us=0")),
        "the gated primary never stalled: {finals:?}"
    );
}
