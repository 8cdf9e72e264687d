//! Operational scenarios from the paper's §4.4 and §1: graceful replica
//! departure, congestion-induced shutdown and re-commissioning, and
//! multi-service / multi-client deployments.

use hydranet::core::host::HostServer;
use hydranet::netsim::link::LinkId;
use hydranet::obs::kinds;
use hydranet::prelude::*;

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const CLIENT2: IpAddr = IpAddr::new(10, 0, 1, 2);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS1: IpAddr = IpAddr::new(10, 0, 2, 1);
const HS2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE_ADDR: IpAddr = IpAddr::new(192, 20, 225, 20);

fn service(port: u16) -> SockAddr {
    SockAddr::new(SERVICE_ADDR, port)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

struct Rig {
    system: System,
    client: NodeId,
    client2: NodeId,
    rd: NodeId,
    hs1: NodeId,
    hs2: NodeId,
}

fn build(echo: bool, seed: u64) -> Rig {
    let mut b = SystemBuilder::new(TcpConfig::default());
    b.set_probe_params(ProbeParams {
        timeout: SimDuration::from_millis(200),
        attempts: 2,
    });
    let client = b.add_client("c1", CLIENT);
    let client2 = b.add_client("c2", CLIENT2);
    let rd = b.add_redirector("rd", RD);
    let hs1 = b.add_host_server("hs1", HS1, RD);
    let hs2 = b.add_host_server("hs2", HS2, RD);
    b.link(client, rd, LinkParams::default());
    b.link(client2, rd, LinkParams::default());
    b.link(rd, hs1, LinkParams::default());
    b.link(rd, hs2, LinkParams::default());
    // Per-replica sinks exist only to give the service deterministic apps;
    // assertions use per-connection reply streams.
    let sinks: Vec<Shared<SinkState>> = (0..2).map(|_| shared(SinkState::default())).collect();
    let detector = DetectorParams::new(4, SimDuration::from_secs(30));
    for (i, &hs) in [hs1, hs2].iter().enumerate() {
        let sink = sinks[i].clone();
        let mut spec = FtServiceSpec::new(service(80), vec![hs], detector);
        spec.registration_start = SimTime::from_millis(1 + 20 * i as u64);
        b.deploy_ft_service(&spec, move |_q| {
            if echo {
                Box::new(EchoApp::new(sink.clone()))
            } else {
                Box::new(EchoApp::sink(sink.clone()))
            }
        });
    }
    let mut system = b.build(seed);
    assert!(system.wait_for_chain(rd, service(80), 2, SimTime::from_secs(2)));
    Rig {
        system,
        client,
        client2,
        rd,
        hs1,
        hs2,
    }
}

#[test]
fn graceful_primary_departure_promotes_backup() {
    // §4.4 "Deletion of primary server": a voluntary leave needs no failure
    // detection at all — the redirector immediately promotes the next
    // backup, so the disruption is far smaller than a crash.
    let mut rig = build(true, 1);
    let payload = pattern(400_000);
    let replies = shared(SenderState::default());
    rig.system.connect_client(
        rig.client,
        service(80),
        Box::new(StreamSenderApp::new(
            payload.clone(),
            false,
            replies.clone(),
        )),
    );
    rig.system.sim.run_for(SimDuration::from_millis(50));
    // The primary announces its departure, then (a moment later, having
    // flushed) goes down for maintenance.
    let hs1 = rig.hs1;
    rig.system
        .sim
        .with_node_ctx::<HostServer, _>(hs1, |host, ctx| {
            host.deregister(ctx, service(80));
        });
    let leave_at = rig
        .system
        .sim
        .now()
        .saturating_add(SimDuration::from_millis(200));
    rig.system.sim.schedule_crash(rig.hs1, leave_at);

    let deadline = SimTime::from_secs(60);
    let mut step = rig.system.sim.now();
    while rig.system.sim.now() < deadline && replies.borrow().replies.data.len() < payload.len() {
        step = step.saturating_add(SimDuration::from_millis(20));
        rig.system.sim.run_until(step);
    }
    let st = replies.borrow();
    assert_eq!(st.replies.data, payload, "stream broken by graceful leave");
    assert!(!st.replies.reset);
    // Graceful departure must be far less disruptive than crash fail-over:
    // no detection delay, no probe round.
    let stall = st.replies.max_gap_duration().expect("gap measured");
    assert!(
        stall < SimDuration::from_millis(600),
        "graceful leave stalled {stall} — should not need failure detection"
    );
    assert_eq!(
        rig.system
            .redirector(rig.rd)
            .controller()
            .chain(service(80))
            .unwrap(),
        &[HS2]
    );
}

#[test]
fn congested_backup_is_shed_then_recommissioned() {
    // §1: "it should be possible to temporarily shut down servers when they
    // cause service disruption due to congestion, and bring them back in
    // when the congestion clears."
    let mut rig = build(true, 2);
    let backup_link = LinkId::from_index(3); // rd <-> hs2 (4th link built)
    let payload = pattern(900_000);
    let sender = shared(SenderState::default());
    rig.system.connect_client(
        rig.client,
        service(80),
        Box::new(StreamSenderApp::new(payload.clone(), false, sender.clone())),
    );
    rig.system.sim.run_for(SimDuration::from_millis(40));
    // Severe congestion on the backup's branch: effectively unusable.
    rig.system
        .sim
        .set_link_impairments(backup_link, Impairments::NONE.with_loss(0.9));

    // The broken chain stalls the primary; the estimator fires; the
    // redirector probes. The congested backup often cannot answer probes
    // through 90% loss either, so it is shed.
    let deadline = SimTime::from_secs(300);
    let mut step = rig.system.sim.now();
    while rig.system.sim.now() < deadline {
        step = step.saturating_add(SimDuration::from_millis(50));
        rig.system.sim.run_until(step);
        let len = rig
            .system
            .redirector(rig.rd)
            .controller()
            .chain(service(80))
            .map_or(0, <[IpAddr]>::len);
        if len == 1 {
            break;
        }
    }
    assert_eq!(
        rig.system
            .redirector(rig.rd)
            .controller()
            .chain(service(80))
            .unwrap(),
        &[HS1],
        "congested backup was not shed"
    );
    // Service resumes for the ongoing transfer: the client's own echo
    // stream completes (per-connection signal, immune to sink sharing).
    let mut step = rig.system.sim.now();
    while rig.system.sim.now() < deadline && sender.borrow().replies.data.len() < payload.len() {
        step = step.saturating_add(SimDuration::from_millis(50));
        rig.system.sim.run_until(step);
    }
    assert_eq!(
        sender.borrow().replies.data,
        payload,
        "service did not recover"
    );

    // Congestion clears; the operator re-commissions the backup.
    rig.system
        .sim
        .set_link_impairments(backup_link, Impairments::NONE);
    let hs2 = rig.hs2;
    rig.system
        .sim
        .with_node_ctx::<HostServer, _>(hs2, |host, ctx| {
            host.register_now(
                ctx,
                service(80),
                DetectorParams::new(4, SimDuration::from_secs(30)),
            );
        });
    let rejoin_deadline = rig
        .system
        .sim
        .now()
        .saturating_add(SimDuration::from_secs(5));
    assert!(
        rig.system
            .wait_for_chain(rig.rd, service(80), 2, rejoin_deadline),
        "backup did not rejoin after congestion cleared"
    );
    assert_eq!(
        rig.system
            .redirector(rig.rd)
            .controller()
            .chain(service(80))
            .unwrap(),
        &[HS1, HS2]
    );

    // A new connection uses the restored chain end to end: its echo from
    // the gated primary only flows if the rejoined backup's ack-channel
    // reports do too.
    let payload2 = pattern(50_000);
    let replies2 = shared(SenderState::default());
    rig.system.connect_client(
        rig.client2,
        service(80),
        Box::new(StreamSenderApp::new(
            payload2.clone(),
            false,
            replies2.clone(),
        )),
    );
    let mut step = rig.system.sim.now();
    let deadline2 = rig
        .system
        .sim
        .now()
        .saturating_add(SimDuration::from_secs(60));
    while rig.system.sim.now() < deadline2 && replies2.borrow().replies.data.len() < payload2.len()
    {
        step = step.saturating_add(SimDuration::from_millis(20));
        rig.system.sim.run_until(step);
    }
    assert_eq!(
        replies2.borrow().replies.data,
        payload2,
        "new connection through the re-commissioned chain did not complete"
    );
}

/// The controller's chain for `service(80)`.
fn chain(rig: &Rig) -> Vec<IpAddr> {
    let controller = rig.system.redirector(rig.rd).controller();
    controller.chain(service(80)).unwrap_or_default().to_vec()
}

/// Crashes hs2 10 ms from now, recovers it 490 ms later and runs on for
/// two seconds, long enough for any re-registration to settle.
fn restart_hs2(rig: &mut Rig) {
    let at = |ms| {
        rig.system
            .sim
            .now()
            .saturating_add(SimDuration::from_millis(ms))
    };
    let (crash, recover, settled) = (at(10), at(500), at(2_500));
    rig.system.sim.schedule_crash(rig.hs2, crash);
    rig.system.sim.schedule_recover(rig.hs2, recover);
    rig.system.sim.run_until(settled);
}

#[test]
fn deregistered_replica_stays_out_across_a_restart() {
    // A voluntary departure is configuration, like a registration: the
    // replica that left does not rejoin when its host restarts.
    let mut rig = build(true, 5);
    let hs2 = rig.hs2;
    rig.system
        .sim
        .with_node_ctx::<HostServer, _>(hs2, |host, ctx| host.deregister(ctx, service(80)));
    rig.system.sim.run_for(SimDuration::from_millis(100));
    assert_eq!(chain(&rig), [HS1]);
    restart_hs2(&mut rig);
    assert_eq!(chain(&rig), [HS1], "the departed replica rejoined");
}

#[test]
fn recommissioned_replica_registers_once_per_restart() {
    // Re-commissioning a replica the host already runs must not leave it
    // listed twice, or every restart would register it twice.
    let mut rig = build(true, 6);
    let registrations = |rig: &Rig| {
        let host = HS2.to_string();
        let events = rig.system.obs().events();
        let of_hs2 = events.iter().filter(|e| {
            e.kind == kinds::REPLICA_REGISTERED && e.fields.contains(&("host", host.clone()))
        });
        of_hs2.count()
    };
    let hs2 = rig.hs2;
    rig.system
        .sim
        .with_node_ctx::<HostServer, _>(hs2, |host, ctx| {
            host.register_now(
                ctx,
                service(80),
                DetectorParams::new(4, SimDuration::from_secs(30)),
            );
        });
    rig.system.sim.run_for(SimDuration::from_millis(100));
    assert_eq!(registrations(&rig), 2, "the first and the re-commissioning");
    restart_hs2(&mut rig);
    assert_eq!(registrations(&rig), 3, "one registration per restart");
    assert_eq!(chain(&rig), [HS1, HS2]);
}

#[test]
fn two_clients_share_a_failover() {
    // Both clients hold connections through the same crash; both streams
    // complete intact.
    let mut rig = build(true, 3);
    let p1 = pattern(250_000);
    let p2 = pattern(330_000);
    let r1 = shared(SenderState::default());
    let r2 = shared(SenderState::default());
    rig.system.connect_client(
        rig.client,
        service(80),
        Box::new(StreamSenderApp::new(p1.clone(), false, r1.clone())),
    );
    rig.system.connect_client(
        rig.client2,
        service(80),
        Box::new(StreamSenderApp::new(p2.clone(), false, r2.clone())),
    );
    let crash_at = rig
        .system
        .sim
        .now()
        .saturating_add(SimDuration::from_millis(60));
    rig.system.sim.schedule_crash(rig.hs1, crash_at);
    let deadline = SimTime::from_secs(180);
    let mut step = rig.system.sim.now();
    while rig.system.sim.now() < deadline {
        let done = r1.borrow().replies.data.len() >= p1.len()
            && r2.borrow().replies.data.len() >= p2.len();
        if done {
            break;
        }
        step = step.saturating_add(SimDuration::from_millis(50));
        rig.system.sim.run_until(step);
    }
    assert_eq!(r1.borrow().replies.data, p1, "client 1 stream");
    assert_eq!(r2.borrow().replies.data, p2, "client 2 stream");
    assert!(!r1.borrow().replies.reset && !r2.borrow().replies.reset);
}

#[test]
fn two_services_on_one_chain_fail_over_together() {
    // One crash, two replicated ports: both services reconfigure.
    let mut b = SystemBuilder::new(TcpConfig::default());
    b.set_probe_params(ProbeParams {
        timeout: SimDuration::from_millis(200),
        attempts: 2,
    });
    let client = b.add_client("c", CLIENT);
    let rd = b.add_redirector("rd", RD);
    let hs1 = b.add_host_server("hs1", HS1, RD);
    let hs2 = b.add_host_server("hs2", HS2, RD);
    b.link(client, rd, LinkParams::default());
    b.link(rd, hs1, LinkParams::default());
    b.link(rd, hs2, LinkParams::default());
    let detector = DetectorParams::new(4, SimDuration::from_secs(30));
    let mut sinks = Vec::new();
    for (i, &hs) in [hs1, hs2].iter().enumerate() {
        for port in [80u16, 8080] {
            let sink = shared(SinkState::default());
            let mut spec = FtServiceSpec::new(service(port), vec![hs], detector);
            spec.registration_start = SimTime::from_millis(1 + 10 * i as u64);
            let s = sink.clone();
            b.deploy_ft_service(&spec, move |_q| Box::new(EchoApp::new(s.clone())));
            if i == 0 {
                sinks.push(sink); // primary-side sinks only
            }
        }
    }
    let mut system = b.build(4);
    assert!(system.wait_for_chain(rd, service(80), 2, SimTime::from_secs(2)));
    assert!(system.wait_for_chain(rd, service(8080), 2, SimTime::from_secs(2)));

    let pa = pattern(200_000);
    let pb = pattern(150_000);
    let ra = shared(SenderState::default());
    let rb = shared(SenderState::default());
    system.connect_client(
        client,
        service(80),
        Box::new(StreamSenderApp::new(pa.clone(), false, ra.clone())),
    );
    system.connect_client(
        client,
        service(8080),
        Box::new(StreamSenderApp::new(pb.clone(), false, rb.clone())),
    );
    let crash_at = system
        .sim
        .now()
        .saturating_add(SimDuration::from_millis(60));
    system.sim.schedule_crash(hs1, crash_at);
    let deadline = SimTime::from_secs(180);
    let mut step = system.sim.now();
    while system.sim.now() < deadline {
        if ra.borrow().replies.data.len() >= pa.len() && rb.borrow().replies.data.len() >= pb.len()
        {
            break;
        }
        step = step.saturating_add(SimDuration::from_millis(50));
        system.sim.run_until(step);
    }
    assert_eq!(ra.borrow().replies.data, pa, "service :80 stream");
    assert_eq!(rb.borrow().replies.data, pb, "service :8080 stream");
    assert_eq!(
        system
            .redirector(rd)
            .controller()
            .chain(service(80))
            .unwrap(),
        &[HS2]
    );
    assert_eq!(
        system
            .redirector(rd)
            .controller()
            .chain(service(8080))
            .unwrap(),
        &[HS2]
    );
}
