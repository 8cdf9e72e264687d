//! Quickstart: deploy a fault-tolerant echo service on two host servers,
//! talk to it over one ordinary TCP connection, then crash the primary
//! mid-conversation and watch the client finish without noticing.
//!
//! Run with: `cargo run --example quickstart`

use hydranet::prelude::*;

fn main() {
    // --- topology -------------------------------------------------------
    // client --- redirector --- host server 1 (primary)
    //                       \-- host server 2 (backup)
    let mut b = SystemBuilder::new(TcpConfig::default());
    let client = b.add_client("client", IpAddr::new(10, 0, 1, 1));
    let rd_addr = IpAddr::new(10, 9, 0, 1);
    let rd = b.add_redirector("redirector", rd_addr);
    let hs1 = b.add_host_server("hs1", IpAddr::new(10, 0, 2, 1), rd_addr);
    let hs2 = b.add_host_server("hs2", IpAddr::new(10, 0, 3, 1), rd_addr);
    b.link(client, rd, LinkParams::default());
    b.link(rd, hs1, LinkParams::default());
    b.link(rd, hs2, LinkParams::default());

    // --- deploy the replicated service -----------------------------------
    // The service lives at a virtual-host address: no physical machine owns
    // 192.20.225.20 — both replicas answer for it (the paper's v_host).
    let service = SockAddr::new(IpAddr::new(192, 20, 225, 20), 7);
    let detector = DetectorParams::new(4, SimDuration::from_secs(30));
    let spec = FtServiceSpec::new(service, vec![hs1, hs2], detector);
    let seen = shared(SinkState::default());
    let handle = seen.clone();
    b.deploy_ft_service(&spec, move |_quad| Box::new(EchoApp::new(handle.clone())));

    let mut system = b.build(42);
    assert!(system.wait_for_chain(rd, service, 2, SimTime::from_secs(2)));
    println!(
        "chain formed: {:?}",
        system.redirector(rd).controller().chain(service).unwrap()
    );

    // --- client: one plain TCP connection --------------------------------
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    let replies = shared(SenderState::default());
    let app = StreamSenderApp::new(payload.clone(), false, replies.clone());
    system.connect_client(client, service, Box::new(app));

    // --- crash the primary mid-transfer -----------------------------------
    let crash_at = system
        .sim
        .now()
        .saturating_add(SimDuration::from_millis(60));
    system.sim.schedule_crash(hs1, crash_at);
    println!("primary hs1 will crash at {crash_at}");

    let deadline = SimTime::from_secs(120);
    let mut step = system.sim.now();
    while system.sim.now() < deadline {
        if replies.borrow().replies.data.len() >= payload.len() {
            break;
        }
        step = step.saturating_add(SimDuration::from_millis(50));
        system.sim.run_until(step);
    }

    // --- results ----------------------------------------------------------
    let st = replies.borrow();
    assert_eq!(
        st.replies.data, payload,
        "echo stream corrupted or incomplete"
    );
    assert!(!st.replies.reset, "client connection was reset");
    println!(
        "client received the full {} byte echo at {} — connection never reset: {}",
        st.replies.data.len(),
        st.replies.last_byte_at.unwrap(),
        !st.replies.reset
    );
    if let Some(stall) = st.replies.max_gap_duration() {
        println!("largest client-visible stall during fail-over: {stall}");
    }
    println!(
        "surviving chain: {:?} (reconfigurations: {})",
        system.redirector(rd).controller().chain(service).unwrap(),
        system.redirector(rd).controller().reconfigurations()
    );
}
