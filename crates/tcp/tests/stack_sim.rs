//! Stack-over-simulator integration: plain (non-replicated) TCP between
//! hosts across links and routers.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{pattern, CollectApp, Collected, Ends, SendOnceApp, StackHost};
use hydranet_netsim::prelude::*;
use hydranet_tcp::prelude::*;

const CLIENT_ADDR: IpAddr = IpAddr::new(10, 0, 1, 1);
const SERVER_ADDR: IpAddr = IpAddr::new(10, 0, 2, 1);

fn two_hosts(link: LinkParams) -> (Simulator, NodeId, NodeId) {
    let mut t = TopologyBuilder::new();
    let client = t.add_node(
        StackHost::new("client", CLIENT_ADDR, TcpConfig::default()),
        NodeParams::INSTANT,
    );
    let server = t.add_node(
        StackHost::new("server", SERVER_ADDR, TcpConfig::default()),
        NodeParams::INSTANT,
    );
    t.connect(client, server, link);
    (t.into_simulator(7), client, server)
}

fn start_echo_server(sim: &mut Simulator, server: NodeId, port: u16) -> common::Collected {
    let received = Rc::new(RefCell::new(Vec::new()));
    let handle = received.clone();
    sim.node_mut::<StackHost>(server)
        .stack
        .listen(port, move |_quad| {
            Box::new(CollectApp::new(handle.clone(), true))
        });
    received
}

fn start_client(
    sim: &mut Simulator,
    client: NodeId,
    remote: SockAddr,
    payload: Vec<u8>,
) -> (Collected, Ends) {
    let received = Collected::default();
    let ends = Ends::default();
    let app = SendOnceApp {
        payload,
        received: received.clone(),
        close_after: None,
        ends: ends.clone(),
    };
    sim.with_node_ctx::<StackHost, _>(client, |host, ctx| {
        host.stack
            .connect(remote, Box::new(app), ctx.now())
            .expect("connect");
        host.flush(ctx);
    });
    (received, ends)
}

#[test]
fn echo_round_trip_over_simulated_link() {
    let (mut sim, client, server) = two_hosts(LinkParams::default());
    let server_rx = start_echo_server(&mut sim, server, 80);
    let payload = pattern(10_000);
    let (client_rx, _) = start_client(
        &mut sim,
        client,
        SockAddr::new(SERVER_ADDR, 80),
        payload.clone(),
    );
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(*server_rx.borrow(), payload);
    assert_eq!(*client_rx.borrow(), payload);
}

#[test]
fn echo_survives_link_loss() {
    let link = LinkParams::default().with_impairments(Impairments::NONE.with_loss(0.05));
    let (mut sim, client, server) = two_hosts(link);
    let server_rx = start_echo_server(&mut sim, server, 80);
    let payload = pattern(20_000);
    let (client_rx, _) = start_client(
        &mut sim,
        client,
        SockAddr::new(SERVER_ADDR, 80),
        payload.clone(),
    );
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(*server_rx.borrow(), payload, "upstream corrupted");
    assert_eq!(*client_rx.borrow(), payload, "echo corrupted");
}

#[test]
fn transfer_through_router_hop() {
    let mut t = TopologyBuilder::new();
    let client = t.add_node(
        StackHost::new("client", CLIENT_ADDR, TcpConfig::default()),
        NodeParams::INSTANT,
    );
    let router = t.add_node(RouterNode::new("r1"), NodeParams::INSTANT);
    let server = t.add_node(
        StackHost::new("server", SERVER_ADDR, TcpConfig::default()),
        NodeParams::INSTANT,
    );
    let (_, _c_if, r_if_c) = t.connect(client, router, LinkParams::default());
    let (_, r_if_s, _s_if) = t.connect(router, server, LinkParams::default());
    {
        let routes = t.node_mut::<RouterNode>(router).routes_mut();
        routes.add(Prefix::new(IpAddr::new(10, 0, 1, 0), 24), r_if_c);
        routes.add(Prefix::new(IpAddr::new(10, 0, 2, 0), 24), r_if_s);
    }
    let mut sim = t.into_simulator(9);
    let server_rx = start_echo_server(&mut sim, server, 8080);
    let payload = pattern(5_000);
    let (client_rx, _) = start_client(
        &mut sim,
        client,
        SockAddr::new(SERVER_ADDR, 8080),
        payload.clone(),
    );
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(*server_rx.borrow(), payload);
    assert_eq!(*client_rx.borrow(), payload);
}

#[test]
fn syn_to_closed_port_gets_rst() {
    let (mut sim, client, _server) = two_hosts(LinkParams::default());
    let (client_rx, ends) =
        start_client(&mut sim, client, SockAddr::new(SERVER_ADDR, 9), pattern(10));
    sim.run_until(SimTime::from_secs(5));
    assert!(client_rx.borrow().is_empty());
    // The connection was reset, the app was told, and the stack reaped it.
    assert_eq!(*ends.borrow(), [ConnEvent::Reset]);
    assert_eq!(sim.node::<StackHost>(client).stack.conn_count(), 0);
}

#[test]
fn many_concurrent_connections() {
    let (mut sim, client, server) = two_hosts(LinkParams::default());
    let server_rx = start_echo_server(&mut sim, server, 80);
    let mut client_rxs = Vec::new();
    let mut total = 0usize;
    for i in 0..20 {
        let payload = pattern(500 + i * 137);
        total += payload.len();
        client_rxs.push((
            payload.clone(),
            start_client(&mut sim, client, SockAddr::new(SERVER_ADDR, 80), payload).0,
        ));
    }
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(server_rx.borrow().len(), total);
    for (payload, rx) in client_rxs {
        assert_eq!(*rx.borrow(), payload, "one echo stream corrupted");
    }
}

#[test]
fn server_crash_resets_nothing_but_stops_service() {
    let (mut sim, client, server) = two_hosts(LinkParams::default());
    let _server_rx = start_echo_server(&mut sim, server, 80);
    let (client_rx, _) = start_client(
        &mut sim,
        client,
        SockAddr::new(SERVER_ADDR, 80),
        pattern(500_000),
    );
    sim.schedule_crash(server, SimTime::from_millis(60));
    sim.run_until(SimTime::from_secs(10));
    // Mid-transfer crash: the client can only have part of the echo.
    let got = client_rx.borrow().len();
    assert!(got < 500_000, "echo unexpectedly complete ({got} bytes)");
    // And its connection is still retrying (no RST was generated by a dead
    // host) — this is exactly the opaque outage HydraNet-FT eliminates.
    let client_host = sim.node::<StackHost>(client);
    assert_eq!(client_host.stack.conn_count(), 1);
}

#[test]
fn fragmentation_on_small_mtu_path_is_transparent() {
    // TCP MSS (1460) exceeds this link's MTU (576), so IP fragments every
    // full-size segment; the stacks reassemble transparently.
    let link = LinkParams::default().with_mtu(576);
    let (mut sim, client, server) = two_hosts(link);
    let server_rx = start_echo_server(&mut sim, server, 80);
    let payload = pattern(30_000);
    let (client_rx, _) = start_client(
        &mut sim,
        client,
        SockAddr::new(SERVER_ADDR, 80),
        payload.clone(),
    );
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(*server_rx.borrow(), payload);
    assert_eq!(*client_rx.borrow(), payload);
}
