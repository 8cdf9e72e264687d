//! Failure-injection integration tests: link flaps, outage accounting,
//! and crash epochs.

use hydranet_netsim::prelude::*;

/// Emits `count` packets, one per `interval`, from start.
struct Ticker {
    count: u32,
    interval: SimDuration,
    sent: u32,
    received: Vec<SimTime>,
}

impl Ticker {
    fn new(count: u32, interval: SimDuration) -> Self {
        Ticker {
            count,
            interval,
            sent: 0,
            received: Vec::new(),
        }
    }

    fn emit(&mut self, ctx: &mut Context<'_>) {
        if self.sent < self.count {
            self.sent += 1;
            let p = IpPacket::new(
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
                Protocol::UDP,
                vec![0u8; 500],
            );
            ctx.send(IfaceId::from_index(0), p);
            ctx.set_timer(self.interval);
        }
    }
}

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.emit(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        self.emit(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {
        self.received.push(ctx.now());
    }
}

fn ticker_pair(
    count: u32,
    interval: SimDuration,
    link: LinkParams,
) -> (Simulator, NodeId, NodeId, LinkId) {
    let mut t = TopologyBuilder::new();
    let a = t.add_node(Ticker::new(count, interval), NodeParams::INSTANT);
    let b = t.add_node(Ticker::new(0, interval), NodeParams::INSTANT);
    let (l, _, _) = t.connect(a, b, link);
    (t.into_simulator(3), a, b, l)
}

#[test]
fn link_flap_does_not_double_transmit_rate() {
    // Saturate a slow link, flap it, and verify the post-flap delivery
    // rate never exceeds the line rate (regression for the stale-dequeue
    // double-chain bug).
    let link = LinkParams::new(400_000, SimDuration::ZERO); // 100 pkts/s at 500B
    let (mut sim, _a, b, l) = ticker_pair(400, SimDuration::from_millis(5), link);
    sim.schedule_link_down(l, SimTime::from_millis(300));
    sim.schedule_link_up(l, SimTime::from_millis(400));
    sim.run_until_idle();
    let times = &sim.node::<Ticker>(b).received;
    assert!(!times.is_empty());
    // 520-byte wire packets at 400 kb/s = 10.4 ms serialisation each: no
    // two deliveries may be closer than that.
    let min_spacing = SimDuration::from_micros(10_400);
    for w in times.windows(2) {
        let gap = w[1].duration_since(w[0]);
        assert!(
            gap >= min_spacing,
            "deliveries {} and {} only {gap} apart (double transmit chain?)",
            w[0],
            w[1]
        );
    }
}

#[test]
fn outage_drops_are_accounted() {
    let link = LinkParams::default();
    let (mut sim, _a, b, l) = ticker_pair(100, SimDuration::from_millis(10), link);
    sim.schedule_link_down(l, SimTime::from_millis(200));
    sim.schedule_link_up(l, SimTime::from_millis(500));
    sim.run_until_idle();
    let (ab, _) = sim.link_stats(l);
    let received = sim.node::<Ticker>(b).received.len() as u64;
    assert!(ab.dropped_down > 0, "no outage drops recorded");
    assert_eq!(ab.delivered, received);
    assert_eq!(ab.enqueued, ab.delivered + ab.dropped_loss, "conservation");
    // Everything sent is either enqueued or dropped at the down link.
    assert_eq!(ab.enqueued + ab.dropped_down, 100);
}

#[test]
fn double_crash_and_recover_are_idempotent() {
    let (mut sim, a, _b, _l) = ticker_pair(50, SimDuration::from_millis(10), LinkParams::default());
    // Duplicate crash/recover events must not panic or corrupt state.
    sim.schedule_crash(a, SimTime::from_millis(100));
    sim.schedule_crash(a, SimTime::from_millis(110));
    sim.schedule_recover(a, SimTime::from_millis(200));
    sim.schedule_recover(a, SimTime::from_millis(210));
    sim.run_until_idle();
    assert!(!sim.is_crashed(a));
}
