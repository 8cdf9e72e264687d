//! When each packet reaches its node's handler, pinned over seeded random
//! rigs.
//!
//! Every rig mixes what decides a dispatch instant and its order among
//! equal instants: per-node fixed and per-byte CPU costs, link rates and
//! delays, duplication and reordering jitter, loss, fragmentation, and
//! crash / recover instants, some recoveries landing before the packets
//! a crash dropped from the CPU queue would have been due. Each node logs
//! every dispatch as `(time, iface, len)`; the logs and the simulator's
//! counters fold into one fingerprint. The FIFO of a node's CPU hands
//! packets over in the calendar's exact `(time, seq)` order, as one
//! calendar entry per packet would, and a crash drops what it holds.
//! `SimStats::calendar_peak` and `NodeStats::cpu_queue_peak` describe
//! where the backlog waits, not the run, so they stay out of the
//! fingerprint.

use hydranet_netsim::prelude::*;

/// Sends bursts on its interfaces from timers, answers some of what it
/// receives, and logs every dispatch. Its sends are budgeted, so every
/// rig runs dry.
struct Chatter {
    ifaces: usize,
    budget: u32,
    log: Vec<(u64, usize, usize)>,
}

impl Chatter {
    fn send_some(&mut self, ctx: &mut Context<'_>, max: u64) {
        for _ in 0..ctx.rng().range(1, max + 1) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let len = match ctx.rng().range(0, 8) {
                // Past a 1,500 B MTU: fragments.
                0 => ctx.rng().range(1_500, 3_000),
                1 => 0,
                _ => ctx.rng().range(1, 600),
            } as usize;
            let iface = ctx.rng().range(0, self.ifaces as u64) as usize;
            let p = IpPacket::new(
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
                Protocol::UDP,
                vec![0u8; len],
            );
            ctx.send(IfaceId::from_index(iface), p);
        }
    }

    fn arm(ctx: &mut Context<'_>) {
        let delay = ctx.rng().range(0, 3_000_000);
        ctx.set_timer(SimDuration::from_nanos(delay));
    }
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.send_some(ctx, 24);
        Self::arm(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, iface: IfaceId, p: IpPacket) {
        self.log
            .push((ctx.now().as_nanos(), iface.index(), p.total_len()));
        if ctx.rng().chance(0.3) {
            self.send_some(ctx, 2);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        if self.budget > 0 {
            self.send_some(ctx, 8);
            Self::arm(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_>) {
        self.send_some(ctx, 8);
        Self::arm(ctx);
    }
}

/// FNV-1a over `u64` words.
struct Fingerprint(u64);

impl Fingerprint {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Totals that show the rigs reach the cases the pin is about.
#[derive(Default)]
struct Coverage {
    events: u64,
    dispatched: u64,
    dropped_crashed: u64,
    duplicated: u64,
    reordered: u64,
    fragmented_rigs: u32,
}

fn cost(rng: &mut SimRng) -> NodeParams {
    if rng.chance(0.25) {
        return NodeParams::INSTANT;
    }
    let fixed = SimDuration::from_nanos(rng.range(0, 2_000_000));
    let per_byte = SimDuration::from_nanos(if rng.chance(0.5) {
        rng.range(0, 2_000)
    } else {
        0
    });
    NodeParams::new(fixed, per_byte)
}

fn link(rng: &mut SimRng) -> LinkParams {
    let bps = match rng.range(0, 4) {
        0 => u64::MAX,
        1 => rng.range(1_000_000, 10_000_000),
        _ => rng.range(10_000_000, 1_000_000_000),
    };
    let delay = SimDuration::from_nanos(rng.range(0, 500_000));
    let mut imp = Impairments::NONE;
    if rng.chance(0.4) {
        imp = imp.with_duplication(rng.unit() * 0.3);
    }
    if rng.chance(0.4) {
        let jitter = SimDuration::from_nanos(rng.range(0, 3_000_000));
        imp = imp.with_reordering(rng.unit() * 0.3, jitter);
    }
    if rng.chance(0.2) {
        imp = imp.with_loss(rng.unit() * 0.05);
    }
    LinkParams::new(bps, delay)
        .with_mtu(1_500)
        .with_queue(rng.range(8, 256) as usize)
        .with_impairments(imp)
}

/// Builds rig `seed`, runs it dry and folds it into `fp`.
fn run_rig(seed: u64, fp: &mut Fingerprint, cov: &mut Coverage) {
    let mut rng = SimRng::seed_from(0xC9_0E0E ^ (seed << 16));
    let n = rng.range(2, 6) as usize;
    let mut t = TopologyBuilder::new();
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    for _ in 0..rng.range(0, 3) {
        let a = rng.range(0, n as u64) as usize;
        let b = rng.range(0, n as u64) as usize;
        if a != b {
            edges.push((a, b));
        }
    }
    let mut degree = vec![0usize; n];
    for &(a, b) in &edges {
        degree[a] += 1;
        degree[b] += 1;
    }
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let chatter = Chatter {
                ifaces: degree[i],
                budget: rng.range(10, 80) as u32,
                log: Vec::new(),
            };
            t.add_node(chatter, cost(&mut rng))
        })
        .collect();
    let links: Vec<LinkId> = edges
        .iter()
        .map(|&(a, b)| t.connect(ids[a], ids[b], link(&mut rng)).0)
        .collect();
    let mut sim = t.into_simulator(seed);
    for &id in &ids {
        // Up to two crash / recover windows, early enough to meet a
        // backlog, some recoveries short enough to land inside one.
        let mut at = 0;
        for _ in 0..rng.range(0, 3) {
            at += rng.range(0, 30_000_000);
            sim.schedule_crash(id, SimTime::from_nanos(at));
            at += rng.range(1, 10_000_000);
            sim.schedule_recover(id, SimTime::from_nanos(at));
        }
    }
    let limit = 2_000_000;
    assert!(
        sim.run_until_idle_capped(limit) < limit,
        "rig {seed} did not run dry"
    );

    fp.word(seed);
    fp.word(sim.now().as_nanos());
    let stats = sim.stats();
    fp.word(stats.events_processed);
    cov.events += stats.events_processed;
    fp.word(stats.timers_fired);
    // Every packet a link delivers into a node is dispatched or lost to a
    // crash: the rig runs dry, so none is still waiting.
    let (mut handled, mut delivered) = (0, 0);
    // An unfragmented packet is at most 620 B, so a 1,500 B dispatch is
    // a first fragment.
    let mut fragmented = false;
    for &id in &ids {
        let log = &sim.node::<Chatter>(id).log;
        fp.word(log.len() as u64);
        for &(at, iface, len) in log {
            fp.word(at);
            fp.word(iface as u64);
            fp.word(len as u64);
        }
        fragmented |= log.iter().any(|e| e.2 == 1_500);
        let ns = sim.node_stats(id);
        fp.word(ns.dispatched);
        fp.word(ns.dropped_crashed);
        fp.word(ns.cpu_busy_nanos);
        assert_eq!(ns.dispatched, log.len() as u64, "rig {seed} {id}");
        handled += ns.dispatched + ns.dropped_crashed;
        cov.dispatched += ns.dispatched;
        cov.dropped_crashed += ns.dropped_crashed;
    }
    for &l in &links {
        let (ab, ba) = sim.link_stats(l);
        for s in [ab, ba] {
            for w in [
                s.enqueued,
                s.delivered,
                s.bytes_delivered,
                s.dropped_queue,
                s.dropped_loss,
                s.dropped_down,
                s.dropped_mtu,
                s.duplicated,
                s.corrupted,
                s.reordered,
            ] {
                fp.word(w);
            }
            delivered += s.delivered + s.duplicated;
            cov.duplicated += s.duplicated;
            cov.reordered += s.reordered;
        }
    }
    cov.fragmented_rigs += u32::from(fragmented);
    assert_eq!(handled, delivered, "rig {seed}: conservation");
}

/// Recomputing the pin: print `fp.0` in hex and replace the constant. Do
/// so only for a change that is meant to move the schedule.
const PINNED_CPU_DISPATCH: u64 = 0xb10a_a6d8_3f76_f71f;

#[test]
fn seeded_rigs_dispatch_in_pinned_order() {
    let mut fp = Fingerprint(0xcbf2_9ce4_8422_2325);
    let mut cov = Coverage::default();
    for seed in 0..40 {
        run_rig(seed, &mut fp, &mut cov);
    }
    assert!(cov.dispatched > 4_000, "{} dispatches", cov.dispatched);
    assert!(cov.dropped_crashed > 1_000, "{}", cov.dropped_crashed);
    assert!(cov.duplicated > 0 && cov.reordered > 0);
    assert!(cov.fragmented_rigs > 20);
    println!(
        "40 rigs: {} dispatches, {} crash drops, {} events",
        cov.dispatched, cov.dropped_crashed, cov.events
    );
    assert_eq!(fp.0, PINNED_CPU_DISPATCH, "fingerprint {:#018x}", fp.0);
}
