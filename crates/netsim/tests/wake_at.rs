//! `Context::wake_at`: the one useful wakeup the simulator keeps pending
//! per node, and the mark it clears when that wakeup fires or the node
//! crashes.

use std::collections::VecDeque;

use hydranet_netsim::prelude::*;

/// A node that is nothing but its wakeup: records when it woke and asks
/// for the next scripted deadline, as a host's flush would. It has no
/// `on_crash`: the simulator alone keeps its mark right across a crash.
#[derive(Default)]
struct Probe {
    woke: Vec<SimTime>,
    script: VecDeque<SimTime>,
}

impl Node for Probe {
    fn on_packet(&mut self, _: &mut Context<'_>, _: IfaceId, _: IpPacket) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        self.woke.push(ctx.now());
        let next = self.script.pop_front();
        ctx.wake_at(next);
    }
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn rig(script: &[u64]) -> (Simulator, NodeId) {
    let mut t = TopologyBuilder::new();
    let probe = Probe {
        script: script.iter().copied().map(ms).collect(),
        ..Probe::default()
    };
    let id = t.add_node(probe, NodeParams::INSTANT);
    (t.into_simulator(1), id)
}

fn wake(sim: &mut Simulator, id: NodeId, at: Option<u64>) {
    sim.with_node_ctx::<Probe, _>(id, |_, ctx| ctx.wake_at(at.map(ms)));
}

/// Wakeups seen by the node, and calendar entries the simulator fired.
fn run(sim: &mut Simulator, id: NodeId) -> (Vec<SimTime>, u64) {
    sim.run_until(SimTime::from_secs(1));
    (sim.node::<Probe>(id).woke.clone(), sim.stats().timers_fired)
}

#[test]
fn later_or_equal_deadline_does_not_file() {
    let (mut sim, id) = rig(&[]);
    wake(&mut sim, id, None);
    assert_eq!(sim.pending_wakeup(id), None, "no deadline, no mark");
    wake(&mut sim, id, Some(10));
    wake(&mut sim, id, Some(20));
    wake(&mut sim, id, Some(10));
    wake(&mut sim, id, None);
    assert_eq!(sim.pending_wakeup(id), Some(ms(10)));
    assert_eq!(run(&mut sim, id), (vec![ms(10)], 1));
}

#[test]
fn strictly_earlier_deadline_files() {
    let (mut sim, id) = rig(&[]);
    wake(&mut sim, id, Some(10));
    wake(&mut sim, id, Some(5));
    assert_eq!(sim.pending_wakeup(id), Some(ms(5)));
    assert_eq!(run(&mut sim, id), (vec![ms(5), ms(10)], 2));
}

#[test]
fn firing_at_the_mark_clears_it() {
    let (mut sim, id) = rig(&[]);
    wake(&mut sim, id, Some(10));
    sim.run_until(ms(10));
    assert_eq!(sim.pending_wakeup(id), None);
    // Cleared, so a later deadline files a fresh entry.
    wake(&mut sim, id, Some(30));
    assert_eq!(run(&mut sim, id), (vec![ms(10), ms(30)], 2));
}

#[test]
fn firing_after_the_mark_clears_it() {
    let (mut sim, id) = rig(&[]);
    sim.run_until(ms(12));
    // A past deadline is marked as asked, but its entry fires at now,
    // after the mark.
    wake(&mut sim, id, Some(11));
    assert_eq!(sim.pending_wakeup(id), Some(ms(11)));
    sim.run_until(ms(12));
    assert_eq!(sim.pending_wakeup(id), None);
    // Cleared, so a later deadline files a fresh entry.
    wake(&mut sim, id, Some(30));
    assert_eq!(run(&mut sim, id), (vec![ms(12), ms(30)], 2));
}

#[test]
fn superseded_entry_firing_keeps_the_live_mark() {
    // 10 is superseded by 5; the wakeup at 5 asks for 20. When the stale
    // entry fires at 10 the mark must still say 20, or that wakeup's own
    // request would file a second entry for 20 — the start of a chain.
    let (mut sim, id) = rig(&[20, 20]);
    wake(&mut sim, id, Some(10));
    wake(&mut sim, id, Some(5));
    sim.run_until(ms(10));
    assert_eq!(sim.pending_wakeup(id), Some(ms(20)));
    assert_eq!(run(&mut sim, id), (vec![ms(5), ms(10), ms(20)], 3));
}

#[test]
fn crash_discards_the_entry_and_clears_the_mark() {
    let (mut sim, id) = rig(&[]);
    wake(&mut sim, id, Some(10));
    sim.schedule_crash(id, ms(1));
    sim.schedule_recover(id, ms(2));
    sim.run_until(ms(3));
    assert_eq!(sim.pending_wakeup(id), None);
    // Same deadline as before the crash: only a cleared mark files it.
    wake(&mut sim, id, Some(10));
    assert_eq!(run(&mut sim, id), (vec![ms(10)], 1));
}

/// Wakes every `period`, and on recovery resumes the beat from the
/// recovery instant. Like `Probe` it has no `on_crash`.
struct Heartbeat {
    period: SimDuration,
    beats: Vec<SimTime>,
}

impl Node for Heartbeat {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.wake_at(Some(ctx.now().saturating_add(self.period)));
    }

    fn on_packet(&mut self, _: &mut Context<'_>, _: IfaceId, _: IpPacket) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        self.beats.push(ctx.now());
        ctx.wake_at(Some(ctx.now().saturating_add(self.period)));
    }

    fn on_recover(&mut self, ctx: &mut Context<'_>) {
        ctx.wake_at(Some(ctx.now().saturating_add(self.period)));
    }
}

/// A crash with a wakeup pending: the entry dies with the node's epoch, and
/// a mark left standing would sit before the recovered node's next
/// deadline, so it would never wake again.
#[test]
fn node_without_on_crash_rearms_after_recovery() {
    let mut t = TopologyBuilder::new();
    let beat = Heartbeat {
        period: SimDuration::from_millis(10),
        beats: Vec::new(),
    };
    let id = t.add_node(beat, NodeParams::INSTANT);
    let mut sim = t.into_simulator(1);
    sim.schedule_crash(id, ms(15));
    sim.schedule_recover(id, ms(17));
    sim.run_until(ms(16));
    assert_eq!(sim.pending_wakeup(id), None, "the crash clears the mark");
    sim.run_until(ms(50));
    assert_eq!(sim.pending_wakeup(id), Some(ms(57)));
    assert_eq!(
        sim.node::<Heartbeat>(id).beats,
        vec![ms(10), ms(27), ms(37), ms(47)]
    );
}
