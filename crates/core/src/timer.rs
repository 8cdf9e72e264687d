//! The one simulator wakeup a node keeps pending.

use hydranet_netsim::node::Context;
use hydranet_netsim::time::SimTime;

/// A node's pending-wakeup mark: at most one *useful* simulator timer per
/// node.
///
/// `Context::set_timer_at` has no replace, so a node that files a calendar
/// entry on every flush leaves one stale entry per packet behind, and every
/// stale entry's wakeup flushes and files another — a chain that never
/// dies. `NodeTimer` files an entry only when the node's next deadline is
/// *earlier* than the earliest one already pending; a deadline that moved
/// later is picked up when the pending entry fires and the node re-arms.
#[derive(Debug, Default)]
pub(crate) struct NodeTimer {
    /// Earliest pending wakeup instant.
    armed_at: Option<SimTime>,
}

impl NodeTimer {
    /// Ensures a wakeup is pending at or before `deadline`.
    pub(crate) fn arm(&mut self, ctx: &mut Context<'_>, deadline: Option<SimTime>) {
        if let Some(t) = deadline.filter(|_| !self.covers(deadline)) {
            ctx.set_timer_at(t);
            self.armed_at = Some(t);
        }
    }

    /// Whether [`arm`](Self::arm) would file nothing for `deadline`: there
    /// is none, or a wakeup at or before it is already pending.
    pub(crate) fn covers(&self, deadline: Option<SimTime>) -> bool {
        deadline.is_none_or(|t| self.armed_at.is_some_and(|a| a <= t))
    }

    /// Call first in `Node::on_timer`. Clears the mark once the earliest
    /// pending entry has fired; an entry superseded by an earlier one fires
    /// later with the mark already cleared or re-armed past it.
    pub(crate) fn fired(&mut self, now: SimTime) {
        if self.armed_at.is_some_and(|a| a <= now) {
            self.armed_at = None;
        }
    }

    /// Call in `Node::on_crash`: the simulator discards a crashed node's
    /// pending timers.
    pub(crate) fn reset(&mut self) {
        self.armed_at = None;
    }
}

#[cfg(test)]
impl NodeTimer {
    pub(crate) fn armed_at(&self) -> Option<SimTime> {
        self.armed_at
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use hydranet_netsim::node::{IfaceId, Node, NodeId, NodeParams};
    use hydranet_netsim::packet::IpPacket;
    use hydranet_netsim::sim::Simulator;
    use hydranet_netsim::topology::TopologyBuilder;

    use super::*;

    /// A node that is nothing but its wakeup: records when it woke and
    /// re-arms at the next scripted deadline, as a host's flush would.
    #[derive(Default)]
    struct Probe {
        timer: NodeTimer,
        woke: Vec<SimTime>,
        script: VecDeque<SimTime>,
    }

    impl Node for Probe {
        fn on_packet(&mut self, _: &mut Context<'_>, _: IfaceId, _: IpPacket) {}

        fn on_timer(&mut self, ctx: &mut Context<'_>) {
            self.timer.fired(ctx.now());
            self.woke.push(ctx.now());
            let next = self.script.pop_front();
            self.timer.arm(ctx, next);
        }

        fn on_crash(&mut self) {
            self.timer.reset();
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

    fn arm(sim: &mut Simulator, id: NodeId, at: u64) {
        sim.with_node_ctx::<Probe, _>(id, |p, ctx| p.timer.arm(ctx, Some(ms(at))));
    }

    /// Wakeups seen by the node, and calendar entries the simulator fired.
    fn run(sim: &mut Simulator, id: NodeId) -> (Vec<SimTime>, u64) {
        sim.run_until(SimTime::from_secs(1));
        (sim.node::<Probe>(id).woke.clone(), sim.stats().timers_fired)
    }

    #[test]
    fn later_or_equal_deadline_does_not_arm() {
        let (mut sim, id) = rig(&[]);
        arm(&mut sim, id, 10);
        arm(&mut sim, id, 20);
        arm(&mut sim, id, 10);
        sim.with_node_ctx::<Probe, _>(id, |p, ctx| p.timer.arm(ctx, None));
        assert_eq!(sim.node::<Probe>(id).timer.armed_at(), Some(ms(10)));
        assert_eq!(run(&mut sim, id), (vec![ms(10)], 1));
    }

    #[test]
    fn strictly_earlier_deadline_arms() {
        let (mut sim, id) = rig(&[]);
        arm(&mut sim, id, 10);
        arm(&mut sim, id, 5);
        assert_eq!(sim.node::<Probe>(id).timer.armed_at(), Some(ms(5)));
        assert_eq!(run(&mut sim, id), (vec![ms(5), ms(10)], 2));
    }

    #[test]
    fn firing_at_or_after_the_mark_clears_it() {
        let (mut sim, id) = rig(&[]);
        arm(&mut sim, id, 10);
        sim.run_until(ms(10));
        assert_eq!(sim.node::<Probe>(id).timer.armed_at(), None);
        // Cleared, so a later deadline files a fresh entry.
        arm(&mut sim, id, 30);
        assert_eq!(run(&mut sim, id), (vec![ms(10), ms(30)], 2));

        let mut t = NodeTimer {
            armed_at: Some(ms(10)),
        };
        t.fired(ms(12));
        assert_eq!(t.armed_at(), None);
    }

    #[test]
    fn superseded_entry_firing_keeps_the_live_mark() {
        // 10 is superseded by 5; the wakeup at 5 re-arms for 20. When the
        // stale entry fires at 10 the mark must still say 20, or that
        // wakeup's own re-arm would file a second entry for 20 — the start
        // of a chain.
        let (mut sim, id) = rig(&[20, 20]);
        arm(&mut sim, id, 10);
        arm(&mut sim, id, 5);
        sim.run_until(ms(10));
        assert_eq!(sim.node::<Probe>(id).timer.armed_at(), Some(ms(20)));
        assert_eq!(run(&mut sim, id), (vec![ms(5), ms(10), ms(20)], 3));
    }

    #[test]
    fn covers_exactly_when_arm_would_file_nothing() {
        let mut t = NodeTimer::default();
        assert!(t.covers(None), "no deadline");
        assert!(!t.covers(Some(ms(10))), "unarmed");
        t.armed_at = Some(ms(10));
        assert!(t.covers(None));
        assert!(t.covers(Some(ms(10))), "armed at the deadline");
        assert!(t.covers(Some(ms(30))), "armed earlier");
        assert!(!t.covers(Some(ms(5))), "armed later");
    }

    #[test]
    fn crash_discards_the_entry_and_reset_lets_the_node_rearm() {
        let (mut sim, id) = rig(&[]);
        arm(&mut sim, id, 10);
        sim.schedule_crash(id, ms(1));
        sim.schedule_recover(id, ms(2));
        sim.run_until(ms(3));
        assert_eq!(sim.node::<Probe>(id).timer.armed_at(), None);
        // Same deadline as before the crash: only a cleared mark files it.
        arm(&mut sim, id, 10);
        assert_eq!(run(&mut sim, id), (vec![ms(10)], 1));
    }
}
