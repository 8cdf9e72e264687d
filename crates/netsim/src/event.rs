//! The simulator's event calendar.

use crate::link::{Direction, Impairments, LinkId};
use crate::node::NodeId;
use crate::packet::IpPacket;
use crate::time::SimTime;
use crate::wheel::{TimerEntry, TimingWheel};

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Deliver `on_start` to a node.
    NodeStart(NodeId),
    /// A packet reaches a node's interface from a link (before CPU cost).
    PacketArrival {
        node: NodeId,
        iface: usize,
        packet: IpPacket,
    },
    /// A packet has finished its CPU processing delay and is handed to the
    /// node. Carries the node's crash epoch so work queued before a crash
    /// does not leak into a recovered node.
    PacketDispatch {
        node: NodeId,
        iface: usize,
        packet: IpPacket,
        epoch: u64,
    },
    /// The transmitter of one link direction is free to send the next
    /// packet. `epoch` invalidates events scheduled before a link outage.
    LinkDequeue {
        link: LinkId,
        dir: Direction,
        epoch: u64,
    },
    /// A node timer fires.
    Timer { node: NodeId, epoch: u64 },
    /// Fail-stop a node.
    Crash(NodeId),
    /// Bring a crashed node back.
    Recover(NodeId),
    /// Take a link out of service (both directions).
    LinkDown(LinkId),
    /// Restore a link to service.
    LinkUp(LinkId),
    /// Replace a link's impairment set (both directions) at a scheduled
    /// time — the mechanism behind timed loss bursts and impairment
    /// windows in fault plans.
    SetImpairments { link: LinkId, imp: Impairments },
}

/// One calendar entry: `time`, the FIFO tie-break `seq`, and the
/// [`EventKind`] as `payload`.
pub(crate) type Event = TimerEntry<EventKind>;

/// A deterministic event calendar ordered by `(time, insertion order)`:
/// the hierarchical timing wheel plus the insertion counter that stamps
/// each entry's `seq`.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    wheel: Box<TimingWheel<EventKind>>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(TimerEntry {
            time,
            seq,
            payload: kind,
        });
    }

    pub fn pop(&mut self) -> Option<Event> {
        self.wheel.pop()
    }

    /// Pops the earliest event only if it is due at or before `deadline`;
    /// the wheel answers most misses from its occupancy bitmaps alone.
    pub fn pop_if_at_or_before(&mut self, deadline: SimTime) -> Option<Event> {
        self.wheel.pop_if_at_or_before(deadline)
    }

    #[cfg(test)]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let ev = self.pop()?;
        let time = ev.time;
        self.wheel.push(ev);
        Some(time)
    }

    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(n: usize) -> EventKind {
        EventKind::NodeStart(NodeId(n))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), start(3));
        q.push(SimTime::from_millis(1), start(1));
        q.push(SimTime::from_millis(2), start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(order, vec![1_000_000, 2_000_000, 3_000_000]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_secs(1), start(i));
        }
        let mut last_seq = None;
        while let Some(e) = q.pop() {
            if let Some(prev) = last_seq {
                assert!(e.seq > prev, "FIFO violated");
            }
            last_seq = Some(e.seq);
        }
    }

    #[test]
    fn pop_if_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        assert!(q.pop_if_at_or_before(SimTime::from_secs(1)).is_none());
        q.push(SimTime::from_millis(5), start(0));
        q.push(SimTime::from_millis(10), start(1));
        assert!(q.pop_if_at_or_before(SimTime::from_millis(4)).is_none());
        assert_eq!(q.len(), 2);
        let e = q.pop_if_at_or_before(SimTime::from_millis(5)).unwrap();
        assert_eq!(e.time, SimTime::from_millis(5));
        assert!(q.pop_if_at_or_before(SimTime::from_millis(9)).is_none());
        assert!(q.pop_if_at_or_before(SimTime::from_millis(10)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
        q.push(SimTime::from_micros(7), start(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
