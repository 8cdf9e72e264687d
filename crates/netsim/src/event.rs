//! The simulator's event calendar.

use crate::calendar::{Calendar, TimerEntry};
use crate::link::{Direction, Impairments, LinkId};
use crate::node::NodeId;
use crate::packet::IpPacket;
use crate::time::SimTime;

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
    /// The head of a node's CPU queue has finished its processing delay
    /// and is handed to the node. Filed for the head only, under the
    /// head's own `(done, seq)` key; the packet waits in the queue.
    /// `epoch` is the node's crash epoch when it was filed: a crash empties
    /// the queue, so an entry from an older epoch is ignored.
    CpuDone { node: NodeId, epoch: u64 },
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
/// the [`Calendar`] plus the insertion counter that stamps each entry's
/// `seq`, and the most entries it ever held at once.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    calendar: Calendar<EventKind>,
    next_seq: u64,
    peak: usize,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.take_seq();
        self.push_at(time, seq, kind);
    }

    /// Takes the `seq` the next [`push`](Self::push) would stamp, for an
    /// entry filed later under it by [`push_at`](Self::push_at).
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Files `kind` under a `seq` taken earlier: it pops where a
    /// [`push`](Self::push) at the moment the `seq` was taken would have.
    pub fn push_at(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.calendar.push(TimerEntry {
            time,
            seq,
            payload: kind,
        });
        self.peak = self.peak.max(self.calendar.len());
    }

    pub fn pop(&mut self) -> Option<Event> {
        self.calendar.pop()
    }

    /// Pops the earliest event only if it is due at or before `deadline`.
    pub fn pop_if_at_or_before(&mut self, deadline: SimTime) -> Option<Event> {
        self.calendar.pop_if_at_or_before(deadline)
    }

    #[cfg(test)]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.calendar.peek_time()
    }

    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// The most events filed at once so far.
    pub fn peak(&self) -> usize {
        self.peak
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

    /// An entry filed late under a `seq` taken early pops exactly where a
    /// push at the moment of taking would have: before later pushes at the
    /// same time, after earlier ones.
    #[test]
    fn push_at_a_taken_seq_keeps_the_push_order() {
        let mut q = EventQueue::new();
        let at = SimTime::from_micros(5);
        q.push(at, start(0));
        let taken = q.take_seq();
        q.push(at, start(2));
        q.push(SimTime::from_micros(4), start(3));
        q.push_at(at, taken, start(1));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.payload {
                EventKind::NodeStart(n) => (e.time.as_nanos(), n.index() as u64),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![(4_000, 3), (5_000, 0), (5_000, 1), (5_000, 2)]);
    }

    #[test]
    fn peak_is_the_most_entries_filed_at_once() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak(), 0);
        for i in 0..3 {
            q.push(SimTime::from_micros(i), start(0));
        }
        q.pop();
        q.pop();
        q.push(SimTime::from_micros(9), start(0));
        assert_eq!((q.len(), q.peak()), (2, 3));
        for _ in 0..2 {
            q.push(SimTime::from_micros(9), start(0));
        }
        assert_eq!(q.peak(), 4);
    }
}
