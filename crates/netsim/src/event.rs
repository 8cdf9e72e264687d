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

    #[inline]
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.take_seq();
        self.push_at(time, seq, kind);
    }

    /// Takes the `seq` the next [`push`](Self::push) would stamp, for an
    /// entry filed later under it by [`push_at`](Self::push_at).
    #[inline]
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Files `kind` under a `seq` taken earlier: it pops where a
    /// [`push`](Self::push) at the moment the `seq` was taken would have.
    #[inline]
    pub fn push_at(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.calendar.push(TimerEntry {
            time,
            seq,
            payload: kind,
        });
        self.peak = self.peak.max(self.calendar.len());
    }

    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        self.calendar.pop()
    }

    /// Pops the earliest event only if it is due at or before `deadline`.
    #[inline]
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

    /// Drives an `EventQueue` and a sorted oracle side by side. The oracle
    /// stamps its own seqs, and every payload names its entry.
    #[derive(Default)]
    struct Harness {
        q: EventQueue,
        /// `(time, seq, id)` of every filed event, ascending.
        oracle: Vec<(u64, u64, usize)>,
        next_seq: u64,
        next_id: usize,
        /// Seqs taken and not yet filed.
        taken: Vec<u64>,
        peak: usize,
    }

    impl Harness {
        /// Files a fresh event at `time`: by `push`, or by `push_at` under
        /// the seq `taken` holds at `deferred`.
        fn file(&mut self, time: u64, deferred: Option<usize>) {
            let id = self.next_id;
            self.next_id += 1;
            let at = SimTime::from_nanos(time);
            let seq = match deferred {
                Some(i) => {
                    let seq = self.taken.remove(i);
                    self.q.push_at(at, seq, start(id));
                    seq
                }
                None => {
                    self.q.push(at, start(id));
                    self.take_oracle_seq()
                }
            };
            let pos = self
                .oracle
                .partition_point(|&(t, s, _)| (t, s) < (time, seq));
            self.oracle.insert(pos, (time, seq, id));
            self.peak = self.peak.max(self.oracle.len());
        }

        fn take_oracle_seq(&mut self) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            seq
        }

        /// Takes a seq, as a packet joining a busy CPU queue does.
        fn take(&mut self, ctx: &str) {
            let seq = self.take_oracle_seq();
            assert_eq!(self.q.take_seq(), seq, "{ctx}: take_seq");
            self.taken.push(seq);
        }

        /// Pops with `deadline` (`None`: unbounded), checks the queue
        /// against the oracle, and returns the popped time.
        fn pop(&mut self, deadline: Option<u64>, ctx: &str) -> Option<u64> {
            let got = match deadline {
                None => self.q.pop(),
                Some(d) => self.q.pop_if_at_or_before(SimTime::from_nanos(d)),
            };
            let got = got.map(|e| match e.payload {
                EventKind::NodeStart(n) => (e.time.as_nanos(), e.seq, n.index()),
                other => panic!("{ctx}: unexpected {other:?}"),
            });
            let want = match self.oracle.first() {
                Some(&(t, _, _)) if deadline.is_none_or(|d| t <= d) => Some(self.oracle.remove(0)),
                _ => None,
            };
            assert_eq!(got, want, "{ctx}");
            assert_eq!(self.q.len(), self.oracle.len(), "{ctx}: len");
            assert_eq!(self.q.peak(), self.peak, "{ctx}: peak");
            assert_eq!(
                self.q.peek_time().map(SimTime::as_nanos),
                self.oracle.first().map(|e| e.0),
                "{ctx}: peek"
            );
            got.map(|e| e.0)
        }
    }

    /// The queue against the oracle under random pushes, seqs taken and
    /// filed later by `push_at` (the CPU queue's path), plain pops and
    /// deadline-bounded pops that hit and miss. A `push_at` that files
    /// under any seq but the one taken pops out of place or under the
    /// wrong seq. Times cluster on a few instants, so same-time ties
    /// between deferred and plain pushes are common.
    #[test]
    fn matches_sorted_oracle_with_deferred_seqs() {
        for seed in 0..32u64 {
            let mut rng = crate::rng::SimRng::seed_from(0xE7E47 ^ (seed << 16));
            let mut h = Harness::default();
            let mut now = 0u64;
            let (mut deferred, mut hits, mut misses) = (0u32, 0u32, 0u32);
            for step in 0..600u32 {
                let ctx = format!("seed {seed} step {step}");
                let time = now + [0, 0, 1, 7, 1_000][rng.range(0, 5) as usize];
                match rng.range(0, 6) {
                    0 | 1 => h.file(time, None),
                    2 => h.take(&ctx),
                    3 if !h.taken.is_empty() => {
                        let i = rng.range(0, h.taken.len() as u64) as usize;
                        h.file(time, Some(i));
                        deferred += 1;
                    }
                    3 => {}
                    4 => {
                        if let Some(t) = h.pop(None, &ctx) {
                            now = now.max(t);
                        }
                    }
                    _ => {
                        // `run_until(deadline)`: pop until the miss.
                        let deadline = now + [0, 1, 5, 2_000][rng.range(0, 4) as usize];
                        while let Some(t) = h.pop(Some(deadline), &ctx) {
                            hits += 1;
                            now = now.max(t);
                        }
                        misses += 1;
                        now = deadline;
                    }
                }
            }
            assert!(
                deferred > 40 && hits > 20 && misses > 20,
                "seed {seed}: {deferred} deferred, {hits} hits, {misses} misses"
            );
            while !h.taken.is_empty() {
                h.file(now, Some(0));
            }
            while h.pop(None, &format!("seed {seed} drain")).is_some() {}
            assert!(h.q.is_empty());
        }
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
