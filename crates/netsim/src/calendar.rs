//! The simulator's event calendar: a binary min-heap of packed keys over a
//! payload slab.
//!
//! Determinism contract: entries pop in ascending `(time, seq)`, where
//! `seq` is the insertion sequence number assigned by the owner, so equal
//! times pop FIFO. Each entry is one `u128` key in the heap —
//! `time (64 bits) | seq (40) | slab slot (24)` — and its payload waits in
//! a slab slot until it pops. Because `seq` is unique, the slot bits never
//! decide an order; they only say where the payload is. Sifting 16-byte
//! keys instead of whole entries keeps the heap small and its compares a
//! single integer compare. An entry, once filed, is always popped; an
//! owner that loses interest ignores it when it surfaces (the simulator's
//! node epoch).
//!
//! The simulator's `EventQueue` (the calendar plus the insertion counter)
//! is its one owner and files whole events (`P = EventKind`); the payload
//! stays generic so the calendar can be exercised on its own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Bits of a key that hold `seq`: 2⁴⁰ ≈ 1.1 × 10¹² pushes per owner.
const SEQ_BITS: u32 = 40;
/// Bits of a key that hold the slab slot: 2²⁴ ≈ 16.8 M entries filed at
/// once.
const SLOT_BITS: u32 = 24;

/// One entry filed in the calendar: a deadline, the owner-assigned
/// insertion sequence number that breaks same-time ties FIFO, and an
/// arbitrary payload the calendar never inspects.
#[derive(Debug)]
pub struct TimerEntry<P> {
    /// When the entry fires.
    pub time: SimTime,
    /// Owner-assigned insertion sequence; FIFO tie-break at equal times.
    pub seq: u64,
    /// Opaque payload returned on pop.
    pub payload: P,
}

/// Packs `time | seq | slot` so that integer order is `(time, seq)`
/// order. A `seq` or `slot` too wide for its field would bleed into the
/// field above it and misorder silently, so it panics instead.
fn key(time: SimTime, seq: u64, slot: usize) -> u128 {
    assert!(
        seq >> SEQ_BITS == 0 && slot >> SLOT_BITS == 0,
        "calendar key overflow: seq {seq}, slot {slot}"
    );
    u128::from(time.as_nanos()) << (SEQ_BITS + SLOT_BITS)
        | u128::from(seq) << SLOT_BITS
        | slot as u128
}

/// The calendar: a min-heap of packed keys, and the payloads they name.
#[derive(Debug)]
pub struct Calendar<P> {
    heap: BinaryHeap<Reverse<u128>>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<P>>,
    /// Free slots, reused last-freed first.
    free: Vec<usize>,
}

impl<P> Default for Calendar<P> {
    fn default() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<P> Calendar<P> {
    /// Entries filed.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries are filed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Files an entry. Entries behind the owner's clock are allowed; they
    /// simply pop first.
    #[inline]
    pub fn push(&mut self, e: TimerEntry<P>) {
        let slot = self.free.pop().unwrap_or(self.slab.len());
        let key = key(e.time, e.seq, slot);
        match self.slab.get_mut(slot) {
            Some(vacant) => *vacant = Some(e.payload),
            None => self.slab.push(Some(e.payload)),
        }
        self.heap.push(Reverse(key));
    }

    /// The earliest entry's time.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let &Reverse(k) = self.heap.peek()?;
        Some(SimTime::from_nanos((k >> (SEQ_BITS + SLOT_BITS)) as u64))
    }

    /// Removes and returns the earliest entry by `(time, seq)`.
    #[inline]
    pub fn pop(&mut self) -> Option<TimerEntry<P>> {
        let Reverse(k) = self.heap.pop()?;
        let slot = (k as usize) & ((1 << SLOT_BITS) - 1);
        self.free.push(slot);
        let payload = self.slab[slot]
            .take()
            .expect("a filed slot holds its payload");
        Some(TimerEntry {
            time: SimTime::from_nanos((k >> (SEQ_BITS + SLOT_BITS)) as u64),
            seq: (k >> SLOT_BITS) as u64 & ((1 << SEQ_BITS) - 1),
            payload,
        })
    }

    /// Pops the earliest entry only if it is due at or before `deadline`.
    #[inline]
    pub fn pop_if_at_or_before(&mut self, deadline: SimTime) -> Option<TimerEntry<P>> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Drives a calendar and a sorted-`Vec` oracle side by side. Every
    /// payload is its own `seq`, so a payload filed under the wrong slot
    /// fails as surely as a misordered key.
    #[derive(Default)]
    struct Harness {
        cal: Calendar<u64>,
        /// `(time, seq)` of every filed entry, ascending.
        oracle: Vec<(u64, u64)>,
        next_seq: u64,
    }

    impl Harness {
        fn push(&mut self, time: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.push_seq(time, seq);
        }

        fn push_seq(&mut self, time: u64, seq: u64) {
            self.cal.push(TimerEntry {
                time: SimTime::from_nanos(time),
                seq,
                payload: seq,
            });
            let at = self.oracle.partition_point(|&e| e < (time, seq));
            self.oracle.insert(at, (time, seq));
        }

        /// Pops with `deadline` (`None`: unbounded), checks the calendar
        /// against the oracle, and returns the popped `(time, seq)`.
        fn pop(&mut self, deadline: Option<u64>, ctx: &str) -> Option<(u64, u64)> {
            let got = match deadline {
                None => self.cal.pop(),
                Some(d) => self.cal.pop_if_at_or_before(SimTime::from_nanos(d)),
            };
            let got = got.map(|e| {
                assert_eq!(e.payload, e.seq, "{ctx}: payload from another slot");
                (e.time.as_nanos(), e.seq)
            });
            let want = match self.oracle.first() {
                Some(&(t, _)) if deadline.is_none_or(|d| t <= d) => Some(self.oracle.remove(0)),
                _ => None,
            };
            assert_eq!(got, want, "{ctx}");
            assert_eq!(self.cal.len(), self.oracle.len(), "{ctx}: len");
            assert_eq!(
                self.cal.peek_time().map(SimTime::as_nanos),
                self.oracle.first().map(|e| e.0),
                "{ctx}: peek"
            );
            got
        }

        fn drain(&mut self, ctx: &str) {
            while self.pop(None, ctx).is_some() {}
        }
    }

    #[test]
    #[should_panic(expected = "calendar key overflow")]
    fn out_of_range_seq_panics() {
        let mut cal = Calendar::default();
        cal.push(TimerEntry {
            time: SimTime::ZERO,
            seq: 1 << SEQ_BITS,
            payload: (),
        });
    }

    /// Filling 2²⁴ slots would take hundreds of MiB, so the slot half of
    /// the assert is driven through the packer itself.
    #[test]
    #[should_panic(expected = "calendar key overflow")]
    fn out_of_range_slot_panics() {
        key(SimTime::ZERO, 0, 1 << SLOT_BITS);
    }

    /// The determinism contract: any interleaving of pushes, plain pops and
    /// deadline-bounded pops (hits and misses) produces the oracle's exact
    /// pop sequence. Covers pushes at the very instant being drained and
    /// slightly behind it, near and far deadlines, and entries more than a
    /// minute out.
    #[test]
    fn matches_sorted_oracle_under_random_interleaving() {
        // Scripted inputs first. Time then seq: same-instant entries,
        // sub-microsecond neighbours and far slots.
        let mut h = Harness::default();
        for nanos in [5_000, 4_097, 4_096, 1 << 20, 3, 1 << 13, 3] {
            h.push(nanos);
        }
        h.drain("scripted order");
        // Zero-delay self-posts while draining one instant, and a push
        // behind the clock.
        let mut h = Harness::default();
        h.push(10);
        h.push(10);
        h.pop(None, "scripted drain");
        for nanos in [10, 11, 9] {
            h.push(nanos);
        }
        h.drain("scripted drain");
        // Every field at its extreme: the top of `time` and of `seq`, and
        // a slot reused after a pop.
        let mut h = Harness::default();
        let top_seq = (1 << SEQ_BITS) - 1;
        for (time, seq) in [
            (u64::MAX, top_seq),
            (u64::MAX, 0),
            (0, top_seq),
            (u64::MAX - 1, 7),
        ] {
            h.push_seq(time, seq);
        }
        h.pop(None, "extremes");
        h.push_seq(u64::MAX, 1);
        h.drain("extremes");

        const MINUTE_NS: u64 = 60_000_000_000;
        for seed in 0..48u64 {
            let mut rng = SimRng::seed_from(0x77EE1 ^ (seed << 20));
            let mut h = Harness::default();
            let mut far = 0u32;
            let mut push = |h: &mut Harness, rng: &mut SimRng, now: u64| {
                let time = match rng.range(0, 8) {
                    // The instant being handled: a zero-delay self-post.
                    0 => now,
                    // Around the clock, possibly just behind it.
                    1 => now.saturating_sub(1 << 11) + rng.range(0, 1 << 12),
                    2 => now + rng.range(0, 1 << 10),
                    3 => now + rng.range(0, 1 << 16),
                    4 => now + rng.range(0, 1 << 24),
                    5 => now + rng.range(0, 1 << 34),
                    _ => {
                        far += 1;
                        now + MINUTE_NS + rng.range(0, MINUTE_NS)
                    }
                };
                h.push(time);
            };
            // The owner's clock, as the simulator keeps it: the time of the
            // entry being handled, then the deadline once a bounded drain
            // misses. Deadlines never go back.
            let mut now = 0u64;
            let (mut hits, mut misses) = (0u32, 0u32);
            for step in 0..400u32 {
                let ctx = format!("seed {seed} step {step}");
                match rng.range(0, 4) {
                    0 | 1 => {
                        for _ in 0..rng.range(1, 6) {
                            push(&mut h, &mut rng, now);
                        }
                    }
                    2 => {
                        if let Some((t, _)) = h.pop(None, &ctx) {
                            now = now.max(t);
                        }
                    }
                    _ => {
                        // `run_until(deadline)`: pop until the miss, each
                        // handled entry free to schedule more — some of it
                        // due within this same drain.
                        let deadline = now
                            + match rng.range(0, 4) {
                                0 => 0,
                                1 => rng.range(0, 1 << 13),
                                2 => rng.range(0, 1 << 26),
                                _ => rng.range(0, 1 << 35),
                            };
                        while let Some((t, _)) = h.pop(Some(deadline), &ctx) {
                            hits += 1;
                            now = now.max(t);
                            if rng.chance(0.4) {
                                push(&mut h, &mut rng, now);
                            }
                        }
                        misses += 1;
                        now = deadline;
                    }
                }
            }
            assert!(
                hits > 50 && misses > 50,
                "seed {seed}: {hits} hits, {misses} misses"
            );
            assert!(far > 0, "seed {seed}: no far-future entry");
            // Drain with advancing deadlines, so the far entries come due
            // against whatever else is still filed.
            while !h.oracle.is_empty() {
                now += rng.range(0, 1 << 33);
                while h.pop(Some(now), &format!("seed {seed} drain")).is_some() {}
            }
            assert!(h.cal.is_empty());
        }
    }
}
