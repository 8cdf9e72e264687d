//! Hierarchical timing-wheel event calendar.
//!
//! The simulator's hot loop is "pop earliest event, process, push a few
//! near-future events". A binary heap does `O(log n)` sift work per
//! operation on a calendar that routinely holds tens of thousands of
//! timers; a hashed hierarchical timing wheel does `O(1)` placement per
//! push and amortised `O(1)` per pop, paying only an occasional cascade
//! when the cursor crosses a coarser slot boundary (Varghese & Lauck's
//! scheme, as used by kernel timer subsystems).
//!
//! Determinism contract: the wheel pops entries in exactly the same total
//! order as a heap — ascending `(time, seq)`, where `seq` is the
//! insertion sequence number assigned by the owner. Slots bucket entries
//! by a 4096 ns tick; within a slot entries are sorted by `(time, seq)`
//! before popping, so sub-tick ordering and FIFO tie-breaks are preserved
//! bit-for-bit. The wheel is the only calendar; a plain `BinaryHeap`
//! survives as its far-future overflow and as the reference the property
//! test at the bottom of this file compares against. An entry, once
//! filed, is always popped; an owner that loses interest ignores it when
//! it surfaces (the simulator's node epoch).
//!
//! The simulator's `EventQueue` (the wheel plus the insertion counter) is
//! its one owner and files whole events (`P = EventKind`); the payload
//! stays generic so the wheel can be exercised on its own.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One entry filed in the wheel: a deadline, the owner-assigned insertion
/// sequence number that breaks same-time ties FIFO, and an arbitrary
/// payload the wheel never inspects.
#[derive(Debug)]
pub struct TimerEntry<P> {
    /// When the entry fires.
    pub time: SimTime,
    /// Owner-assigned insertion sequence; FIFO tie-break at equal times.
    pub seq: u64,
    /// Opaque payload returned on pop.
    pub payload: P,
}

impl<P> PartialEq for TimerEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<P> Eq for TimerEntry<P> {}

impl<P> PartialOrd for TimerEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for TimerEntry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Tick granularity: `1 << TICK_BITS` nanoseconds (4.096 µs). Everything
/// scheduled within one tick is ordered by an in-slot sort, so the tick
/// size trades slot-occupancy against sort length — link delays and CPU
/// costs in this simulator are tens of microseconds, so a 4 µs tick keeps
/// most events in distinct slots.
const TICK_BITS: u32 = 12;
/// Slots per level: `1 << SLOT_BITS`.
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels. Level `L` spans `64^(L+1)` ticks: 262 µs, 16.8 ms,
/// 1.07 s, 68.7 s.
const LEVELS: usize = 4;
/// Ticks covered by all levels together; anything further out goes to the
/// overflow heap.
const SPAN_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

#[derive(Debug)]
struct Slot<P> {
    /// Entries in this slot, sorted descending by `(time, seq)` when
    /// `sorted` — the minimum pops from the back.
    events: Vec<TimerEntry<P>>,
    sorted: bool,
}

impl<P> Default for Slot<P> {
    fn default() -> Self {
        Slot {
            events: Vec::new(),
            sorted: false,
        }
    }
}

/// The wheel proper. All entries arrive with their `seq` already
/// assigned, and cascades re-file entries without touching it.
#[derive(Debug)]
pub struct TimingWheel<P> {
    levels: [[Slot<P>; SLOTS]; LEVELS],
    /// Per-level occupancy bitmap: bit `s` set iff slot `s` is non-empty.
    occupancy: [u64; LEVELS],
    /// Entries in the levels (excludes overflow).
    wheel_len: usize,
    /// Far-future entries (≥ `SPAN_TICKS` ticks ahead at push time). Never
    /// migrated into the wheel: the pop path compares the overflow head
    /// against the wheel minimum directly, which preserves the total order
    /// without re-filing work.
    overflow: BinaryHeap<TimerEntry<P>>,
    /// The wheel's clock, in ticks. Advances to the tick of every popped
    /// entry and to each cascaded window start; placement of a push is
    /// relative to it.
    now_tick: u64,
}

impl<P> Default for TimingWheel<P> {
    fn default() -> Self {
        TimingWheel {
            levels: std::array::from_fn(|_| std::array::from_fn(|_| Slot::default())),
            occupancy: [0; LEVELS],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            now_tick: 0,
        }
    }
}

fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> TICK_BITS
}

fn level_for(delta: u64) -> usize {
    debug_assert!(delta < SPAN_TICKS);
    if delta < 1 << SLOT_BITS {
        0
    } else if delta < 1 << (2 * SLOT_BITS) {
        1
    } else if delta < 1 << (3 * SLOT_BITS) {
        2
    } else {
        3
    }
}

impl<P> TimingWheel<P> {
    /// Total entries filed (levels plus overflow).
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when no entries are filed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Files an entry. An entry in the past relative to the wheel clock
    /// (possible only through [`pop_if_at_or_before`]'s push-back, or a
    /// caller scheduling behind the simulation clock) is placed at the
    /// current tick; its real `(time, seq)` still sorts it first in-slot.
    ///
    /// [`pop_if_at_or_before`]: TimingWheel::pop_if_at_or_before
    pub fn push(&mut self, ev: TimerEntry<P>) {
        let tick = tick_of(ev.time).max(self.now_tick);
        let delta = tick - self.now_tick;
        if delta >= SPAN_TICKS {
            self.overflow.push(ev);
            return;
        }
        let mut lvl = level_for(delta);
        if lvl > 0 {
            let shift = SLOT_BITS * lvl as u32;
            if (tick >> shift) & SLOT_MASK == (self.now_tick >> shift) & SLOT_MASK {
                // A delta just under the level's full rotation can hash
                // into the cursor's own slot — a *next-lap* event, which
                // must not mix with the current lap the cascade logic
                // assumes. Park it one level up: there its slot is the
                // cursor's successor (the lap increment carries into the
                // next 6 bits), so the ambiguity cannot recur.
                lvl += 1;
                if lvl == LEVELS {
                    self.overflow.push(ev);
                    return;
                }
                let up = SLOT_BITS * lvl as u32;
                debug_assert_ne!((tick >> up) & SLOT_MASK, (self.now_tick >> up) & SLOT_MASK);
            }
        }
        let idx = ((tick >> (SLOT_BITS * lvl as u32)) & SLOT_MASK) as usize;
        let slot = &mut self.levels[lvl][idx];
        // An append keeps the descending order only when the new entry is
        // the new minimum; otherwise the slot sorts lazily on first pop.
        slot.sorted = match slot.events.last() {
            None => true,
            Some(back) => slot.sorted && (ev.time, ev.seq) < (back.time, back.seq),
        };
        slot.events.push(ev);
        self.occupancy[lvl] |= 1 << idx;
        self.wheel_len += 1;
    }

    /// Removes and returns the earliest entry by `(time, seq)`.
    pub fn pop(&mut self) -> Option<TimerEntry<P>> {
        match self.overflow.peek() {
            None => self.pop_wheel_upto(None),
            // The overflow head is itself due at its own time, so this
            // bounded pop always hits — and, unlike an unbounded search of
            // the levels, cannot drag the clock to a later wheel entry's
            // tick and then hand back the earlier overflow entry: the
            // owner's next pushes (at or after the *returned* time) would
            // file behind the cursor, out of reach of a bounded pop.
            Some(head) => {
                let bound = head.time;
                self.pop_if_at_or_before(bound)
            }
        }
    }

    /// Pops the earliest entry only if it is due at or before `deadline`.
    /// The common miss — next entry beyond the deadline — answers from the
    /// occupancy bitmaps alone, without cascading anything.
    ///
    /// Hit or miss, the wheel clock never advances past `deadline`'s tick:
    /// the bounded search refuses to cascade a window or visit a level-0
    /// slot beyond it. This matters to callers whose clock is external (a
    /// TCP stack asked for timers due *now*, a simulator probing its
    /// calendar before more events are scheduled): if a miss probe dragged
    /// the clock to the next entry's future tick, any entry pushed
    /// afterwards with an earlier deadline would file behind the cursor
    /// and never be found due again.
    pub fn pop_if_at_or_before(&mut self, deadline: SimTime) -> Option<TimerEntry<P>> {
        let deadline_tick = tick_of(deadline);
        let ev = match self.pop_wheel_upto(Some(deadline_tick)) {
            Some(w) => {
                // The overflow head may still sort before the wheel's min;
                // its tick then also fits the bound, so the clock update
                // stays at or below `deadline_tick`.
                match self.overflow.peek() {
                    Some(h) if (h.time, h.seq) < (w.time, w.seq) => {
                        let ev = self.overflow.pop().unwrap();
                        self.push(w);
                        self.now_tick = self.now_tick.max(tick_of(ev.time));
                        ev
                    }
                    _ => w,
                }
            }
            None => {
                // Nothing due in the levels; every remaining wheel entry
                // sits beyond the deadline tick, so a due overflow head is
                // the global minimum.
                if self
                    .overflow
                    .peek()
                    .is_none_or(|h| tick_of(h.time) > deadline_tick)
                {
                    return None;
                }
                let ev = self.overflow.pop().unwrap();
                self.now_tick = self.now_tick.max(tick_of(ev.time));
                ev
            }
        };
        if ev.time > deadline {
            // Same tick, sub-tick deadline: put it back (seq preserved).
            self.push(ev);
            return None;
        }
        Some(ev)
    }

    /// For a level with at least one occupied slot: the occupied slot
    /// nearest at or after the cursor, and the start tick of its window.
    ///
    /// Lap accounting: a slot strictly ahead of the cursor holds
    /// current-lap entries, a slot behind it (reached by wrapping) holds
    /// next-lap entries, and the cursor's own slot holds only entries of
    /// the window that is due right now — the push path diverts would-be
    /// next-lap occupants of the cursor slot one level up, so the three
    /// cases are disjoint.
    fn nearest_window(&self, lvl: usize) -> (usize, u64) {
        let shift = SLOT_BITS * lvl as u32;
        let cur = ((self.now_tick >> shift) & SLOT_MASK) as u32;
        let d = self.occupancy[lvl].rotate_right(cur).trailing_zeros();
        let idx = ((cur + d) as u64 & SLOT_MASK) as usize;
        let lap = 1u64 << (shift + SLOT_BITS);
        let mut ws = (self.now_tick & !(lap - 1)) + ((idx as u64) << shift);
        if cur + d >= SLOTS as u32 {
            ws += lap; // wrapped past the cursor: next lap
        }
        (idx, ws)
    }

    /// Pops the earliest entry from the levels, refusing — when `cap` is
    /// set — to advance the clock (cascade a window, visit a level-0 slot)
    /// beyond tick `cap`. A `None` return with `cap` set means every
    /// remaining entry sits beyond it, and the clock stayed at or below
    /// it. Cascades any coarse slot whose window opens at or before the
    /// nearest level-0 candidate — `≤`, not `<`, because a coarse slot's
    /// entries may share the candidate's tick with smaller `(time, seq)`.
    fn pop_wheel_upto(&mut self, cap: Option<u64>) -> Option<TimerEntry<P>> {
        if self.wheel_len == 0 {
            return None;
        }
        // One find-min needs at most one cascade per occupied coarse slot
        // (each cascade strictly lowers its entries), so iterations are
        // bounded by the slot count. The cap turns a would-be infinite
        // cascade cycle (a lap-accounting bug) into a loud failure.
        let mut iters = 0u32;
        loop {
            iters += 1;
            assert!(
                iters <= 4 * (LEVELS * SLOTS) as u32,
                "cascade cycle: now_tick={} occ={:?} wheel_len={}",
                self.now_tick,
                self.occupancy,
                self.wheel_len
            );
            let l0_tick = if self.occupancy[0] != 0 {
                let cur = (self.now_tick & SLOT_MASK) as u32;
                let d = self.occupancy[0].rotate_right(cur).trailing_zeros() as u64;
                Some(self.now_tick + d)
            } else {
                None
            };
            let mut coarse: Option<(usize, usize, u64)> = None;
            for lvl in 1..LEVELS {
                if self.occupancy[lvl] == 0 {
                    continue;
                }
                let (idx, ws) = self.nearest_window(lvl);
                if coarse.is_none_or(|(_, _, best)| ws < best) {
                    coarse = Some((lvl, idx, ws));
                }
            }
            // The nearest candidate position bounds every entry's tick
            // from below, so once it exceeds the cap nothing due remains.
            let nearest = match (l0_tick, coarse) {
                (Some(t), Some((_, _, ws))) => t.min(ws),
                (Some(t), None) => t,
                (None, Some((_, _, ws))) => ws,
                (None, None) => unreachable!("wheel_len > 0 with empty occupancy"),
            };
            if cap.is_some_and(|c| nearest > c) {
                return None;
            }
            match (l0_tick, coarse) {
                (Some(t), Some((lvl, idx, ws))) if ws <= t => self.cascade(lvl, idx, ws),
                (Some(t), _) => return Some(self.pop_level0(t)),
                (None, Some((lvl, idx, ws))) => self.cascade(lvl, idx, ws),
                (None, None) => unreachable!("wheel_len > 0 with empty occupancy"),
            }
        }
    }

    /// Re-files every entry of one coarse slot, advancing the clock to the
    /// window start first so each lands at a strictly lower level (entries
    /// of a level-`L` slot sit within `64^L` ticks of their window start).
    fn cascade(&mut self, lvl: usize, idx: usize, window_start: u64) {
        debug_assert!(lvl > 0);
        self.now_tick = self.now_tick.max(window_start);
        let events = std::mem::take(&mut self.levels[lvl][idx].events);
        self.occupancy[lvl] &= !(1 << idx);
        self.wheel_len -= events.len();
        for ev in events {
            debug_assert!(tick_of(ev.time).max(self.now_tick) - self.now_tick < SPAN_TICKS);
            self.push(ev);
        }
    }

    fn pop_level0(&mut self, tick: u64) -> TimerEntry<P> {
        self.now_tick = tick;
        let idx = (tick & SLOT_MASK) as usize;
        if !self.levels[0][idx].sorted {
            let slot = &mut self.levels[0][idx];
            slot.events
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
            slot.sorted = true;
        }
        let slot = &mut self.levels[0][idx];
        let ev = slot.events.pop().expect("occupied level-0 slot");
        if slot.events.is_empty() {
            self.occupancy[0] &= !(1 << idx);
        }
        self.wheel_len -= 1;
        ev
    }

    #[cfg(test)]
    fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    #[cfg(test)]
    fn occupancy_at(&self, lvl: usize) -> u64 {
        self.occupancy[lvl]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn ev(nanos: u64, seq: u64) -> TimerEntry<()> {
        TimerEntry {
            time: SimTime::from_nanos(nanos),
            seq,
            payload: (),
        }
    }

    fn drain(w: &mut TimingWheel<()>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop())
            .map(|e| (e.time.as_nanos(), e.seq))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::default();
        // Same tick, distinct nanos and seqs; distinct ticks; far slots.
        for (i, nanos) in [5_000u64, 4_097, 4_096, 1 << 20, 3, 1 << 13]
            .iter()
            .enumerate()
        {
            w.push(ev(*nanos, i as u64));
        }
        w.push(ev(3, 99)); // duplicate time, later seq
        let order = drain(&mut w);
        let mut expected = vec![
            (3, 4),
            (3, 99),
            (4_096, 2),
            (4_097, 1),
            (5_000, 0),
            (1 << 13, 5),
            (1 << 20, 3),
        ];
        expected.sort();
        assert_eq!(order, expected);
    }

    #[test]
    fn far_future_goes_to_overflow_and_still_orders() {
        let mut w = TimingWheel::default();
        let span_ns = SPAN_TICKS << TICK_BITS; // ≈ 68.7 s
        w.push(ev(span_ns + 10, 0));
        w.push(ev(5, 1));
        w.push(ev(span_ns * 3, 2));
        assert_eq!(w.overflow_len(), 2);
        assert_eq!(w.len(), 3);
        assert_eq!(
            drain(&mut w),
            vec![(5, 1), (span_ns + 10, 0), (span_ns * 3, 2)]
        );
    }

    #[test]
    fn deadline_miss_answers_without_cascading() {
        let mut w = TimingWheel::default();
        w.push(ev(1 << 30, 0)); // level-3 slot, ≈ 1 s out
        assert!(w
            .pop_if_at_or_before(SimTime::from_nanos(1 << 20))
            .is_none());
        // The event stayed at its coarse level: no cascade ran.
        assert_ne!(w.occupancy_at(3), 0);
        let got = w.pop_if_at_or_before(SimTime::from_nanos(1 << 30)).unwrap();
        assert_eq!(got.seq, 0);
    }

    #[test]
    fn sub_tick_deadline_pushes_back() {
        let mut w = TimingWheel::default();
        w.push(ev(100, 0)); // tick 0
        assert!(w.pop_if_at_or_before(SimTime::from_nanos(50)).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.pop_if_at_or_before(SimTime::from_nanos(100)).unwrap().seq,
            0
        );
    }

    /// The determinism contract, and the only evidence for it now that the
    /// wheel is the sole calendar: any interleaving of pushes, plain pops
    /// and deadline-bounded pops (hits and misses) produces the exact pop
    /// sequence of a reference heap. Covers same-tick pushes at the
    /// cursor's own tick mid-drain (including slightly behind the clock),
    /// every wheel level, and far-future entries that live in the overflow
    /// heap until the clock catches up with them.
    #[test]
    fn matches_heap_order_under_random_interleaving() {
        const SPAN_NS: u64 = SPAN_TICKS << TICK_BITS;
        /// The reference `pop_if_at_or_before`.
        fn heap_pop_upto(
            heap: &mut BinaryHeap<TimerEntry<()>>,
            deadline: u64,
        ) -> Option<TimerEntry<()>> {
            if heap.peek()?.time.as_nanos() > deadline {
                return None;
            }
            heap.pop()
        }
        let key = |e: Option<TimerEntry<()>>| e.map(|e| (e.time.as_nanos(), e.seq));

        for seed in 0..48u64 {
            let mut rng = SimRng::seed_from(0x77EE1 ^ (seed << 20));
            let mut wheel = TimingWheel::default();
            let mut heap: BinaryHeap<TimerEntry<()>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut overflowed = 0usize;
            let mut push = |wheel: &mut TimingWheel<()>,
                            heap: &mut BinaryHeap<TimerEntry<()>>,
                            rng: &mut SimRng,
                            now: u64| {
                let time = match rng.range(0, 7) {
                    // The cursor's own tick, possibly just behind `now`.
                    0 => (now & !((1 << TICK_BITS) - 1)) + rng.range(0, 1 << TICK_BITS),
                    1 => now + rng.range(0, 1 << 10),
                    2 => now + rng.range(0, 1 << 16),
                    3 => now + rng.range(0, 1 << 24),
                    4 => now + rng.range(0, 1 << 34),
                    // Straddling the wheel's span: last level or overflow.
                    5 => now + SPAN_NS - (1 << 20) + rng.range(0, 1 << 21),
                    _ => now + SPAN_NS + rng.range(0, SPAN_NS),
                };
                let before = wheel.overflow_len();
                wheel.push(ev(time, seq));
                overflowed += wheel.overflow_len() - before;
                heap.push(ev(time, seq));
                seq += 1;
            };
            // The owner's clock, as the simulator keeps it: the time of the
            // entry being handled, then the deadline once a bounded drain
            // misses. Pushes land at or after it; deadlines never go back.
            let mut now = 0u64;
            let (mut hits, mut misses) = (0u32, 0u32);
            for step in 0..400u32 {
                match rng.range(0, 4) {
                    0 | 1 => {
                        for _ in 0..rng.range(1, 6) {
                            push(&mut wheel, &mut heap, &mut rng, now);
                        }
                    }
                    2 => {
                        let got = key(wheel.pop());
                        assert_eq!(got, key(heap.pop()), "seed {seed} step {step}: pop");
                        if let Some((t, _)) = got {
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
                        loop {
                            let got = key(wheel.pop_if_at_or_before(SimTime::from_nanos(deadline)));
                            let want = key(heap_pop_upto(&mut heap, deadline));
                            assert_eq!(got, want, "seed {seed} step {step}: bounded pop");
                            let Some((t, _)) = got else {
                                misses += 1;
                                break;
                            };
                            hits += 1;
                            now = now.max(t);
                            if rng.chance(0.4) {
                                push(&mut wheel, &mut heap, &mut rng, now);
                            }
                        }
                        now = deadline;
                    }
                }
                assert_eq!(wheel.len(), heap.len(), "seed {seed} step {step}");
            }
            assert!(overflowed > 0, "seed {seed}: overflow heap never used");
            assert!(
                hits > 50 && misses > 50,
                "seed {seed}: {hits} hits, {misses} misses"
            );
            // Drain with advancing deadlines, so the overflow entries come
            // due against whatever the levels still hold.
            while !heap.is_empty() {
                now += rng.range(0, 1 << 33);
                loop {
                    let got = key(wheel.pop_if_at_or_before(SimTime::from_nanos(now)));
                    assert_eq!(got, key(heap_pop_upto(&mut heap, now)), "seed {seed} drain");
                    if got.is_none() {
                        break;
                    }
                }
            }
            assert!(wheel.is_empty());
        }
    }

    /// Zero-delay self-posts while draining a slot must not starve or
    /// reorder: events pushed at the current tick pop in seq order.
    #[test]
    fn same_tick_push_during_drain() {
        let mut w = TimingWheel::default();
        w.push(ev(10, 0));
        w.push(ev(10, 1));
        assert_eq!(w.pop().unwrap().seq, 0);
        w.push(ev(11, 2)); // same tick 0, pushed mid-drain
        w.push(ev(9, 3)); // behind the clock: clamps to current tick
        assert_eq!(
            drain(&mut w),
            vec![(9, 3), (10, 1), (11, 2)],
            "in-slot sort must consider late pushes"
        );
    }
}
