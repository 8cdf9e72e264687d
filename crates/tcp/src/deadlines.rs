//! Per-stack connection deadlines: an indexed binary min-heap holding one
//! entry per connection that has a deadline, keyed by slab slot.
//!
//! A dense `slot → heap position` index lets a re-arm move the entry in
//! place and a freed slot take it out, so no entry is ever stale: the root
//! is the exact earliest deadline and every pop is a due connection. Equal
//! deadlines pop in no particular order; the stack sorts each due set by
//! quad, so heap order is never schedule-visible.

use hydranet_netsim::time::SimTime;

/// `pos` value of a slot that has no entry.
const ABSENT: u32 = u32::MAX;

#[derive(Default)]
pub(crate) struct Deadlines {
    /// Min-heap on the deadline: `(deadline, slot)`.
    heap: Vec<(SimTime, u32)>,
    /// `pos[slot]`: the slot's index in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

impl Deadlines {
    /// The earliest deadline filed.
    pub(crate) fn peek(&self) -> Option<SimTime> {
        self.heap.first().map(|&(t, _)| t)
    }

    /// Files `slot`'s deadline, moves it, or (`None`) removes it.
    pub(crate) fn set(&mut self, slot: u32, at: Option<SimTime>) {
        let s = slot as usize;
        let i = self.pos.get(s).copied().unwrap_or(ABSENT);
        match (i, at) {
            (ABSENT, None) => {}
            (ABSENT, Some(t)) => {
                self.pos.resize(self.pos.len().max(s + 1), ABSENT);
                self.heap.push((t, slot));
                self.sift_up(self.heap.len() - 1);
            }
            (i, None) => self.remove_at(i as usize),
            (i, Some(t)) => {
                let i = i as usize;
                let old = std::mem::replace(&mut self.heap[i].0, t);
                if t < old {
                    self.sift_up(i);
                } else if t > old {
                    self.sift_down(i);
                }
            }
        }
        self.debug_check();
    }

    /// Removes the earliest entry and returns its slot, if its deadline is
    /// at or before `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<u32> {
        let &(_, slot) = self.heap.first().filter(|&&(t, _)| t <= now)?;
        self.remove_at(0);
        self.debug_check();
        Some(slot)
    }

    fn remove_at(&mut self, i: usize) {
        let (_, slot) = self.heap.swap_remove(i);
        self.pos[slot as usize] = ABSENT;
        // The former last entry now fills the hole, and may belong above
        // or below it.
        if i < self.heap.len() && self.sift_up(i) == i {
            self.sift_down(i);
        }
    }

    /// Moves the entry at `i` towards the root until its parent is no
    /// later; returns where it settled.
    fn sift_up(&mut self, mut i: usize) -> usize {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= e.0 {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, e);
        i
    }

    /// Moves the entry at `i` towards the leaves until no child is earlier.
    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1].0 < self.heap[child].0 {
                child += 1;
            }
            if self.heap[child].0 >= e.0 {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, e);
    }

    fn place(&mut self, i: usize, e: (SimTime, u32)) {
        self.heap[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }

    /// Heap order and the position index, checked whole in debug builds.
    fn debug_check(&self) {
        if cfg!(debug_assertions) {
            for (i, &(t, slot)) in self.heap.iter().enumerate() {
                debug_assert_eq!(self.pos[slot as usize] as usize, i, "position index");
                debug_assert!(i == 0 || self.heap[(i - 1) / 2].0 <= t, "heap order");
            }
            let filed = self.pos.iter().filter(|&&p| p != ABSENT).count();
            debug_assert_eq!(filed, self.heap.len(), "orphaned position");
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use hydranet_netsim::rng::SimRng;

    use super::*;

    /// Random `set` (earlier, later, same, `None`), `peek` and `pop_due`
    /// over up to 64 slots drawing from a handful of distinct instants, so
    /// ties are the rule; checked after every step against a brute-force
    /// table of every slot's deadline.
    #[test]
    fn matches_a_brute_force_table() {
        for seed in 0..32u64 {
            let mut rng = SimRng::seed_from(0xDEAD_11E5 ^ seed);
            let slots = rng.range(1, 65) as u32;
            let mut heap = Deadlines::default();
            let mut table: Vec<Option<SimTime>> = vec![None; slots as usize];
            let mut now = 0u64;
            let (mut pops, mut moves, mut removals) = (0u32, 0u32, 0u32);
            for step in 0..2_000u32 {
                let slot = rng.range(0, u64::from(slots)) as u32;
                let old = table[slot as usize];
                match rng.range(0, 10) {
                    0..=5 => {
                        let old_ns = old.map(SimTime::as_nanos);
                        let at = match (rng.range(0, 6), old_ns) {
                            (0 | 1, _) => None,
                            (2, Some(t)) => Some(t),
                            (3, Some(t)) => Some(t.saturating_sub(rng.range(1, 8))),
                            (4, Some(t)) => Some(t + rng.range(1, 8)),
                            _ => Some(now + rng.range(0, 12)),
                        }
                        .map(SimTime::from_nanos);
                        moves += u32::from(old.is_some() && at.is_some());
                        removals += u32::from(old.is_some() && at.is_none());
                        heap.set(slot, at);
                        table[slot as usize] = at;
                    }
                    6 | 7 => {
                        now += rng.range(0, 4);
                        let at = SimTime::from_nanos(now);
                        let mut got = BTreeSet::new();
                        while let Some(s) = heap.pop_due(at) {
                            assert!(got.insert(s), "seed {seed} step {step}: slot {s} twice");
                        }
                        let want: BTreeSet<u32> = (0..slots)
                            .filter(|&s| table[s as usize].is_some_and(|t| t <= at))
                            .collect();
                        assert_eq!(got, want, "seed {seed} step {step}: due set");
                        pops += got.len() as u32;
                        for s in want {
                            table[s as usize] = None;
                        }
                    }
                    _ => {}
                }
                assert_eq!(
                    heap.peek(),
                    table.iter().flatten().min().copied(),
                    "seed {seed} step {step}: earliest deadline"
                );
            }
            assert!(
                pops > 100 && moves > 50 && removals > 30,
                "seed {seed}: {pops} pops, {moves} moves, {removals} removals"
            );
        }
    }

    #[test]
    fn removing_the_last_and_a_middle_entry() {
        const AT: [u64; 7] = [5, 1, 9, 3, 7, 2, 8];
        let mut heap = Deadlines::default();
        for (slot, at) in (0..).zip(AT) {
            heap.set(slot, Some(SimTime::from_nanos(at)));
        }
        // The entry in the last heap position, then one in the middle
        // whose hole the last entry fills.
        let last = heap.heap[AT.len() - 1].1;
        heap.set(last, None);
        let middle = heap.heap[1].1;
        heap.set(middle, None);
        let mut left = Vec::new();
        while let Some(s) = heap.pop_due(SimTime::from_nanos(u64::MAX)) {
            left.push(s);
        }
        let mut want: Vec<u32> = (0..7).filter(|&s| s != last && s != middle).collect();
        want.sort_by_key(|&s| AT[s as usize]);
        assert_eq!(left, want);
        assert_eq!(heap.peek(), None);
    }
}
