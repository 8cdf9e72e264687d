//! A bounded, flat open-addressing flow table keyed by the packed
//! connection quad.
//!
//! The redirector resolves where a packet goes from its *service access
//! point* (destination address and port), and every packet of a flow
//! resolves identically until the redirector table or the routing table
//! changes. Caching a small verdict per flow quad turns the per-packet
//! table lookup into one probe of a dense power-of-two slot array — the
//! same flat-map idea and the same key ([`Quad::key`]) as the TCP stack's
//! demux.
//!
//! Layout is struct-of-arrays: the packed keys sit in one array (a probe
//! touches nothing else), the small `Copy` values beside them; whatever is
//! large and shared between flows lives out of line with the owner.
//!
//! Probing is linear with a *bounded displacement*: an entry lives within
//! [`MAX_DISPLACEMENT`] slots of its home slot, so a lookup costs at most
//! that many key compares whatever the keys are. An insert that cannot
//! keep every entry inside its window doubles the array, up to
//! [`MAX_SLOTS`]; past that it reports failure and the owner clears the
//! table (flows simply re-resolve). There is no per-entry removal, hence
//! no tombstones.
//!
//! The bound only keeps the array small if the hash spreads the keys: all
//! 96 significant key bits must reach the slot index. Flows of one client
//! differ only in the source port (bits 48..64 of the low word), so the low
//! word is folded before the high word is mixed in — the `write_u128` of
//! [`IntHasher`](hydranet_netsim::hash::IntHasher).
//!
//! [`Quad::key`]: hydranet_tcp::segment::Quad::key

use std::hash::BuildHasher;

use hydranet_netsim::hash::IntBuildHasher;

/// Smallest non-empty slot-array size (power of two).
const MIN_SLOTS: usize = 16;

/// Largest slot-array size: the compile-time bound on flow-cache memory
/// (16 B key + value per slot: 3 MiB with the engine's 8 B verdicts).
pub const MAX_SLOTS: usize = 1 << 17;

/// Longest probe: an entry lives at most this many slots past its home.
pub const MAX_DISPLACEMENT: usize = 16;

/// Marks an empty slot. Packed quads use 96 bits, so no key equals it.
const EMPTY: u128 = u128::MAX;

/// A bounded open-addressing hash table from packed flow quads (`u128`,
/// low 96 bits significant) to small `Copy` values.
#[derive(Debug, Clone, Default)]
pub struct FlowTable<V> {
    /// Power-of-two array of packed keys; [`EMPTY`] marks a free slot.
    keys: Vec<u128>,
    /// `vals[i]` belongs to `keys[i]`.
    vals: Vec<V>,
    len: usize,
}

impl<V: Copy + Default> FlowTable<V> {
    /// Creates an empty table (no slots allocated until the first insert).
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of cached flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mixes the 96 significant bits of a packed quad so that every one of
    /// them reaches the low (slot index) bits.
    fn hash(key: u128) -> u64 {
        IntBuildHasher::default().hash_one(key)
    }

    /// The slot holding `key`, or the free slot it would take: the first
    /// of either within the displacement bound of the key's home slot.
    fn probe(&self, key: u128) -> Option<usize> {
        let mask = self.keys.len().wrapping_sub(1);
        let home = Self::hash(key) as usize;
        (0..MAX_DISPLACEMENT.min(self.keys.len()))
            .map(|d| (home + d) & mask)
            .find(|&i| self.keys[i] == key || self.keys[i] == EMPTY)
    }

    /// The value cached for `key`.
    pub fn get(&self, key: u128) -> Option<V> {
        let i = self.probe(key)?;
        (self.keys[i] == key).then(|| self.vals[i])
    }

    /// Caches `value` for `key`, replacing any previous value. Returns
    /// `false` when some entry is left without a slot inside its probe
    /// window and the array is already [`MAX_SLOTS`] long: that entry is
    /// dropped and the table is due for a [`clear`](Self::clear).
    pub fn insert(&mut self, key: u128, value: V) -> bool {
        debug_assert_ne!(key, EMPTY);
        let mut homeless = (key, value);
        while let Err(left_over) = self.place(homeless.0, homeless.1) {
            if self.keys.len() >= MAX_SLOTS {
                return false;
            }
            homeless = left_over;
            self.grow();
        }
        true
    }

    /// Robin Hood placement: walking from the key's home slot, an entry
    /// farther from its own home than the resident takes the slot and the
    /// resident moves on, which keeps displacements near their mean and the
    /// array dense under the bound. `Err` is the entry left over when the
    /// walk reaches the bound.
    fn place(&mut self, mut key: u128, mut value: V) -> Result<(), (u128, V)> {
        let mask = self.keys.len().wrapping_sub(1);
        let mut i = Self::hash(key) as usize & mask;
        let mut d = 0;
        while d < MAX_DISPLACEMENT.min(self.keys.len()) {
            let resident = self.keys[i];
            if resident == EMPTY || resident == key {
                self.len += usize::from(resident == EMPTY);
                self.keys[i] = key;
                self.vals[i] = value;
                return Ok(());
            }
            let resident_d = i.wrapping_sub(Self::hash(resident) as usize) & mask;
            if resident_d < d {
                std::mem::swap(&mut key, &mut self.keys[i]);
                std::mem::swap(&mut value, &mut self.vals[i]);
                d = resident_d;
            }
            i = (i + 1) & mask;
            d += 1;
        }
        Err((key, value))
    }

    /// Drops every entry, keeping the slot allocation.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    /// Doubles the slot array and re-places every entry. Re-placing goes
    /// through [`insert`](Self::insert), so a window that is still full
    /// after one doubling doubles again.
    fn grow(&mut self) {
        let slots = (self.keys.len() * 2).max(MIN_SLOTS);
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; slots]);
        let vals = std::mem::replace(&mut self.vals, vec![V::default(); slots]);
        self.len = 0;
        for (key, value) in keys.into_iter().zip(vals) {
            if key != EMPTY {
                self.insert(key, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t: FlowTable<u32> = FlowTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(7), None);
        assert!(t.insert(7, 70));
        assert!(t.insert(8, 80));
        assert_eq!(t.get(7), Some(70));
        assert_eq!(t.get(8), Some(80));
        assert_eq!(t.get(9), None);
        assert_eq!(t.len(), 2);
        // Same-key insert replaces in place.
        assert!(t.insert(7, 71));
        assert_eq!(t.get(7), Some(71));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clear_keeps_allocation_and_empties() {
        let mut t: FlowTable<u8> = FlowTable::new();
        for i in 0..100u128 {
            t.insert(i, i as u8);
        }
        let slots = t.keys.len();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.keys.len(), slots);
        assert_eq!(t.get(5), None);
        t.insert(5, 5);
        assert_eq!(t.get(5), Some(5));
    }

    /// The keys the many-flow workloads present: one client address,
    /// sequential ephemeral ports, 8 service addresses differing in the low
    /// byte, port 80 — and the reverse direction of each, whose varying
    /// port sits in the low bits instead.
    fn workload_keys(flows: u128) -> impl Iterator<Item = u128> {
        const CLIENT: u128 = 0x0a00_0101;
        (0..flows).flat_map(|i| {
            let (port, service) = (40_000 + i, 0xc014_e100 + (i % 8));
            [
                CLIENT << 64 | port << 48 | service << 16 | 80,
                service << 64 | 80 << 48 | CLIENT << 16 | port,
            ]
        })
    }

    /// Slots examined to find a cached key.
    fn probe_len<V: Copy + Default>(t: &FlowTable<V>, key: u128) -> usize {
        let home = FlowTable::<V>::hash(key) as usize;
        let i = t.probe(key).expect("cached");
        assert_eq!(t.keys[i], key);
        (i.wrapping_sub(home) & (t.keys.len() - 1)) + 1
    }

    #[test]
    fn workload_shaped_keys_probe_in_constant_time() {
        // Regression: the hash used to leave the source port and service
        // address out of the slot index, so these keys shared one home
        // slot and a lookup walked half the table (mean 10,000 probes).
        let mut t: FlowTable<u32> = FlowTable::new();
        for (n, key) in workload_keys(20_000).enumerate() {
            assert!(t.insert(key, n as u32));
        }
        assert_eq!(t.len(), 40_000);
        let (mut total, mut max) = (0, 0);
        for (n, key) in workload_keys(20_000).enumerate() {
            assert_eq!(t.get(key), Some(n as u32), "key {n}");
            let probes = probe_len(&t, key);
            total += probes;
            max = max.max(probes);
        }
        let mean = total as f64 / 40_000.0;
        assert!(mean <= 2.0, "mean probe length {mean}");
        assert!(max <= MAX_DISPLACEMENT, "max probe length {max}");
    }

    #[test]
    fn fills_to_the_slot_cap_then_refuses() {
        // Many clients' flows fill the array to its cap; the first insert
        // that leaves an entry without a slot at MAX_SLOTS is refused.
        let mut t: FlowTable<u32> = FlowTable::new();
        let key =
            |i: u128| (0x0a00_0000 + i / 50_000) << 64 | (i % 50_000) << 48 | 0xc014_e114_0050;
        let mut i = 0;
        while t.insert(key(i), i as u32) {
            i += 1;
        }
        assert_eq!(t.keys.len(), MAX_SLOTS, "never grows past the cap");
        assert!(t.len() > MAX_SLOTS / 2, "reached dense: {}", t.len());
        for j in (0..i).step_by(997) {
            let cached = t.get(key(j));
            assert!(cached.is_none() || cached == Some(j as u32));
        }
        // The owner's recovery: clear, and the refused key fits.
        t.clear();
        assert!(t.insert(key(i), 1));
        assert_eq!((t.len(), t.keys.len()), (1, MAX_SLOTS));
    }
}
