//! A fast hasher for the simulator's integer-keyed maps.
//!
//! The TCP stack's demux map keys its entries by packed connection quads
//! (`u128`), the redirector's service map by packed service access points
//! (`u64`, `addr << 16 | port`); both are probed once per packet. Std's
//! default SipHash is DoS-resistant but costs far more than the
//! surrounding work; only the engine inserts these keys (a connection it
//! set up, a service the redirector table names), so a Fibonacci multiply
//! per word suffices to spread them across buckets.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the classic Fibonacci-hashing multiplier: one `wrapping_mul`
/// diffuses low-bit-only differences (consecutive ids) into the high bits
/// that hashbrown's control bytes are drawn from.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-only hasher for integer keys.
///
/// Not DoS-resistant — use only for keys the engine itself assigns.
///
/// Built for one-word keys. Chaining `write_u64` calls is *not* a mix of
/// the words: a multiply only carries differences upward and
/// [`finish`](Hasher::finish) folds once, so a difference in bits 32.. of an
/// earlier word never reaches the low 32 bits of the result.
/// [`write_u128`](Hasher::write_u128) folds between its two words instead,
/// so a `u128` key (a packed connection quad) mixes all its bits.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        // A product's low bits depend only on equally-low key bits, and
        // hashbrown draws its bucket index from the low bits: a key whose
        // variance lives up high (a packed quad keeps the local port in
        // bits 0..16) would pile every entry into a handful of buckets.
        // Folding the well-mixed high half down makes every
        // key bit reach the bucket index; the control byte (top 7 bits)
        // is unaffected.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path for composite keys: fold 8-byte chunks. The engine's
        // maps use the integer writes, so this is rarely exercised.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(buf)).wrapping_mul(FIB);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(FIB);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u128(&mut self, n: u128) {
        // Fold the low word's product before the high word goes in, so the
        // low word's high bits (a quad's remote port) reach the index too.
        self.write_u64(n as u64);
        self.0 = self.finish();
        self.write_u64((n >> 64) as u64);
    }
}

/// [`BuildHasher`](std::hash::BuildHasher) for [`IntHasher`].
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by engine-assigned integers.
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn consecutive_keys_spread_across_buckets() {
        // The high byte (hashbrown's control byte source) must differ for
        // consecutive ids, else every probe degenerates to a linear scan.
        let mut high_bytes = HashSet::new();
        for id in 0u64..256 {
            let mut h = IntHasher::default();
            h.write_u64(id);
            high_bytes.insert((h.finish() >> 56) as u8);
        }
        assert!(
            high_bytes.len() > 200,
            "only {} distinct control bytes over 256 consecutive ids",
            high_bytes.len()
        );
    }

    #[test]
    fn high_bit_variance_reaches_the_bucket_index() {
        // Keys shaped like a packed service access point (the redirector's
        // service map) or a quad's low word: all variance in bits 16..
        // (an address), constant low 16 bits (a service port).
        // The low hash bits pick the bucket, so they must still spread.
        let mut low_bits = HashSet::new();
        for i in 0u64..4096 {
            let key = (0x0A01_0000u64 + i) << 16 | 0x0050;
            let mut h = IntHasher::default();
            h.write_u64(key);
            low_bits.insert(h.finish() & 0xFFF);
        }
        assert!(
            low_bits.len() > 2500,
            "only {} distinct 12-bit bucket indices over 4096 high-variance keys",
            low_bits.len()
        );
    }

    /// Quad-shaped two-word keys: the low word carries the client's
    /// ephemeral port in bits 48.. (plus a service address and port), the
    /// high word the client address.
    fn flow_words() -> impl Iterator<Item = (u64, u64)> {
        (0u64..4096).map(|i| {
            (
                (40_000 + i) << 48 | 0xC014_E100_0050 | (i % 8) << 16,
                0x0A00_0101,
            )
        })
    }

    #[test]
    fn chained_write_u64_does_not_mix_an_earlier_words_high_bits() {
        // Pins the limitation the type's docs state: the port in bits 48..
        // of the first word never reaches the low 12 bits, so these 4096
        // distinct keys land on at most 8 indices (the service address).
        let low_bits: HashSet<u64> = flow_words()
            .map(|(lo, hi)| {
                let mut h = IntHasher::default();
                h.write_u64(lo);
                h.write_u64(hi);
                h.finish() & 0xFFF
            })
            .collect();
        assert!(low_bits.len() <= 8, "{} indices", low_bits.len());
    }

    fn hash_u128(lo: u64, hi: u64) -> u64 {
        IntBuildHasher::default().hash_one(u128::from(hi) << 64 | u128::from(lo))
    }

    #[test]
    fn write_u128_mixes_every_bit() {
        let low_bits: HashSet<u64> = flow_words()
            .map(|(lo, hi)| hash_u128(lo, hi) & 0xFFF)
            .collect();
        assert!(low_bits.len() > 2500, "{} indices", low_bits.len());
    }

    #[test]
    fn write_u128_is_the_two_step_fold() {
        // The stack's demux map, the one `u128` user, hashes its packed
        // quads through this exact value: hash the low word, fold its
        // product, mix in the high word and fold again.
        let fold = |n: u64| {
            let p = n.wrapping_mul(FIB);
            p ^ (p >> 32)
        };
        for (lo, hi) in flow_words() {
            assert_eq!(hash_u128(lo, hi), fold(fold(lo) ^ hi), "{lo:#x} {hi:#x}");
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: IntMap<u64, u32> = IntMap::default();
        for i in 0..1000u64 {
            m.insert(i, i as u32 * 2);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i as u32 * 2)));
        }
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn generic_write_path_is_consistent() {
        let mut a = IntHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IntHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
        let mut c = IntHasher::default();
        c.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), c.finish());
    }
}
