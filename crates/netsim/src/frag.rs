//! IP fragmentation and reassembly.
//!
//! Links have an MTU; a packet whose on-wire size exceeds the egress MTU is
//! split into fragments (unless its *don't fragment* flag is set, in which
//! case it is dropped, as a router would). [`fragment_packet`] yields the
//! fragments one at a time as views of the packet's payload, so a link
//! queues a train with no copy and no vector. The receiving host
//! reassembles fragments keyed by `(src, dst, protocol, id)`, holding their
//! payloads as views in a [`RunList`] (first copy of a byte wins). In-order
//! fragments of one payload join into one view of it there, so the usual
//! train reassembles with no copy at all; a datagram that arrives as views
//! of several backings (out of order, overlapping, corrupted in flight) is
//! copied once, when it completes.
//!
//! The paper's Figure 4 notes that throughput drops again for writes larger
//! than the MTU "due to the fragmentation of packets"; this module is what
//! produces that effect in the reproduction.

use crate::buf::{PacketBuf, RunList};
use crate::hash::IntMap;
use crate::packet::{FragInfo, IpAddr, IpPacket, IP_HEADER_LEN};
use crate::time::{SimDuration, SimTime};

/// Fragments align on 8-byte boundaries, as in real IP.
const FRAG_ALIGN: usize = 8;

/// The largest payload a datagram can carry: its 16-bit total length
/// counts the header too (see [`IpPacket::into_encoded`]).
const MAX_DATAGRAM_PAYLOAD: u64 = u16::MAX as u64 - IP_HEADER_LEN as u64;

/// Splits `packet` into fragments that each fit within `mtu` bytes on the
/// wire (header included), yielded in offset order.
///
/// Yields the original packet unchanged (as the only item) when it already
/// fits. Fragment payload sizes are multiples of 8 bytes except for the
/// final fragment, mirroring real IP. Each fragment's payload is a view of
/// the packet's: nothing is copied.
///
/// # Errors
///
/// Returns [`FragError::DontFragment`] if the packet is oversized but has the
/// *don't fragment* flag set, and [`FragError::MtuTooSmall`] if `mtu` cannot
/// carry even one aligned payload unit.
///
/// # Examples
///
/// ```
/// use hydranet_netsim::frag::fragment_packet;
/// use hydranet_netsim::packet::{IpAddr, IpPacket, Protocol};
///
/// let p = IpPacket::new(IpAddr::new(1, 1, 1, 1), IpAddr::new(2, 2, 2, 2),
///                       Protocol::UDP, vec![0u8; 100]);
/// let frags = fragment_packet(p, 68).unwrap();
/// assert!(frags.len() > 1);
/// assert!(frags.into_iter().all(|f| f.total_len() <= 68));
/// ```
pub fn fragment_packet(packet: IpPacket, mtu: usize) -> Result<Fragments, FragError> {
    let unit = if packet.total_len() <= mtu {
        // One piece: the packet itself.
        packet.payload.len().max(1)
    } else if packet.header.frag.dont_fragment {
        return Err(FragError::DontFragment {
            size: packet.total_len(),
            mtu,
        });
    } else {
        mtu.saturating_sub(IP_HEADER_LEN) / FRAG_ALIGN * FRAG_ALIGN
    };
    if unit == 0 {
        return Err(FragError::MtuTooSmall { mtu });
    }
    Ok(Fragments {
        packet: Some(packet),
        unit,
        cursor: 0,
    })
}

/// The fragments of one packet, from [`fragment_packet`].
#[derive(Debug)]
pub struct Fragments {
    /// The packet being cut; `None` once its last piece is out.
    packet: Option<IpPacket>,
    /// Payload bytes per fragment.
    unit: usize,
    /// Payload offset of the next fragment.
    cursor: usize,
}

impl Iterator for Fragments {
    type Item = IpPacket;

    fn next(&mut self) -> Option<IpPacket> {
        let packet = self.packet.as_ref()?;
        let (start, len) = (self.cursor, packet.payload.len());
        self.cursor = (start + self.unit).min(len);
        if self.cursor == len {
            // The last piece is the packet itself, its payload cut to the
            // tail; it keeps the packet's more-fragments flag, as the last
            // piece of a fragment must.
            let mut last = self.packet.take()?;
            if start > 0 {
                last.payload = last.payload.slice(start..);
                last.header.frag.offset += start as u32;
            }
            return Some(last);
        }
        let mut header = packet.header.clone();
        header.frag = FragInfo {
            offset: packet.header.frag.offset + start as u32,
            more_fragments: true,
            dont_fragment: false,
        };
        Some(IpPacket {
            header,
            // O(1) view into the original payload: fragmentation shares
            // the backing store instead of copying each piece.
            payload: packet.payload.slice(start..self.cursor),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.packet.as_ref().map_or(0, |p| {
            (p.payload.len() - self.cursor).div_ceil(self.unit).max(1)
        });
        (n, Some(n))
    }
}

impl ExactSizeIterator for Fragments {}

/// Error returned by [`fragment_packet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragError {
    /// The packet exceeds the MTU but forbids fragmentation.
    DontFragment {
        /// The packet's on-wire size.
        size: usize,
        /// The egress MTU.
        mtu: usize,
    },
    /// The MTU leaves no room for an aligned payload unit.
    MtuTooSmall {
        /// The offending MTU.
        mtu: usize,
    },
}

impl std::fmt::Display for FragError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FragError::DontFragment { size, mtu } => {
                write!(f, "packet of {size} bytes exceeds MTU {mtu} with DF set")
            }
            FragError::MtuTooSmall { mtu } => write!(f, "MTU {mtu} too small to fragment into"),
        }
    }
}

impl std::error::Error for FragError {}

/// Key identifying the datagram a fragment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DatagramKey {
    src: IpAddr,
    dst: IpAddr,
    protocol: u8,
    id: u16,
}

#[derive(Debug)]
struct PartialDatagram {
    /// Received payload bytes, as views of the fragments they arrived in.
    runs: RunList,
    /// Total payload length, known once the final fragment arrives.
    total_len: Option<u64>,
    /// Header template from the first fragment seen.
    template: IpPacket,
    /// Deadline after which the partial datagram is discarded.
    expires_at: SimTime,
}

impl PartialDatagram {
    /// The whole datagram, once its `total` payload bytes have arrived: the
    /// payload is the first run itself when that run covers it, else one
    /// gather copy (which carries the first run's lineage tag forward).
    fn into_packet(mut self, total: usize) -> IpPacket {
        let first = self
            .runs
            .runs()
            .next()
            .map_or_else(PacketBuf::new, |(_, run)| run.clone());
        self.template.payload = if first.len() >= total {
            first.slice(..total)
        } else {
            PacketBuf::with_headroom(0, total, |out| self.runs.read_into(out))
                .with_lineage(first.lineage())
        };
        self.template.header.frag = FragInfo::UNFRAGMENTED;
        self.template
    }
}

/// Reassembles fragments back into whole packets at a receiving host.
///
/// # Examples
///
/// ```
/// use hydranet_netsim::frag::{fragment_packet, Reassembler};
/// use hydranet_netsim::packet::{IpAddr, IpPacket, Protocol};
/// use hydranet_netsim::time::SimTime;
///
/// let mut p = IpPacket::new(IpAddr::new(1, 1, 1, 1), IpAddr::new(2, 2, 2, 2),
///                           Protocol::UDP, (0..200u8).collect::<Vec<u8>>());
/// p.header.id = 9;
/// let mut r = Reassembler::new();
/// let mut whole = None;
/// for frag in fragment_packet(p.clone(), 88).unwrap() {
///     whole = r.push(SimTime::ZERO, frag);
/// }
/// assert_eq!(whole.unwrap().payload, p.payload);
/// ```
#[derive(Debug)]
pub struct Reassembler {
    partials: IntMap<DatagramKey, PartialDatagram>,
    timeout: SimDuration,
    max_partials: usize,
    evicted: u64,
    oversized: u64,
}

/// Default time a partial datagram is retained before being dropped.
pub const DEFAULT_REASSEMBLY_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Default cap on concurrently tracked partial datagrams. A sender that dies
/// mid-fragment-train (e.g. a crashed redirector) leaves a partial entry
/// behind; the timeout reclaims it eventually, but the cap bounds worst-case
/// memory if many trains are orphaned faster than they time out.
pub const DEFAULT_MAX_PARTIALS: usize = 1024;

impl Reassembler {
    /// Creates a reassembler with the default 30 s timeout and default cap.
    pub fn new() -> Self {
        Self::with_limits(DEFAULT_REASSEMBLY_TIMEOUT, DEFAULT_MAX_PARTIALS)
    }

    /// Creates a reassembler with an explicit timeout and partial-datagram
    /// cap. When a fragment of a new datagram arrives at the cap, the
    /// partial closest to expiry is evicted (deterministically tie-broken by
    /// key) and the eviction counter bumped.
    pub fn with_limits(timeout: SimDuration, max_partials: usize) -> Self {
        Reassembler {
            partials: IntMap::default(),
            timeout,
            max_partials: max_partials.max(1),
            evicted: 0,
            oversized: 0,
        }
    }

    /// Offers a packet; returns a fully reassembled packet when complete.
    ///
    /// Unfragmented packets pass straight through. A fragment reaching past
    /// the largest datagram payload is dropped and counted. Stale partial
    /// datagrams are garbage-collected on every call.
    pub fn push(&mut self, now: SimTime, packet: IpPacket) -> Option<IpPacket> {
        self.expire(now);
        let frag = packet.header.frag;
        if !frag.is_fragment() {
            return Some(packet);
        }
        let end = u64::from(frag.offset) + packet.payload.len() as u64;
        if end > MAX_DATAGRAM_PAYLOAD {
            self.oversized += 1;
            return None;
        }
        let key = DatagramKey {
            src: packet.src(),
            dst: packet.dst(),
            protocol: packet.protocol().number(),
            id: packet.header.id,
        };
        if !self.partials.contains_key(&key) && self.partials.len() >= self.max_partials {
            self.evict_oldest();
        }
        let entry = self.partials.entry(key).or_insert_with(|| PartialDatagram {
            runs: RunList::default(),
            total_len: None,
            template: IpPacket {
                header: packet.header.clone(),
                payload: PacketBuf::new(),
            },
            expires_at: now.saturating_add(self.timeout),
        });
        if !frag.more_fragments {
            entry.total_len = Some(end);
        }
        entry.runs.insert(u64::from(frag.offset), packet.payload);
        let total = entry.total_len?;
        if entry.runs.contiguous_end(0, total) < total {
            return None;
        }
        let partial = self.partials.remove(&key)?;
        Some(partial.into_packet(total as usize))
    }

    /// Number of datagrams currently awaiting more fragments.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Number of partial datagrams evicted because the cap was reached.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of fragments dropped because they reached past the largest
    /// datagram payload.
    pub fn oversized(&self) -> u64 {
        self.oversized
    }

    fn expire(&mut self, now: SimTime) {
        self.partials.retain(|_, p| p.expires_at > now);
    }

    /// Drops the partial datagram closest to expiry. Ties are broken by the
    /// key's field order so eviction is deterministic regardless of the
    /// hash map's iteration order.
    fn evict_oldest(&mut self) {
        let victim = self
            .partials
            .iter()
            .map(|(k, p)| {
                (
                    (p.expires_at, k.src.to_bits(), k.dst.to_bits(), k.protocol),
                    k.id,
                    *k,
                )
            })
            .min_by_key(|&(rank, id, _)| (rank, id))
            .map(|(.., k)| k);
        if let Some(k) = victim {
            self.partials.remove(&k);
            self.evicted += 1;
        }
    }
}

impl Default for Reassembler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;

    /// The fragments of `p` at `mtu`, collected.
    fn pieces(p: IpPacket, mtu: usize) -> Vec<IpPacket> {
        fragment_packet(p, mtu).unwrap().collect()
    }

    fn packet(len: usize, id: u16) -> IpPacket {
        let mut p = IpPacket::new(
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
            Protocol::UDP,
            (0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>(),
        );
        p.header.id = id;
        p
    }

    #[test]
    fn small_packet_passes_through() {
        let p = packet(40, 1);
        let frags = pieces(p.clone(), 1500);
        assert_eq!(frags, vec![p]);
    }

    #[test]
    fn fragments_respect_mtu_and_alignment() {
        let p = packet(1000, 2);
        let frags = pieces(p, 300);
        assert!(frags.len() >= 4);
        for (i, f) in frags.iter().enumerate() {
            assert!(f.total_len() <= 300, "fragment {i} oversized");
            if i + 1 < frags.len() {
                assert_eq!(f.payload.len() % 8, 0, "non-final fragment unaligned");
                assert!(f.header.frag.more_fragments);
            } else {
                assert!(!f.header.frag.more_fragments);
            }
        }
    }

    #[test]
    fn offsets_are_contiguous() {
        let p = packet(500, 3);
        let frags = pieces(p, 128);
        let mut next = 0u32;
        for f in &frags {
            assert_eq!(f.header.frag.offset, next);
            next += f.payload.len() as u32;
        }
        assert_eq!(next, 500);
    }

    #[test]
    fn dont_fragment_is_honoured() {
        let mut p = packet(2000, 4);
        p.header.frag.dont_fragment = true;
        assert!(matches!(
            fragment_packet(p, 1500),
            Err(FragError::DontFragment {
                size: 2020,
                mtu: 1500
            })
        ));
    }

    #[test]
    fn tiny_mtu_is_rejected() {
        let p = packet(100, 5);
        assert!(matches!(
            fragment_packet(p, 24),
            Err(FragError::MtuTooSmall { mtu: 24 })
        ));
    }

    #[test]
    fn reassembly_in_order() {
        let p = packet(700, 6);
        let mut r = Reassembler::new();
        let mut out = None;
        for f in fragment_packet(p.clone(), 200).unwrap() {
            assert!(out.is_none());
            out = r.push(SimTime::ZERO, f);
        }
        let whole = out.expect("reassembled");
        assert_eq!(whole.payload, p.payload);
        // The in-order pieces rejoined as one view: nothing was copied.
        assert!(PacketBuf::same_backing(&whole.payload, &p.payload));
        assert!(!whole.header.frag.is_fragment());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembly_out_of_order() {
        let p = packet(700, 7);
        let mut frags = pieces(p.clone(), 200);
        frags.reverse();
        let mut r = Reassembler::new();
        let mut out = None;
        for f in frags {
            out = r.push(SimTime::ZERO, f);
        }
        assert_eq!(out.expect("reassembled").payload, p.payload);
    }

    #[test]
    fn duplicate_fragments_are_harmless() {
        let p = packet(300, 8);
        let frags = pieces(p.clone(), 128);
        let mut r = Reassembler::new();
        let mut out = None;
        for f in frags.iter().chain(frags.iter()) {
            if let Some(w) = r.push(SimTime::ZERO, f.clone()) {
                out = Some(w);
            }
        }
        assert_eq!(out.expect("reassembled").payload, p.payload);
    }

    #[test]
    fn interleaved_datagrams_do_not_mix() {
        let a = packet(400, 10);
        let b = packet(400, 11);
        let fa = pieces(a.clone(), 150);
        let fb = pieces(b.clone(), 150);
        let mut r = Reassembler::new();
        let mut done = Vec::new();
        for (x, y) in fa.into_iter().zip(fb) {
            if let Some(w) = r.push(SimTime::ZERO, x) {
                done.push(w);
            }
            if let Some(w) = r.push(SimTime::ZERO, y) {
                done.push(w);
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done.iter().any(|w| w.payload == a.payload));
        assert!(done.iter().any(|w| w.payload == b.payload));
    }

    #[test]
    fn partial_datagrams_expire() {
        let p = packet(400, 12);
        let frags = pieces(p, 150);
        let mut r = Reassembler::with_limits(SimDuration::from_secs(1), DEFAULT_MAX_PARTIALS);
        // Push all but the last fragment.
        for f in &frags[..frags.len() - 1] {
            assert!(r.push(SimTime::ZERO, f.clone()).is_none());
        }
        assert_eq!(r.pending(), 1);
        // After the timeout, the straggler no longer completes the datagram.
        let late = frags.last().unwrap().clone();
        assert!(r.push(SimTime::from_secs(2), late).is_none());
        assert_eq!(r.pending(), 1); // the straggler starts a fresh partial
    }

    #[test]
    fn partial_cap_evicts_oldest_and_counts() {
        let mut r = Reassembler::with_limits(SimDuration::from_secs(30), 2);
        // Two orphaned fragment trains occupy both slots, staggered in time
        // so their expiry deadlines (and thus eviction order) differ.
        for (i, at) in [(20u16, 0u64), (21, 1)] {
            let frags = pieces(packet(400, i), 150);
            assert!(r.push(SimTime::from_secs(at), frags[0].clone()).is_none());
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.evicted(), 0);
        // A third train arrives: the oldest partial (id 20) is evicted.
        let frags = pieces(packet(400, 22), 150);
        assert!(r.push(SimTime::from_secs(2), frags[0].clone()).is_none());
        assert_eq!(r.pending(), 2);
        assert_eq!(r.evicted(), 1);
        // The survivor (id 21) can still complete.
        let rest = fragment_packet(packet(400, 21), 150).unwrap();
        let mut out = None;
        for f in rest.skip(1) {
            if let Some(w) = r.push(SimTime::from_secs(2), f) {
                out = Some(w);
            }
        }
        assert_eq!(out.expect("survivor reassembles").header.id, 21);
    }

    #[test]
    fn duplicate_fragment_of_tracked_datagram_does_not_evict() {
        let mut r = Reassembler::with_limits(SimDuration::from_secs(30), 1);
        let frags = pieces(packet(400, 30), 150);
        assert!(r.push(SimTime::ZERO, frags[0].clone()).is_none());
        // Re-offering a fragment of the datagram already being tracked must
        // not count as "new" and evict the very entry it belongs to.
        assert!(r.push(SimTime::ZERO, frags[0].clone()).is_none());
        assert_eq!(r.evicted(), 0);
        assert_eq!(r.pending(), 1);
    }

    /// A last fragment near the top of the 32-bit offset space: its end
    /// does not fit a `u32`, and no datagram reaches that far anyway.
    #[test]
    fn fragment_past_the_datagram_limit_is_dropped_and_counted() {
        let mut frag = packet(8, 40);
        frag.header.frag = FragInfo {
            offset: u32::MAX - 3,
            more_fragments: false,
            dont_fragment: false,
        };
        let mut r = Reassembler::new();
        assert!(r.push(SimTime::ZERO, frag).is_none());
        assert_eq!(r.oversized(), 1);
        assert_eq!(r.pending(), 0);
    }

    /// Scattered 8-byte fragments of one datagram that never completes:
    /// only those inside the datagram limit are held, so one partial keeps
    /// at most one view per aligned unit of a maximal payload.
    #[test]
    fn scattered_fragments_fill_at_most_one_datagram() {
        let mut r = Reassembler::new();
        let n = 50_000u32;
        for i in 0..n {
            let mut frag = packet(8, 41);
            frag.header.frag = FragInfo {
                offset: 8 + 16 * i,
                more_fragments: true,
                dont_fragment: false,
            };
            assert!(r.push(SimTime::ZERO, frag).is_none());
        }
        let held: usize = r.partials.values().map(|p| p.runs.runs().count()).sum();
        assert!(held as u64 <= MAX_DATAGRAM_PAYLOAD / 8, "{held} views held");
        assert_eq!(held as u64 + r.oversized(), u64::from(n));
        assert_eq!((r.pending(), r.evicted()), (1, 0));
    }

    #[test]
    fn reassembly_preserves_lineage() {
        let mut p = packet(700, 14);
        p.payload.set_lineage(0xCAFE);
        let mut r = Reassembler::new();
        let mut out = None;
        for f in pieces(p, 200).into_iter().rev() {
            // Slicing during fragmentation inherits the tag…
            assert_eq!(f.payload.lineage(), 0xCAFE);
            out = r.push(SimTime::ZERO, f);
        }
        // …and the multi-run copy path restores it on the assembled payload.
        assert_eq!(out.expect("reassembled").payload.lineage(), 0xCAFE);
    }

    #[test]
    fn refragmenting_a_fragment_preserves_stream_offsets() {
        // Fragment at MTU 400, then re-fragment the first piece at MTU 200,
        // as would happen crossing two successively smaller links.
        let p = packet(900, 13);
        let first_pass = fragment_packet(p.clone(), 400).unwrap();
        let mut wire = Vec::new();
        for f in first_pass {
            wire.extend(fragment_packet(f, 200).unwrap());
        }
        let mut r = Reassembler::new();
        let mut out = None;
        for f in wire {
            assert!(f.total_len() <= 200);
            if let Some(w) = r.push(SimTime::ZERO, f) {
                out = Some(w);
            }
        }
        assert_eq!(out.expect("reassembled").payload, p.payload);
    }
}
