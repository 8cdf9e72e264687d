//! A cheaply clonable, sliceable byte buffer — the zero-copy backbone of
//! the packet path.
//!
//! [`PacketBuf`] is a hand-rolled, dependency-free take on the `bytes`
//! crate's `Bytes`: a reference-counted backing store plus an offset/length
//! view. `clone` and [`slice`](PacketBuf::slice) are O(1) and never touch
//! the bytes, so the redirector can multicast one encoded packet to an
//! N-replica daisy chain with a single payload copy in total, and decoders
//! can hand out payload views without copying them out of the packet.
//!
//! **One buffer per packet.** A packet's bytes are written once, where they
//! first exist: [`with_headroom`](PacketBuf::with_headroom) allocates the
//! backing with spare bytes in front of the payload, and every later header
//! (TCP, IP, the redirector's tunnel) is written into that room by
//! [`push_front`](PacketBuf::push_front). The write happens in place only
//! when `Rc::get_mut` proves this handle is the backing's sole owner — no
//! clone, slice or decode view can observe the bytes change. Any other
//! handle forces one copy into a fresh backing, so a shared buffer is never
//! written.
//!
//! **Received bytes stay views until read.** [`RunList`], behind TCP's
//! receive buffer and IP reassembly, holds them as slices of the buffers
//! they arrived in.
//!
//! Equality, ordering, and hashing are **content-based** (two buffers with
//! the same visible bytes are equal regardless of backing store), so types
//! embedding a `PacketBuf` behave exactly as they did with `Vec<u8>`.
//!
//! Determinism note: sharing is pure bookkeeping. The visible bytes of
//! every buffer are identical to what a copying path would produce, so
//! packet sizes — and therefore serialisation times, CPU costs, and event
//! ordering — are bit-for-bit unchanged.
//!
//! # Examples
//!
//! ```
//! use hydranet_netsim::buf::PacketBuf;
//!
//! let b = PacketBuf::from(vec![1u8, 2, 3, 4, 5]);
//! let mid = b.slice(1..4);          // O(1): no bytes move
//! assert_eq!(&mid[..], &[2, 3, 4]);
//! assert!(PacketBuf::same_backing(&b, &mid));
//!
//! let tail = mid.slice(1..);        // slices of slices compose
//! assert_eq!(&tail[..], &[3, 4]);
//!
//! // Two spare bytes in front of a three-byte payload; the header lands
//! // in them without moving the payload.
//! let mut pkt = PacketBuf::with_headroom(2, 3, |p| p.copy_from_slice(b"abc"));
//! pkt.push_front(2).copy_from_slice(b"h:");
//! assert_eq!(&pkt[..], b"h:abc");
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter;
use std::ops::{Bound, Deref, RangeBounds};
use std::rc::Rc;

use crate::packet::IP_HEADER_LEN;

/// A shared, immutable byte buffer with O(1) `clone` and `slice`, and
/// in-place header writes into its headroom while uniquely held.
///
/// See the [module docs](self) for the design rationale.
#[derive(Clone)]
pub struct PacketBuf {
    /// Backing store, shared between every clone and slice of this buffer.
    ///
    /// `Rc<[u8]>`: the refcounts and the bytes share one allocation, so a
    /// buffer costs one allocation, not two. `Rc`, not `Arc`: a run is
    /// single-threaded and nothing on the packet path crosses threads.
    data: Rc<[u8]>,
    /// Start of the visible bytes in `data`; everything before is headroom.
    off: u32,
    len: u32,
    /// Packet lineage id (0 = none): minted once when a stack first
    /// encodes a send, then inherited by every clone, slice, decode view,
    /// fragment, header push, and encapsulation of the buffer, so any
    /// delivered byte traces back to its originating send. Pure metadata —
    /// excluded from equality/hash and never serialised, so visible bytes,
    /// packet sizes, and event ordering are untouched.
    lineage: u64,
}

// A run list holds a lone run's handle inline, so every TCP connection
// record carries one and the `PINNED_SCALE` fingerprint covers its size: a
// wider handle (`usize` offset and length make it 40 bytes) would move the
// pin.
const _: () = assert!(std::mem::size_of::<PacketBuf>() == 32);

thread_local! {
    /// All empty buffers share one backing store, so empty payloads (pure
    /// ACKs are the bulk of reverse-path traffic) never allocate. Being
    /// shared, it is never uniquely held, so `push_front` never writes it.
    static EMPTY: Rc<[u8]> = Rc::from([]);
}

/// A buffer offset or length as the handle stores it.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("PacketBuf larger than 4 GiB")
}

impl PacketBuf {
    /// Creates an empty buffer (no allocation; all empties share a backing).
    pub fn new() -> Self {
        PacketBuf {
            data: EMPTY.with(Rc::clone),
            off: 0,
            len: 0,
            lineage: 0,
        }
    }

    /// Allocates one backing of `head + len` bytes and returns a view of
    /// the last `len`, which `fill` writes. The `head` bytes in front are
    /// room for headers that [`push_front`](Self::push_front) later writes
    /// in place.
    pub fn with_headroom(head: usize, len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        if head + len == 0 {
            return PacketBuf::new();
        }
        // A `TrustedLen` iterator collects into `Rc<[u8]>` with exactly one
        // allocation.
        let mut data: Rc<[u8]> = iter::repeat_n(0, head + len).collect();
        fill(&mut Rc::get_mut(&mut data).expect("a fresh backing has one owner")[head..]);
        PacketBuf {
            data,
            off: to_u32(head),
            len: to_u32(len),
            lineage: 0,
        }
    }

    /// Grows the view `n` bytes to the front and returns those bytes for
    /// the caller to write (a header, typically).
    ///
    /// In place when this handle is the backing's only owner (proved by
    /// `Rc::get_mut`) and the headroom holds `n` bytes. Otherwise the
    /// visible bytes are copied once into a fresh backing that keeps
    /// [`IP_HEADER_LEN`] spare in front of the new bytes, so one more
    /// header (a tunnel's) still fits in place. Other handles never see a
    /// change; the lineage is kept either way.
    pub fn push_front(&mut self, n: usize) -> &mut [u8] {
        if (self.off as usize) < n || Rc::get_mut(&mut self.data).is_none() {
            let old = self.as_slice();
            let fresh =
                PacketBuf::with_headroom(IP_HEADER_LEN + n, old.len(), |d| d.copy_from_slice(old));
            *self = fresh.with_lineage(self.lineage);
        }
        let start = self.off as usize - n;
        self.off = to_u32(start);
        self.len += to_u32(n);
        let data = Rc::get_mut(&mut self.data).expect("checked unique above");
        &mut data[start..start + n]
    }

    /// The buffer's lineage id (0 when never tagged).
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Tags the buffer with a lineage id. Clones, slices, and decode views
    /// taken *afterwards* inherit the tag; existing views are unaffected.
    pub fn set_lineage(&mut self, lineage: u64) {
        self.lineage = lineage;
    }

    /// Returns this buffer tagged with `lineage` (builder form).
    #[must_use]
    pub fn with_lineage(mut self, lineage: u64) -> Self {
        self.lineage = lineage;
        self
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the buffer has no visible bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        let off = self.off as usize;
        &self.data[off..off + self.len as usize]
    }

    /// Returns a view of a sub-range of this buffer — O(1), shares the
    /// backing store.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted, matching slice
    /// indexing semantics.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> PacketBuf {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of bounds for PacketBuf of {} bytes",
            self.len
        );
        PacketBuf {
            data: self.data.clone(),
            off: self.off + to_u32(start),
            len: to_u32(end - start),
            lineage: self.lineage,
        }
    }

    /// Shortens the view to at most `len` bytes, keeping the backing (and
    /// so this handle's claim to it) — the O(1) `Vec::truncate`.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.len = to_u32(len);
        }
    }

    /// Copies the visible bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Whether two buffers share one backing store (regardless of the
    /// ranges they view). This is how tests prove a path is zero-copy.
    pub fn same_backing(a: &PacketBuf, b: &PacketBuf) -> bool {
        Rc::ptr_eq(&a.data, &b.data)
    }

    /// Grows this view over `next` when `next` views the bytes right after
    /// it in the same backing; returns whether it did.
    fn join(&mut self, next: &PacketBuf) -> bool {
        let adjacent = PacketBuf::same_backing(self, next) && self.off + self.len == next.off;
        if adjacent {
            self.len += next.len;
        }
        adjacent
    }
}

impl Default for PacketBuf {
    fn default() -> Self {
        PacketBuf::new()
    }
}

impl Deref for PacketBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PacketBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for PacketBuf {
    /// Copies the slice into a fresh buffer (no headroom).
    fn from(s: &[u8]) -> Self {
        PacketBuf::with_headroom(0, s.len(), |d| d.copy_from_slice(s))
    }
}

impl From<Vec<u8>> for PacketBuf {
    /// Copies the Vec's bytes into a fresh buffer: the refcounts must
    /// precede the bytes in one allocation. Hot encoders build in place
    /// with [`PacketBuf::with_headroom`] instead.
    fn from(v: Vec<u8>) -> Self {
        PacketBuf::from(v.as_slice())
    }
}

impl<const N: usize> From<[u8; N]> for PacketBuf {
    fn from(a: [u8; N]) -> Self {
        PacketBuf::from(a.as_slice())
    }
}

impl<const N: usize> From<&[u8; N]> for PacketBuf {
    fn from(a: &[u8; N]) -> Self {
        PacketBuf::from(a.as_slice())
    }
}

impl FromIterator<u8> for PacketBuf {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        PacketBuf::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PacketBuf {}

impl PartialEq<[u8]> for PacketBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PacketBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<PacketBuf> for Vec<u8> {
    fn eq(&self, other: &PacketBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for PacketBuf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash like `[u8]`/`Vec<u8>` so content-equal buffers collide.
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print like the Vec<u8> this replaced, so assertion diffs and
        // derived Debug impls on packet types look unchanged.
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// Received bytes held as offset-ordered, non-overlapping views of the
/// buffers they arrived in (the first copy of any byte wins).
///
/// [`contiguous_end`](Self::contiguous_end) and the reads touch only the
/// runs they pass over, so a list holding thousands of gated runs costs a
/// deposit or a read what the bytes moved cost. A read makes the one copy.
/// A lone run is held inline, so a reader that takes each buffer as it
/// lands never allocates: a deque exists only from a second run on, until
/// the list reads dry. A view that continues the run before it in the same
/// backing (the next in-order fragment of one datagram) grows that run
/// instead of starting one, so such a train stays one inline view.
#[derive(Debug, Clone, Default)]
pub struct RunList(Runs);

/// One run: the stream offset of its first byte, and a view of its bytes.
type Run = (u64, PacketBuf);

#[derive(Debug, Clone, Default)]
enum Runs {
    #[default]
    Empty,
    One(Run),
    /// The runs, and the bytes they hold.
    Many(VecDeque<Run>, usize),
}

impl RunList {
    /// Bytes held.
    pub fn len(&self) -> usize {
        match &self.0 {
            Runs::Empty => 0,
            Runs::One((_, buf)) => buf.len(),
            Runs::Many(_, len) => *len,
        }
    }

    /// Whether no byte is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The held runs in offset order.
    pub fn runs(&self) -> impl Iterator<Item = (u64, &PacketBuf)> {
        self.runs_from(0).map(|(off, buf)| (*off, buf))
    }

    /// The held runs that end past `from`, in offset order.
    fn runs_from(&self, from: u64) -> impl Iterator<Item = &Run> {
        let (one, many) = match &self.0 {
            Runs::Empty => (None, None),
            Runs::One(run) => (Some(run).filter(|(o, b)| o + b.len() as u64 > from), None),
            Runs::Many(runs, _) => {
                let i = runs.partition_point(|(o, b)| o + b.len() as u64 <= from);
                (None, Some(runs.range(i..)))
            }
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// Holds the bytes of `buf` at offsets `off..` that no run holds yet;
    /// returns how many that was.
    pub fn insert(&mut self, mut off: u64, mut buf: PacketBuf) -> usize {
        match &self.0 {
            _ if buf.is_empty() => return 0,
            Runs::Empty => {
                let added = buf.len();
                self.0 = Runs::One((off, buf));
                return added;
            }
            Runs::One((o, b)) if *o <= off && off + buf.len() as u64 <= o + b.len() as u64 => {
                return 0;
            }
            _ => {}
        }
        if let Runs::One((o, b)) = &mut self.0 {
            if *o + b.len() as u64 == off && b.join(&buf) {
                return buf.len();
            }
        }
        let (runs, len) = self.deque();
        let mut added = 0;
        // The first run ending past `off`; the runs before it are untouched.
        let mut i = runs.partition_point(|(o, b)| o + b.len() as u64 <= off);
        while !buf.is_empty() {
            let end = off + buf.len() as u64;
            match runs.get(i).map(|(o, b)| (*o, o + b.len() as u64)) {
                Some((lo, hi)) if lo <= off => {
                    // Held from the left: skip what the run covers.
                    let skip = hi.min(end) - off;
                    off += skip;
                    buf = buf.slice(skip as usize..);
                    i += 1;
                }
                Some((lo, _)) if lo < end => {
                    // Room up to the next run.
                    let take = (lo - off) as usize;
                    i += Self::place(runs, i, off, buf.slice(..take));
                    added += take;
                    off = lo;
                    buf = buf.slice(take..);
                }
                _ => {
                    added += buf.len();
                    Self::place(runs, i, off, buf);
                    break;
                }
            }
        }
        *len += added;
        added
    }

    /// Holds `buf` at `off`, just before `runs[i]`: as more of the run
    /// before it when `buf` continues that run's view, else as a new run.
    /// Returns the runs added (0 or 1).
    fn place(runs: &mut VecDeque<Run>, i: usize, off: u64, buf: PacketBuf) -> usize {
        if let Some((o, prev)) = i.checked_sub(1).and_then(|j| runs.get_mut(j)) {
            if *o + prev.len() as u64 == off && prev.join(&buf) {
                return 0;
            }
        }
        runs.insert(i, (off, buf));
        1
    }

    /// The runs as a deque and their byte count, moving a lone inline run
    /// into a new deque first.
    fn deque(&mut self) -> (&mut VecDeque<Run>, &mut usize) {
        if let Runs::Empty | Runs::One(_) = self.0 {
            let mut runs = VecDeque::new();
            let len = self.len();
            if let Runs::One(run) = std::mem::take(&mut self.0) {
                runs.push_back(run);
            }
            self.0 = Runs::Many(runs, len);
        }
        match &mut self.0 {
            Runs::Many(runs, len) => (runs, len),
            _ => unreachable!("just made a deque"),
        }
    }

    /// The first offset at or after `from` that no run holds, or `limit`
    /// if every byte up to it is held (`from` when `limit <= from`).
    pub fn contiguous_end(&self, from: u64, limit: u64) -> u64 {
        let mut end = from;
        for (o, b) in self.runs_from(from) {
            if *o > end || end >= limit {
                break;
            }
            end = o + b.len() as u64;
        }
        end.min(limit).max(from)
    }

    /// Copies the first `out.len()` bytes held into `out` and drops them.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `out.len()` bytes are held. In debug builds,
    /// also if those bytes are not contiguous.
    pub fn read_into(&mut self, out: &mut [u8]) {
        let mut at = 0;
        self.read(out.len(), |run| {
            out[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        });
    }

    /// Appends the first `n` bytes held to `out` and drops them: one copy
    /// per byte, into room `out` grows once, with nothing zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes are held. In debug builds, also if
    /// those bytes are not contiguous.
    pub fn append_to(&mut self, out: &mut Vec<u8>, n: usize) {
        out.reserve(n);
        self.read(n, |run| out.extend_from_slice(run));
    }

    /// Hands the first `n` bytes held to `take`, a run's bytes at a time,
    /// and drops them; the storage goes back to the allocator once nothing
    /// is held. The public reads' panics are this one's.
    fn read(&mut self, n: usize, mut take: impl FnMut(&[u8])) {
        let mut left = n;
        while left > 0 {
            let (off, run) = self.front_mut().expect("read past the held bytes");
            let k = run.len().min(left);
            take(&run[..k]);
            left -= k;
            if k < run.len() {
                *off += k as u64;
                *run = run.slice(k..);
            } else {
                let end = *off + k as u64;
                self.pop_front();
                debug_assert!(
                    left == 0 || self.runs().next().is_some_and(|(o, _)| o == end),
                    "read across a hole"
                );
            }
        }
        // Only a deque that still holds runs counts its bytes itself.
        if let Runs::Many(_, len) = &mut self.0 {
            *len -= n;
        }
    }

    fn front_mut(&mut self) -> Option<&mut Run> {
        match &mut self.0 {
            Runs::Empty => None,
            Runs::One(run) => Some(run),
            Runs::Many(runs, _) => runs.front_mut(),
        }
    }

    /// Drops the first run; the list is `Empty` once none is left.
    fn pop_front(&mut self) {
        match &mut self.0 {
            Runs::Many(runs, _) if runs.len() > 1 => drop(runs.pop_front()),
            _ => self.0 = Runs::Empty,
        }
    }

    /// Heap bytes charged to the list: its deque's run slots plus the
    /// bytes the runs view (each view also pins its arriving packet's
    /// headers).
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Runs::Many(runs, len) => runs.capacity() * std::mem::size_of::<Run>() + len,
            _ => self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn with_headroom_fills_one_backing_behind_its_headroom() {
        let b = PacketBuf::with_headroom(4, 3, |d| d.copy_from_slice(&[7, 8, 9]));
        assert_eq!(b.as_slice(), &[7, 8, 9]);
        assert_eq!(b.off, 4);
        assert_eq!(b.data.len(), 7);
        // Nothing else holds the backing: a header write needs no copy.
        let mut b = b;
        assert!(Rc::get_mut(&mut b.data).is_some());
        // Headroom alone, or nothing at all.
        assert_eq!(PacketBuf::with_headroom(20, 0, |_| {}).data.len(), 20);
        assert!(PacketBuf::same_backing(
            &PacketBuf::with_headroom(0, 0, |_| {}),
            &PacketBuf::new()
        ));
    }

    #[test]
    fn push_front_on_a_unique_handle_writes_in_place() {
        let mut b =
            PacketBuf::with_headroom(8, 3, |d| d.copy_from_slice(b"abc")).with_lineage(0x51);
        // Views that are gone again do not count against uniqueness.
        drop(b.clone());
        drop(b.slice(1..));
        let backing = b.data.as_ptr();
        let payload_at = b.as_slice().as_ptr();
        b.push_front(2).copy_from_slice(b"h2");
        b.push_front(4).copy_from_slice(b"hdr4");
        assert_eq!(b.as_slice(), b"hdr4h2abc");
        // Same backing, payload unmoved: the headers landed in front of it.
        assert_eq!(b.data.as_ptr(), backing);
        assert_eq!(b.as_slice()[6..].as_ptr(), payload_at);
        assert_eq!(b.off, 2);
        assert_eq!(b.lineage(), 0x51);
    }

    #[test]
    fn push_front_with_a_live_clone_copies_and_leaves_the_clone_alone() {
        let mut b =
            PacketBuf::with_headroom(8, 3, |d| d.copy_from_slice(b"abc")).with_lineage(0x52);
        let clone = b.clone();
        b.push_front(2).copy_from_slice(b"hd");
        assert_eq!(b.as_slice(), b"hdabc");
        assert_eq!(clone.as_slice(), b"abc");
        assert!(!PacketBuf::same_backing(&b, &clone));
        assert_eq!(b.lineage(), 0x52);
        // The fresh backing keeps room for one more header in place.
        assert_eq!(b.off as usize, IP_HEADER_LEN);
        let at = b.as_slice().as_ptr();
        b.push_front(IP_HEADER_LEN).fill(0xEE);
        assert_eq!(b.as_slice()[IP_HEADER_LEN..].as_ptr(), at);
        assert_eq!(&b[IP_HEADER_LEN..], b"hdabc");
        assert_eq!(clone.as_slice(), b"abc");
    }

    #[test]
    fn push_front_without_headroom_copies() {
        // A plain `From` buffer has no headroom; a slice view's headroom
        // is the bytes before it, which a live parent still sees.
        let mut b = PacketBuf::from(vec![1u8, 2, 3]).with_lineage(9);
        b.push_front(1)[0] = 0;
        assert_eq!(b.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(b.lineage(), 9);
        let parent = PacketBuf::from(vec![1u8, 2, 3, 4]);
        let mut tail = parent.slice(2..);
        tail.push_front(2).copy_from_slice(&[8, 8]);
        assert_eq!(tail.as_slice(), &[8, 8, 3, 4]);
        assert_eq!(parent.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn push_front_on_an_empty_buffer() {
        let mut b = PacketBuf::new().with_lineage(3);
        b.push_front(4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(b.lineage(), 3);
        // The shared empty backing was not written.
        assert!(PacketBuf::new().is_empty());
        assert!(PacketBuf::new().data.is_empty());
    }

    #[test]
    fn clone_and_slice_share_backing() {
        let b = PacketBuf::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let c = b.clone();
        let s = b.slice(2..6);
        assert!(PacketBuf::same_backing(&b, &c));
        assert!(PacketBuf::same_backing(&b, &s));
        assert_eq!(&s[..], &[2, 3, 4, 5]);
    }

    #[test]
    fn slice_of_slice_composes() {
        let b = PacketBuf::from((0u8..100).collect::<Vec<u8>>());
        let s1 = b.slice(10..90);
        let s2 = s1.slice(5..15);
        assert_eq!(s2.as_slice(), (15u8..25).collect::<Vec<u8>>().as_slice());
        assert!(PacketBuf::same_backing(&b, &s2));
        // Range forms.
        assert_eq!(s1.slice(..).len(), 80);
        assert_eq!(s1.slice(..=4).as_slice(), &[10, 11, 12, 13, 14]);
        assert_eq!(s1.slice(78..).as_slice(), &[88, 89]);
    }

    #[test]
    fn empty_buffers_share_one_backing_and_compare_equal() {
        let a = PacketBuf::new();
        let b = PacketBuf::from(Vec::new());
        let c = PacketBuf::default();
        assert!(a.is_empty() && b.is_empty() && c.is_empty());
        assert!(PacketBuf::same_backing(&a, &b));
        assert!(PacketBuf::same_backing(&a, &c));
        assert_eq!(a, b);
        // An empty slice of a non-empty buffer is also empty and equal.
        let d = PacketBuf::from(vec![1u8, 2, 3]).slice(3..3);
        assert_eq!(a, d);
    }

    #[test]
    fn equality_and_hash_are_content_based() {
        let a = PacketBuf::from(vec![9u8, 8, 7]);
        let b = PacketBuf::from(vec![0u8, 9, 8, 7, 0]).slice(1..4);
        assert!(!PacketBuf::same_backing(&a, &b));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(a, vec![9u8, 8, 7]);
        assert_eq!(vec![9u8, 8, 7], a);
        assert_eq!(a, *[9u8, 8, 7].as_slice());
    }

    #[test]
    fn deref_gives_slice_methods() {
        let b = PacketBuf::from(vec![1u8, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], 1);
        assert_eq!(&b[1..3], &[2, 3]);
        assert_eq!(b.iter().sum::<u8>(), 10);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn debug_formats_like_a_byte_slice() {
        let b = PacketBuf::from(vec![1u8, 2]);
        assert_eq!(format!("{b:?}"), "[1, 2]");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        let b = PacketBuf::from(vec![1u8, 2, 3]);
        let _ = b.slice(1..5);
    }

    #[test]
    fn lineage_is_metadata_inherited_by_clone_and_slice() {
        let b = PacketBuf::from(vec![9u8, 8, 7, 6]).with_lineage(0xBEEF);
        assert_eq!(b.lineage(), 0xBEEF);
        assert_eq!(b.clone().lineage(), 0xBEEF);
        assert_eq!(b.slice(1..3).lineage(), 0xBEEF);
        // Fresh buffers are untagged; tagging is metadata only —
        // equality and hashing still compare content alone.
        let untagged = PacketBuf::from(vec![9u8, 8, 7, 6]);
        assert_eq!(untagged.lineage(), 0);
        assert_eq!(b, untagged);
        assert_eq!(hash_of(&b), hash_of(&untagged));
        let mut m = untagged;
        m.set_lineage(7);
        assert_eq!(m.lineage(), 7);
    }

    #[test]
    fn from_array_and_iterator() {
        assert_eq!(PacketBuf::from([1u8, 2, 3]).as_slice(), &[1, 2, 3]);
        assert_eq!(PacketBuf::from(b"ab").as_slice(), b"ab");
        let collected: PacketBuf = (0u8..4).collect();
        assert_eq!(collected.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn run_list_keeps_the_first_copy_as_views() {
        let mut runs = RunList::default();
        let late = PacketBuf::from(*b"ABCDEFGH");
        assert_eq!(runs.insert(4, PacketBuf::from(*b"efgh")), 4);
        // Overlapping both sides of the held run: only bytes 0..4 and
        // 8..12 are new, and they stay views of the arriving buffer.
        let wide = PacketBuf::from(*b"abcdEFGHijkl");
        assert_eq!(runs.insert(0, wide.clone()), 8);
        assert_eq!(runs.insert(2, late), 0);
        assert_eq!(runs.len(), 12);
        let held: Vec<(u64, &[u8])> = runs.runs().map(|(o, b)| (o, b.as_slice())).collect();
        let expect: [(u64, &[u8]); 3] = [(0, b"abcd"), (4, b"efgh"), (8, b"ijkl")];
        assert_eq!(held, expect);
        assert!(runs
            .runs()
            .all(|(o, b)| o == 4 || PacketBuf::same_backing(b, &wide)));
    }

    #[test]
    fn run_list_contiguous_end_stops_at_holes_and_the_limit() {
        let mut runs = RunList::default();
        runs.insert(0, PacketBuf::from([0u8; 10]));
        runs.insert(10, PacketBuf::from([0u8; 5]));
        runs.insert(20, PacketBuf::from([0u8; 5]));
        assert_eq!(runs.contiguous_end(0, u64::MAX), 15);
        assert_eq!(runs.contiguous_end(3, 12), 12);
        assert_eq!(runs.contiguous_end(15, u64::MAX), 15, "a hole at 15");
        assert_eq!(runs.contiguous_end(21, 100), 25);
        assert_eq!(runs.contiguous_end(8, 4), 8, "a limit below `from`");
    }

    #[test]
    fn run_list_reads_across_runs_and_releases_storage_when_drained() {
        let mut runs = RunList::default();
        assert_eq!(runs.heap_bytes(), 0);
        runs.insert(0, PacketBuf::from(*b"abc"));
        runs.insert(3, PacketBuf::from(*b"defg"));
        let mut out = [0u8; 5];
        runs.read_into(&mut out);
        assert_eq!(&out, b"abcde");
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs.runs().next().map(|(o, b)| (o, b.to_vec())),
            Some((5, b"fg".to_vec()))
        );
        let mut rest = [0u8; 2];
        runs.read_into(&mut rest);
        assert_eq!(&rest, b"fg");
        assert!(runs.is_empty());
        assert_eq!(
            runs.heap_bytes(),
            0,
            "a drained list gives its storage back"
        );
    }

    #[test]
    fn run_list_holds_a_lone_run_inline() {
        let mut runs = RunList::default();
        let mut out = [0u8; 3];
        for (off, bytes) in [(0, b"abc"), (3, b"def")] {
            assert_eq!(runs.insert(off, PacketBuf::from(*bytes)), 3);
            assert_eq!(runs.heap_bytes(), 3, "one run needs no run slot");
            assert_eq!(runs.insert(off + 1, PacketBuf::from(*b"xy")), 0);
            assert_eq!(runs.heap_bytes(), 3, "a covered insert adds no slot");
            runs.read_into(&mut out);
            assert_eq!(&out, bytes);
            assert!(runs.is_empty());
        }
        // A second run moves both into a deque until the list reads dry.
        runs.insert(6, PacketBuf::from(*b"ghi"));
        runs.insert(12, PacketBuf::from(*b"mno"));
        assert!(runs.heap_bytes() > runs.len());
        runs.insert(9, PacketBuf::from(*b"jkl"));
        let mut all = [0u8; 9];
        runs.read_into(&mut all);
        assert_eq!(&all, b"ghijklmno");
        assert_eq!(runs.heap_bytes(), 0);
    }

    #[test]
    fn run_list_joins_a_view_that_continues_a_run_in_its_backing() {
        let whole = PacketBuf::from((0u8..30).collect::<Vec<u8>>());
        let thirds = [(0, 10), (10, 20), (20, 30)];
        let mut in_order = RunList::default();
        for (lo, hi) in thirds {
            assert_eq!(in_order.insert(lo as u64, whole.slice(lo..hi)), 10);
        }
        let held: Vec<(u64, &PacketBuf)> = in_order.runs().collect();
        assert_eq!(held.len(), 1, "one inline run");
        assert_eq!((held[0].0, held[0].1), (0, &whole));
        assert!(PacketBuf::same_backing(held[0].1, &whole));
        assert_eq!(in_order.heap_bytes(), 30, "no run slot");
        // Out of order, each view starts before the held run: no joining.
        let mut reversed = RunList::default();
        for (lo, hi) in thirds.into_iter().rev() {
            reversed.insert(lo as u64, whole.slice(lo..hi));
        }
        assert_eq!(reversed.runs().count(), 3);
        // A copy (another backing) starts a run, and so does the view after
        // it, whose backing is not the copy's.
        let mut copied = RunList::default();
        copied.insert(0, whole.slice(0..10));
        copied.insert(10, PacketBuf::from(&whole[10..20]));
        copied.insert(20, whole.slice(20..30));
        assert_eq!(copied.runs().count(), 3);
        // Filling a hole between runs: the filler joins the run before it.
        let mut holed = RunList::default();
        holed.insert(0, whole.slice(0..10));
        holed.insert(20, whole.slice(20..30));
        assert_eq!(holed.insert(10, whole.slice(10..20)), 10);
        let offs: Vec<(u64, usize)> = holed.runs().map(|(o, b)| (o, b.len())).collect();
        assert_eq!(offs, [(0, 20), (20, 10)]);
        for mut runs in [in_order, reversed, copied, holed] {
            let mut out = Vec::new();
            runs.append_to(&mut out, 30);
            assert_eq!(out, whole);
            assert_eq!(runs.heap_bytes(), 0);
        }
    }

    /// Random overlapping inserts, each filling its bytes with its own tag
    /// or, half the time, viewing one shared backing (whose views join),
    /// against a byte map where the first writer of a byte wins.
    #[test]
    fn run_list_matches_a_first_writer_byte_map() {
        let mut rng = crate::rng::SimRng::seed_from(0x2e_5eed);
        // Byte `o` of the shared backing is `50 + o`, never a tag.
        let shared: PacketBuf = (50..250u8).collect();
        for _ in 0..64 {
            let mut runs = RunList::default();
            let mut bytes = [None::<u8>; 200];
            for tag in 0..40u8 {
                let off = rng.range(0, 190);
                let len = rng.range(1, 200 - off);
                let (lo, hi) = (off as usize, (off + len) as usize);
                let buf = if rng.chance(0.5) {
                    shared.slice(lo..hi)
                } else {
                    PacketBuf::from(vec![tag; hi - lo])
                };
                let fresh = bytes[lo..hi].iter().filter(|b| b.is_none()).count();
                for (o, byte) in (lo..hi).zip(buf.iter()) {
                    bytes[o].get_or_insert(*byte);
                }
                assert_eq!(runs.insert(off, buf), fresh);
                let mut next = 0;
                for (o, run) in runs.runs() {
                    assert!(o >= next, "runs overlap or are out of order");
                    let held = &bytes[o as usize..o as usize + run.len()];
                    assert!(held.iter().zip(run.iter()).all(|(b, r)| *b == Some(*r)));
                    next = o + run.len() as u64;
                }
                assert_eq!(runs.len(), bytes.iter().flatten().count());
                let from = rng.range(0, 200);
                let gap = bytes[from as usize..].iter().position(Option::is_none);
                let end = gap.map_or(200, |g| from + g as u64);
                assert_eq!(runs.contiguous_end(from, 200), end);
            }
        }
    }
}
