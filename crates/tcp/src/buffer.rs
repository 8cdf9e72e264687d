//! Socket buffers: retransmittable send data and receive-side reassembly.
//!
//! The receive buffer holds received bytes as views of the segments they
//! came in, in one [`RunList`], and copies a byte once, when the
//! application reads it. It distinguishes *staged* bytes (arrived, possibly
//! out of order, not yet acknowledged to the application) from *deposited*
//! bytes (readable by the application and covered by our ACKs).
//! HydraNet-FT's atomicity rule — replica `Sᵢ` may deposit byte `k` only
//! after its successor reported an acknowledgement number greater than `k`
//! (paper §4.3) — arrives as the deposit limit its
//! [`ChainGate`](crate::ft::ChainGate) passes in: `RCV.NXT` moves over
//! staged bytes only up to the limit.

use std::collections::VecDeque;

use hydranet_netsim::buf::{PacketBuf, RunList};
use hydranet_netsim::packet::IP_HEADER_LEN;

use crate::segment::TCP_HEADER_LEN;
use crate::seq::SeqNum;

/// Room a transmit payload keeps in front for its TCP and IP headers.
const HEADROOM: usize = TCP_HEADER_LEN + IP_HEADER_LEN;

/// Reserves backing storage for `need` total bytes, growing geometrically
/// but never past `cap` (the configured socket-buffer size): the allocator
/// charge is bounded by the buffer's limit instead of the doubling
/// overshoot, which for an 8 KiB buffer is the difference between 8 KiB
/// and 16 KiB per flow.
fn reserve_bounded(q: &mut VecDeque<u8>, extra: usize, cap: usize) {
    let need = q.len() + extra;
    if q.capacity() < need {
        let target = need.next_power_of_two().min(cap.max(need));
        q.reserve_exact(target - q.len());
    }
}

/// `q[start..end]` as the ring's two contiguous halves, so a copy out is
/// at most two `memcpy`s instead of one iterator step per byte.
fn ring_range(q: &VecDeque<u8>, start: usize, end: usize) -> (&[u8], &[u8]) {
    let (head, tail) = q.as_slices();
    let split = head.len();
    (
        &head[start.min(split)..end.min(split)],
        &tail[start.saturating_sub(split)..end.saturating_sub(split)],
    )
}

/// Bytes accepted from the application, awaiting transmission and
/// acknowledgement. The buffer's base tracks the lowest unacknowledged
/// sequence number. Its capacity is the owner's configured send-buffer
/// size, passed to the calls that need it rather than copied into every
/// buffer.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    base: SeqNum,
    data: VecDeque<u8>,
}

impl SendBuffer {
    /// Creates a buffer whose first byte will carry sequence number `base`.
    pub fn new(base: SeqNum) -> Self {
        SendBuffer {
            base,
            data: VecDeque::new(),
        }
    }

    /// Appends as much of `data` as fits in `capacity` bytes; returns the
    /// number of bytes taken.
    pub fn write(&mut self, data: &[u8], capacity: usize) -> usize {
        let take = self.room(capacity).min(data.len());
        reserve_bounded(&mut self.data, take, capacity);
        self.data.extend(&data[..take]);
        take
    }

    /// Sequence number of the first byte held (the retransmission base).
    pub fn base(&self) -> SeqNum {
        self.base
    }

    /// Sequence number one past the last byte held.
    pub fn end(&self) -> SeqNum {
        self.base + self.data.len() as u32
    }

    /// Number of bytes held.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Free space in bytes, out of `capacity`.
    pub fn room(&self, capacity: usize) -> usize {
        capacity.saturating_sub(self.data.len())
    }

    /// Releases bytes acknowledged up to (not including) `upto`. A ring
    /// left empty goes back to the allocator, as a drained receive buffer's
    /// runs do: an idle connection holds no send storage, which is what
    /// bounds parked per-flow memory at scale.
    ///
    /// Sequence numbers outside the held range are clamped, so duplicate or
    /// stale ACKs are harmless.
    pub fn ack_to(&mut self, upto: SeqNum) {
        if upto.before_eq(self.base) {
            return;
        }
        let n = (upto - self.base).min(self.data.len() as u32) as usize;
        self.data.drain(..n);
        self.base += n as u32;
        if self.data.is_empty() {
            self.data = VecDeque::new();
        }
    }

    /// Heap bytes held by this buffer's backing storage (capacity, not
    /// length — what the allocator actually charges).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity()
    }

    /// Copies up to `len` bytes starting at sequence number `from` into a
    /// fresh packet buffer — the one copy of a segment's payload on the
    /// transmit path. The buffer keeps room in front for a TCP and an IP
    /// header, which the stack writes in place.
    ///
    /// Returns an empty buffer if `from` is outside the held range.
    pub fn slice(&self, from: SeqNum, len: usize) -> PacketBuf {
        if from.before(self.base) || from.after_eq(self.end()) {
            return PacketBuf::new();
        }
        let start = (from - self.base) as usize;
        let end = (start + len).min(self.data.len());
        let (head, tail) = ring_range(&self.data, start, end);
        PacketBuf::with_headroom(HEADROOM, end - start, |out| {
            out[..head.len()].copy_from_slice(head);
            out[head.len()..].copy_from_slice(tail);
        })
    }
}

/// What [`RecvBuffer::offer`] did with a segment's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// New bytes arrived and `RCV.NXT` advanced over them.
    Deposited,
    /// New bytes arrived but wait behind a hole or the deposit gate.
    Held,
    /// Every byte in the window was already held or deposited: the peer
    /// retransmitted.
    Duplicate,
    /// The segment starts at or past the window's right edge (a
    /// zero-window probe, or a peer ignoring the window); nothing is held.
    PastWindow,
}

/// Receive-side reassembly buffer: one run list holding every byte from
/// the first unread one on, and two cursors into it.
#[derive(Debug, Clone)]
pub struct RecvBuffer {
    /// Next sequence number to deposit (`RCV.NXT`).
    nxt_seq: SeqNum,
    /// Stream offset of `nxt_seq`: monotonic and never wrapping, the key
    /// space of the run list. It counts data bytes only; a consumed FIN
    /// advances `nxt_seq` alone.
    nxt_off: u64,
    /// Stream offset of the first unread byte, where the list begins.
    read_off: u64,
    runs: RunList,
    /// The configured buffer size; `u32` packs beside `nxt_seq`.
    capacity: u32,
}

impl RecvBuffer {
    /// Creates a buffer expecting its first data byte at `nxt`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `u32::MAX` bytes.
    pub fn new(nxt: SeqNum, capacity: usize) -> Self {
        RecvBuffer {
            nxt_seq: nxt,
            nxt_off: 0,
            read_off: 0,
            runs: RunList::default(),
            capacity: u32::try_from(capacity).expect("receive buffer larger than 4 GiB"),
        }
    }

    /// The next sequence number expected in order (`RCV.NXT`); this is what
    /// our outgoing ACK field carries.
    pub fn rcv_nxt(&self) -> SeqNum {
        self.nxt_seq
    }

    /// The receive window to advertise: free space after deposited and
    /// held bytes are accounted for.
    pub fn window(&self) -> u32 {
        self.capacity.saturating_sub(self.runs.len() as u32)
    }

    /// Number of bytes ready for the application.
    pub fn readable_len(&self) -> usize {
        (self.nxt_off - self.read_off) as usize
    }

    /// Bytes held awaiting deposit (in order but gated, or out of order).
    pub fn staged_bytes(&self) -> usize {
        self.runs.len() - self.readable_len()
    }

    /// Whether the byte at `RCV.NXT` has arrived but is not deposited: only
    /// the deposit limit holds it. Reads the one run that could hold that
    /// byte, never the list behind it.
    pub fn next_held(&self) -> bool {
        self.runs.contiguous_end(self.nxt_off, self.nxt_off + 1) > self.nxt_off
    }

    /// Offers a segment's payload, starting at `seq`, and keeps a view of
    /// its new bytes: those from `RCV.NXT` on that fall short of the first
    /// unread byte + capacity and that no earlier segment delivered. The
    /// bound counts unread bytes, so a sender that ignores the window
    /// cannot grow the buffer past its capacity. New bytes deposit up to
    /// `limit` (see [`deposit`](Self::deposit)).
    pub fn offer(&mut self, seq: SeqNum, data: PacketBuf, limit: Option<SeqNum>) -> Offer {
        let start = self.seq_to_off(seq);
        let edge = self.read_off + u64::from(self.capacity);
        if start >= edge {
            return Offer::PastWindow;
        }
        let lo = start.max(self.nxt_off);
        let hi = (start + data.len() as u64).min(edge);
        if lo >= hi {
            return Offer::Duplicate;
        }
        let view = data.slice((lo - start) as usize..(hi - start) as usize);
        if self.runs.insert(lo, view) == 0 {
            Offer::Duplicate
        } else if self.deposit(limit) {
            Offer::Deposited
        } else {
            Offer::Held
        }
    }

    /// Appends up to `max` deposited bytes to `out`, the one copy of a
    /// received byte, and returns how many.
    pub fn read(&mut self, out: &mut Vec<u8>, max: usize) -> usize {
        let n = max.min(self.readable_len());
        self.runs.append_to(out, n);
        self.read_off += n as u64;
        n
    }

    /// Moves `RCV.NXT` over the held bytes that are contiguous with it and
    /// before `limit` (every one of them when `None`). Returns `true` if it
    /// advanced.
    pub fn deposit(&mut self, limit: Option<SeqNum>) -> bool {
        let limit = limit.map_or(u64::MAX, |l| self.seq_to_off(l));
        let end = self.runs.contiguous_end(self.nxt_off, limit);
        let n = end - self.nxt_off;
        self.nxt_off = end;
        self.nxt_seq += n as u32;
        n > 0
    }

    /// Heap bytes held by this buffer's run list.
    pub fn heap_bytes(&self) -> usize {
        self.runs.heap_bytes()
    }

    /// Consumes one sequence slot that carries no data (a peer FIN),
    /// advancing `RCV.NXT` past it.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if undeposited data is held at the slot.
    pub fn consume_slot(&mut self) {
        debug_assert_eq!(
            self.runs.contiguous_end(self.nxt_off, u64::MAX),
            self.nxt_off,
            "consume_slot with held data pending at RCV.NXT"
        );
        self.nxt_seq += 1;
    }

    /// Converts a sequence number near `RCV.NXT` to an absolute offset.
    fn seq_to_off(&self, seq: SeqNum) -> u64 {
        let d = (seq - self.nxt_seq) as i32 as i64;
        self.nxt_off.saturating_add_signed(d)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ft::ChainGate;
    use hydranet_netsim::rng::SimRng;

    /// Reads up to `max` deposited bytes into a fresh vector.
    pub(crate) fn read(rb: &mut RecvBuffer, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        rb.read(&mut out, max);
        out
    }

    #[test]
    fn send_buffer_write_and_ack() {
        let mut sb = SendBuffer::new(SeqNum::new(1000));
        assert_eq!(sb.write(b"hello world", 16), 11);
        assert_eq!(sb.write(b"overflowing!!", 16), 5); // only 5 fit
        assert_eq!(sb.len(), 16);
        assert_eq!(sb.room(16), 0);
        assert_eq!(sb.end(), SeqNum::new(1016));
        sb.ack_to(SeqNum::new(1006));
        assert_eq!(sb.base(), SeqNum::new(1006));
        assert_eq!(sb.len(), 10);
        // Stale / duplicate acks are no-ops.
        sb.ack_to(SeqNum::new(1000));
        assert_eq!(sb.base(), SeqNum::new(1006));
    }

    #[test]
    fn send_buffer_slice() {
        let mut sb = SendBuffer::new(SeqNum::new(10));
        sb.write(b"abcdefghij", 64);
        assert_eq!(&sb.slice(SeqNum::new(10), 4)[..], b"abcd");
        assert_eq!(&sb.slice(SeqNum::new(14), 100)[..], b"efghij");
        assert!(sb.slice(SeqNum::new(9), 4).is_empty());
        assert!(sb.slice(SeqNum::new(20), 4).is_empty());
        // The copy leaves room for both headers in front, so the stack
        // writes them without moving the payload.
        let mut payload = sb.slice(SeqNum::new(12), 3);
        let at = payload.as_ptr();
        payload.push_front(HEADROOM).fill(0);
        assert_eq!(payload[HEADROOM..].as_ptr(), at);
        assert_eq!(&payload[HEADROOM..], b"cde");
    }

    #[test]
    fn send_buffer_across_wrap() {
        let base = SeqNum::new(u32::MAX - 3);
        let mut sb = SendBuffer::new(base);
        sb.write(b"12345678", 64);
        assert_eq!(sb.end(), SeqNum::new(4));
        assert_eq!(&sb.slice(base + 6, 2)[..], b"78");
        sb.ack_to(SeqNum::new(2)); // past the wrap
        assert_eq!(sb.base(), SeqNum::new(2));
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn recv_in_order() {
        let mut rb = RecvBuffer::new(SeqNum::new(1), 1024);
        assert_eq!(
            rb.offer(SeqNum::new(1), b"hello ".into(), None),
            Offer::Deposited
        );
        assert_eq!(
            rb.offer(SeqNum::new(7), b"world".into(), None),
            Offer::Deposited
        );
        assert_eq!(rb.rcv_nxt(), SeqNum::new(12));
        assert_eq!(read(&mut rb, 100), b"hello world");
        assert_eq!(read(&mut rb, 100), Vec::<u8>::new());
    }

    #[test]
    fn recv_out_of_order_reassembles() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 1024);
        assert_eq!(rb.offer(SeqNum::new(6), b"world".into(), None), Offer::Held);
        assert_eq!(rb.rcv_nxt(), SeqNum::new(0));
        assert_eq!(rb.staged_bytes(), 5);
        assert_eq!(
            rb.offer(SeqNum::new(0), b"hello ".into(), None),
            Offer::Deposited
        );
        assert_eq!(rb.rcv_nxt(), SeqNum::new(11));
        assert_eq!(read(&mut rb, 100), b"hello world");
    }

    #[test]
    fn recv_duplicates_ignored() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 1024);
        rb.offer(SeqNum::new(0), b"abcd".into(), None);
        assert_eq!(
            rb.offer(SeqNum::new(0), b"abcd".into(), None),
            Offer::Duplicate
        );
        assert_eq!(
            rb.offer(SeqNum::new(2), b"cd".into(), None),
            Offer::Duplicate
        );
        assert_eq!(rb.rcv_nxt(), SeqNum::new(4));
        assert_eq!(read(&mut rb, 100), b"abcd");
    }

    #[test]
    fn recv_overlapping_segments() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 1024);
        rb.offer(SeqNum::new(4), b"efgh".into(), None);
        rb.offer(SeqNum::new(0), b"abcdef".into(), None); // overlaps staged run
        assert_eq!(rb.rcv_nxt(), SeqNum::new(8));
        assert_eq!(read(&mut rb, 100), b"abcdefgh");
    }

    #[test]
    fn recv_window_shrinks_with_staged_and_readable() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 100);
        assert_eq!(rb.window(), 100);
        rb.offer(SeqNum::new(0), [1u8; 30].into(), None);
        assert_eq!(rb.window(), 70);
        rb.offer(SeqNum::new(50), [2u8; 20].into(), None); // out of order, staged
        assert_eq!(rb.window(), 50);
        read(&mut rb, 30);
        assert_eq!(rb.window(), 80);
    }

    #[test]
    fn recv_clips_beyond_window() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 10);
        rb.offer(SeqNum::new(0), [1u8; 50].into(), None);
        assert_eq!(rb.rcv_nxt(), SeqNum::new(10));
        assert_eq!(read(&mut rb, 100).len(), 10);
    }

    /// Unread bytes count against the window: a sender that ignores it
    /// cannot grow the buffer past its capacity, and a segment starting at
    /// or past the edge is refused as a whole.
    #[test]
    fn unread_bytes_bound_what_a_sender_can_add() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 100);
        assert_eq!(
            rb.offer(SeqNum::new(0), [1u8; 60].into(), None),
            Offer::Deposited
        );
        // Clipped at the first unread byte + 100, not at RCV.NXT + 100.
        assert_eq!(
            rb.offer(SeqNum::new(60), [2u8; 60].into(), None),
            Offer::Deposited
        );
        assert_eq!(rb.readable_len(), 100);
        assert_eq!(rb.window(), 0);
        let heap = rb.heap_bytes();
        for i in 0..4 {
            let seq = SeqNum::new(100 + 100 * i);
            assert_eq!(rb.offer(seq, [3u8; 100].into(), None), Offer::PastWindow);
        }
        assert_eq!(rb.readable_len(), 100);
        assert_eq!(rb.heap_bytes(), heap);
        // Reading opens the window again.
        assert_eq!(read(&mut rb, 30).len(), 30);
        assert_eq!(
            rb.offer(SeqNum::new(100), [4u8; 100].into(), None),
            Offer::Deposited
        );
        assert_eq!(rb.readable_len(), 100);
    }

    #[test]
    fn recv_clips_stale_data_before_nxt() {
        let mut rb = RecvBuffer::new(SeqNum::new(100), 64);
        rb.offer(SeqNum::new(100), b"abcd".into(), None);
        // Retransmission covering old + new bytes.
        assert_eq!(
            rb.offer(SeqNum::new(100), b"abcdEF".into(), None),
            Offer::Deposited
        );
        assert_eq!(read(&mut rb, 100), b"abcdEF");
    }

    #[test]
    fn recv_across_seq_wrap() {
        let start = SeqNum::new(u32::MAX - 2);
        let mut rb = RecvBuffer::new(start, 1024);
        assert_eq!(rb.offer(start, b"abcdef".into(), None), Offer::Deposited); // crosses the wrap
        assert_eq!(rb.rcv_nxt(), SeqNum::new(3));
        assert_eq!(read(&mut rb, 100), b"abcdef");
        assert_eq!(
            rb.offer(SeqNum::new(3), b"gh".into(), None),
            Offer::Deposited
        );
        assert_eq!(read(&mut rb, 100), b"gh");
    }

    fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
        for i in (1..items.len()).rev() {
            let j = rng.range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    // The former proptest properties, as deterministic randomized sweeps.

    /// Delivering a stream's segments in any order with duplicates
    /// always reassembles the original stream.
    #[test]
    fn reassembly_is_order_insensitive() {
        let mut rng = SimRng::seed_from(0xbf);
        for _ in 0..64 {
            let n_chunks = rng.range(1, 12) as usize;
            let chunk_sizes: Vec<usize> =
                (0..n_chunks).map(|_| rng.range(1, 50) as usize).collect();
            let total: usize = chunk_sizes.iter().sum();
            let stream: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
            let mut segments = Vec::new();
            let mut off = 0usize;
            for &sz in &chunk_sizes {
                segments.push((off, stream[off..off + sz].to_vec()));
                off += sz;
            }
            // Duplicate everything once and shuffle.
            let mut wire: Vec<_> = segments
                .iter()
                .cloned()
                .chain(segments.iter().cloned())
                .collect();
            shuffle(&mut wire, &mut rng);

            let base = SeqNum::new(0xfff0_0000); // force a wrap mid-stream sometimes
            let mut rb = RecvBuffer::new(base, total + 64);
            for (o, data) in wire {
                rb.offer(base + o as u32, data.into(), None);
            }
            assert_eq!(rb.rcv_nxt(), base + total as u32);
            assert_eq!(read(&mut rb, total + 1), stream);
        }
    }

    /// A fully acknowledged ring is released at every size, down to the
    /// one byte a receipt or an echo leaves: a parked connection holds no
    /// send storage. A partial acknowledgement keeps the ring, and a
    /// released one grows again on the next write.
    #[test]
    fn send_buffer_releases_backing_when_drained() {
        for capacity in [1, 16, 64, 512, 513, 8192] {
            let mut sb = SendBuffer::new(SeqNum::new(0));
            assert_eq!(sb.heap_bytes(), 0, "buffers grow on demand from zero");
            let data = vec![7u8; capacity];
            assert_eq!(sb.write(&data, capacity), capacity);
            // Growth is bounded by the configured capacity, not the
            // allocator's doubling overshoot.
            let heap = sb.heap_bytes();
            assert!(heap >= capacity && heap < 2 * capacity.max(8), "got {heap}");
            if capacity > 1 {
                sb.ack_to(SeqNum::new(1));
                assert!(sb.heap_bytes() > 0, "{capacity} B: bytes still held");
            }
            sb.ack_to(SeqNum::new(capacity as u32));
            assert_eq!(sb.heap_bytes(), 0, "{capacity} B: drained ring kept");
            assert_eq!(sb.write(b"again", capacity), 5.min(capacity));
            assert!(sb.heap_bytes() > 0);
        }
    }

    #[test]
    fn recv_buffer_releases_backing_when_read_dry() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 8192);
        assert_eq!(rb.heap_bytes(), 0, "buffers grow on demand from zero");
        rb.offer(SeqNum::new(0), [3u8; 8192].into(), None);
        assert!(rb.heap_bytes() >= 8192);
        assert!(rb.heap_bytes() < 16384, "got {}", rb.heap_bytes());
        read(&mut rb, 8192);
        assert_eq!(rb.heap_bytes(), 0, "drained readable queue is released");
    }

    /// Random offers (overlapping, out of order, clipped by the window),
    /// gate moves and partial reads on small buffers: after every operation
    /// the run list's held count equals the runs' summed lengths and stays
    /// within the capacity, and `read` returns the stream itself, in order,
    /// including reads that gather from several runs.
    #[test]
    fn staged_counter_and_reads_match_bytewise_reference() {
        let byte_at = |off: u64| (off % 251) as u8;
        let mut rng = SimRng::seed_from(0x57a6ed);
        let mut multi_run_reads = 0;
        for round in 0..32u32 {
            let base = SeqNum::new(0xffff_f000u32.wrapping_add(round * 97));
            let cap = rng.range(64, 300) as usize;
            let mut rb = RecvBuffer::new(base, cap);
            let mut gate = match round % 2 {
                0 => ChainGate::closed(base, base),
                _ => ChainGate::OPEN,
            };
            let mut read_off = 0u64;
            for _ in 0..600 {
                match rng.range(0, 8) {
                    0..=3 => {
                        let lo = rb.nxt_off.saturating_sub(20);
                        let off = rng.range(lo, rb.nxt_off + cap as u64 + 20);
                        let len = rng.range(1, 40);
                        let data: Vec<u8> = (off..off + len).map(byte_at).collect();
                        rb.offer(base + off as u32, data.into(), gate.deposit_limit());
                    }
                    4 | 5 => {
                        let upto = rb.nxt_off + rng.range(0, 64);
                        gate.on_report(base, base + upto as u32);
                        rb.deposit(gate.deposit_limit());
                    }
                    6 => {
                        let max = rng.range(0, 50) as usize;
                        let end = read_off + max.min(rb.readable_len()) as u64;
                        let spanned = rb.runs.runs().take_while(|&(o, _)| o < end).count();
                        multi_run_reads += usize::from(spanned >= 2);
                        let got = read(&mut rb, max);
                        assert_eq!(got, (read_off..end).map(byte_at).collect::<Vec<u8>>());
                        read_off = end;
                    }
                    _ if gate.deposit_limit().is_some() => {
                        gate.open();
                        rb.deposit(None);
                    }
                    _ => gate = ChainGate::closed(base, rb.rcv_nxt()),
                }
                let held = rb.runs.runs().map(|(_, run)| run.len()).sum::<usize>();
                assert_eq!(rb.runs.len(), held);
                assert!(held <= cap, "{held} bytes held in a {cap}-byte buffer");
                assert_eq!(read_off + rb.readable_len() as u64, rb.nxt_off);
                // Ordered, disjoint runs from the first unread byte on, and
                // no hole below `RCV.NXT`.
                let mut next = read_off;
                for (off, run) in rb.runs.runs() {
                    assert!(off >= next, "run at {off} overlaps or precedes {next}");
                    next = off + run.len() as u64;
                }
                assert_eq!(rb.runs.contiguous_end(read_off, rb.nxt_off), rb.nxt_off);
            }
        }
        assert!(
            multi_run_reads > 50,
            "only {multi_run_reads} reads spanned two or more runs"
        );
    }

    /// `SendBuffer::slice` against a byte-at-a-time copy, with the ring
    /// wrapped by write/ack cycles on a small buffer.
    #[test]
    fn send_slice_matches_bytewise_reference_across_wrap() {
        let mut rng = SimRng::seed_from(0x511ce);
        let mut sb = SendBuffer::new(SeqNum::new(u32::MAX - 500));
        let (mut written, mut wrapped) = (0u64, 0);
        for _ in 0..2000 {
            let chunk: Vec<u8> = (written..written + rng.range(1, 60))
                .map(|i| (i % 253) as u8)
                .collect();
            written += sb.write(&chunk, 96) as u64;
            let start = rng.range(0, sb.len() as u64 + 1) as usize;
            let len = rng.range(0, 80) as usize;
            let end = (start + len).min(sb.len());
            let expect: Vec<u8> = sb.data.range(start.min(end)..end).copied().collect();
            let seam = sb.data.as_slices().0.len();
            wrapped += usize::from(start < seam && seam < end);
            assert_eq!(sb.slice(sb.base() + start as u32, len), expect);
            sb.ack_to(sb.base() + rng.range(0, sb.len() as u64 + 1) as u32);
        }
        assert!(wrapped > 50, "only {wrapped} slices crossed the ring seam");
    }
}
