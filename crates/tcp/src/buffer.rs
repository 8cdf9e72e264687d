//! Socket buffers: retransmittable send data and receive-side reassembly.
//!
//! The receive buffer distinguishes *staged* bytes (arrived, possibly out of
//! order, not yet acknowledged to the application) from *deposited* bytes
//! (readable by the application and covered by our ACKs). HydraNet-FT's
//! atomicity rule — replica `Sᵢ` may deposit byte `k` only after its
//! successor reported an acknowledgement number greater than `k` (paper
//! §4.3) — is implemented by the deposit limit: staged bytes cross into the
//! readable queue only up to the limit.

use std::collections::{BTreeMap, VecDeque};

use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::packet::IP_HEADER_LEN;

use crate::segment::TCP_HEADER_LEN;
use crate::seq::SeqNum;

/// Room a transmit payload keeps in front for its TCP and IP headers.
const HEADROOM: usize = TCP_HEADER_LEN + IP_HEADER_LEN;

/// Backing allocations at or below this many bytes are kept when a buffer
/// drains; larger ones are returned to the allocator. The floor keeps
/// small-write request/response flows from re-allocating on every
/// drain/refill cycle, while letting a bulk flow's multi-KiB ring go as
/// soon as it empties — which is what bounds idle per-flow memory at scale.
const SHRINK_RETAIN: usize = 512;

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

/// Copies `q[start..end]` out into a fresh `Vec`.
fn copy_range(q: &VecDeque<u8>, start: usize, end: usize) -> Vec<u8> {
    let (head, tail) = ring_range(q, start, end);
    [head, tail].concat()
}

/// Bytes accepted from the application, awaiting transmission and
/// acknowledgement. The buffer's base tracks the lowest unacknowledged
/// sequence number.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    base: SeqNum,
    data: VecDeque<u8>,
    capacity: usize,
}

impl SendBuffer {
    /// Creates a buffer whose first byte will carry sequence number `base`.
    pub fn new(base: SeqNum, capacity: usize) -> Self {
        SendBuffer {
            base,
            data: VecDeque::new(),
            capacity,
        }
    }

    /// Appends as much of `data` as fits; returns the number of bytes taken.
    pub fn write(&mut self, data: &[u8]) -> usize {
        let room = self.capacity.saturating_sub(self.data.len());
        let take = room.min(data.len());
        reserve_bounded(&mut self.data, take, self.capacity);
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

    /// Free space in bytes.
    pub fn room(&self) -> usize {
        self.capacity.saturating_sub(self.data.len())
    }

    /// Releases bytes acknowledged up to (not including) `upto`.
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
        if self.data.is_empty() && self.data.capacity() > SHRINK_RETAIN {
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

/// Receive-side reassembly buffer with a deposit gate.
#[derive(Debug, Clone)]
pub struct RecvBuffer {
    /// Next sequence number to deposit (`RCV.NXT`).
    nxt_seq: SeqNum,
    /// Absolute stream offset corresponding to `nxt_seq` (monotonic, never
    /// wraps — used as the key space for staging).
    nxt_off: u64,
    /// Deposit gate: staged bytes with stream offset `< limit` may become
    /// readable. `None` means ungated (plain TCP, or the last replica in a
    /// HydraNet-FT chain).
    deposit_limit: Option<u64>,
    /// Deposited, application-readable bytes.
    readable: VecDeque<u8>,
    /// Staged runs keyed by absolute stream offset.
    staged: BTreeMap<u64, Vec<u8>>,
    /// Sum of the staged runs' lengths, kept current at every insert and
    /// removal: each segment asks several times, the tree walk is O(runs).
    staged_len: usize,
    capacity: usize,
}

impl RecvBuffer {
    /// Creates a buffer expecting its first data byte at `nxt`.
    pub fn new(nxt: SeqNum, capacity: usize) -> Self {
        RecvBuffer {
            nxt_seq: nxt,
            nxt_off: 0,
            deposit_limit: None,
            readable: VecDeque::new(),
            staged: BTreeMap::new(),
            staged_len: 0,
            capacity,
        }
    }

    /// The next sequence number expected in order (`RCV.NXT`); this is what
    /// our outgoing ACK field carries.
    pub fn rcv_nxt(&self) -> SeqNum {
        self.nxt_seq
    }

    /// The receive window to advertise: free space after readable and
    /// staged bytes are accounted for.
    pub fn window(&self) -> u32 {
        let used = self.readable.len() + self.staged_bytes();
        self.capacity.saturating_sub(used) as u32
    }

    /// Number of bytes ready for the application.
    pub fn readable_len(&self) -> usize {
        self.readable.len()
    }

    /// Total bytes staged awaiting deposit (in-order but gated, or out of
    /// order).
    pub fn staged_bytes(&self) -> usize {
        debug_assert_eq!(self.staged_len, self.staged.values().map(Vec::len).sum());
        self.staged_len
    }

    /// Sets the deposit gate from a successor-reported acknowledgement
    /// number: bytes strictly before `upto` may be deposited. The gate only
    /// ever moves forward.
    pub fn gate_deposits_below(&mut self, upto: SeqNum) {
        let diff = self.seq_to_off(upto);
        let new_limit = diff.max(self.nxt_off);
        self.deposit_limit = Some(match self.deposit_limit {
            Some(old) => old.max(new_limit),
            None => new_limit,
        });
    }

    /// Enables gating with nothing yet permitted (used when a replica port
    /// gains a successor).
    pub fn enable_gate(&mut self) {
        if self.deposit_limit.is_none() {
            self.deposit_limit = Some(self.nxt_off);
        }
    }

    /// Removes the deposit gate entirely (plain TCP behaviour, or a replica
    /// that became the last in its chain).
    pub fn clear_gate(&mut self) {
        self.deposit_limit = None;
    }

    /// Whether a deposit gate is active.
    pub fn is_gated(&self) -> bool {
        self.deposit_limit.is_some()
    }

    /// Offers segment data starting at `seq`. Data outside the receive
    /// window is clipped; duplicates are ignored. Returns `true` if
    /// `RCV.NXT` advanced (i.e. new bytes were deposited).
    pub fn offer(&mut self, seq: SeqNum, data: &[u8]) -> bool {
        // In-order fast path: exactly at RCV.NXT, nothing staged, no gate.
        // stage() would insert a single run at nxt_off (clipped to the
        // window) and deposit() would immediately drain all of it, so the
        // straight-line append below is byte-for-byte equivalent — without
        // a BTreeMap insert/remove and run copy per segment.
        if seq == self.nxt_seq
            && !data.is_empty()
            && self.staged.is_empty()
            && self.deposit_limit.is_none()
        {
            let take = data.len().min(self.capacity);
            if take == 0 {
                return false;
            }
            reserve_bounded(&mut self.readable, take, self.capacity);
            self.readable.extend(&data[..take]);
            self.nxt_off += take as u64;
            self.nxt_seq += take as u32;
            return true;
        }
        if !data.is_empty() {
            self.stage(seq, data);
        }
        self.deposit()
    }

    /// Reads up to `max` deposited bytes.
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.readable.len());
        let out = copy_range(&self.readable, 0, n);
        self.readable.drain(..n);
        if self.readable.is_empty() && self.readable.capacity() > SHRINK_RETAIN {
            self.readable = VecDeque::new();
        }
        out
    }

    /// Attempts to move staged bytes into the readable queue, honouring the
    /// deposit gate. Returns `true` if `RCV.NXT` advanced.
    pub fn deposit(&mut self) -> bool {
        let mut advanced = false;
        while let Some((&off, run)) = self.staged.first_key_value() {
            if off > self.nxt_off {
                break; // hole
            }
            let run_end = off + run.len() as u64;
            if run_end <= self.nxt_off {
                self.staged_len -= run.len();
                self.staged.pop_first();
                continue; // fully duplicate
            }
            let limit = self.deposit_limit.unwrap_or(u64::MAX);
            if self.nxt_off >= limit {
                break; // gate closed
            }
            let take_end = run_end.min(limit);
            let skip = (self.nxt_off - off) as usize;
            let take = (take_end - self.nxt_off) as usize;
            let run = self.staged.pop_first().expect("first exists").1;
            self.staged_len -= run.len();
            reserve_bounded(&mut self.readable, take, self.capacity);
            self.readable.extend(&run[skip..skip + take]);
            self.nxt_off += take as u64;
            self.nxt_seq += take as u32;
            advanced = true;
            if take_end < run_end {
                // Re-stage the gated tail.
                let rest = run[skip + take..].to_vec();
                self.staged_len += rest.len();
                self.staged.insert(take_end, rest);
                break;
            }
        }
        advanced
    }

    /// Heap bytes held by this buffer's backing storage: the readable
    /// queue's capacity plus every staged run's capacity (plus a nominal
    /// per-node charge for the staging tree).
    pub fn heap_bytes(&self) -> usize {
        self.readable.capacity()
            + self
                .staged
                .values()
                .map(|run| run.capacity() + 3 * std::mem::size_of::<usize>())
                .sum::<usize>()
    }

    /// Total distinct stream bytes received so far (deposited plus staged).
    /// Used to distinguish fresh data from peer retransmissions.
    pub fn coverage(&self) -> u64 {
        self.nxt_off + self.staged_bytes() as u64
    }

    /// Whether the deposit gate would permit at least one more sequence
    /// slot. This is how a FIN — which occupies sequence space but carries
    /// no bytes — is gated: the successor's acknowledgement must pass the
    /// FIN slot before we consume it.
    pub fn gate_allows_one_more(&self) -> bool {
        match self.deposit_limit {
            None => true,
            Some(limit) => limit > self.nxt_off,
        }
    }

    /// Consumes one sequence slot that carries no data (a peer FIN),
    /// advancing `RCV.NXT` past it.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if undeposited data is staged at the slot.
    pub fn consume_slot(&mut self) {
        debug_assert!(
            self.staged
                .first_key_value()
                .is_none_or(|(&o, _)| o > self.nxt_off),
            "consume_slot with staged data pending at RCV.NXT"
        );
        self.nxt_seq += 1;
        self.nxt_off += 1;
    }

    /// Converts a sequence number near `RCV.NXT` to an absolute offset.
    fn seq_to_off(&self, seq: SeqNum) -> u64 {
        let d = (seq - self.nxt_seq) as i32 as i64;
        self.nxt_off.saturating_add_signed(d)
    }

    fn stage(&mut self, seq: SeqNum, data: &[u8]) {
        let start = self.seq_to_off(seq);
        let end = start + data.len() as u64;
        // Clip to the receive window: [nxt_off, nxt_off + capacity).
        let win_lo = self.nxt_off;
        let win_hi = self.nxt_off + self.capacity as u64;
        let clip_lo = start.max(win_lo);
        let clip_hi = end.min(win_hi);
        if clip_lo >= clip_hi {
            return;
        }
        let data = &data[(clip_lo - start) as usize..(clip_hi - start) as usize];
        self.insert_run(clip_lo, data);
    }

    /// Inserts a run, trimming against existing staged runs (first copy of
    /// any byte wins).
    fn insert_run(&mut self, mut start: u64, mut data: &[u8]) {
        while !data.is_empty() {
            // Find the first existing run overlapping or after `start`.
            let next_existing = self
                .staged
                .range(..=start)
                .next_back()
                .filter(|(&o, run)| o + run.len() as u64 > start)
                .map(|(&o, run)| (o, o + run.len() as u64))
                .or_else(|| {
                    self.staged
                        .range(start..)
                        .next()
                        .map(|(&o, run)| (o, o + run.len() as u64))
                });
            match next_existing {
                Some((ex_start, ex_end)) if ex_start <= start => {
                    // Overlap from the left: skip bytes already held.
                    let skip = (ex_end - start).min(data.len() as u64) as usize;
                    start += skip as u64;
                    data = &data[skip..];
                }
                Some((ex_start, _)) if ex_start < start + data.len() as u64 => {
                    // Partial room before the next run.
                    let take = (ex_start - start) as usize;
                    self.staged_len += take;
                    self.staged.insert(start, data[..take].to_vec());
                    start += take as u64;
                    data = &data[take..];
                }
                _ => {
                    self.staged_len += data.len();
                    self.staged.insert(start, data.to_vec());
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydranet_netsim::rng::SimRng;

    #[test]
    fn send_buffer_write_and_ack() {
        let mut sb = SendBuffer::new(SeqNum::new(1000), 16);
        assert_eq!(sb.write(b"hello world"), 11);
        assert_eq!(sb.write(b"overflowing!!"), 5); // only 5 fit
        assert_eq!(sb.len(), 16);
        assert_eq!(sb.room(), 0);
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
        let mut sb = SendBuffer::new(SeqNum::new(10), 64);
        sb.write(b"abcdefghij");
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
        let mut sb = SendBuffer::new(base, 64);
        sb.write(b"12345678");
        assert_eq!(sb.end(), SeqNum::new(4));
        assert_eq!(&sb.slice(base + 6, 2)[..], b"78");
        sb.ack_to(SeqNum::new(2)); // past the wrap
        assert_eq!(sb.base(), SeqNum::new(2));
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn recv_in_order() {
        let mut rb = RecvBuffer::new(SeqNum::new(1), 1024);
        assert!(rb.offer(SeqNum::new(1), b"hello "));
        assert!(rb.offer(SeqNum::new(7), b"world"));
        assert_eq!(rb.rcv_nxt(), SeqNum::new(12));
        assert_eq!(rb.read(100), b"hello world");
        assert_eq!(rb.read(100), Vec::<u8>::new());
    }

    #[test]
    fn recv_out_of_order_reassembles() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 1024);
        assert!(!rb.offer(SeqNum::new(6), b"world"));
        assert_eq!(rb.rcv_nxt(), SeqNum::new(0));
        assert_eq!(rb.staged_bytes(), 5);
        assert!(rb.offer(SeqNum::new(0), b"hello "));
        assert_eq!(rb.rcv_nxt(), SeqNum::new(11));
        assert_eq!(rb.read(100), b"hello world");
    }

    #[test]
    fn recv_duplicates_ignored() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 1024);
        rb.offer(SeqNum::new(0), b"abcd");
        assert!(!rb.offer(SeqNum::new(0), b"abcd"));
        assert!(!rb.offer(SeqNum::new(2), b"cd"));
        assert_eq!(rb.rcv_nxt(), SeqNum::new(4));
        assert_eq!(rb.read(100), b"abcd");
    }

    #[test]
    fn recv_overlapping_segments() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 1024);
        rb.offer(SeqNum::new(4), b"efgh");
        rb.offer(SeqNum::new(0), b"abcdef"); // overlaps staged run
        assert_eq!(rb.rcv_nxt(), SeqNum::new(8));
        assert_eq!(rb.read(100), b"abcdefgh");
    }

    #[test]
    fn recv_window_shrinks_with_staged_and_readable() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 100);
        assert_eq!(rb.window(), 100);
        rb.offer(SeqNum::new(0), &[1u8; 30]);
        assert_eq!(rb.window(), 70);
        rb.offer(SeqNum::new(50), &[2u8; 20]); // out of order, staged
        assert_eq!(rb.window(), 50);
        rb.read(30);
        assert_eq!(rb.window(), 80);
    }

    #[test]
    fn recv_clips_beyond_window() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 10);
        rb.offer(SeqNum::new(0), &[1u8; 50]);
        assert_eq!(rb.rcv_nxt(), SeqNum::new(10));
        assert_eq!(rb.read(100).len(), 10);
    }

    #[test]
    fn recv_clips_stale_data_before_nxt() {
        let mut rb = RecvBuffer::new(SeqNum::new(100), 64);
        rb.offer(SeqNum::new(100), b"abcd");
        // Retransmission covering old + new bytes.
        assert!(rb.offer(SeqNum::new(100), b"abcdEF"));
        assert_eq!(rb.read(100), b"abcdEF");
    }

    #[test]
    fn gate_blocks_until_raised() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 1024);
        rb.enable_gate();
        assert!(rb.is_gated());
        assert!(!rb.offer(SeqNum::new(0), b"abcdefgh"));
        assert_eq!(rb.rcv_nxt(), SeqNum::new(0));
        assert_eq!(rb.staged_bytes(), 8);
        // Successor acked up to byte 4: bytes 0..4 may deposit.
        rb.gate_deposits_below(SeqNum::new(4));
        assert!(rb.deposit());
        assert_eq!(rb.rcv_nxt(), SeqNum::new(4));
        assert_eq!(rb.read(100), b"abcd");
        // Raise fully.
        rb.gate_deposits_below(SeqNum::new(8));
        assert!(rb.deposit());
        assert_eq!(rb.read(100), b"efgh");
    }

    #[test]
    fn gate_never_moves_backwards() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 64);
        rb.enable_gate();
        rb.gate_deposits_below(SeqNum::new(10));
        rb.gate_deposits_below(SeqNum::new(5)); // stale successor report
        rb.offer(SeqNum::new(0), &[7u8; 10]);
        assert_eq!(rb.rcv_nxt(), SeqNum::new(10));
    }

    #[test]
    fn clear_gate_releases_everything() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 64);
        rb.enable_gate();
        rb.offer(SeqNum::new(0), b"payload");
        assert_eq!(rb.readable_len(), 0);
        rb.clear_gate();
        assert!(rb.deposit());
        assert_eq!(rb.read(100), b"payload");
    }

    #[test]
    fn recv_across_seq_wrap() {
        let start = SeqNum::new(u32::MAX - 2);
        let mut rb = RecvBuffer::new(start, 1024);
        assert!(rb.offer(start, b"abcdef")); // crosses the wrap
        assert_eq!(rb.rcv_nxt(), SeqNum::new(3));
        assert_eq!(rb.read(100), b"abcdef");
        assert!(rb.offer(SeqNum::new(3), b"gh"));
        assert_eq!(rb.read(100), b"gh");
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
                rb.offer(base + o as u32, &data);
            }
            assert_eq!(rb.rcv_nxt(), base + total as u32);
            assert_eq!(rb.read(total + 1), stream);
        }
    }

    #[test]
    fn send_buffer_releases_backing_when_drained() {
        let mut sb = SendBuffer::new(SeqNum::new(0), 8192);
        assert_eq!(sb.heap_bytes(), 0, "buffers grow on demand from zero");
        sb.write(&[7u8; 8192]);
        // Growth is bounded by the configured capacity, not the allocator's
        // doubling overshoot.
        assert!(sb.heap_bytes() >= 8192);
        assert!(sb.heap_bytes() < 16384, "got {}", sb.heap_bytes());
        sb.ack_to(SeqNum::new(8192));
        assert_eq!(sb.heap_bytes(), 0, "drained bulk ring is released");
        // A small buffer keeps its allocation across drain/refill cycles, so
        // 16 B request/response flows do not churn the allocator.
        let mut small = SendBuffer::new(SeqNum::new(0), 64);
        small.write(&[1u8; 16]);
        small.ack_to(SeqNum::new(16));
        assert!(small.heap_bytes() > 0);
        assert_eq!(small.write(b"again"), 5);
    }

    #[test]
    fn recv_buffer_releases_backing_when_read_dry() {
        let mut rb = RecvBuffer::new(SeqNum::new(0), 8192);
        assert_eq!(rb.heap_bytes(), 0, "buffers grow on demand from zero");
        rb.offer(SeqNum::new(0), &[3u8; 8192]);
        assert!(rb.heap_bytes() >= 8192);
        assert!(rb.heap_bytes() < 16384, "got {}", rb.heap_bytes());
        rb.read(8192);
        assert_eq!(rb.heap_bytes(), 0, "drained readable queue is released");
    }

    /// Random offers (overlapping, out of order, clipped by the window),
    /// gate moves and partial reads on a small buffer whose ring wraps many
    /// times: after every operation the running `staged_len` equals the
    /// recomputed sum, and `read` returns what a byte-at-a-time drain of the
    /// ring would have — which is also the stream itself, in order.
    #[test]
    fn staged_counter_and_reads_match_bytewise_reference() {
        let byte_at = |off: u64| (off % 251) as u8;
        let mut rng = SimRng::seed_from(0x57a6ed);
        let mut wrapped_reads = 0;
        for round in 0..32u32 {
            let base = SeqNum::new(0xffff_f000u32.wrapping_add(round * 97));
            let cap = rng.range(64, 300) as usize;
            let mut rb = RecvBuffer::new(base, cap);
            if round % 2 == 0 {
                rb.enable_gate();
            }
            let mut read_off = 0u64;
            for _ in 0..600 {
                match rng.range(0, 8) {
                    0..=3 => {
                        let lo = rb.nxt_off.saturating_sub(20);
                        let off = rng.range(lo, rb.nxt_off + cap as u64 + 20);
                        let len = rng.range(1, 40);
                        let data: Vec<u8> = (off..off + len).map(byte_at).collect();
                        rb.offer(base + off as u32, &data);
                    }
                    4 | 5 => {
                        let upto = rb.nxt_off + rng.range(0, 64);
                        rb.gate_deposits_below(base + upto as u32);
                        rb.deposit();
                    }
                    6 => {
                        let max = rng.range(0, 50) as usize;
                        let expect: Vec<u8> = rb.readable.iter().take(max).copied().collect();
                        let (head, _) = rb.readable.as_slices();
                        wrapped_reads += usize::from(head.len() < expect.len());
                        let got = rb.read(max);
                        assert_eq!(got, expect);
                        assert!(got.iter().zip(read_off..).all(|(&b, o)| b == byte_at(o)));
                        read_off += got.len() as u64;
                    }
                    _ if rb.is_gated() => {
                        rb.clear_gate();
                        rb.deposit();
                    }
                    _ => rb.enable_gate(),
                }
                assert_eq!(
                    rb.staged_bytes(),
                    rb.staged.values().map(Vec::len).sum::<usize>()
                );
                assert_eq!(rb.coverage(), rb.nxt_off + rb.staged_bytes() as u64);
                assert_eq!(read_off + rb.readable_len() as u64, rb.nxt_off);
            }
        }
        assert!(
            wrapped_reads > 50,
            "only {wrapped_reads} reads crossed the ring seam"
        );
    }

    /// `SendBuffer::slice` against a byte-at-a-time copy, with the ring
    /// wrapped by write/ack cycles on a small buffer.
    #[test]
    fn send_slice_matches_bytewise_reference_across_wrap() {
        let mut rng = SimRng::seed_from(0x511ce);
        let mut sb = SendBuffer::new(SeqNum::new(u32::MAX - 500), 96);
        let (mut written, mut wrapped) = (0u64, 0);
        for _ in 0..2000 {
            let chunk: Vec<u8> = (written..written + rng.range(1, 60))
                .map(|i| (i % 253) as u8)
                .collect();
            written += sb.write(&chunk) as u64;
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

    /// The gate: no byte at offset >= limit ever becomes readable.
    #[test]
    fn gate_invariant() {
        let mut rng = SimRng::seed_from(0x9a7e);
        for _ in 0..128 {
            let limit = rng.range(0, 64) as u32;
            let n_offers = rng.range(1, 16) as usize;
            let base = SeqNum::new(500);
            let mut rb = RecvBuffer::new(base, 4096);
            rb.enable_gate();
            rb.gate_deposits_below(base + limit);
            for _ in 0..n_offers {
                let off = rng.range(0, 64) as u32;
                let len = rng.range(1, 16) as usize;
                let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
                rb.offer(base + off, &data);
            }
            // rcv_nxt never passes the gate.
            assert!((rb.rcv_nxt() - base) <= limit);
            assert!(rb.readable_len() as u32 <= limit);
        }
    }
}
