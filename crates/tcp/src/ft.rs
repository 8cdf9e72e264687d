//! ft-TCP: the HydraNet-FT replicated-port machinery.
//!
//! A fault-tolerant TCP service is "realized by replicating a server program
//! onto one or more hosts and by having all replicas bind to the same TCP
//! port on all the hosts" (§4). Replicas are daisy-chained: the primary
//! `S₀`, then backups `S₁ … S_N`. All replicas receive every client segment
//! (the redirector multicasts); only the primary transmits to the client.
//! Each backup converts its would-be transmissions into **acknowledgement
//! channel** messages carrying the two flow-control fields — SEQUENCE
//! NUMBER and ACKNOWLEDGEMENT NUMBER — sent over UDP to its predecessor.
//!
//! This module defines the per-port chain configuration (the `setportopt`
//! state, whose predecessor is the replica's role), the ack-channel wire format (one encoder, one
//! decoder), each connection's [`ChainGate`], and the deterministic ISS
//! derivation that lets independently created replica connections share
//! one sequence space (a prerequisite for client-transparent fail-over
//! that the paper's single-kernel-image presentation leaves implicit).

use hydranet_netsim::packet::{DecodeError, IpAddr};
use hydranet_netsim::time::SimTime;

use crate::conn::OptTime;
use crate::detector::DetectorParams;
use crate::segment::{Quad, SockAddr};
use crate::seq::SeqNum;

/// The well-known UDP port of the ack channel (kernel-to-kernel).
pub const ACK_CHANNEL_PORT: u16 = 7101;

/// Per-port replication state installed via
/// [`TcpStack::setportopt`](crate::stack::TcpStack::setportopt).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedPortConfig {
    /// Where to send ack-channel messages: the predecessor in the chain
    /// (`Sᵢ₋₁`). `None` exactly for the primary `S₀`, the only replica
    /// that transmits to clients; a backup's transmissions are diverted
    /// into the ack channel to it.
    pub predecessor: Option<IpAddr>,
    /// Whether a successor (`Sᵢ₊₁`) exists. When `true`, the send and
    /// deposit gates are enforced; the last replica in the chain (and a
    /// primary with no backups) runs ungated — "the last backup server in
    /// the chain, S_N, is free to immediately deposit the data" (§4.3).
    pub has_successor: bool,
    /// Failure-estimator tuning for connections on this port.
    pub detector: DetectorParams,
}

impl ReplicatedPortConfig {
    /// Configuration for a sole primary (no backups yet).
    pub fn sole_primary(detector: DetectorParams) -> Self {
        ReplicatedPortConfig {
            predecessor: None,
            has_successor: false,
            detector,
        }
    }
}

/// One acknowledgement-channel pair: the two TCP flow-control fields of a
/// would-be packet of one connection, as seen by the reporting replica. On
/// the wire pairs travel only in the frame of
/// [`AckChanMsg::write_frame`]; a lone report is a frame of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AckChanMsg {
    /// The client endpoint of the connection.
    pub client: SockAddr,
    /// The replicated-service endpoint (virtual-host address and port).
    pub service: SockAddr,
    /// The replica's send progress: the first sequence slot **not** covered
    /// by its would-be packet (header SEQ plus segment length). The paper
    /// forwards the raw SEQUENCE NUMBER field; reporting the segment *end*
    /// carries the same information while avoiding a livelock when the
    /// chain goes quiet after a final short segment (with the raw start
    /// value, the predecessor could never release that segment's last
    /// bytes and no further packet would ever arrive to move the gate).
    pub seq: SeqNum,
    /// ACKNOWLEDGEMENT NUMBER: "the number of the byte that the server
    /// expects to receive next".
    pub ack: SeqNum,
}

/// Byte length of one `(connection, SEQ, ACK)` pair within a frame.
pub const ACK_CHAN_PAIR_LEN: usize = 20;

/// Maximum pairs one frame can carry (the count field is a u8).
pub const ACK_CHAN_MAX_PAIRS: usize = 255;

/// Tag of the one-pair short form, which drops the count byte.
const ACK_CHAN_ONE_TAG: u8 = 0xA1;
const ACK_CHAN_BATCH_TAG: u8 = 0xA2;

impl AckChanMsg {
    /// The connection four-tuple as the *receiving* replica keys it
    /// (local = service endpoint, remote = client endpoint).
    pub fn quad(&self) -> Quad {
        Quad::new(self.service, self.client)
    }

    /// One-line human summary for trace-span notes:
    /// `"<client>-><service> seq=<n> ack=<n>"`.
    pub fn brief(&self) -> String {
        format!(
            "{}->{} seq={} ack={}",
            self.client,
            self.service,
            self.seq.raw(),
            self.ack.raw()
        )
    }

    /// Writes the raw 20-byte pair (no tag) into `out`.
    fn write_pair(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.client.addr.to_bits().to_be_bytes());
        out[4..6].copy_from_slice(&self.client.port.to_be_bytes());
        out[6..10].copy_from_slice(&self.service.addr.to_bits().to_be_bytes());
        out[10..12].copy_from_slice(&self.service.port.to_be_bytes());
        out[12..16].copy_from_slice(&self.seq.raw().to_be_bytes());
        out[16..20].copy_from_slice(&self.ack.raw().to_be_bytes());
    }

    /// Byte length of the frame [`write_frame`](Self::write_frame) writes
    /// for `pairs` pairs.
    pub fn frame_len(pairs: usize) -> usize {
        let tag = if pairs == 1 { 1 } else { 2 };
        tag + pairs * ACK_CHAN_PAIR_LEN
    }

    /// Appends the ack-channel frame of `msgs` to `out`; see
    /// [`write_frame`](Self::write_frame).
    ///
    /// # Panics
    ///
    /// As [`write_frame`](Self::write_frame).
    pub fn encode_batch_into(msgs: &[AckChanMsg], out: &mut Vec<u8>) {
        let base = out.len();
        out.resize(base + Self::frame_len(msgs.len()), 0);
        Self::write_frame(msgs, &mut out[base..]);
    }

    /// Writes the ack-channel frame — `0xA2 | count (1) | count × pair`,
    /// or `0xA1 | pair` for a lone pair — into `out`, which must be
    /// [`frame_len`](Self::frame_len)`(msgs.len())` bytes long. A frame
    /// carries one flush window of reports in a single datagram; pair
    /// order is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `msgs` is empty or holds more than
    /// [`ACK_CHAN_MAX_PAIRS`] pairs, or if `out` has the wrong length.
    pub fn write_frame(msgs: &[AckChanMsg], out: &mut [u8]) {
        assert!(
            !msgs.is_empty() && msgs.len() <= ACK_CHAN_MAX_PAIRS,
            "batch of {} pairs",
            msgs.len()
        );
        assert_eq!(out.len(), Self::frame_len(msgs.len()), "frame length");
        let pairs = if let [_] = msgs {
            out[0] = ACK_CHAN_ONE_TAG;
            &mut out[1..]
        } else {
            out[..2].copy_from_slice(&[ACK_CHAN_BATCH_TAG, msgs.len() as u8]);
            &mut out[2..]
        };
        for (m, pair) in msgs.iter().zip(pairs.chunks_exact_mut(ACK_CHAN_PAIR_LEN)) {
            m.write_pair(pair);
        }
    }

    fn decode_pair(bytes: &[u8]) -> AckChanMsg {
        let rd_u32 =
            |i: usize| u32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        let rd_u16 = |i: usize| u16::from_be_bytes([bytes[i], bytes[i + 1]]);
        AckChanMsg {
            client: SockAddr::new(IpAddr::from_bits(rd_u32(0)), rd_u16(4)),
            service: SockAddr::new(IpAddr::from_bits(rd_u32(6)), rd_u16(10)),
            seq: SeqNum::new(rd_u32(12)),
            ack: SeqNum::new(rd_u32(16)),
        }
    }

    /// Parses one ack-channel frame and invokes `f` once per pair, in wire
    /// order. Returns the pair count. The frame is validated whole before
    /// `f` first runs, so a rejected frame applies no pair.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation, an unknown tag byte, or a
    /// count that is zero or does not match the length.
    pub fn decode_each(bytes: &[u8], mut f: impl FnMut(AckChanMsg)) -> Result<usize, DecodeError> {
        let (count, pairs) = match bytes {
            [ACK_CHAN_ONE_TAG, pairs @ ..] => (1, pairs),
            [ACK_CHAN_BATCH_TAG, count, pairs @ ..] => (usize::from(*count), pairs),
            [ACK_CHAN_BATCH_TAG] => return Err(DecodeError::Truncated { needed: 2, got: 1 }),
            [tag, ..] => return Err(DecodeError::BadVersion(*tag)),
            [] => return Err(DecodeError::Truncated { needed: 1, got: 0 }),
        };
        if count == 0 || pairs.len() != count * ACK_CHAN_PAIR_LEN {
            return Err(DecodeError::BadLength {
                declared: bytes.len() - pairs.len() + count * ACK_CHAN_PAIR_LEN,
                available: bytes.len(),
            });
        }
        pairs
            .chunks_exact(ACK_CHAN_PAIR_LEN)
            .for_each(|pair| f(Self::decode_pair(pair)));
        Ok(count)
    }
}

/// Derives the initial send sequence number for a connection on a
/// replicated port.
///
/// Every replica must pick the **same** ISS for the same client connection:
/// the client completes its handshake against the primary's SYN-ACK, and
/// after a fail-over the promoted backup continues the byte stream — which
/// is only transparent if its sequence space matches what the client has
/// been acknowledging all along. Hashing the four-tuple (FNV-1a) gives every
/// replica the same ISS with no coordination.
pub fn deterministic_iss(quad: Quad) -> SeqNum {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&quad.local.addr.to_bits().to_be_bytes());
    eat(&quad.local.port.to_be_bytes());
    eat(&quad.remote.addr.to_bits().to_be_bytes());
    eat(&quad.remote.port.to_be_bytes());
    SeqNum::new((hash ^ (hash >> 32)) as u32)
}

/// The §4.3 chain discipline of one connection: a replica with a chain
/// successor transmits sequence slots, and deposits client bytes (and the
/// client's FIN slot), only below what the successor last reported, its
/// send progress and its acknowledgement number. The last replica, and
/// plain TCP, run open. A watchdog per limit arms while work waits at it,
/// so a successor that stopped reporting is noticed once per RTO.
///
/// An open gate has no limits and no watchdog, and no report closes it:
/// a late report from a successor shed from the chain must not close a
/// gate that no report will open again. Packed to 4-byte alignment it is
/// 28 B; padded to 8 it would outgrow the connection record's 336 B.
#[derive(Debug, Clone, Copy)]
#[repr(Rust, packed(4))]
pub struct ChainGate {
    /// Slots before it may go out.
    send: SeqNum,
    /// Slots before it may be deposited.
    deposit: SeqNum,
    send_starved: OptTime,
    deposit_starved: OptTime,
    open: bool,
}

impl ChainGate {
    /// The gate of plain TCP and of a chain's last replica.
    pub(crate) const OPEN: ChainGate = ChainGate {
        send: SeqNum::new(0),
        deposit: SeqNum::new(0),
        send_starved: OptTime::NONE,
        deposit_starved: OptTime::NONE,
        open: true,
    };

    /// A gate that holds every slot from `send` on, and every deposit
    /// from `deposit` on, until the successor reports.
    pub fn closed(send: SeqNum, deposit: SeqNum) -> Self {
        ChainGate {
            send,
            deposit,
            open: false,
            ..ChainGate::OPEN
        }
    }

    /// A successor report raises each limit to its field; the limits never
    /// move back, and an open gate ignores it.
    pub(crate) fn on_report(&mut self, seq: SeqNum, ack: SeqNum) {
        if !self.open {
            self.send = self.send.max_seq(seq);
            self.deposit = self.deposit.max_seq(ack);
        }
    }

    /// Opens the gate for good: the replica has no successor any more.
    pub(crate) fn open(&mut self) {
        *self = ChainGate::OPEN;
    }

    /// How many slots from `seq` on the send limit lets out.
    pub(crate) fn send_room(self, seq: SeqNum) -> usize {
        match self.open {
            true => usize::MAX,
            false if seq.before(self.send) => (self.send - seq) as usize,
            false => 0,
        }
    }

    /// The first slot the deposit limit holds back; `None` when open.
    pub fn deposit_limit(self) -> Option<SeqNum> {
        (!self.open).then_some(self.deposit)
    }

    /// Whether the deposit limit holds back slot `slot`.
    pub(crate) fn holds_deposit(self, slot: SeqNum) -> bool {
        !self.open && !slot.before(self.deposit)
    }

    /// Arms the send watchdog for `until` while ready work waits at the
    /// send limit (`waits`), keeps an armed one as it is, and disarms it
    /// once nothing waits.
    pub(crate) fn watch_send(&mut self, waits: bool, until: SimTime) {
        self.send_starved = self.watch(self.send_starved, waits, false, until);
    }

    /// The deposit watchdog likewise, for the next in-order slot held at
    /// the deposit limit. A deposit (`advanced`) proves the successor
    /// alive and restarts it.
    pub(crate) fn watch_deposit(&mut self, waits: bool, advanced: bool, until: SimTime) {
        self.deposit_starved = self.watch(self.deposit_starved, waits, advanced, until);
    }

    /// One watchdog's next deadline: unset unless work `waits` at a closed
    /// gate, and `until` if it was unset or a `restart` proved the
    /// successor alive.
    fn watch(self, at: OptTime, waits: bool, restart: bool, until: SimTime) -> OptTime {
        match at.get() {
            _ if !waits || self.open => OptTime::NONE,
            Some(_) if !restart => at,
            _ => OptTime::some(until),
        }
    }

    /// Disarms the watchdogs whose deadline has come by `now` and says
    /// which did: `(send, deposit)`.
    pub(crate) fn take_expired(&mut self, now: SimTime) -> (bool, bool) {
        let due = |t: OptTime| t.get().is_some_and(|t| now >= t);
        let expired = (due(self.send_starved), due(self.deposit_starved));
        if expired.0 {
            self.send_starved = OptTime::NONE;
        }
        if expired.1 {
            self.deposit_starved = OptTime::NONE;
        }
        expired
    }

    /// The earlier watchdog deadline.
    pub(crate) fn deadline(self) -> OptTime {
        self.send_starved.min(self.deposit_starved)
    }
}

#[cfg(test)]
mod tests {
    use hydranet_netsim::rng::SimRng;
    use hydranet_netsim::time::SimDuration;

    use super::*;
    use crate::buffer::tests::read;
    use crate::buffer::{Offer, RecvBuffer};

    fn quad() -> Quad {
        Quad::new(
            SockAddr::new(IpAddr::new(192, 20, 225, 20), 80),
            SockAddr::new(IpAddr::new(128, 32, 33, 109), 40_001),
        )
    }

    fn pair(i: u16) -> AckChanMsg {
        AckChanMsg {
            client: SockAddr::new(IpAddr::new(10, 0, 0, 9), 51_000 + i),
            service: SockAddr::new(IpAddr::new(192, 20, 225, 20), 80),
            seq: SeqNum::new(0xAABB_CC00 + u32::from(i)),
            ack: SeqNum::new(0x1122_3300 + u32::from(i)),
        }
    }

    fn frame(msgs: &[AckChanMsg]) -> Vec<u8> {
        let mut wire = Vec::new();
        AckChanMsg::encode_batch_into(msgs, &mut wire);
        wire
    }

    #[test]
    fn ack_chan_batch_roundtrip() {
        for n in [1u16, 5, ACK_CHAN_MAX_PAIRS as u16] {
            let msgs: Vec<AckChanMsg> = (0..n).map(pair).collect();
            let wire = frame(&msgs);
            let header: &[u8] = if n == 1 { &[0xA1] } else { &[0xA2, n as u8] };
            assert_eq!(wire.len(), header.len() + msgs.len() * ACK_CHAN_PAIR_LEN);
            assert!(wire.starts_with(header));
            let mut back = Vec::new();
            let count = AckChanMsg::decode_each(&wire, |m| back.push(m)).unwrap();
            assert_eq!(count, msgs.len());
            assert_eq!(back, msgs);
        }
        let msg = pair(0);
        assert_eq!(msg.quad().local, msg.service);
        assert_eq!(msg.quad().remote, msg.client);
    }

    #[test]
    fn batch_rejects_malformed() {
        assert!(AckChanMsg::decode_each(&[], |_| {}).is_err());
        assert!(AckChanMsg::decode_each(&[0xA2], |_| {}).is_err());
        // Zero-count batch.
        assert!(AckChanMsg::decode_each(&[0xA2, 0], |_| {}).is_err());
        // Count that disagrees with the byte length.
        let mut wire = vec![0xA2, 2];
        wire.extend_from_slice(&[0u8; ACK_CHAN_PAIR_LEN]);
        assert!(AckChanMsg::decode_each(&wire, |_| {}).is_err());
        // Unknown tag.
        assert!(AckChanMsg::decode_each(&[0x07; 21], |_| {}).is_err());
        // A one-pair frame: short by a byte, a trailing byte, a bad tag.
        let one = frame(&[pair(1)]);
        assert!(AckChanMsg::decode_each(&one[..one.len() - 1], |_| {}).is_err());
        let mut trailing = one.clone();
        trailing.push(0);
        assert!(AckChanMsg::decode_each(&trailing, |_| {}).is_err());
        let mut bad_tag = one;
        bad_tag[0] = 0x00;
        assert!(AckChanMsg::decode_each(&bad_tag, |_| {}).is_err());
    }

    /// Hostile input: valid frames of 1–32 pairs, each truncated, extended,
    /// re-tagged, re-counted (the first pair byte of a one-pair frame) or
    /// bit-flipped. The decoder never panics; it either rejects the frame
    /// without applying a pair or yields exactly the declared count of
    /// pairs, which re-encode to the same bytes.
    #[test]
    fn prop_mutated_frames_decode_whole_or_not_at_all() {
        let mut rng = SimRng::seed_from(0xA2);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..4_000 {
            // Any 20 bytes are a pair.
            let pairs: Vec<AckChanMsg> = (0..rng.range(1, 33))
                .map(|_| {
                    let bytes: Vec<u8> = (0..ACK_CHAN_PAIR_LEN)
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                    AckChanMsg::decode_pair(&bytes)
                })
                .collect();
            let mut wire = frame(&pairs);
            match rng.range(0, 5) {
                0 => wire.truncate(rng.range(0, wire.len() as u64) as usize),
                1 => {
                    let extra = rng.range(1, 2 * ACK_CHAN_PAIR_LEN as u64 + 1);
                    wire.extend((0..extra).map(|_| rng.next_u64() as u8));
                }
                2 => wire[0] = rng.next_u64() as u8,
                3 => wire[1] = rng.next_u64() as u8,
                _ => {
                    let at = rng.range(0, wire.len() as u64) as usize;
                    wire[at] ^= rng.range(1, 256) as u8;
                }
            }
            let mut seen = Vec::new();
            match AckChanMsg::decode_each(&wire, |m| seen.push(m)) {
                Ok(count) => {
                    accepted += 1;
                    assert_eq!(seen.len(), count);
                    assert_eq!(frame(&seen), wire);
                }
                Err(_) => {
                    rejected += 1;
                    assert!(
                        seen.is_empty(),
                        "rejected frame applied {} pairs",
                        seen.len()
                    );
                }
            }
        }
        assert!(
            accepted > 500 && rejected > 2_000,
            "{accepted} / {rejected}"
        );
    }

    #[test]
    fn iss_is_deterministic_and_quad_sensitive() {
        let q = quad();
        assert_eq!(deterministic_iss(q), deterministic_iss(q));
        let mut q2 = q;
        q2.remote.port += 1;
        assert_ne!(deterministic_iss(q), deterministic_iss(q2));
        let mut q3 = q;
        q3.local.port += 1;
        assert_ne!(deterministic_iss(q), deterministic_iss(q3));
    }

    #[test]
    fn iss_spreads_over_sequence_space() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..1000u16 {
            let q = Quad::new(
                SockAddr::new(IpAddr::new(192, 20, 225, 20), 80),
                SockAddr::new(IpAddr::new(10, 0, 0, 1), 40_000 + i),
            );
            seen.insert(deterministic_iss(q).raw());
        }
        assert!(seen.len() > 990, "collisions: {}", 1000 - seen.len());
    }

    #[test]
    fn sole_primary_config_has_no_neighbours() {
        let sole = ReplicatedPortConfig::sole_primary(DetectorParams::DEFAULT);
        assert_eq!((sole.predecessor, sole.has_successor), (None, false));
    }

    impl ChainGate {
        /// The send and deposit watchdogs' deadlines.
        pub(crate) fn watchdogs(self) -> [Option<SimTime>; 2] {
            [self.send_starved.get(), self.deposit_starved.get()]
        }
    }

    #[test]
    fn gate_blocks_until_raised() {
        let base = SeqNum::new(0);
        let mut gate = ChainGate::closed(base, base);
        let mut rb = RecvBuffer::new(base, 1024);
        let held = rb.offer(base, b"abcdefgh".into(), gate.deposit_limit());
        assert_eq!(held, Offer::Held);
        assert_eq!(rb.rcv_nxt(), base);
        assert_eq!(rb.staged_bytes(), 8);
        assert_eq!(gate.send_room(base), 0);
        // Successor acked up to byte 4 and sent 3 slots.
        gate.on_report(base + 3, base + 4);
        assert!(rb.deposit(gate.deposit_limit()));
        assert_eq!(rb.rcv_nxt(), base + 4);
        assert_eq!(read(&mut rb, 100), b"abcd");
        assert_eq!((gate.send_room(base), gate.send_room(base + 3)), (3, 0));
        // Raise fully.
        gate.on_report(base, base + 8);
        assert!(rb.deposit(gate.deposit_limit()));
        assert_eq!(read(&mut rb, 100), b"efgh");
    }

    #[test]
    fn gate_never_moves_backwards() {
        let base = SeqNum::new(0);
        let mut gate = ChainGate::closed(base, base);
        gate.on_report(base + 10, base + 10);
        gate.on_report(base + 5, base + 5); // stale successor report
        assert_eq!(gate.send_room(base), 10);
        assert_eq!(gate.deposit_limit(), Some(base + 10));
        let mut rb = RecvBuffer::new(base, 64);
        rb.offer(base, [7u8; 10].into(), gate.deposit_limit());
        assert_eq!(rb.rcv_nxt(), base + 10);
    }

    #[test]
    fn a_report_never_gates_an_ungated_buffer() {
        let base = SeqNum::new(0);
        let mut gate = ChainGate::OPEN;
        let mut rb = RecvBuffer::new(base, 64);
        rb.offer(base, b"before".into(), gate.deposit_limit());
        gate.on_report(base + 2, base + 2); // a late successor report
        assert_eq!(gate.deposit_limit(), None);
        assert_eq!(gate.send_room(base + 2), usize::MAX);
        let after = rb.offer(base + 6, b"after".into(), gate.deposit_limit());
        assert_eq!(after, Offer::Deposited);
        assert_eq!(read(&mut rb, 100), b"beforeafter");
    }

    /// Opening releases every held byte and disarms both watchdogs for good.
    #[test]
    fn opening_releases_everything() {
        let base = SeqNum::new(0);
        let mut gate = ChainGate::closed(base, base);
        let mut rb = RecvBuffer::new(base, 64);
        rb.offer(base, b"payload".into(), gate.deposit_limit());
        assert_eq!(rb.readable_len(), 0);
        let (now, rto) = (SimTime::from_millis(1), SimDuration::from_millis(200));
        gate.watch_send(true, now + rto);
        gate.watch_deposit(true, false, now + rto);
        assert_eq!(gate.watchdogs(), [Some(now + rto); 2]);
        gate.open();
        assert!(rb.deposit(gate.deposit_limit()));
        assert_eq!(read(&mut rb, 100), b"payload");
        gate.watch_send(true, now + rto);
        gate.watch_deposit(true, true, now + rto);
        assert_eq!(gate.watchdogs(), [None; 2]);
    }

    /// No byte at or past the deposit limit ever becomes readable.
    #[test]
    fn gate_invariant() {
        let mut rng = SimRng::seed_from(0x9a7e);
        for _ in 0..128 {
            let limit = rng.range(0, 64) as u32;
            let n_offers = rng.range(1, 16) as usize;
            let base = SeqNum::new(500);
            let mut gate = ChainGate::closed(base, base);
            gate.on_report(base, base + limit);
            let mut rb = RecvBuffer::new(base, 4096);
            for _ in 0..n_offers {
                let off = rng.range(0, 64) as u32;
                let len = rng.range(1, 16) as usize;
                let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
                rb.offer(base + off, data.into(), gate.deposit_limit());
            }
            // rcv_nxt never passes the gate.
            assert!((rb.rcv_nxt() - base) <= limit);
            assert!(rb.readable_len() as u32 <= limit);
        }
    }
}
