//! TCP segments and their wire format.

use std::fmt;

use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::packet::{DecodeError, IpAddr};

use crate::seq::SeqNum;

/// Size in bytes of the (option-less) TCP header.
pub const TCP_HEADER_LEN: usize = 20;

/// An `(address, port)` transport endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SockAddr {
    /// IP address.
    pub addr: IpAddr,
    /// Port number.
    pub port: u16,
}

impl SockAddr {
    /// Creates an endpoint.
    pub const fn new(addr: IpAddr, port: u16) -> Self {
        SockAddr { addr, port }
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// The four-tuple identifying one TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Quad {
    /// The local endpoint (on this host).
    pub local: SockAddr,
    /// The remote endpoint.
    pub remote: SockAddr,
}

impl Quad {
    /// Creates a connection four-tuple.
    pub const fn new(local: SockAddr, remote: SockAddr) -> Self {
        Quad { local, remote }
    }

    /// The connection's one lookup key, all 96 bits of the quad packed
    /// into a `u128`: `remote addr (32) | remote port (16) | local addr
    /// (32) | local port (16)`. The stack demultiplexes by it.
    pub fn key(self) -> u128 {
        u128::from(self.remote.addr.to_bits()) << 64
            | u128::from(self.remote.port) << 48
            | u128::from(self.local.addr.to_bits()) << 16
            | u128::from(self.local.port)
    }

    /// The same connection as seen from the other end.
    pub fn flipped(self) -> Quad {
        Quad {
            local: self.remote,
            remote: self.local,
        }
    }
}

impl fmt::Display for Quad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <-> {}", self.local, self.remote)
    }
}

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    /// Synchronise sequence numbers (connection setup).
    pub syn: bool,
    /// Acknowledgement field is significant.
    pub ack: bool,
    /// No more data from sender (connection teardown).
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push buffered data to the application promptly.
    pub psh: bool,
}

impl TcpFlags {
    /// Only SYN set.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// Only ACK set.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN and ACK set.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// FIN and ACK set.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    /// Only RST set.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    fn to_byte(self) -> u8 {
        (self.syn as u8)
            | (self.ack as u8) << 1
            | (self.fin as u8) << 2
            | (self.rst as u8) << 3
            | (self.psh as u8) << 4
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            syn: b & 0x01 != 0,
            ack: b & 0x02 != 0,
            fin: b & 0x04 != 0,
            rst: b & 0x08 != 0,
            psh: b & 0x10 != 0,
        }
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        if self.syn {
            names.push("SYN");
        }
        if self.ack {
            names.push("ACK");
        }
        if self.fin {
            names.push("FIN");
        }
        if self.rst {
            names.push("RST");
        }
        if self.psh {
            names.push("PSH");
        }
        if names.is_empty() {
            write!(f, "<none>")
        } else {
            write!(f, "{}", names.join("|"))
        }
    }
}

/// A TCP segment: header fields plus payload.
///
/// # Examples
///
/// ```
/// use hydranet_tcp::segment::{TcpFlags, TcpSegment};
/// use hydranet_tcp::seq::SeqNum;
///
/// let seg = TcpSegment {
///     src_port: 4000,
///     dst_port: 80,
///     seq: SeqNum::new(1),
///     ack: SeqNum::new(0),
///     flags: TcpFlags::SYN,
///     window: 65535,
///     payload: Default::default(),
/// };
/// let bytes = seg.encode();
/// assert_eq!(TcpSegment::decode(&bytes)?, seg);
/// # Ok::<(), hydranet_netsim::packet::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: SeqNum,
    /// Next byte expected from the peer (valid when `flags.ack`).
    pub ack: SeqNum,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub window: u16,
    /// Payload bytes, held in a shared buffer: retransmission-queue clones
    /// and decoded views all reference one copy.
    pub payload: PacketBuf,
}

impl TcpSegment {
    /// The amount of sequence space this segment occupies: payload length
    /// plus one for SYN and one for FIN.
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// The sequence number one past the segment's last occupied slot.
    pub fn seq_end(&self) -> SeqNum {
        self.seq + self.seq_len()
    }

    /// On-wire size of header plus payload.
    pub fn wire_len(&self) -> usize {
        TCP_HEADER_LEN + self.payload.len()
    }

    /// Serialises to bytes, leaving `self` intact:
    /// [`into_wire`](Self::into_wire) on a clone, so the payload is copied
    /// once into a fresh buffer.
    pub fn encode(&self) -> PacketBuf {
        self.clone().into_wire()
    }

    /// Serialises the segment, writing the header into the payload
    /// buffer's headroom ([`PacketBuf::push_front`]). A payload from
    /// [`SendBuffer::slice`](crate::buffer::SendBuffer::slice) is uniquely
    /// held with room for this header and the IP header after it, so the
    /// transmit path writes both without another allocation or copy.
    ///
    /// Layout (big-endian, 20-byte header):
    /// `src_port (2) | dst_port (2) | seq (4) | ack (4) | flags (1) |
    ///  reserved (1) | window (2) | checksum (2) | payload_len (2)`.
    ///
    /// The checksum covers the whole segment, header included, with the
    /// checksum field itself as zero; it is summed before the header is
    /// pushed, over the header built on the stack and then the payload.
    pub fn into_wire(self) -> PacketBuf {
        let mut hdr = [0u8; TCP_HEADER_LEN];
        hdr[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        hdr[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        hdr[4..8].copy_from_slice(&self.seq.raw().to_be_bytes());
        hdr[8..12].copy_from_slice(&self.ack.raw().to_be_bytes());
        hdr[12] = self.flags.to_byte();
        hdr[14..16].copy_from_slice(&self.window.to_be_bytes());
        hdr[18..20].copy_from_slice(&(self.payload.len() as u16).to_be_bytes());
        // The regions start on even offsets, so the partial sums compose
        // exactly as `segment_checksum` composes them.
        let sum = raw_sum(&hdr[18..], raw_sum(&hdr[..16], 0));
        let sum = fold_sum(raw_sum(&self.payload, sum));
        hdr[16..18].copy_from_slice(&sum.to_be_bytes());
        let mut wire = self.payload;
        wire.push_front(TCP_HEADER_LEN).copy_from_slice(&hdr);
        wire
    }

    /// Parses a segment previously produced by [`encode`](Self::encode).
    ///
    /// The decoded payload is an O(1) slice of `buf`'s backing store — the
    /// receive path hands the bytes to the connection without copying them
    /// out of the packet. A caller holding only a borrowed `&[u8]` wraps
    /// it first: `decode(&PacketBuf::from(bytes))`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation, inconsistent length, or a
    /// checksum mismatch (`BadChecksum` — corrupted segments must be
    /// dropped, not delivered). Because the checksum covers the header too
    /// and the length check is exact, a bit flip *anywhere* in the segment
    /// is rejected.
    pub fn decode(buf: &PacketBuf) -> Result<Self, DecodeError> {
        let (mut seg, payload_len, declared_sum) = Self::decode_header(buf)?;
        Self::verify_checksum(buf, declared_sum)?;
        seg.payload = buf.slice(TCP_HEADER_LEN..TCP_HEADER_LEN + payload_len);
        Ok(seg)
    }

    /// Parses the 20-byte header, returning the segment (payload still
    /// empty) plus the bounds-checked payload length and declared checksum.
    fn decode_header(bytes: &[u8]) -> Result<(Self, usize, u16), DecodeError> {
        if bytes.len() < TCP_HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: TCP_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let src_port = u16::from_be_bytes([bytes[0], bytes[1]]);
        let dst_port = u16::from_be_bytes([bytes[2], bytes[3]]);
        let seq = SeqNum::new(u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]));
        let ack = SeqNum::new(u32::from_be_bytes([
            bytes[8], bytes[9], bytes[10], bytes[11],
        ]));
        let flags = TcpFlags::from_byte(bytes[12]);
        let window = u16::from_be_bytes([bytes[14], bytes[15]]);
        let declared_sum = u16::from_be_bytes([bytes[16], bytes[17]]);
        let payload_len = u16::from_be_bytes([bytes[18], bytes[19]]) as usize;
        // Exact-length check: a flipped bit in the payload_len field must
        // not silently re-frame the segment, so surplus bytes are as fatal
        // as missing ones.
        if bytes.len() != TCP_HEADER_LEN + payload_len {
            return Err(DecodeError::BadLength {
                declared: TCP_HEADER_LEN + payload_len,
                available: bytes.len(),
            });
        }
        Ok((
            TcpSegment {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                payload: PacketBuf::new(),
            },
            payload_len,
            declared_sum,
        ))
    }

    /// Validates the declared checksum against the received segment bytes
    /// (header with the checksum field zeroed, plus payload).
    fn verify_checksum(bytes: &[u8], declared_sum: u16) -> Result<(), DecodeError> {
        let actual = segment_checksum(bytes);
        if actual != declared_sum {
            return Err(DecodeError::BadChecksum {
                declared: declared_sum,
                actual,
            });
        }
        Ok(())
    }
}

impl fmt::Display for TcpSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{} [{}] seq={} ack={} win={} len={}",
            self.src_port,
            self.dst_port,
            self.flags,
            self.seq,
            self.ack,
            self.window,
            self.payload.len()
        )
    }
}

/// 16-bit ones'-complement sum over `data`, RFC 1071 style.
pub fn checksum(data: &[u8]) -> u16 {
    fold_sum(raw_sum(data, 0))
}

/// Checksum over an encoded TCP segment: every header byte except the
/// checksum field itself (offsets 16–17, treated as zero), plus the
/// payload. Covering the header means flipped ports, sequence numbers,
/// flags, or lengths are as detectable as flipped payload bytes.
pub fn segment_checksum(bytes: &[u8]) -> u16 {
    debug_assert!(bytes.len() >= TCP_HEADER_LEN);
    // Both regions start on an even offset, so word alignment is preserved
    // across the split and the two partial sums compose.
    let sum = raw_sum(&bytes[..16], 0);
    fold_sum(raw_sum(&bytes[18..], sum))
}

/// Accumulates the unfolded ones'-complement word sum of `data` onto `acc`.
/// Only the final region of a composed sum may have odd length.
pub(crate) fn raw_sum(data: &[u8], acc: u32) -> u32 {
    let mut sum = acc;
    let mut chunks = data.chunks_exact(2);
    for pair in &mut chunks {
        sum += u32::from(u16::from_be_bytes([pair[0], pair[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Folds carries and complements, finishing an RFC 1071 sum.
pub(crate) fn fold_sum(mut sum: u32) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydranet_netsim::rng::SimRng;

    /// Malformed-input cases start from raw bytes; wrap them for the one
    /// decoder.
    fn decode_bytes(bytes: &[u8]) -> Result<TcpSegment, DecodeError> {
        TcpSegment::decode(&PacketBuf::from(bytes))
    }

    fn sample(payload: impl Into<PacketBuf>) -> TcpSegment {
        TcpSegment {
            src_port: 40000,
            dst_port: 80,
            seq: SeqNum::new(0xDEADBEEF),
            ack: SeqNum::new(0x01020304),
            flags: TcpFlags {
                syn: false,
                ack: true,
                fin: true,
                rst: false,
                psh: true,
            },
            window: 8192,
            payload: payload.into(),
        }
    }

    #[test]
    fn roundtrip_with_payload() {
        let seg = sample(b"GET / HTTP/1.0\r\n\r\n".to_vec());
        assert_eq!(TcpSegment::decode(&seg.encode()).unwrap(), seg);
    }

    #[test]
    fn roundtrip_empty() {
        let seg = sample(Vec::new());
        assert_eq!(TcpSegment::decode(&seg.encode()).unwrap(), seg);
    }

    #[test]
    fn into_wire_writes_the_header_in_place() {
        let mut seg = sample(Vec::new());
        // An odd length: the checksum's trailing byte pads with zero.
        seg.payload = PacketBuf::with_headroom(TCP_HEADER_LEN, 5, |d| d.copy_from_slice(b"odd!!"));
        let expected = seg.encode();
        let at = seg.payload.as_ptr();
        let wire = seg.into_wire();
        assert_eq!(wire, expected);
        assert_eq!(wire[TCP_HEADER_LEN..].as_ptr(), at);
        assert_eq!(&TcpSegment::decode(&wire).unwrap().payload[..], b"odd!!");
    }

    #[test]
    fn all_flag_combinations_roundtrip() {
        for bits in 0u8..32 {
            let mut seg = sample(vec![1, 2, 3]);
            seg.flags = TcpFlags::from_byte(bits);
            let back = TcpSegment::decode(&seg.encode()).unwrap();
            assert_eq!(back.flags, seg.flags, "bits {bits:#07b}");
        }
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let mut seg = sample(vec![0u8; 10]);
        assert_eq!(seg.seq_len(), 11); // 10 payload + FIN
        seg.flags.syn = true;
        assert_eq!(seg.seq_len(), 12);
        seg.flags.fin = false;
        seg.flags.syn = false;
        assert_eq!(seg.seq_len(), 10);
        assert_eq!(seg.seq_end(), seg.seq + 10);
    }

    #[test]
    fn decode_rejects_truncation() {
        let seg = sample(vec![9u8; 50]);
        let bytes = seg.encode();
        assert!(decode_bytes(&bytes[..10]).is_err());
        assert!(decode_bytes(&bytes[..TCP_HEADER_LEN + 10]).is_err());
    }

    #[test]
    fn decode_rejects_corrupted_payload() {
        let seg = sample(vec![7u8; 32]);
        let mut bytes = seg.encode().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(decode_bytes(&bytes).is_err());
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(&[1, 2, 3, 4]), checksum(&[4, 3, 2, 1]));
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn display_formats() {
        let seg = sample(vec![0u8; 3]);
        let s = seg.to_string();
        assert!(s.contains("ACK|FIN|PSH"), "{s}");
        assert!(s.contains("len=3"), "{s}");
        assert_eq!(TcpFlags::default().to_string(), "<none>");
    }

    #[test]
    fn quad_flip() {
        let q = Quad::new(
            SockAddr::new(IpAddr::new(1, 1, 1, 1), 80),
            SockAddr::new(IpAddr::new(2, 2, 2, 2), 4000),
        );
        assert_eq!(q.flipped().flipped(), q);
        assert_eq!(q.flipped().local.port, 4000);
    }

    #[test]
    fn quads_differing_in_any_one_field_get_distinct_keys() {
        let (a, b) = (IpAddr::new(10, 0, 1, 1), IpAddr::new(10, 0, 9, 9));
        let q = Quad::new(SockAddr::new(a, 80), SockAddr::new(b, 40_000));
        let variants = [
            q,
            Quad::new(SockAddr::new(b, 80), q.remote),
            Quad::new(SockAddr::new(a, 81), q.remote),
            Quad::new(q.local, SockAddr::new(a, 40_000)),
            Quad::new(q.local, SockAddr::new(b, 40_001)),
        ];
        let keys: std::collections::HashSet<u128> = variants.iter().map(|v| v.key()).collect();
        assert_eq!(keys.len(), variants.len());
        assert_eq!(
            q.key(),
            0x0a00_0909_9c40_0a00_0101_0050,
            "remote addr | remote port | local addr | local port"
        );
    }

    /// Arbitrary segments round-trip through the wire format (deterministic
    /// randomized sweep, formerly a proptest property).
    #[test]
    fn roundtrip_arbitrary() {
        let mut rng = SimRng::seed_from(0x5e9);
        for _ in 0..256 {
            let len = rng.range(0, 1500) as usize;
            let seg = TcpSegment {
                src_port: rng.next_u64() as u16,
                dst_port: rng.next_u64() as u16,
                seq: SeqNum::new(rng.next_u64() as u32),
                ack: SeqNum::new(rng.next_u64() as u32),
                flags: TcpFlags::from_byte(rng.range(0, 32) as u8),
                window: rng.next_u64() as u16,
                payload: (0..len)
                    .map(|_| rng.next_u64() as u8)
                    .collect::<Vec<u8>>()
                    .into(),
            };
            assert_eq!(TcpSegment::decode(&seg.encode()).unwrap(), seg);
        }
    }

    /// A single flipped bit anywhere in the segment — header or payload —
    /// is always caught: a one-bit flip can never cancel in a
    /// ones'-complement sum, a payload_len flip fails the exact-length
    /// check, and a checksum-field flip mismatches the recomputed sum.
    #[test]
    fn single_bit_corruption_detected() {
        let mut rng = SimRng::seed_from(0xb17);
        for _ in 0..512 {
            let len = rng.range(1, 256) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let seg = sample(payload);
            let mut bytes = seg.encode().to_vec();
            let bit = rng.range(0, bytes.len() as u64 * 8) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_bytes(&bytes).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    /// Corruption that passes framing surfaces as the distinct
    /// `BadChecksum` error, not `BadLength`.
    #[test]
    fn corruption_reports_bad_checksum() {
        let seg = sample(vec![7u8; 32]);
        let mut bytes = seg.encode().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        match decode_bytes(&bytes) {
            Err(DecodeError::BadChecksum { declared, actual }) => {
                assert_ne!(declared, actual);
            }
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    /// Surplus trailing bytes are rejected: the exact-length check keeps a
    /// flipped payload_len from silently re-framing a longer buffer.
    #[test]
    fn decode_rejects_surplus_bytes() {
        let seg = sample(vec![3u8; 8]);
        let mut bytes = seg.encode().to_vec();
        bytes.push(0);
        assert!(matches!(
            decode_bytes(&bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }
}
