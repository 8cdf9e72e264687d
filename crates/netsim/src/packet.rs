//! IPv4-style network packets and their wire format.
//!
//! The simulator moves [`IpPacket`]s between nodes. Packets carry a real
//! byte payload so that transport protocols serialise their headers exactly
//! as they would on the wire, and so that IP-in-IP tunnelling (used by the
//! HydraNet redirectors) can encapsulate a full packet as the payload of
//! another.

use std::fmt;
use std::str::FromStr;

use crate::buf::PacketBuf;

/// An IPv4-style network address.
///
/// # Examples
///
/// ```
/// use hydranet_netsim::packet::IpAddr;
///
/// let a: IpAddr = "192.20.225.20".parse().unwrap();
/// assert_eq!(a.to_string(), "192.20.225.20");
/// assert_eq!(a.octets(), [192, 20, 225, 20]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IpAddr(u32);

impl fmt::Debug for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Dotted quad in debug output too: raw u32s are unreadable in
        // assertion failures and traces.
        fmt::Display::fmt(self, f)
    }
}

impl IpAddr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: IpAddr = IpAddr(0);

    /// Creates an address from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Creates an address from its 32-bit big-endian numeric value.
    pub const fn from_bits(bits: u32) -> Self {
        IpAddr(bits)
    }

    /// The 32-bit big-endian numeric value of this address.
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// The four dotted-quad octets of this address.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Whether this is the unspecified address `0.0.0.0`.
    pub const fn is_unspecified(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Error returned when parsing an [`IpAddr`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIpAddrError {
    input: String,
}

impl fmt::Display for ParseIpAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IP address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseIpAddrError {}

impl FromStr for IpAddr {
    type Err = ParseIpAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseIpAddrError {
            input: s.to_owned(),
        };
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for octet in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            *octet = part.parse().map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(IpAddr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

impl From<[u8; 4]> for IpAddr {
    fn from(octets: [u8; 4]) -> Self {
        IpAddr::new(octets[0], octets[1], octets[2], octets[3])
    }
}

/// An IP protocol number, as carried in the IP header's protocol field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Protocol(u8);

impl Protocol {
    /// IP-in-IP encapsulation (protocol 4), used by redirector tunnels.
    pub const IP_IN_IP: Protocol = Protocol(4);
    /// TCP (protocol 6).
    pub const TCP: Protocol = Protocol(6);
    /// UDP (protocol 17).
    pub const UDP: Protocol = Protocol(17);
    /// Route announcement flooded by a promoted redirector so routers flip
    /// their anycast next hop to the survivor (protocol 89, OSPF's number).
    pub const ROUTE_ANNOUNCE: Protocol = Protocol(89);

    /// Creates a protocol from its raw number.
    pub const fn from_number(n: u8) -> Self {
        Protocol(n)
    }

    /// The raw protocol number.
    pub const fn number(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Protocol::IP_IN_IP => write!(f, "ipip"),
            Protocol::TCP => write!(f, "tcp"),
            Protocol::UDP => write!(f, "udp"),
            Protocol(n) => write!(f, "proto({n})"),
        }
    }
}

/// Size in bytes of the (option-less) IP header this simulator models.
pub const IP_HEADER_LEN: usize = 20;

/// Fragmentation-related control bits and offset for a packet.
///
/// `offset` is in bytes (the simulator does not require 8-byte alignment,
/// but [`fragment_packet`](crate::frag::fragment_packet) produces 8-byte
/// aligned fragments as real IP does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FragInfo {
    /// Byte offset of this fragment's payload within the original datagram.
    pub offset: u32,
    /// "More fragments" flag: set on every fragment except the last.
    pub more_fragments: bool,
    /// "Don't fragment" flag.
    pub dont_fragment: bool,
}

impl FragInfo {
    /// Fragment info for an unfragmented packet.
    pub const UNFRAGMENTED: FragInfo = FragInfo {
        offset: 0,
        more_fragments: false,
        dont_fragment: false,
    };

    /// Whether this packet is a fragment (or the head of a fragment train).
    pub const fn is_fragment(self) -> bool {
        self.offset != 0 || self.more_fragments
    }
}

/// The header of a simulated IP packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IpHeader {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Transport (or tunnel) protocol of the payload.
    pub protocol: Protocol,
    /// Remaining hop count; routers decrement and drop at zero.
    pub ttl: u8,
    /// Datagram identification, used to correlate fragments.
    pub id: u16,
    /// Fragmentation state.
    pub frag: FragInfo,
}

/// Default initial TTL for newly created packets.
pub const DEFAULT_TTL: u8 = 64;

/// A simulated IP packet: header plus raw payload bytes.
///
/// # Examples
///
/// ```
/// use hydranet_netsim::packet::{IpAddr, IpPacket, Protocol};
///
/// let p = IpPacket::new(
///     IpAddr::new(10, 0, 0, 1),
///     IpAddr::new(10, 0, 0, 2),
///     Protocol::UDP,
///     vec![1, 2, 3],
/// );
/// assert_eq!(p.total_len(), 20 + 3);
/// let bytes = p.encode();
/// let q = IpPacket::decode(&bytes).unwrap();
/// assert_eq!(p, q);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IpPacket {
    /// The IP header.
    pub header: IpHeader,
    /// Transport payload (or an encoded inner packet for IP-in-IP), held in
    /// a shared buffer so clones and decoded views never copy the bytes.
    pub payload: PacketBuf,
}

impl IpPacket {
    /// Creates a packet with default TTL and no fragmentation.
    pub fn new(
        src: IpAddr,
        dst: IpAddr,
        protocol: Protocol,
        payload: impl Into<PacketBuf>,
    ) -> Self {
        IpPacket {
            header: IpHeader {
                src,
                dst,
                protocol,
                ttl: DEFAULT_TTL,
                id: 0,
                frag: FragInfo::UNFRAGMENTED,
            },
            payload: payload.into(),
        }
    }

    /// Total on-wire size in bytes: header plus payload.
    pub fn total_len(&self) -> usize {
        IP_HEADER_LEN + self.payload.len()
    }

    /// Source address (header shorthand).
    pub fn src(&self) -> IpAddr {
        self.header.src
    }

    /// Destination address (header shorthand).
    pub fn dst(&self) -> IpAddr {
        self.header.dst
    }

    /// Protocol (header shorthand).
    pub fn protocol(&self) -> Protocol {
        self.header.protocol
    }

    /// Serialises the packet to bytes (20-byte header + payload), leaving
    /// `self` intact: [`into_encoded`](Self::into_encoded) on a clone, so
    /// the payload's bytes are copied once into a fresh buffer.
    pub fn encode(&self) -> PacketBuf {
        self.clone().into_encoded()
    }

    /// Serialises the packet, writing the header into the payload buffer's
    /// headroom ([`PacketBuf::push_front`]): no allocation and no copy when
    /// the payload is uniquely held with 20 bytes spare in front, one
    /// copy otherwise. The encoded buffer keeps the payload's lineage tag,
    /// so a packet's wire image stays linked to the send that produced it.
    ///
    /// Layout (big-endian, 20 bytes total):
    /// `ver/ihl (1) | ttl (1) | protocol (1) | flags (1) | total_len (2) |
    ///  id (2) | frag_offset (4) | src (4) | dst (4)`.
    ///
    /// This is a simulator-native layout, not RFC 791's bit-exact one: it
    /// keeps a 32-bit byte-granular fragment offset so oversized simulated
    /// MTUs work, while preserving the real 20-byte header cost.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds 65515 bytes (the length field is 16
    /// bits, as in real IPv4).
    pub fn into_encoded(self) -> PacketBuf {
        let total = self.total_len();
        assert!(
            total <= u16::MAX as usize,
            "packet too large to encode: {total} bytes"
        );
        let h = &self.header;
        let flags = u8::from(h.frag.more_fragments) | u8::from(h.frag.dont_fragment) << 1;
        let mut out = self.payload;
        let hdr = out.push_front(IP_HEADER_LEN);
        hdr[..4].copy_from_slice(&[0x45, h.ttl, h.protocol.number(), flags]);
        hdr[4..6].copy_from_slice(&(total as u16).to_be_bytes());
        hdr[6..8].copy_from_slice(&h.id.to_be_bytes());
        hdr[8..12].copy_from_slice(&h.frag.offset.to_be_bytes());
        hdr[12..16].copy_from_slice(&h.src.to_bits().to_be_bytes());
        hdr[16..20].copy_from_slice(&h.dst.to_bits().to_be_bytes());
        out
    }

    /// Parses a packet previously produced by [`encode`](Self::encode).
    ///
    /// The decoded payload is an O(1) slice of `buf`'s backing store — no
    /// bytes are copied. A caller holding only a borrowed `&[u8]` wraps it
    /// first: `decode(&PacketBuf::from(bytes))`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the buffer is shorter than a header, the
    /// version nibble is wrong, or the length field disagrees with the
    /// buffer.
    pub fn decode(buf: &PacketBuf) -> Result<Self, DecodeError> {
        let (header, total_len) = Self::decode_header(buf)?;
        Ok(IpPacket {
            header,
            payload: buf.slice(IP_HEADER_LEN..total_len),
        })
    }

    /// Parses the 20-byte header, returning it with the validated total
    /// length.
    fn decode_header(bytes: &[u8]) -> Result<(IpHeader, usize), DecodeError> {
        if bytes.len() < IP_HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: IP_HEADER_LEN,
                got: bytes.len(),
            });
        }
        if bytes[0] != 0x45 {
            return Err(DecodeError::BadVersion(bytes[0]));
        }
        let ttl = bytes[1];
        let protocol = Protocol::from_number(bytes[2]);
        let flags = bytes[3];
        let total_len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        if total_len < IP_HEADER_LEN || total_len > bytes.len() {
            return Err(DecodeError::BadLength {
                declared: total_len,
                available: bytes.len(),
            });
        }
        let id = u16::from_be_bytes([bytes[6], bytes[7]]);
        let offset = u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let src = IpAddr::from_bits(u32::from_be_bytes([
            bytes[12], bytes[13], bytes[14], bytes[15],
        ]));
        let dst = IpAddr::from_bits(u32::from_be_bytes([
            bytes[16], bytes[17], bytes[18], bytes[19],
        ]));
        Ok((
            IpHeader {
                src,
                dst,
                protocol,
                ttl,
                id,
                frag: FragInfo {
                    offset,
                    more_fragments: flags & 0x01 != 0,
                    dont_fragment: flags & 0x02 != 0,
                },
            },
            total_len,
        ))
    }
}

/// Error returned when decoding a packet or header from bytes fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the structure being decoded.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The version/IHL byte was not the expected `0x45`.
    BadVersion(u8),
    /// The declared length is inconsistent with the available bytes.
    BadLength {
        /// Length declared in the header.
        declared: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A transport checksum did not match — the payload was corrupted in
    /// flight. Distinct from [`BadLength`](DecodeError::BadLength) so
    /// receivers can count corruption separately from malformed framing.
    BadChecksum {
        /// Checksum carried in the header.
        declared: u16,
        /// Checksum computed over the received bytes.
        actual: u16,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated packet: needed {needed} bytes, got {got}")
            }
            DecodeError::BadVersion(v) => write!(f, "unexpected version byte {v:#04x}"),
            DecodeError::BadLength {
                declared,
                available,
            } => {
                write!(
                    f,
                    "bad length field: declared {declared}, available {available}"
                )
            }
            DecodeError::BadChecksum { declared, actual } => {
                write!(
                    f,
                    "checksum mismatch: declared {declared:#06x}, computed {actual:#06x}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Malformed-input cases start from raw bytes; wrap them for the one
    /// decoder.
    fn decode_bytes(bytes: &[u8]) -> Result<IpPacket, DecodeError> {
        IpPacket::decode(&PacketBuf::from(bytes))
    }

    fn sample() -> IpPacket {
        let mut p = IpPacket::new(
            IpAddr::new(192, 20, 225, 20),
            IpAddr::new(128, 142, 222, 80),
            Protocol::TCP,
            b"hello world".to_vec(),
        );
        p.header.id = 0xBEEF;
        p.header.ttl = 17;
        p.header.frag = FragInfo {
            offset: 4096,
            more_fragments: true,
            dont_fragment: false,
        };
        p
    }

    #[test]
    fn addr_display_and_parse_roundtrip() {
        let a = IpAddr::new(10, 1, 2, 3);
        let s = a.to_string();
        assert_eq!(s, "10.1.2.3");
        assert_eq!(s.parse::<IpAddr>().unwrap(), a);
    }

    #[test]
    fn addr_parse_rejects_garbage() {
        assert!("1.2.3".parse::<IpAddr>().is_err());
        assert!("1.2.3.4.5".parse::<IpAddr>().is_err());
        assert!("1.2.3.x".parse::<IpAddr>().is_err());
        assert!("256.1.1.1".parse::<IpAddr>().is_err());
        assert!("".parse::<IpAddr>().is_err());
    }

    #[test]
    fn addr_bits_roundtrip() {
        let a = IpAddr::new(1, 2, 3, 4);
        assert_eq!(IpAddr::from_bits(a.to_bits()), a);
        assert_eq!(a.octets(), [1, 2, 3, 4]);
        assert!(IpAddr::UNSPECIFIED.is_unspecified());
        assert!(!a.is_unspecified());
    }

    #[test]
    fn protocol_constants() {
        assert_eq!(Protocol::TCP.number(), 6);
        assert_eq!(Protocol::UDP.number(), 17);
        assert_eq!(Protocol::IP_IN_IP.number(), 4);
        assert_eq!(Protocol::TCP.to_string(), "tcp");
        assert_eq!(Protocol::from_number(99).to_string(), "proto(99)");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = sample();
        let bytes = p.encode();
        let q = IpPacket::decode(&bytes).unwrap();
        assert_eq!(p, q);
        // The decoded payload is a view of the encoded buffer, not a copy.
        assert!(crate::buf::PacketBuf::same_backing(&bytes, &q.payload));
    }

    #[test]
    fn encode_decode_empty_payload() {
        let p = IpPacket::new(
            IpAddr::new(1, 1, 1, 1),
            IpAddr::new(2, 2, 2, 2),
            Protocol::UDP,
            vec![],
        );
        let q = IpPacket::decode(&p.encode()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn decode_rejects_truncated() {
        let err = decode_bytes(&[0u8; 4]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut bytes = sample().encode().to_vec();
        bytes[0] = 0x60;
        assert!(matches!(
            decode_bytes(&bytes),
            Err(DecodeError::BadVersion(0x60))
        ));
    }

    #[test]
    fn decode_rejects_bad_length() {
        let mut bytes = sample().encode().to_vec();
        // Declare a length longer than the buffer.
        let huge = (bytes.len() as u32 + 100).to_be_bytes();
        bytes[4..8].copy_from_slice(&huge);
        assert!(matches!(
            decode_bytes(&bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn frag_info_flags_roundtrip() {
        for (mf, df) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut p = sample();
            p.header.frag.more_fragments = mf;
            p.header.frag.dont_fragment = df;
            let q = IpPacket::decode(&p.encode()).unwrap();
            assert_eq!(q.header.frag.more_fragments, mf);
            assert_eq!(q.header.frag.dont_fragment, df);
        }
    }

    #[test]
    fn is_fragment() {
        assert!(!FragInfo::UNFRAGMENTED.is_fragment());
        assert!(FragInfo {
            offset: 8,
            more_fragments: false,
            dont_fragment: false
        }
        .is_fragment());
        assert!(FragInfo {
            offset: 0,
            more_fragments: true,
            dont_fragment: false
        }
        .is_fragment());
    }

    #[test]
    fn into_encoded_writes_into_the_headroom_of_a_unique_payload() {
        let mut p = sample();
        p.payload =
            PacketBuf::with_headroom(IP_HEADER_LEN, 11, |d| d.copy_from_slice(b"hello world"));
        // `encode` copies and leaves the packet's own buffer unique.
        let expected = p.encode();
        let at = p.payload.as_ptr();
        let wire = p.into_encoded();
        assert_eq!(wire, expected);
        assert_eq!(wire[IP_HEADER_LEN..].as_ptr(), at);
    }

    #[test]
    fn lineage_survives_encode_and_decode() {
        let mut p = sample();
        p.payload.set_lineage(42);
        let bytes = p.encode();
        assert_eq!(bytes.lineage(), 42);
        // Decode views slice the encoded buffer, so the tag rides along.
        let q = IpPacket::decode(&bytes).unwrap();
        assert_eq!(q.payload.lineage(), 42);
        // The tag is metadata: wire bytes are identical to the untagged encode.
        assert_eq!(bytes, sample().encode());
    }

    #[test]
    fn total_len_counts_header() {
        let p = IpPacket::new(
            IpAddr::UNSPECIFIED,
            IpAddr::UNSPECIFIED,
            Protocol::TCP,
            vec![0; 100],
        );
        assert_eq!(p.total_len(), 120);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::rng::SimRng;

    /// Any packet round-trips through the wire format (deterministic
    /// randomized sweep, formerly a proptest property).
    #[test]
    fn packet_roundtrip() {
        let mut rng = SimRng::seed_from(0x9ac7e7);
        for _ in 0..256 {
            let len = rng.range(0, 2048) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut p = IpPacket::new(
                IpAddr::from_bits(rng.next_u64() as u32),
                IpAddr::from_bits(rng.next_u64() as u32),
                Protocol::from_number(rng.next_u64() as u8),
                payload,
            );
            p.header.ttl = rng.next_u64() as u8;
            p.header.id = rng.next_u64() as u16;
            p.header.frag = FragInfo {
                offset: rng.next_u64() as u32,
                more_fragments: rng.chance(0.5),
                dont_fragment: rng.chance(0.5),
            };
            assert_eq!(IpPacket::decode(&p.encode()).unwrap(), p);
        }
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decode_never_panics() {
        let mut rng = SimRng::seed_from(0xdec0de);
        for _ in 0..512 {
            let len = rng.range(0, 128) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = IpPacket::decode(&PacketBuf::from(bytes));
        }
    }
}
