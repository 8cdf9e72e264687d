//! Minimal UDP: datagram wire format.
//!
//! HydraNet-FT uses UDP twice: the kernel-to-kernel **acknowledgement
//! channel** between replicas ("In the current implementation we use a
//! kernel-to-kernel UDP connection for the acknowledgement channel, trading
//! low overhead against lack of ordering across connections", §4.3) and the
//! replica-management daemons ("The management daemons interact with each
//! other using UDP for idempotent operations and a form of reliable UDP for
//! the message exchanges", §4.4).

use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::packet::{DecodeError, IP_HEADER_LEN};

/// Size in bytes of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram: ports plus payload.
///
/// # Examples
///
/// ```
/// use hydranet_netsim::buf::PacketBuf;
/// use hydranet_tcp::udp::UdpDatagram;
///
/// let d = UdpDatagram { src_port: 5000, dst_port: 53, payload: PacketBuf::from([1, 2, 3]) };
/// let wire = d.encode();
/// let back = UdpDatagram::decode(&wire)?;
/// assert_eq!(back, d);
/// // The decoded payload is a view of the wire bytes, not a copy.
/// assert!(PacketBuf::same_backing(&back.payload, &wire));
/// # Ok::<(), hydranet_netsim::packet::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes; a decoded datagram's are a view of the packet.
    pub payload: PacketBuf,
}

impl UdpDatagram {
    /// On-wire size (header + payload).
    pub fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// Serialises to bytes: `src (2) | dst (2) | len (2) | checksum (2)`
    /// then the payload; see [`encode_parts`](Self::encode_parts).
    pub fn encode(&self) -> PacketBuf {
        Self::encode_parts(self.src_port, self.dst_port, &self.payload)
    }

    /// Encodes a datagram of `payload` into one packet buffer with room
    /// in front for the IP header, so sending it allocates once. The
    /// header is [`write_header`](Self::write_header)'s.
    pub fn encode_parts(src_port: u16, dst_port: u16, payload: &[u8]) -> PacketBuf {
        PacketBuf::with_headroom(IP_HEADER_LEN, UDP_HEADER_LEN + payload.len(), |d| {
            d[UDP_HEADER_LEN..].copy_from_slice(payload);
            Self::write_header(src_port, dst_port, d);
        })
    }

    /// Writes the header into the first [`UDP_HEADER_LEN`] bytes of
    /// `datagram`, whose payload is already in place after them. The
    /// checksum covers the ports and length as well as the payload (with
    /// the checksum field itself as zero), so a corrupted header is as
    /// detectable as a corrupted payload. Whatever the header bytes held
    /// before is overwritten, so a datagram can be built in a packet
    /// buffer and sealed in place.
    ///
    /// # Panics
    ///
    /// Panics if `datagram` is shorter than a header.
    pub fn write_header(src_port: u16, dst_port: u16, datagram: &mut [u8]) {
        let payload_len = (datagram.len() - UDP_HEADER_LEN) as u16;
        datagram[0..2].copy_from_slice(&src_port.to_be_bytes());
        datagram[2..4].copy_from_slice(&dst_port.to_be_bytes());
        datagram[4..6].copy_from_slice(&payload_len.to_be_bytes());
        let sum = datagram_checksum(datagram);
        datagram[6..8].copy_from_slice(&sum.to_be_bytes());
    }

    /// Parses a datagram from a packet's bytes; the payload is a view of
    /// them, so decoding copies and allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation, an inexact length (a
    /// flipped length field must not re-frame the datagram), or a checksum
    /// mismatch (`BadChecksum`).
    pub fn decode(wire: &PacketBuf) -> Result<Self, DecodeError> {
        let bytes = wire.as_slice();
        if bytes.len() < UDP_HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: UDP_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let src_port = u16::from_be_bytes([bytes[0], bytes[1]]);
        let dst_port = u16::from_be_bytes([bytes[2], bytes[3]]);
        let len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        let declared_sum = u16::from_be_bytes([bytes[6], bytes[7]]);
        if bytes.len() != UDP_HEADER_LEN + len {
            return Err(DecodeError::BadLength {
                declared: UDP_HEADER_LEN + len,
                available: bytes.len(),
            });
        }
        let actual = datagram_checksum(bytes);
        if actual != declared_sum {
            return Err(DecodeError::BadChecksum {
                declared: declared_sum,
                actual,
            });
        }
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: wire.slice(UDP_HEADER_LEN..),
        })
    }
}

/// RFC 1071 checksum over an encoded datagram with the checksum field
/// (offsets 6–7) treated as zero. Both regions start on an even offset, so
/// the partial sums compose.
fn datagram_checksum(bytes: &[u8]) -> u16 {
    let sum = crate::segment::raw_sum(&bytes[..6], 0);
    crate::segment::fold_sum(crate::segment::raw_sum(&bytes[8..], sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let d = UdpDatagram {
            src_port: 7101,
            dst_port: 7101,
            payload: (0..100u8).collect(),
        };
        assert_eq!(UdpDatagram::decode(&d.encode()).unwrap(), d);
        assert_eq!(d.wire_len(), 108);
    }

    #[test]
    fn write_header_in_place_matches_encode() {
        let d = UdpDatagram {
            src_port: 7101,
            dst_port: 7101,
            payload: (0..37u8).collect(),
        };
        // Stale header bytes, a stale checksum among them, are overwritten.
        let mut built = vec![0xEEu8; UDP_HEADER_LEN];
        built.extend_from_slice(&d.payload);
        UdpDatagram::write_header(7101, 7101, &mut built);
        assert_eq!(built, d.encode());
        assert_eq!(UdpDatagram::decode(&built.into()).unwrap(), d);
    }

    #[test]
    fn roundtrip_empty() {
        let d = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            payload: PacketBuf::new(),
        };
        assert_eq!(UdpDatagram::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let d = UdpDatagram {
            src_port: 9,
            dst_port: 10,
            payload: PacketBuf::from([5; 40]),
        };
        let bytes = d.encode();
        assert!(UdpDatagram::decode(&bytes.slice(..4)).is_err());
        assert!(UdpDatagram::decode(&bytes.slice(..20)).is_err());
        let mut corrupted = bytes.to_vec();
        corrupted[30] ^= 0x40;
        assert!(matches!(
            UdpDatagram::decode(&corrupted.into()),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    /// Any single-bit flip — header or payload — is rejected.
    #[test]
    fn single_bit_corruption_detected() {
        use hydranet_netsim::rng::SimRng;
        let mut rng = SimRng::seed_from(0x0dd);
        let d = UdpDatagram {
            src_port: 7101,
            dst_port: 7101,
            payload: (0..64u8).collect(),
        };
        let bytes = d.encode();
        for _ in 0..256 {
            let bit = rng.range(0, bytes.len() as u64 * 8) as usize;
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                UdpDatagram::decode(&flipped.into()).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }
}
