//! IP-in-IP tunnelling.
//!
//! "A packet is redirected to the appropriate host server by *tunnelling*
//! it using IP-in-IP encapsulation. The destination host server is equipped
//! to detect tunneled packets and to forward them internally to the
//! service" (§3). The decapsulation side lives in the host-server stack
//! (`hydranet_tcp::stack`); this module provides encapsulation and a
//! decode helper.

use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::packet::{DecodeError, IpAddr, IpPacket, Protocol};

/// Encapsulates `inner` for delivery to `host_server`, from `redirector`.
///
/// The inner packet keeps its original header (notably the replicated
/// service's destination address), so the host server's virtual-host
/// matching works unchanged.
pub fn encapsulate(inner: &IpPacket, redirector: IpAddr, host_server: IpAddr) -> IpPacket {
    encapsulate_buf(inner.encode(), inner.header.id, redirector, host_server)
}

/// Encapsulates an *already-encoded* inner packet — the zero-copy fast
/// path. The buffer becomes the outer payload as-is: no re-encode, no
/// copy. The redirector's multicast loop encodes the inner packet once, in
/// place ([`IpPacket::into_encoded`]), and hands each chain member a cheap
/// clone of the same buffer.
///
/// `inner_id` is the inner packet's IP identification field, propagated to
/// the outer header so fragment correlation survives tunnelling.
pub fn encapsulate_buf(
    inner_encoded: PacketBuf,
    inner_id: u16,
    redirector: IpAddr,
    host_server: IpAddr,
) -> IpPacket {
    let mut outer = IpPacket::new(redirector, host_server, Protocol::IP_IN_IP, inner_encoded);
    outer.header.id = inner_id;
    outer
}

/// Extracts the inner packet from an IP-in-IP tunnel packet.
///
/// # Errors
///
/// Returns a [`DecodeError`] if `outer` is not IP-in-IP or its payload does
/// not parse as a packet.
pub fn decapsulate(outer: &IpPacket) -> Result<IpPacket, DecodeError> {
    if outer.protocol() != Protocol::IP_IN_IP {
        return Err(DecodeError::BadVersion(outer.protocol().number()));
    }
    IpPacket::decode(&outer.payload)
}

/// The extra on-wire bytes one level of encapsulation adds.
pub const TUNNEL_OVERHEAD: usize = hydranet_netsim::packet::IP_HEADER_LEN;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encap_decap_roundtrip() {
        let inner = IpPacket::new(
            IpAddr::new(10, 0, 1, 1),
            IpAddr::new(192, 20, 225, 20),
            Protocol::TCP,
            b"segment bytes".to_vec(),
        );
        let outer = encapsulate(&inner, IpAddr::new(10, 9, 9, 9), IpAddr::new(10, 0, 2, 1));
        assert_eq!(outer.protocol(), Protocol::IP_IN_IP);
        assert_eq!(outer.src(), IpAddr::new(10, 9, 9, 9));
        assert_eq!(outer.dst(), IpAddr::new(10, 0, 2, 1));
        assert_eq!(outer.total_len(), inner.total_len() + TUNNEL_OVERHEAD);
        assert_eq!(decapsulate(&outer).unwrap(), inner);
    }

    #[test]
    fn encap_buf_is_zero_copy_and_decap_is_a_view() {
        let inner = IpPacket::new(
            IpAddr::new(10, 0, 1, 1),
            IpAddr::new(192, 20, 225, 20),
            Protocol::TCP,
            vec![5u8; 64],
        );
        let encoded = inner.encode();
        let outer = encapsulate_buf(
            encoded.clone(),
            inner.header.id,
            IpAddr::new(10, 9, 9, 9),
            IpAddr::new(10, 0, 2, 1),
        );
        // The outer payload IS the encoded buffer — no copy on encap.
        assert!(PacketBuf::same_backing(&encoded, &outer.payload));
        assert_eq!(outer.header.id, inner.header.id);
        // Decapsulation slices the outer payload in place — no copy there
        // either, two levels deep into the original encode.
        let back = decapsulate(&outer).unwrap();
        assert_eq!(back, inner);
        assert!(PacketBuf::same_backing(&encoded, &back.payload));
    }

    #[test]
    fn decap_rejects_non_tunnel() {
        let plain = IpPacket::new(
            IpAddr::new(1, 1, 1, 1),
            IpAddr::new(2, 2, 2, 2),
            Protocol::TCP,
            vec![],
        );
        assert!(decapsulate(&plain).is_err());
    }

    #[test]
    fn decap_rejects_garbage_payload() {
        let bogus = IpPacket::new(
            IpAddr::new(1, 1, 1, 1),
            IpAddr::new(2, 2, 2, 2),
            Protocol::IP_IN_IP,
            vec![0xFF; 10],
        );
        assert!(decapsulate(&bogus).is_err());
    }

    #[test]
    fn nested_encapsulation_unwraps_in_order() {
        let inner = IpPacket::new(
            IpAddr::new(10, 0, 1, 1),
            IpAddr::new(192, 20, 225, 20),
            Protocol::UDP,
            vec![7; 32],
        );
        let mid = encapsulate(&inner, IpAddr::new(10, 8, 0, 1), IpAddr::new(10, 0, 2, 1));
        let outer = encapsulate(&mid, IpAddr::new(10, 9, 0, 1), IpAddr::new(10, 0, 3, 1));
        let back_mid = decapsulate(&outer).unwrap();
        assert_eq!(back_mid, mid);
        assert_eq!(decapsulate(&back_mid).unwrap(), inner);
    }
}
