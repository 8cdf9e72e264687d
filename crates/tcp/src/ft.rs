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
//! This module defines the roles, the per-port chain configuration (the
//! `setportopt` state), the ack-channel wire format, and the deterministic
//! ISS derivation that lets independently created replica connections share
//! one sequence space (a prerequisite for client-transparent fail-over that
//! the paper's single-kernel-image presentation leaves implicit).

use std::fmt;

use hydranet_netsim::packet::{DecodeError, IpAddr};

use crate::detector::DetectorParams;
use crate::segment::{Quad, SockAddr};
use crate::seq::SeqNum;

/// The well-known UDP port of the ack channel (kernel-to-kernel).
pub const ACK_CHANNEL_PORT: u16 = 7101;

/// A replica's role for one replicated port — the `mode` argument of the
/// paper's `setportopt` system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaMode {
    /// `S₀`: the only replica that transmits to clients.
    Primary,
    /// `Sᵢ, i ≥ 1`: hot-standby; transmissions are diverted into the ack
    /// channel. `index` is the position in the daisy chain (1-based).
    Backup {
        /// 1-based position in the daisy chain.
        index: u32,
    },
}

impl ReplicaMode {
    /// Whether this replica answers clients directly.
    pub fn is_primary(self) -> bool {
        matches!(self, ReplicaMode::Primary)
    }

    /// A short static label for metric scopes ("primary" / "backup").
    pub fn label(self) -> &'static str {
        match self {
            ReplicaMode::Primary => "primary",
            ReplicaMode::Backup { .. } => "backup",
        }
    }
}

impl fmt::Display for ReplicaMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaMode::Primary => write!(f, "primary"),
            ReplicaMode::Backup { index } => write!(f, "backup#{index}"),
        }
    }
}

/// Per-port replication state installed via
/// [`TcpStack::setportopt`](crate::stack::TcpStack::setportopt).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedPortConfig {
    /// This replica's role.
    pub mode: ReplicaMode,
    /// Where to send ack-channel messages: the predecessor in the chain
    /// (`Sᵢ₋₁`). `None` for the primary.
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
            mode: ReplicaMode::Primary,
            predecessor: None,
            has_successor: false,
            detector,
        }
    }

    /// Whether connections on this port must run the §4.3 gates.
    pub fn gated(&self) -> bool {
        self.has_successor
    }

    /// Whether outgoing segments are diverted into the ack channel.
    pub fn diverts_output(&self) -> bool {
        !self.mode.is_primary()
    }
}

/// One acknowledgement-channel message: the two TCP flow-control fields of
/// a would-be packet of connection `conn`, as seen by the reporting replica.
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

/// Byte length of an encoded single-pair [`AckChanMsg`] (tag + one pair).
pub const ACK_CHAN_MSG_LEN: usize = 21;

/// Byte length of one `(connection, SEQ, ACK)` pair within either format.
pub const ACK_CHAN_PAIR_LEN: usize = 20;

/// Maximum pairs one batched datagram can carry (the count field is a u8).
pub const ACK_CHAN_MAX_PAIRS: usize = 255;

const ACK_CHAN_TAG: u8 = 0xA1;
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

    /// Serialises to the 21-byte single-pair wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ACK_CHAN_MSG_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Appends the 21-byte single-pair wire format to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(ACK_CHAN_TAG);
        self.encode_pair_into(out);
    }

    /// Appends the raw 20-byte pair (no tag) to `out`.
    fn encode_pair_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.client.addr.to_bits().to_be_bytes());
        out.extend_from_slice(&self.client.port.to_be_bytes());
        out.extend_from_slice(&self.service.addr.to_bits().to_be_bytes());
        out.extend_from_slice(&self.service.port.to_be_bytes());
        out.extend_from_slice(&self.seq.raw().to_be_bytes());
        out.extend_from_slice(&self.ack.raw().to_be_bytes());
    }

    /// Appends the batched wire format — `0xA2 | count (1) | count × pair`
    /// — to `out`. A batch coalesces one flush window of reports into a
    /// single datagram; pair order is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `msgs` is empty or holds more than
    /// [`ACK_CHAN_MAX_PAIRS`] pairs.
    pub fn encode_batch_into(msgs: &[AckChanMsg], out: &mut Vec<u8>) {
        assert!(
            !msgs.is_empty() && msgs.len() <= ACK_CHAN_MAX_PAIRS,
            "batch of {} pairs",
            msgs.len()
        );
        out.reserve(2 + msgs.len() * ACK_CHAN_PAIR_LEN);
        out.push(ACK_CHAN_BATCH_TAG);
        out.push(msgs.len() as u8);
        for m in msgs {
            m.encode_pair_into(out);
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

    /// Parses the single-pair wire format.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation, trailing bytes, or a bad tag
    /// byte.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < ACK_CHAN_MSG_LEN {
            return Err(DecodeError::Truncated {
                needed: ACK_CHAN_MSG_LEN,
                got: bytes.len(),
            });
        }
        if bytes.len() != ACK_CHAN_MSG_LEN {
            return Err(DecodeError::BadLength {
                declared: ACK_CHAN_MSG_LEN,
                available: bytes.len(),
            });
        }
        if bytes[0] != ACK_CHAN_TAG {
            return Err(DecodeError::BadVersion(bytes[0]));
        }
        Ok(Self::decode_pair(&bytes[1..]))
    }

    /// Parses either wire format — a single-pair message or a batch — and
    /// invokes `f` once per pair, in wire order. Returns the pair count.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation, an unknown tag byte, or a
    /// batch whose declared count does not match its length.
    pub fn decode_each(bytes: &[u8], mut f: impl FnMut(AckChanMsg)) -> Result<usize, DecodeError> {
        match bytes.first() {
            Some(&ACK_CHAN_TAG) => {
                f(Self::decode(bytes)?);
                Ok(1)
            }
            Some(&ACK_CHAN_BATCH_TAG) => {
                if bytes.len() < 2 {
                    return Err(DecodeError::Truncated {
                        needed: 2,
                        got: bytes.len(),
                    });
                }
                let count = bytes[1] as usize;
                let declared = 2 + count * ACK_CHAN_PAIR_LEN;
                if count == 0 || bytes.len() != declared {
                    return Err(DecodeError::BadLength {
                        declared,
                        available: bytes.len(),
                    });
                }
                for i in 0..count {
                    f(Self::decode_pair(
                        &bytes[2 + i * ACK_CHAN_PAIR_LEN..2 + (i + 1) * ACK_CHAN_PAIR_LEN],
                    ));
                }
                Ok(count)
            }
            Some(&tag) => Err(DecodeError::BadVersion(tag)),
            None => Err(DecodeError::Truncated { needed: 1, got: 0 }),
        }
    }
}

impl fmt::Display for AckChanMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ackchan {}@{} seq={} ack={}",
            self.client, self.service, self.seq, self.ack
        )
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

#[cfg(test)]
mod tests {
    use super::*;

    fn quad() -> Quad {
        Quad::new(
            SockAddr::new(IpAddr::new(192, 20, 225, 20), 80),
            SockAddr::new(IpAddr::new(128, 32, 33, 109), 40_001),
        )
    }

    #[test]
    fn ack_chan_roundtrip() {
        let msg = AckChanMsg {
            client: SockAddr::new(IpAddr::new(10, 0, 0, 9), 51_000),
            service: SockAddr::new(IpAddr::new(192, 20, 225, 20), 80),
            seq: SeqNum::new(0xAABBCCDD),
            ack: SeqNum::new(0x11223344),
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), ACK_CHAN_MSG_LEN);
        assert_eq!(AckChanMsg::decode(&bytes).unwrap(), msg);
        assert_eq!(msg.quad().local, msg.service);
        assert_eq!(msg.quad().remote, msg.client);
    }

    #[test]
    fn ack_chan_batch_roundtrip() {
        let msgs: Vec<AckChanMsg> = (0..5u16)
            .map(|i| AckChanMsg {
                client: SockAddr::new(IpAddr::new(10, 0, 0, 9), 51_000 + i),
                service: SockAddr::new(IpAddr::new(192, 20, 225, 20), 80),
                seq: SeqNum::new(0x1000 + u32::from(i)),
                ack: SeqNum::new(0x2000 + u32::from(i)),
            })
            .collect();
        let mut wire = Vec::new();
        AckChanMsg::encode_batch_into(&msgs, &mut wire);
        assert_eq!(wire.len(), 2 + msgs.len() * ACK_CHAN_PAIR_LEN);
        let mut back = Vec::new();
        let n = AckChanMsg::decode_each(&wire, |m| back.push(m)).unwrap();
        assert_eq!(n, msgs.len());
        assert_eq!(back, msgs);
    }

    #[test]
    fn decode_each_handles_single_pair_format() {
        let msg = AckChanMsg {
            client: SockAddr::new(IpAddr::new(10, 0, 0, 9), 51_000),
            service: SockAddr::new(IpAddr::new(192, 20, 225, 20), 80),
            seq: SeqNum::new(7),
            ack: SeqNum::new(9),
        };
        let mut single = Vec::new();
        msg.encode_into(&mut single);
        assert_eq!(single, msg.encode());
        let mut seen = Vec::new();
        assert_eq!(
            AckChanMsg::decode_each(&single, |m| seen.push(m)).unwrap(),
            1
        );
        assert_eq!(seen, vec![msg]);
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
    }

    #[test]
    fn ack_chan_rejects_garbage() {
        assert!(AckChanMsg::decode(&[0u8; 5]).is_err());
        let msg = AckChanMsg {
            client: SockAddr::new(IpAddr::new(1, 1, 1, 1), 1),
            service: SockAddr::new(IpAddr::new(2, 2, 2, 2), 2),
            seq: SeqNum::new(0),
            ack: SeqNum::new(0),
        };
        let mut bytes = msg.encode();
        bytes[0] = 0x00;
        assert!(AckChanMsg::decode(&bytes).is_err());
        // Trailing bytes after a well-formed single-pair frame.
        let mut trailing = msg.encode();
        trailing.push(0);
        assert!(AckChanMsg::decode(&trailing).is_err());
        assert!(AckChanMsg::decode_each(&trailing, |_| {}).is_err());
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
    fn replicated_port_config_predicates() {
        let sole = ReplicatedPortConfig::sole_primary(DetectorParams::DEFAULT);
        assert!(sole.mode.is_primary());
        assert!(!sole.gated());
        assert!(!sole.diverts_output());

        let first_backup = ReplicatedPortConfig {
            mode: ReplicaMode::Backup { index: 1 },
            predecessor: Some(IpAddr::new(10, 0, 0, 1)),
            has_successor: true,
            detector: DetectorParams::DEFAULT,
        };
        assert!(first_backup.gated());
        assert!(first_backup.diverts_output());

        let last_backup = ReplicatedPortConfig {
            has_successor: false,
            ..first_backup
        };
        assert!(!last_backup.gated());
        assert!(last_backup.diverts_output());
    }

    #[test]
    fn mode_display() {
        assert_eq!(ReplicaMode::Primary.to_string(), "primary");
        assert_eq!(ReplicaMode::Backup { index: 2 }.to_string(), "backup#2");
    }
}
