//! Replica management protocol messages.
//!
//! "The architecture of the management protocol … is patterned after the
//! route management infrastructure for IP, with management daemons running
//! on all HydraNet hosts and the redirectors. The management daemons
//! interact with each other using UDP for idempotent operations and a form
//! of reliable UDP for the message exchanges" (§4.4).
//!
//! Every message travels inside an [`Envelope`] carrying a message id used
//! by the reliable layer ([`crate::reliable`]) for acknowledgement and
//! duplicate suppression.

use hydranet_netsim::packet::IpAddr;
use hydranet_tcp::segment::SockAddr;

use crate::wire::{Reader, WireError, Writer};

/// The well-known UDP port management daemons listen on.
pub const MGMT_PORT: u16 = 7102;

/// A management protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MgmtMsg {
    /// A host server announces a replica bound to a replicated port
    /// (creation of primary/backup servers, §4.4). Chain position is
    /// assigned by the redirector in registration order.
    RegisterReplica {
        /// The replicated service access point (virtual-host address, port).
        service: SockAddr,
        /// The registering host server's real address.
        host: IpAddr,
    },
    /// A replica voluntarily leaves the chain (deletion, §4.4).
    Deregister {
        /// The replicated service access point.
        service: SockAddr,
        /// The leaving host server.
        host: IpAddr,
    },
    /// A replica's failure estimator crossed its threshold: ask the
    /// redirector to reconfigure (§4.3–4.4).
    FailureReport {
        /// The replicated service access point.
        service: SockAddr,
        /// The reporting host server.
        reporter: IpAddr,
        /// Broken-loop signals observed (diagnostics).
        observed: u64,
    },
    /// Redirector → host server: assume this chain position. Carries
    /// everything `setportopt` needs.
    SetRole {
        /// The replicated service access point.
        service: SockAddr,
        /// Chain index: 0 = primary, `i ≥ 1` = i-th backup.
        index: u32,
        /// Ack-channel predecessor (`None` for the primary).
        predecessor: Option<IpAddr>,
        /// Whether a chain successor exists (gates enforced when `true`).
        has_successor: bool,
    },
    /// Redirector → host server: liveness probe during failure
    /// identification ("the failed server needs to be identified", §4.4).
    Probe {
        /// Round identifier echoed in the answer.
        nonce: u64,
    },
    /// Host server → redirector: probe answer.
    ProbeAck {
        /// Echoed round identifier.
        nonce: u64,
    },
    /// Active redirector → standby peer: replicate one table entry at epoch
    /// `(term, seq)`. An empty chain removes the entry.
    TableReplicate {
        /// Epoch term; bumped on every promotion.
        term: u32,
        /// Update sequence within the term.
        seq: u64,
        /// The replicated service access point.
        service: SockAddr,
        /// The new chain, primary first (empty = remove).
        chain: Vec<IpAddr>,
    },
    /// Active redirector → peer: full-table snapshot at epoch `(term, seq)`,
    /// used to resync a demoted ex-primary after a partition heals.
    TableSnapshot {
        /// Epoch term of the snapshot.
        term: u32,
        /// Update sequence within the term.
        seq: u64,
        /// Every `(service, chain)` entry, chains primary first.
        entries: Vec<(SockAddr, Vec<IpAddr>)>,
    },
    /// Receiver → stale sender: your epoch is behind mine; demote and
    /// resync instead of applying your update.
    EpochReject {
        /// The receiver's (newer) epoch term.
        term: u32,
        /// The receiver's update sequence within that term.
        seq: u64,
    },
}

impl MgmtMsg {
    fn tag(&self) -> u8 {
        match self {
            MgmtMsg::RegisterReplica { .. } => 1,
            MgmtMsg::Deregister { .. } => 2,
            MgmtMsg::FailureReport { .. } => 3,
            MgmtMsg::SetRole { .. } => 4,
            MgmtMsg::Probe { .. } => 5,
            MgmtMsg::ProbeAck { .. } => 6,
            MgmtMsg::TableReplicate { .. } => 7,
            MgmtMsg::TableSnapshot { .. } => 8,
            MgmtMsg::EpochReject { .. } => 9,
        }
    }

    fn write_chain(w: &mut Writer, chain: &[IpAddr]) {
        w.u16(chain.len() as u16);
        for host in chain {
            w.addr(*host);
        }
    }

    fn read_chain(r: &mut Reader<'_>) -> Result<Vec<IpAddr>, WireError> {
        let n = r.u16()? as usize;
        let mut chain = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            chain.push(r.addr()?);
        }
        Ok(chain)
    }

    fn write(&self, w: &mut Writer) {
        w.u8(self.tag());
        match *self {
            MgmtMsg::RegisterReplica { service, host } | MgmtMsg::Deregister { service, host } => {
                w.sockaddr(service).addr(host);
            }
            MgmtMsg::FailureReport {
                service,
                reporter,
                observed,
            } => {
                w.sockaddr(service).addr(reporter).u64(observed);
            }
            MgmtMsg::SetRole {
                service,
                index,
                predecessor,
                has_successor,
            } => {
                w.sockaddr(service)
                    .u32(index)
                    .opt_addr(predecessor)
                    .u8(has_successor as u8);
            }
            MgmtMsg::Probe { nonce } | MgmtMsg::ProbeAck { nonce } => {
                w.u64(nonce);
            }
            MgmtMsg::TableReplicate {
                term,
                seq,
                service,
                ref chain,
            } => {
                w.u32(term).u64(seq).sockaddr(service);
                Self::write_chain(w, chain);
            }
            MgmtMsg::TableSnapshot {
                term,
                seq,
                ref entries,
            } => {
                w.u32(term).u64(seq).u16(entries.len() as u16);
                for (service, chain) in entries {
                    w.sockaddr(*service);
                    Self::write_chain(w, chain);
                }
            }
            MgmtMsg::EpochReject { term, seq } => {
                w.u32(term).u64(seq);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        let tag = r.u8()?;
        Ok(match tag {
            1 => MgmtMsg::RegisterReplica {
                service: r.sockaddr()?,
                host: r.addr()?,
            },
            2 => MgmtMsg::Deregister {
                service: r.sockaddr()?,
                host: r.addr()?,
            },
            3 => MgmtMsg::FailureReport {
                service: r.sockaddr()?,
                reporter: r.addr()?,
                observed: r.u64()?,
            },
            4 => MgmtMsg::SetRole {
                service: r.sockaddr()?,
                index: r.u32()?,
                predecessor: r.opt_addr()?,
                has_successor: r.u8()? != 0,
            },
            5 => MgmtMsg::Probe { nonce: r.u64()? },
            6 => MgmtMsg::ProbeAck { nonce: r.u64()? },
            7 => MgmtMsg::TableReplicate {
                term: r.u32()?,
                seq: r.u64()?,
                service: r.sockaddr()?,
                chain: Self::read_chain(r)?,
            },
            8 => {
                let term = r.u32()?;
                let seq = r.u64()?;
                let n = r.u16()? as usize;
                let mut entries = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let service = r.sockaddr()?;
                    entries.push((service, Self::read_chain(r)?));
                }
                MgmtMsg::TableSnapshot { term, seq, entries }
            }
            9 => MgmtMsg::EpochReject {
                term: r.u32()?,
                seq: r.u64()?,
            },
            _ => return Err(WireError { at }),
        })
    }
}

/// The envelope the reliable layer wraps every message in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope {
    /// A payload message; `needs_ack` selects the reliable path.
    Payload {
        /// Sender-assigned message id (unique per sender).
        id: u64,
        /// Whether the receiver must acknowledge.
        needs_ack: bool,
        /// The message.
        msg: MgmtMsg,
    },
    /// Acknowledges receipt of the sender's message `of`.
    Ack {
        /// The acknowledged message id.
        of: u64,
    },
}

impl Envelope {
    /// Serialises the envelope.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Envelope::Payload { id, needs_ack, msg } => {
                w.u8(0xE0).u64(*id).u8(*needs_ack as u8);
                msg.write(&mut w);
            }
            Envelope::Ack { of } => {
                w.u8(0xE1).u64(*of);
            }
        }
        w.into_bytes()
    }

    /// Parses an envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, unknown tags, or bytes left
    /// over after a complete envelope.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let env = match r.u8()? {
            0xE0 => Envelope::Payload {
                id: r.u64()?,
                needs_ack: r.u8()? != 0,
                msg: MgmtMsg::read(&mut r)?,
            },
            0xE1 => Envelope::Ack { of: r.u64()? },
            _ => return Err(WireError { at: 0 }),
        };
        if !r.is_exhausted() {
            return Err(WireError { at: r.pos() });
        }
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> SockAddr {
        SockAddr::new(IpAddr::new(192, 20, 225, 20), 80)
    }

    fn all_messages() -> Vec<MgmtMsg> {
        vec![
            MgmtMsg::RegisterReplica {
                service: service(),
                host: IpAddr::new(10, 0, 2, 1),
            },
            MgmtMsg::Deregister {
                service: service(),
                host: IpAddr::new(10, 0, 2, 1),
            },
            MgmtMsg::FailureReport {
                service: service(),
                reporter: IpAddr::new(10, 0, 3, 1),
                observed: 17,
            },
            MgmtMsg::SetRole {
                service: service(),
                index: 2,
                predecessor: Some(IpAddr::new(10, 0, 2, 1)),
                has_successor: true,
            },
            MgmtMsg::SetRole {
                service: service(),
                index: 0,
                predecessor: None,
                has_successor: false,
            },
            MgmtMsg::Probe { nonce: 0xDEAD },
            MgmtMsg::ProbeAck { nonce: 0xDEAD },
            MgmtMsg::TableReplicate {
                term: 3,
                seq: 41,
                service: service(),
                chain: vec![IpAddr::new(10, 0, 2, 1), IpAddr::new(10, 0, 3, 1)],
            },
            MgmtMsg::TableReplicate {
                term: 0,
                seq: 1,
                service: service(),
                chain: vec![],
            },
            MgmtMsg::TableSnapshot {
                term: 4,
                seq: 0,
                entries: vec![
                    (service(), vec![IpAddr::new(10, 0, 2, 1)]),
                    (
                        SockAddr::new(IpAddr::new(192, 20, 225, 21), 8080),
                        vec![IpAddr::new(10, 0, 3, 1), IpAddr::new(10, 0, 4, 1)],
                    ),
                ],
            },
            MgmtMsg::TableSnapshot {
                term: 1,
                seq: 9,
                entries: vec![],
            },
            MgmtMsg::EpochReject { term: 5, seq: 77 },
        ]
    }

    #[test]
    fn envelope_roundtrip_every_message() {
        for (i, msg) in all_messages().into_iter().enumerate() {
            let env = Envelope::Payload {
                id: i as u64 + 100,
                needs_ack: i % 2 == 0,
                msg,
            };
            let back = Envelope::decode(&env.encode()).unwrap();
            assert_eq!(back, env, "message {i}");
        }
    }

    #[test]
    fn ack_roundtrip() {
        let env = Envelope::Ack { of: 42 };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[0x77, 1, 2, 3]).is_err());
        let mut bytes = Envelope::Payload {
            id: 1,
            needs_ack: true,
            msg: MgmtMsg::Probe { nonce: 9 },
        }
        .encode();
        bytes.truncate(bytes.len() - 3);
        assert!(Envelope::decode(&bytes).is_err());
        // Unknown message tag inside a payload envelope, reported where it
        // sits: after the envelope tag (1), id (8) and needs_ack (1) bytes.
        let mut w = Writer::new();
        w.u8(0xE0).u64(5).u8(1).u8(99);
        assert_eq!(Envelope::decode(&w.into_bytes()), Err(WireError { at: 10 }));
    }
}
