//! Randomized-sweep tests for the management protocol's wire format and
//! the chain role computation (formerly proptest properties; now driven by
//! the in-tree deterministic [`SimRng`]).

use std::collections::BTreeSet;

use hydranet_mgmt::chain::assignments;
use hydranet_mgmt::proto::{Envelope, MgmtMsg};
use hydranet_netsim::packet::IpAddr;
use hydranet_netsim::rng::SimRng;
use hydranet_tcp::segment::SockAddr;

fn arb_addr(rng: &mut SimRng) -> IpAddr {
    IpAddr::from_bits(rng.next_u64() as u32)
}

fn arb_sockaddr(rng: &mut SimRng) -> SockAddr {
    SockAddr::new(arb_addr(rng), rng.next_u64() as u16)
}

fn arb_chain(rng: &mut SimRng) -> Vec<IpAddr> {
    (0..rng.range(0, 4)).map(|_| arb_addr(rng)).collect()
}

/// Number of [`MgmtMsg`] kinds [`arb_msg_of`] draws from.
const MSG_KINDS: u64 = 9;

fn arb_msg(rng: &mut SimRng) -> MgmtMsg {
    let kind = rng.range(0, MSG_KINDS);
    arb_msg_of(rng, kind)
}

fn arb_msg_of(rng: &mut SimRng, kind: u64) -> MgmtMsg {
    match kind {
        0 => MgmtMsg::RegisterReplica {
            service: arb_sockaddr(rng),
            host: arb_addr(rng),
        },
        1 => MgmtMsg::Deregister {
            service: arb_sockaddr(rng),
            host: arb_addr(rng),
        },
        2 => MgmtMsg::FailureReport {
            service: arb_sockaddr(rng),
            reporter: arb_addr(rng),
            observed: rng.next_u64(),
        },
        3 => MgmtMsg::SetRole {
            service: arb_sockaddr(rng),
            index: rng.next_u64() as u32,
            predecessor: if rng.chance(0.5) {
                Some(arb_addr(rng))
            } else {
                None
            },
            has_successor: rng.chance(0.5),
        },
        4 => MgmtMsg::Probe {
            nonce: rng.next_u64(),
        },
        5 => MgmtMsg::ProbeAck {
            nonce: rng.next_u64(),
        },
        6 => MgmtMsg::TableReplicate {
            term: rng.next_u64() as u32,
            seq: rng.next_u64(),
            service: arb_sockaddr(rng),
            chain: arb_chain(rng),
        },
        7 => MgmtMsg::TableSnapshot {
            term: rng.next_u64() as u32,
            seq: rng.next_u64(),
            entries: (0..rng.range(0, 3))
                .map(|_| (arb_sockaddr(rng), arb_chain(rng)))
                .collect(),
        },
        _ => MgmtMsg::EpochReject {
            term: rng.next_u64() as u32,
            seq: rng.next_u64(),
        },
    }
}

/// Every message round-trips through the envelope wire format.
#[test]
fn envelope_roundtrip() {
    let mut rng = SimRng::seed_from(1);
    for _ in 0..512 {
        let env = Envelope::Payload {
            id: rng.next_u64(),
            needs_ack: rng.chance(0.5),
            msg: arb_msg(&mut rng),
        };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }
}

/// Acks round-trip too.
#[test]
fn ack_roundtrip() {
    let mut rng = SimRng::seed_from(2);
    for _ in 0..128 {
        let env = Envelope::Ack { of: rng.next_u64() };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }
}

/// Decoding arbitrary bytes never panics.
#[test]
fn decode_never_panics() {
    let mut rng = SimRng::seed_from(3);
    for _ in 0..512 {
        let len = rng.range(0, 64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = Envelope::decode(&bytes);
    }
}

/// Truncating a valid envelope anywhere yields an error, not garbage.
#[test]
fn truncation_is_detected() {
    let mut rng = SimRng::seed_from(4);
    for _ in 0..256 {
        let bytes = Envelope::Payload {
            id: rng.next_u64(),
            needs_ack: true,
            msg: arb_msg(&mut rng),
        }
        .encode();
        let cut = rng.range(1, 20) as usize;
        if cut < bytes.len() {
            let truncated = &bytes[..bytes.len() - cut];
            assert!(Envelope::decode(truncated).is_err());
        }
    }
}

/// A datagram is exactly one envelope: a complete message of any kind, or
/// an `Ack`, followed by 1–8 bytes of junk is rejected.
#[test]
fn trailing_bytes_are_rejected() {
    let mut rng = SimRng::seed_from(6);
    for kind in 0..=MSG_KINDS {
        for _ in 0..32 {
            let env = if kind == MSG_KINDS {
                Envelope::Ack { of: rng.next_u64() }
            } else {
                Envelope::Payload {
                    id: rng.next_u64(),
                    needs_ack: rng.chance(0.5),
                    msg: arb_msg_of(&mut rng, kind),
                }
            };
            let mut bytes = env.encode();
            let junk = rng.range(1, 9);
            bytes.extend((0..junk).map(|_| rng.next_u64() as u8));
            assert!(
                Envelope::decode(&bytes).is_err(),
                "{env:?} followed by {junk} junk bytes decoded"
            );
        }
    }
}

/// Chain role computation invariants, for any chain of distinct hosts:
/// indices are sequential, the head is the ungated-predecessor primary,
/// exactly the tail lacks a successor, and each predecessor is the
/// previous chain member.
#[test]
fn chain_assignment_invariants() {
    let mut rng = SimRng::seed_from(5);
    for _ in 0..256 {
        let n = rng.range(1, 8) as usize;
        let mut raw = BTreeSet::new();
        while raw.len() < n {
            raw.insert(rng.next_u64() as u32);
        }
        let chain: Vec<IpAddr> = raw.into_iter().map(IpAddr::from_bits).collect();
        let roles = assignments(&chain);
        assert_eq!(roles.len(), chain.len());
        for (i, role) in roles.iter().enumerate() {
            assert_eq!(role.host, chain[i]);
            assert_eq!(role.index as usize, i);
            assert_eq!(
                role.predecessor,
                if i == 0 { None } else { Some(chain[i - 1]) }
            );
            assert_eq!(role.has_successor, i + 1 < chain.len());
        }
        // Exactly one primary; exactly one tail.
        assert_eq!(roles.iter().filter(|r| r.index == 0).count(), 1);
        assert_eq!(roles.iter().filter(|r| !r.has_successor).count(), 1);
    }
}
