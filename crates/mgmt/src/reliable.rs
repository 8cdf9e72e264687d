//! "A form of reliable UDP" (§4.4): acknowledged, retransmitted,
//! duplicate-suppressed message exchange for the management daemons.

use std::collections::{HashMap, VecDeque};

use hydranet_netsim::packet::IpAddr;
use hydranet_netsim::time::{SimDuration, SimTime};

use crate::proto::{Envelope, MgmtMsg};

/// A datagram to hand to the transport: destination host and payload.
pub type Outgoing = (IpAddr, Vec<u8>);

/// Reliable-UDP endpoint state for one daemon.
#[derive(Debug)]
pub struct ReliableEndpoint {
    next_id: u64,
    /// Unacknowledged reliable sends, oldest first; at most
    /// [`MAX_PENDING`].
    pending: VecDeque<Pending>,
    /// Recently seen `(peer, id)` pairs for duplicate suppression.
    seen: HashMap<(IpAddr, u64), SimTime>,
    seen_ttl: SimDuration,
    /// `seen` is swept of expired pairs when it outgrows this: twice what
    /// the last sweep left (at least [`SEEN_SWEEP_MIN`]), so a sweep's
    /// O(len) scan is paid for by the insertions since the previous one.
    seen_sweep_at: usize,
    /// Reliable sends abandoned after [`DEFAULT_MAX_ATTEMPTS`] (diagnostics).
    abandoned: u64,
    /// Reliable sends evicted unacknowledged to keep `pending` within
    /// [`MAX_PENDING`] (diagnostics).
    evicted: u64,
}

#[derive(Debug)]
struct Pending {
    id: u64,
    dst: IpAddr,
    bytes: Vec<u8>,
    next_retry: SimTime,
    attempts: u32,
}

/// Retransmission interval of a reliable send.
pub const DEFAULT_RETRY_INTERVAL: SimDuration = SimDuration::from_millis(250);

/// Transmissions of a reliable send before it is abandoned.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 8;

/// Unacknowledged reliable sends one endpoint keeps retransmitting. A send
/// past the cap evicts the oldest, which gets no more retransmissions. A
/// daemon keeps a handful in flight (registrations, probes, reports), so
/// the cap only binds when a peer stays silent through a send storm, and
/// then bounds the memory and the per-poll scan.
pub const MAX_PENDING: usize = 1024;

/// The duplicate filter is not swept while it holds at most this many pairs.
const SEEN_SWEEP_MIN: usize = 1024;

impl ReliableEndpoint {
    /// Creates an endpoint retransmitting every [`DEFAULT_RETRY_INTERVAL`]
    /// for up to [`DEFAULT_MAX_ATTEMPTS`] transmissions.
    pub fn new() -> Self {
        ReliableEndpoint {
            next_id: 1,
            pending: VecDeque::new(),
            seen: HashMap::new(),
            seen_ttl: SimDuration::from_secs(120),
            seen_sweep_at: SEEN_SWEEP_MIN,
            abandoned: 0,
            evicted: 0,
        }
    }

    /// Sets the first message id this endpoint will use. A process that
    /// restarts must pick a fresh id space (e.g. derived from the restart
    /// time), or its peers' duplicate filters will swallow its messages.
    pub fn with_id_base(mut self, base: u64) -> Self {
        self.next_id = base.max(1);
        self
    }

    /// Sends `msg` reliably to `dst`: it is retransmitted until acked, or
    /// until [`MAX_PENDING`] newer sends evict it. Returns the datagram to
    /// transmit now.
    pub fn send_reliable(&mut self, dst: IpAddr, msg: MgmtMsg, now: SimTime) -> Outgoing {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = Envelope::Payload {
            id,
            needs_ack: true,
            msg,
        }
        .encode();
        if self.pending.len() == MAX_PENDING {
            self.pending.pop_front();
            self.evicted += 1;
        }
        self.pending.push_back(Pending {
            id,
            dst,
            bytes: bytes.clone(),
            next_retry: now + DEFAULT_RETRY_INTERVAL,
            attempts: 1,
        });
        (dst, bytes)
    }

    /// Sends `msg` best-effort (idempotent operations).
    pub fn send_unreliable(&mut self, dst: IpAddr, msg: MgmtMsg) -> Outgoing {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = Envelope::Payload {
            id,
            needs_ack: false,
            msg,
        }
        .encode();
        (dst, bytes)
    }

    /// Handles an incoming datagram from `src`.
    ///
    /// Returns the decoded message if it is a *new* payload (duplicates and
    /// acks return `None`), plus any ack datagrams to transmit.
    pub fn on_datagram(
        &mut self,
        src: IpAddr,
        bytes: &[u8],
        now: SimTime,
    ) -> (Option<MgmtMsg>, Vec<Outgoing>) {
        self.gc_seen(now);
        let Ok(env) = Envelope::decode(bytes) else {
            return (None, Vec::new());
        };
        match env {
            Envelope::Ack { of } => {
                self.pending.retain(|p| !(p.id == of && p.dst == src));
                (None, Vec::new())
            }
            Envelope::Payload { id, needs_ack, msg } => {
                let mut out = Vec::new();
                if needs_ack {
                    out.push((src, Envelope::Ack { of: id }.encode()));
                }
                let fresh = self.seen.insert((src, id), now).is_none();
                (fresh.then_some(msg), out)
            }
        }
    }

    /// Retransmits overdue reliable messages; drops those out of attempts.
    pub fn poll(&mut self, now: SimTime) -> Vec<Outgoing> {
        let mut out = Vec::new();
        let mut abandoned = 0;
        self.pending.retain_mut(|p| {
            if now < p.next_retry {
                return true;
            }
            if p.attempts >= DEFAULT_MAX_ATTEMPTS {
                abandoned += 1;
                return false;
            }
            p.attempts += 1;
            p.next_retry = now + DEFAULT_RETRY_INTERVAL;
            out.push((p.dst, p.bytes.clone()));
            true
        });
        self.abandoned += abandoned;
        out
    }

    /// The earliest pending retransmission deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.iter().map(|p| p.next_retry).min()
    }

    /// Reliable messages still awaiting acknowledgement.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Reliable sends dropped after exhausting attempts.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Reliable sends evicted unacknowledged by newer ones at
    /// [`MAX_PENDING`].
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    fn gc_seen(&mut self, now: SimTime) {
        if self.seen.len() > self.seen_sweep_at {
            let ttl = self.seen_ttl;
            self.seen.retain(|_, &mut t| now.duration_since(t) <= ttl);
            self.seen_sweep_at = (2 * self.seen.len()).max(SEEN_SWEEP_MIN);
        }
    }
}

impl Default for ReliableEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEER: IpAddr = IpAddr::new(10, 0, 0, 2);

    fn probe(nonce: u64) -> MgmtMsg {
        MgmtMsg::Probe { nonce }
    }

    #[test]
    fn reliable_send_retransmits_until_acked() {
        let mut ep = ReliableEndpoint::new();
        let (dst, bytes) = ep.send_reliable(PEER, probe(1), SimTime::ZERO);
        assert_eq!(dst, PEER);
        assert_eq!(ep.pending_count(), 1);
        // Not due yet.
        assert!(ep.poll(SimTime::from_millis(125)).is_empty());
        // Due: retransmit.
        let retx = ep.poll(SimTime::ZERO + DEFAULT_RETRY_INTERVAL);
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].1, bytes);
        // The peer acks.
        let env = Envelope::decode(&bytes).unwrap();
        let Envelope::Payload { id, .. } = env else {
            panic!()
        };
        let ack = Envelope::Ack { of: id }.encode();
        ep.on_datagram(PEER, &ack, SimTime::from_millis(300));
        assert_eq!(ep.pending_count(), 0);
        assert!(ep.poll(SimTime::from_secs(10)).is_empty());
    }

    #[test]
    fn abandons_after_max_attempts() {
        let mut ep = ReliableEndpoint::new();
        ep.send_reliable(PEER, probe(2), SimTime::ZERO);
        let mut total = 1;
        for i in 1..20 {
            total += ep.poll(SimTime::ZERO + DEFAULT_RETRY_INTERVAL * i).len();
        }
        assert_eq!(total, DEFAULT_MAX_ATTEMPTS as usize);
        assert_eq!(ep.pending_count(), 0);
        assert_eq!(ep.abandoned(), 1);
    }

    /// Sends past the cap with no ack: the table stays at the cap, each
    /// overflowing send evicts the oldest and is counted, and the newest
    /// sends are the ones still retransmitted.
    #[test]
    fn pending_is_capped_by_evicting_the_oldest() {
        const OVERFLOW: usize = 300;
        let mut ep = ReliableEndpoint::new();
        let mut sent = Vec::new();
        for i in 0..MAX_PENDING + OVERFLOW {
            let (_, bytes) = ep.send_reliable(PEER, probe(i as u64), SimTime::ZERO);
            sent.push(bytes);
            assert!(ep.pending_count() <= MAX_PENDING);
        }
        assert_eq!(ep.pending_count(), MAX_PENDING);
        assert_eq!(ep.evicted(), OVERFLOW as u64);
        let retx = ep.poll(SimTime::ZERO + DEFAULT_RETRY_INTERVAL);
        let retx: Vec<Vec<u8>> = retx.into_iter().map(|(_, bytes)| bytes).collect();
        assert_eq!(retx, sent[OVERFLOW..], "the newest sends, in send order");
        assert_eq!(ep.abandoned(), 0);
    }

    #[test]
    fn receiver_acks_and_dedups() {
        let mut sender = ReliableEndpoint::new();
        let mut receiver = ReliableEndpoint::new();
        let (_, bytes) = sender.send_reliable(PEER, probe(3), SimTime::ZERO);
        let me = IpAddr::new(10, 0, 0, 1);
        // First delivery: fresh message + an ack.
        let (msg, acks) = receiver.on_datagram(me, &bytes, SimTime::from_millis(1));
        assert_eq!(msg, Some(probe(3)));
        assert_eq!(acks.len(), 1);
        // Duplicate delivery (sender retransmitted): suppressed but re-acked.
        let (msg2, acks2) = receiver.on_datagram(me, &bytes, SimTime::from_millis(2));
        assert_eq!(msg2, None);
        assert_eq!(acks2.len(), 1);
        // The ack clears the sender's pending entry (it arrives *from*
        // the peer the original message was sent to).
        sender.on_datagram(PEER, &acks[0].1, SimTime::from_millis(3));
        assert_eq!(sender.pending_count(), 0);
    }

    #[test]
    fn unreliable_send_has_no_pending() {
        let mut ep = ReliableEndpoint::new();
        let (_, bytes) = ep.send_unreliable(PEER, probe(4));
        assert_eq!(ep.pending_count(), 0);
        let mut rx = ReliableEndpoint::new();
        let (msg, acks) = rx.on_datagram(PEER, &bytes, SimTime::ZERO);
        assert_eq!(msg, Some(probe(4)));
        assert!(acks.is_empty());
    }

    #[test]
    fn next_deadline_tracks_earliest() {
        let mut ep = ReliableEndpoint::new();
        assert!(ep.next_deadline().is_none());
        ep.send_reliable(PEER, probe(5), SimTime::ZERO);
        ep.send_reliable(PEER, probe(6), SimTime::from_millis(40));
        assert_eq!(
            ep.next_deadline(),
            Some(SimTime::ZERO + DEFAULT_RETRY_INTERVAL)
        );
    }

    #[test]
    fn garbage_input_ignored() {
        let mut ep = ReliableEndpoint::new();
        let (msg, acks) = ep.on_datagram(PEER, &[1, 2, 3], SimTime::ZERO);
        assert!(msg.is_none());
        assert!(acks.is_empty());
    }

    /// Feeds `n` fresh datagrams 1 ms apart and returns the entries the
    /// duplicate-filter sweeps scanned in total and the filter's peak size.
    /// A call swept iff the filter failed to grow or its threshold moved.
    fn feed(rx: &mut ReliableEndpoint, n: u64) -> (usize, usize) {
        let (mut scanned, mut peak) = (0, 0);
        for id in 1..=n {
            let bytes = Envelope::Payload {
                id,
                needs_ack: false,
                msg: probe(id),
            }
            .encode();
            let before = (rx.seen.len(), rx.seen_sweep_at);
            let (msg, _) = rx.on_datagram(PEER, &bytes, SimTime::from_millis(id));
            assert_eq!(msg, Some(probe(id)));
            if rx.seen.len() <= before.0 || rx.seen_sweep_at != before.1 {
                scanned += before.0;
            }
            peak = peak.max(rx.seen.len());
        }
        (scanned, peak)
    }

    #[test]
    fn duplicate_filter_sweeps_are_amortized_and_keep_it_bounded() {
        // Regression: past 1,024 pairs every datagram rescanned the whole
        // filter (12.5 M entries scanned for these 5,000 datagrams).
        let mut rx = ReliableEndpoint::new();
        let (scanned, peak) = feed(&mut rx, 5_000);
        assert_eq!(peak, 5_000, "nothing is older than the 120 s horizon");
        assert!(scanned <= 2 * 5_000, "scanned {scanned} entries");
        // A duplicate inside the horizon is still suppressed.
        let dup = Envelope::Payload {
            id: 7,
            needs_ack: true,
            msg: probe(7),
        }
        .encode();
        let (msg, acks) = rx.on_datagram(PEER, &dup, SimTime::from_millis(5_001));
        assert_eq!((msg, acks.len()), (None, 1));

        // With a horizon the run outlives, sweeps bound the filter at the
        // sweep floor (live pairs: 500), still for O(n) scanning in total.
        let mut rx = ReliableEndpoint::new();
        rx.seen_ttl = SimDuration::from_millis(500);
        let (scanned, peak) = feed(&mut rx, 5_000);
        assert!(peak <= SEEN_SWEEP_MIN + 1, "peak {peak}");
        assert!(scanned <= 3 * 5_000, "scanned {scanned} entries");
        assert!(rx.seen.len() >= 500);
    }

    #[test]
    fn per_peer_id_spaces_do_not_collide() {
        let mut rx = ReliableEndpoint::new();
        let a = IpAddr::new(10, 0, 0, 1);
        let b = IpAddr::new(10, 0, 0, 2);
        // Two different peers both use id 1.
        let bytes = Envelope::Payload {
            id: 1,
            needs_ack: false,
            msg: probe(7),
        }
        .encode();
        assert!(rx.on_datagram(a, &bytes, SimTime::ZERO).0.is_some());
        assert!(rx.on_datagram(b, &bytes, SimTime::ZERO).0.is_some());
        assert!(rx.on_datagram(a, &bytes, SimTime::ZERO).0.is_none());
    }
}
