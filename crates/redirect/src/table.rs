//! The redirector table.
//!
//! "Each redirector maintains a *redirector table*, which lists the
//! transport-level service access points (in our case pairs of IP addresses
//! and port numbers) for which packets must be redirected, and the host
//! server to which the packets must go" (§3). For fault-tolerant services
//! the entry holds the whole replica chain: "the redirector maintains the
//! location of the primary server and of all the backup servers" (§4.2).

use std::collections::HashMap;

use hydranet_netsim::packet::IpAddr;
use hydranet_tcp::segment::SockAddr;

/// A replica location for a scaled (non-fault-tolerant) service, with the
/// routing metric used for "nearest" selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaLoc {
    /// The host server running the replica.
    pub host: IpAddr,
    /// Path metric from this redirector (lower is nearer).
    pub metric: u32,
}

/// One redirector-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceEntry {
    /// HydraNet scaling mode: forward to the nearest replica.
    Scaled {
        /// Candidate replicas.
        replicas: Vec<ReplicaLoc>,
    },
    /// HydraNet-FT mode: multicast to the whole chain; `chain[0]` is the
    /// primary, the rest are backups in daisy-chain order.
    FaultTolerant {
        /// Replica hosts in chain order (primary first).
        chain: Vec<IpAddr>,
    },
}

/// Maps service access points to their redirection entries.
///
/// # Examples
///
/// ```
/// use hydranet_redirect::table::{RedirectorTable, ServiceEntry};
/// use hydranet_netsim::packet::IpAddr;
/// use hydranet_tcp::segment::SockAddr;
///
/// let mut t = RedirectorTable::new();
/// let sap = SockAddr::new(IpAddr::new(192, 20, 225, 20), 80);
/// t.install(sap, ServiceEntry::FaultTolerant {
///     chain: vec![IpAddr::new(10, 0, 2, 1), IpAddr::new(10, 0, 3, 1)],
/// });
/// assert_eq!(t.chain(sap).unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RedirectorTable {
    entries: HashMap<SockAddr, ServiceEntry>,
    /// Monotonic counter bumped by anything that could change how a packet
    /// resolves: installs, removes, and
    /// [`invalidate`](Self::invalidate) (which route changes are required
    /// to signal). It is the *only* invalidation rule: the engine stamps
    /// everything it resolved from this table with the generation and
    /// drops the lot when the stamp no longer matches.
    generation: u64,
}

impl RedirectorTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RedirectorTable::default()
    }

    /// The table's resolution generation: changes whenever anything
    /// resolved from the table (a service's routed targets) may be stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Declares everything resolved from the table stale. Call after
    /// anything *outside* the table changes which replicas are routable
    /// (i.e. the routing table).
    pub fn invalidate(&mut self) {
        self.generation += 1;
    }

    /// Installs (or replaces) the entry for a service access point.
    pub fn install(&mut self, sap: SockAddr, entry: ServiceEntry) {
        self.entries.insert(sap, entry);
        self.generation += 1;
    }

    /// Removes the entry for `sap`, returning it.
    pub fn remove(&mut self, sap: SockAddr) -> Option<ServiceEntry> {
        let removed = self.entries.remove(&sap);
        if removed.is_some() {
            self.generation += 1;
        }
        removed
    }

    /// Looks up the entry for `sap`. Packets with no entry "are simply
    /// forwarded to the origin host" by the caller.
    pub fn lookup(&self, sap: SockAddr) -> Option<&ServiceEntry> {
        self.entries.get(&sap)
    }

    /// The fault-tolerant chain for `sap`, if that entry exists and is FT.
    pub fn chain(&self, sap: SockAddr) -> Option<&[IpAddr]> {
        match self.entries.get(&sap) {
            Some(ServiceEntry::FaultTolerant { chain }) => Some(chain),
            _ => None,
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(service access point, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&SockAddr, &ServiceEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sap(port: u16) -> SockAddr {
        SockAddr::new(IpAddr::new(192, 20, 225, 20), port)
    }

    fn host(n: u8) -> IpAddr {
        IpAddr::new(10, 0, n, 1)
    }

    #[test]
    fn install_lookup_remove() {
        let mut t = RedirectorTable::new();
        assert!(t.is_empty());
        t.install(
            sap(80),
            ServiceEntry::FaultTolerant {
                chain: vec![host(1)],
            },
        );
        assert_eq!(t.len(), 1);
        assert!(t.lookup(sap(80)).is_some());
        assert!(t.lookup(sap(23)).is_none()); // telnet not redirected (Fig. 2)
        assert!(t.remove(sap(80)).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn whatever_changes_resolution_moves_the_generation() {
        let ft = |hosts: &[u8]| ServiceEntry::FaultTolerant {
            chain: hosts.iter().map(|&n| host(n)).collect(),
        };
        let mut t = RedirectorTable::new();
        let mut last = t.generation();
        let mut moved = |t: &RedirectorTable| {
            let moved = t.generation() != last;
            last = t.generation();
            moved
        };
        t.install(sap(80), ft(&[1, 2]));
        assert!(moved(&t), "install");
        t.install(sap(80), ft(&[2]));
        assert!(moved(&t), "chain replaced");
        t.invalidate();
        assert!(moved(&t), "route change signalled by the engine");
        t.install(sap(443), ft(&[3]));
        assert!(moved(&t), "second service");
        assert!(t.remove(sap(443)).is_some());
        assert!(moved(&t), "remove");
        // What changes nothing leaves it alone.
        assert!(t.remove(sap(443)).is_none());
        let _ = (t.lookup(sap(80)), t.chain(sap(80)), t.len());
        assert!(!moved(&t));
    }

    #[test]
    fn distinct_ports_are_distinct_services() {
        let mut t = RedirectorTable::new();
        t.install(
            sap(80),
            ServiceEntry::FaultTolerant {
                chain: vec![host(1)],
            },
        );
        t.install(
            sap(443),
            ServiceEntry::FaultTolerant {
                chain: vec![host(2)],
            },
        );
        assert_eq!(t.chain(sap(80)).unwrap(), &[host(1)]);
        assert_eq!(t.chain(sap(443)).unwrap(), &[host(2)]);
    }
}
