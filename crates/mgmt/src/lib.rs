//! # hydranet-mgmt
//!
//! The HydraNet-FT replica management protocol (paper §4.4): management
//! daemons on hosts and redirectors exchanging UDP (and "a form of reliable
//! UDP") messages to install replicas, assign daisy-chain roles, identify
//! failed servers by probing, and reconfigure chains after failures.
//!
//! - [`proto`] — message definitions and wire format.
//! - [`reliable`] — acknowledged/retransmitted/deduplicated UDP messaging.
//! - [`chain`] — role computation for daisy chains.
//! - [`daemon`] — the host-server daemon ([`HostDaemon`]): the host's one
//!   record of each replica it runs (registration, role, departure), its
//!   restart after a crash, probe answers and failure reports.
//! - [`failover`] — the redirector-side controller
//!   ([`ReplicaController`]): registration, probing, reconfiguration.
//!
//! All components are sans-I/O: they consume datagrams and clock ticks and
//! emit action lists; `hydranet-core` wires them to stacks and nodes.
//!
//! [`HostDaemon`]: daemon::HostDaemon
//! [`ReplicaController`]: failover::ReplicaController

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chain;
pub mod daemon;
pub mod failover;
pub mod proto;
pub mod reliable;
pub mod wire;

pub use chain::{assignments, changed_assignments, RoleAssignment};
pub use daemon::{DaemonAction, HostDaemon};
pub use failover::{ControllerAction, ProbeParams, ReplicaController};
pub use proto::{Envelope, MgmtMsg, MGMT_PORT};
pub use reliable::ReliableEndpoint;
pub use wire::WireError;
