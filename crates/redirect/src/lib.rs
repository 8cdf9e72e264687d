//! # hydranet-redirect
//!
//! HydraNet redirectors: "specially equipped routers that maintain
//! information about the host servers, replicated services and those host
//! servers running copies of them" (paper §1).
//!
//! - [`table`] — the redirector table mapping service access points
//!   (IP address, port) to replica locations, including fault-tolerant
//!   chains (primary + backups) and scaled nearest-replica entries.
//! - [`tunnel`] — IP-in-IP encapsulation used to deliver redirected packets
//!   to host servers.
//! - [`redirector`] — the sans-I/O [`RedirectorEngine`] (routing +
//!   redirection + per-datagram reassembly).
//!
//! The replica management protocol that installs and reconfigures table
//! entries lives in `hydranet-mgmt`; the fully managed redirector node is
//! assembled in `hydranet-core`.
//!
//! [`RedirectorEngine`]: redirector::RedirectorEngine

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod redirector;
pub mod table;
pub mod tunnel;

pub use redirector::{Disposition, RedirectorEngine, RedirectorStats};
pub use table::{RedirectorTable, ReplicaLoc, ServiceEntry};
pub use tunnel::{decapsulate, encapsulate, TUNNEL_OVERHEAD};
