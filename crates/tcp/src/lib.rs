//! # hydranet-tcp
//!
//! A user-space TCP implementation plus the HydraNet-FT replicated-port
//! extensions (ft-TCP), running over `hydranet-netsim`.
//!
//! The crate provides:
//!
//! - Full TCP: handshake, sliding-window flow control, out-of-order
//!   reassembly, Jacobson/Karn RTO estimation ([`rto`]), Reno congestion
//!   control with fast retransmit/recovery ([`cc`]), Nagle, delayed ACKs,
//!   zero-window probing, and graceful/abortive teardown ([`conn`]).
//! - A per-host stack ([`stack`]) with listeners, applications
//!   ([`stack::SocketApp`]), UDP ([`udp`]), and IP-in-IP decapsulation.
//! - The HydraNet-FT extensions ([`ft`]): replicated ports
//!   (`setportopt`), primary/backup roles, the acknowledgement channel with
//!   its §4.3 atomicity/ordering gates, and the retransmission-counting
//!   failure estimator ([`detector`]).
//!
//! See the `hydranet-core` crate for assembling clients, redirectors, and
//! host servers into a running system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod cc;
pub mod conn;
mod deadlines;
pub mod detector;
pub mod ft;
pub mod rto;
pub mod segment;
pub mod seq;
pub mod stack;
pub mod udp;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::conn::{ConnEvent, Connection, TcpConfig, TcpState};
    pub use crate::detector::{DetectorParams, FailureDetector};
    pub use crate::ft::{deterministic_iss, AckChanMsg, ReplicatedPortConfig, ACK_CHANNEL_PORT};
    pub use crate::segment::{Quad, SockAddr, TcpFlags, TcpSegment};
    pub use crate::seq::SeqNum;
    pub use crate::stack::{NullApp, SocketApp, SocketIo, StackEvent, TcpStack};
    pub use crate::udp::UdpDatagram;
}
