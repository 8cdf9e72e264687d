//! # hydranet
//!
//! A faithful reproduction of **HydraNet-FT** (Shenoy, Satapati, Bettati —
//! *"HYDRANET-FT: Network Support for Dependable Services"*, ICDCS 2000):
//! client-transparent fault-tolerant TCP services over an internetwork.
//!
//! This facade crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`obs`] | unified telemetry: metrics registry, failover timeline, JSON export |
//! | [`netsim`] | deterministic discrete-event internetwork simulator |
//! | [`tcp`] | user-space TCP + ft-TCP (replicated ports, ack channel, failure estimator) |
//! | [`redirect`] | redirector tables, IP-in-IP tunnelling, request replication |
//! | [`mgmt`] | replica management protocol (registration, probing, reconfiguration) |
//! | [`core`] | assembled system: host servers, managed redirectors, deployment, scenarios |
//!
//! Start with [`core::system::SystemBuilder`] — see the `quickstart`
//! example and the crate-level example in [`core`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use hydranet_core as core;
pub use hydranet_mgmt as mgmt;
pub use hydranet_netsim as netsim;
pub use hydranet_obs as obs;
pub use hydranet_redirect as redirect;
pub use hydranet_tcp as tcp;

/// Everything a typical deployment needs, re-exported flat.
pub mod prelude {
    pub use hydranet_core::prelude::*;
}
