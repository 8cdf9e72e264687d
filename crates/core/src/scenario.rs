//! Scenario driver and measurement utilities: the `ttcp`-style workload
//! the paper's evaluation uses.

use hydranet_netsim::node::NodeId;
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_tcp::segment::{Quad, SockAddr};

use crate::apps::{shared, Shared, SinkState, StreamSenderApp};
use crate::host::ClientHost;
use crate::system::System;

/// Configuration of one `ttcp`-style bulk transfer measurement.
///
/// The paper's §5 methodology: `ttcp` writes `total_bytes` in buffers of
/// `write_size`, with sender-side batching of small segments turned off so
/// every write becomes one packet. The reproduction achieves the
/// one-write-one-packet property by running the measurement connection with
/// `MSS = write_size` (see `TcpConfig::mss`), which the caller arranges on
/// the client host.
#[derive(Debug, Clone)]
pub struct TtcpConfig {
    /// Total bytes to transfer.
    pub total_bytes: usize,
    /// Bytes per write — the paper's "packet size" axis.
    pub write_size: usize,
    /// Give up after this much simulated time.
    pub deadline: SimTime,
}

/// Result of a `ttcp` run.
#[derive(Debug, Clone)]
pub struct TtcpResult {
    /// Bytes that reached the service application (receiver side).
    pub bytes_received: usize,
    /// Time from the first byte's arrival to the last byte's arrival at
    /// the receiver.
    pub duration: SimDuration,
    /// Receiver-side sustained throughput in kB/s (the paper's unit).
    pub throughput_kbps: f64,
    /// Whether the full transfer completed before the deadline.
    pub completed: bool,
    /// Client-side retransmissions performed.
    pub client_retransmits: u64,
    /// Client-side segments sent.
    pub client_segments: u64,
}

/// Runs a `ttcp` transfer from `client` to `service`, measuring at the
/// given receiver-side sink (the service application's [`SinkState`]).
///
/// The caller deploys the service (whose app must record into `sink`) and
/// ensures the client's `TcpConfig::mss` equals `cfg.write_size`.
pub fn run_ttcp(
    system: &mut System,
    client: NodeId,
    service: SockAddr,
    sink: &Shared<SinkState>,
    cfg: &TtcpConfig,
) -> TtcpResult {
    let payload: Vec<u8> = (0..cfg.total_bytes).map(|i| (i % 251) as u8).collect();
    let sender_state = shared(Default::default());
    let app = StreamSenderApp::new(payload, false, sender_state);
    let quad = system.connect_client(client, service, Box::new(app));

    // Poll in small steps so completion time is read with ~1 ms accuracy.
    let step = SimDuration::from_millis(1);
    while system.sim.now() < cfg.deadline {
        if sink.borrow().len() >= cfg.total_bytes {
            break;
        }
        let next = system.sim.now().saturating_add(step);
        system.sim.run_until(next.min(cfg.deadline));
    }
    finish_ttcp(system, client, quad, sink, cfg)
}

fn finish_ttcp(
    system: &System,
    client: NodeId,
    quad: Quad,
    sink: &Shared<SinkState>,
    cfg: &TtcpConfig,
) -> TtcpResult {
    let sink = sink.borrow();
    let bytes = sink.len().min(cfg.total_bytes);
    let duration = match (sink.first_byte_at, sink.last_byte_at) {
        (Some(a), Some(b)) if b > a => b.duration_since(a),
        _ => SimDuration::ZERO,
    };
    let throughput_kbps = if duration.is_zero() {
        0.0
    } else {
        (bytes as f64 / 1000.0) / duration.as_secs_f64()
    };
    let client_host = system.sim.node::<ClientHost>(client);
    let (client_retransmits, client_segments) = client_host
        .stack()
        .conn(quad)
        .map(|c| (c.retransmit_count(), u64::from(c.segments_sent())))
        .unwrap_or((0, 0));
    TtcpResult {
        bytes_received: bytes,
        duration,
        throughput_kbps,
        completed: bytes >= cfg.total_bytes,
        client_retransmits,
        client_segments,
    }
}
