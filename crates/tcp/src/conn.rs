//! The TCP connection state machine.
//!
//! [`Connection`] is a sans-I/O state machine: the owning stack feeds it
//! segments ([`Connection::on_segment`]) and clock ticks
//! ([`Connection::on_tick`]), the application reads/writes through it, and
//! it queues outgoing segments ([`Connection::take_segments`]) and
//! application events ([`Connection::take_events`]).
//!
//! HydraNet-FT hooks: the *deposit gate* (receive side) and *send gate*
//! (transmit side) implement the paper's §4.3 synchronisation rules. Both
//! are inert (`None`/cleared) for ordinary connections; the `ft` module and
//! the stack manage them for connections on replicated ports.

use std::rc::Rc;

use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_obs::metrics::{Counter, Histogram};
use hydranet_obs::{kinds, Obs};

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::cc::CongestionControl;
use crate::rto::{RttEstimator, DEFAULT_MAX_RTO, DEFAULT_MIN_RTO};
use crate::segment::{Quad, TcpFlags, TcpSegment};
use crate::seq::SeqNum;

/// Tuning knobs for a connection.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: usize,
    /// Send buffer capacity in bytes.
    pub send_buf: usize,
    /// Receive buffer capacity in bytes.
    pub recv_buf: usize,
    /// Nagle's algorithm: batch small writes while data is in flight.
    /// The paper's measurements turned this off so each `write()` produces
    /// one segment ("we turned off buffering of small segments", §5).
    pub nagle: bool,
    /// Delay ACKs briefly (at most 40 ms) to piggyback/coalesce
    /// (ack-every-other-segment).
    pub delayed_ack: bool,
    /// How long a backup stack may hold diverted `(SEQ, ACK)` report pairs
    /// before flushing one coalesced ack-channel datagram to its chain
    /// predecessor. Zero disables batching: every would-be transmission is
    /// reported in its own datagram (the paper's §4.2 per-segment
    /// behaviour).
    pub ackchan_flush_delay: SimDuration,
    /// Pending report pairs that force an immediate ack-channel flush.
    pub ackchan_max_pairs: usize,
    /// Consecutive retransmissions of the same data before the connection
    /// is aborted.
    pub max_retries: u32,
    /// How long to linger in TIME-WAIT.
    pub time_wait: SimDuration,
    /// Optional keepalive probing of idle established connections.
    pub keepalive: Option<KeepaliveConfig>,
    /// Send-gate starvation watchdog: fires [`ConnEvent::GateStarved`]
    /// after an RTO of the gate blocking ready work with no successor
    /// progress. On is the only safe setting — a dead chain tail is
    /// invisible to the client-retransmission estimator without it; the
    /// off switch exists so tests can re-break that failure path and
    /// verify the flight recorder captures the resulting wedge.
    pub gate_watchdog: bool,
}

/// How long a delayed ACK may be held. Well under the RTO floor
/// (`DEFAULT_MIN_RTO`): a delayed ACK must never race the sender's
/// retransmission timer (BSD used 200 ms against a 1 s RTO floor; this
/// keeps the same 5x margin).
const ACK_DELAY: SimDuration = SimDuration::from_millis(40);

/// Keepalive tuning: after `idle` with no segments received, send up to
/// `probes` probes spaced `interval` apart; an unanswered run aborts the
/// connection. Lets servers reap connections whose clients silently died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeepaliveConfig {
    /// Quiet time before the first probe.
    pub idle: SimDuration,
    /// Spacing between successive probes.
    pub interval: SimDuration,
    /// Unanswered probes before the connection is reset.
    pub probes: u32,
}

impl Default for KeepaliveConfig {
    fn default() -> Self {
        KeepaliveConfig {
            idle: SimDuration::from_secs(60),
            interval: SimDuration::from_secs(10),
            probes: 3,
        }
    }
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            send_buf: 65_535,
            recv_buf: 65_535,
            nagle: true,
            delayed_ack: true,
            // Same discipline as ACK_DELAY, much tighter: a held report
            // delays the predecessor's gates, and those stack per chain
            // stage on the client's ACK path. 4 ms is 50x under the RTO
            // floor, so a full chain of flush delays can never race a
            // retransmission timer.
            ackchan_flush_delay: SimDuration::from_millis(4),
            ackchan_max_pairs: 32,
            max_retries: 12,
            time_wait: SimDuration::from_secs(30),
            keepalive: None,
            gate_watchdog: true,
        }
    }
}

/// RFC 793 connection states (LISTEN lives in the stack, not here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// SYN sent, awaiting SYN-ACK (active open).
    SynSent,
    /// SYN received, SYN-ACK sent, awaiting ACK (passive open).
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN acked; awaiting the peer's FIN.
    FinWait2,
    /// Simultaneous close: FIN exchanged, awaiting ACK.
    Closing,
    /// Both FINs done; lingering to absorb stray segments.
    TimeWait,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Peer closed, then we sent FIN; awaiting its ACK.
    LastAck,
    /// Fully closed; the stack reaps connections in this state.
    Closed,
}

impl TcpState {
    /// Whether the connection can still carry application data.
    pub fn is_open(self) -> bool {
        matches!(
            self,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::FinWait2
        )
    }
}

/// Events a connection reports to its application/stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEvent {
    /// The three-way handshake completed.
    Established,
    /// New bytes are readable.
    DataReadable,
    /// Send-buffer space opened up after being full.
    SendSpace,
    /// The peer sent FIN: no more data will arrive.
    PeerFin,
    /// The connection was reset (by the peer or by retry exhaustion).
    Reset,
    /// The connection reached `Closed` normally.
    Closed,
    /// A fully duplicate data segment arrived — the signature of a client
    /// retransmission, which HydraNet-FT's failure estimator counts (§4.3).
    DuplicateData,
    /// A retransmission timeout fired. For replicated ports this is the
    /// second face of the broken flow-control loop: our own data is not
    /// being acknowledged (e.g. the primary that should deliver it to the
    /// client is dead), so the estimator counts these too.
    RetransmitTimeout,
    /// The peer acknowledged new data — forward progress that resets the
    /// failure estimator.
    AckProgress,
    /// The ft send gate has blocked ready-to-transmit work for a full RTO
    /// without the successor reporting progress. Retransmission counting
    /// cannot see this stall — gated bytes are never transmitted, so no
    /// retransmission timer ever arms — yet it is the same broken
    /// flow-control loop §4.3's estimator watches: a crashed *successor*
    /// (e.g. a dead chain tail) starves the gate silently while every byte
    /// of client data stays acknowledged.
    GateStarved,
}

#[derive(Debug, Clone, Copy)]
struct SendState {
    una: SeqNum,
    nxt: SeqNum,
    wnd: u32,
    /// Segment seq used for the last window update (WL1/WL2 simplified).
    wl1: SeqNum,
    wl2: SeqNum,
    iss: SeqNum,
}

/// ft-TCP telemetry handles shared by every connection of one stack:
/// srtt/rto/cwnd trajectory histograms, deposit-gate stall time (how long
/// received data sat staged waiting for the chain successor's ack-channel
/// report) and a duplicate-segment counter. One set per stack keeps the
/// registry's series count and a connection's set-up cost independent of
/// the connection count; per-flow detail goes to the `conn <quad>` span.
#[derive(Debug)]
pub(crate) struct ConnTelemetry {
    obs: Obs,
    h_srtt_us: Histogram,
    h_rto_us: Histogram,
    h_cwnd: Histogram,
    h_gate_stall_us: Histogram,
    c_duplicates: Counter,
}

impl ConnTelemetry {
    /// Registers the series under `<scope>.conn.*` (`None` when disabled).
    pub(crate) fn new(obs: &Obs, scope: &str) -> Option<Rc<Self>> {
        obs.is_enabled().then(|| {
            Rc::new(ConnTelemetry {
                h_srtt_us: obs.histogram(&format!("{scope}.conn.srtt_us")),
                h_rto_us: obs.histogram(&format!("{scope}.conn.rto_us")),
                h_cwnd: obs.histogram(&format!("{scope}.conn.cwnd")),
                h_gate_stall_us: obs.histogram(&format!("{scope}.conn.gate_stall_us")),
                c_duplicates: obs.counter(&format!("{scope}.conn.duplicate_segments")),
                obs: obs.clone(),
            })
        })
    }
}

/// A sans-I/O TCP connection.
#[derive(Debug)]
pub struct Connection {
    state: TcpState,
    cfg: Rc<TcpConfig>,
    quad: Quad,
    snd: SendState,
    sendbuf: SendBuffer,
    recvbuf: RecvBuffer,
    cc: CongestionControl,
    rtt: RttEstimator,

    /// App called close: a FIN should follow the buffered data.
    fin_queued: bool,
    /// Sequence slot our FIN occupies once reserved.
    fin_seq: Option<SeqNum>,
    /// Peer FIN slot awaiting in-order processing (it may arrive before all
    /// data, or be held back by the deposit gate).
    peer_fin: Option<SeqNum>,
    peer_fin_processed: bool,

    /// ft-TCP send gate: highest sequence slot the chain successor has
    /// reported; `None` when ungated.
    send_gate: Option<SeqNum>,
    send_gated: bool,
    /// Starvation watchdog for the send gate: armed while the gate blocks
    /// ready work, fires [`ConnEvent::GateStarved`] once per RTO of stall.
    gate_starved_deadline: Option<SimTime>,
    gate_starved_count: u64,

    rto_deadline: Option<SimTime>,
    delack_deadline: Option<SimTime>,
    timewait_deadline: Option<SimTime>,
    persist_deadline: Option<SimTime>,
    keepalive_deadline: Option<SimTime>,
    keepalive_probes_sent: u32,

    /// RTT probe per Karn: (covers-up-to, sent-at).
    rtt_probe: Option<(SeqNum, SimTime)>,
    /// Highest sequence slot ever transmitted (`SND.MAX` in BSD terms).
    /// After a go-back-N rollback, ACK validity is judged against this,
    /// not against the rolled-back `SND.NXT`.
    max_sent: SeqNum,
    /// Go-back-N recovery point: after an RTO, `SND.NXT` rolls back to
    /// `SND.UNA` and sequence numbers below this are retransmissions
    /// (never RTT-sampled, per Karn). Cleared once `SND.UNA` passes it.
    recover: Option<SeqNum>,
    /// When the active-open SYN was first sent (for the handshake RTT
    /// sample).
    syn_sent_at: Option<SimTime>,
    retries: u32,
    /// Window space previously reported as exhausted (for SendSpace edge).
    send_was_full: bool,
    last_advertised_window: u32,

    outbox: Vec<TcpSegment>,
    events: Vec<ConnEvent>,

    // Counters for diagnostics and benches.
    segments_sent: u64,
    segments_received: u64,
    bytes_sent: u64,
    bytes_acked_total: u64,
    retransmit_count: u64,
    duplicate_data_count: u64,

    /// The owning stack's shared handles (absent without a registry).
    telemetry: Option<Rc<ConnTelemetry>>,
    /// When data first became staged behind the deposit gate with nothing
    /// depositable — the start of an ack-channel gating stall.
    gate_stall_since: Option<SimTime>,
    /// Sum of the stalls that ended (reported in the span's closing note).
    gate_stall_total: SimDuration,
}

impl Connection {
    /// Opens a connection actively (client side): queues a SYN.
    pub fn connect(quad: Quad, cfg: impl Into<Rc<TcpConfig>>, iss: SeqNum, now: SimTime) -> Self {
        let mut conn = Self::new(quad, cfg, iss, SeqNum::new(0), TcpState::SynSent);
        conn.emit(
            TcpSegment {
                src_port: quad.local.port,
                dst_port: quad.remote.port,
                seq: iss,
                ack: SeqNum::new(0),
                flags: TcpFlags::SYN,
                window: conn.advertised_window(),
                payload: PacketBuf::new(),
            },
            now,
        );
        conn.snd.nxt = iss + 1;
        conn.syn_sent_at = Some(now);
        conn.arm_rto(now);
        conn
    }

    /// Opens a connection passively (server side) in response to `syn`.
    /// The SYN-ACK is queued immediately unless a send gate holds it back.
    ///
    /// # Panics
    ///
    /// Panics if `syn` does not have the SYN flag set.
    pub fn accept(
        quad: Quad,
        cfg: impl Into<Rc<TcpConfig>>,
        iss: SeqNum,
        syn: &TcpSegment,
        now: SimTime,
    ) -> Self {
        Self::accept_replicated(quad, cfg, iss, syn, now, false, false)
    }

    /// Like [`accept`](Self::accept), but with the HydraNet-FT gates
    /// installed *before* the SYN-ACK can be emitted — a gated replica must
    /// not answer the client's SYN until its chain successor has reported
    /// (the paper's §4.3 rules apply from the handshake onwards).
    ///
    /// # Panics
    ///
    /// Panics if `syn` does not have the SYN flag set.
    pub fn accept_replicated(
        quad: Quad,
        cfg: impl Into<Rc<TcpConfig>>,
        iss: SeqNum,
        syn: &TcpSegment,
        now: SimTime,
        send_gated: bool,
        deposit_gated: bool,
    ) -> Self {
        assert!(syn.flags.syn, "accept requires a SYN segment");
        let irs = syn.seq;
        let mut conn = Self::new(quad, cfg, iss, irs + 1, TcpState::SynRcvd);
        conn.snd.wnd = u32::from(syn.window);
        conn.snd.wl1 = syn.seq;
        conn.snd.nxt = iss + 1;
        conn.segments_received += 1;
        if send_gated {
            conn.send_gated = true;
        }
        if deposit_gated {
            conn.recvbuf.enable_gate();
        }
        conn.try_send_synack(now);
        conn.arm_rto(now);
        conn
    }

    /// Nudges the connection after a role change (backup promoted to
    /// primary): advertises current state with a pure ACK and transmits
    /// whatever the windows allow, so the client resynchronises without
    /// waiting a full client-side RTO.
    pub fn kick(&mut self, now: SimTime) {
        if self.state == TcpState::SynRcvd {
            self.try_send_synack(now);
            return;
        }
        if self.state.is_open()
            || self.state == TcpState::LastAck
            || self.state == TcpState::Closing
        {
            self.send_pure_ack(now);
            // Anything between SND.UNA and SND.NXT was "sent" while we were
            // a backup — i.e. diverted into the ack channel and never
            // delivered. Retransmit it immediately rather than waiting out
            // a (possibly backed-off) RTO.
            if self.snd.una != self.snd.nxt {
                self.retransmit_segment_at_una(now);
                self.arm_rto(now);
            }
            self.pump(now);
        }
    }

    fn new(
        quad: Quad,
        cfg: impl Into<Rc<TcpConfig>>,
        iss: SeqNum,
        rcv_nxt: SeqNum,
        state: TcpState,
    ) -> Self {
        let cfg = cfg.into();
        let sendbuf = SendBuffer::new(iss + 1, cfg.send_buf);
        let recvbuf = RecvBuffer::new(rcv_nxt, cfg.recv_buf);
        let cc = CongestionControl::new(cfg.mss as u32);
        let rtt = RttEstimator::new(DEFAULT_MIN_RTO, DEFAULT_MAX_RTO);
        let last_advertised_window = recvbuf.window();
        Connection {
            state,
            quad,
            snd: SendState {
                una: iss,
                nxt: iss,
                wnd: 0,
                wl1: SeqNum::new(0),
                wl2: SeqNum::new(0),
                iss,
            },
            sendbuf,
            recvbuf,
            cc,
            rtt,
            fin_queued: false,
            fin_seq: None,
            peer_fin: None,
            peer_fin_processed: false,
            send_gate: None,
            send_gated: false,
            gate_starved_deadline: None,
            gate_starved_count: 0,
            rto_deadline: None,
            delack_deadline: None,
            timewait_deadline: None,
            persist_deadline: None,
            keepalive_deadline: None,
            keepalive_probes_sent: 0,
            rtt_probe: None,
            max_sent: iss,
            recover: None,
            syn_sent_at: None,
            retries: 0,
            send_was_full: false,
            last_advertised_window,
            outbox: Vec::new(),
            events: Vec::new(),
            segments_sent: 0,
            segments_received: 0,
            bytes_sent: 0,
            bytes_acked_total: 0,
            retransmit_count: 0,
            duplicate_data_count: 0,
            telemetry: None,
            gate_stall_since: None,
            gate_stall_total: SimDuration::ZERO,
            cfg,
        }
    }

    /// Attaches the owning stack's shared telemetry handles.
    pub(crate) fn set_telemetry(&mut self, telemetry: Option<Rc<ConnTelemetry>>) {
        self.telemetry = telemetry;
    }

    /// Closing note of the trace span: what the aggregated series leave out.
    pub(crate) fn span_summary(&self) -> String {
        format!(
            "srtt_us={} rto_us={} cwnd={} gate_stall_us={}",
            self.rtt.srtt().map_or(0, |d| d.as_nanos() / 1_000),
            self.rtt.rto().as_nanos() / 1_000,
            self.cc.cwnd(),
            self.gate_stall_total.as_nanos() / 1_000
        )
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// The connection four-tuple.
    pub fn quad(&self) -> Quad {
        self.quad
    }

    /// Bytes the application can read right now.
    pub fn readable_len(&self) -> usize {
        self.recvbuf.readable_len()
    }

    /// Free space in the send buffer.
    pub fn send_room(&self) -> usize {
        self.sendbuf.room()
    }

    /// `SND.UNA` — lowest unacknowledged sequence number.
    pub fn snd_una(&self) -> SeqNum {
        self.snd.una
    }

    /// `SND.NXT` — next sequence number to send.
    pub fn snd_nxt(&self) -> SeqNum {
        self.snd.nxt
    }

    /// `RCV.NXT` — next sequence number expected.
    pub fn rcv_nxt(&self) -> SeqNum {
        self.recvbuf.rcv_nxt()
    }

    /// Our initial send sequence number.
    pub fn iss(&self) -> SeqNum {
        self.snd.iss
    }

    /// Total payload bytes sent (including retransmissions).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total bytes of our data the peer has acknowledged.
    pub fn bytes_acked(&self) -> u64 {
        self.bytes_acked_total
    }

    /// Segments transmitted.
    pub fn segments_sent(&self) -> u64 {
        self.segments_sent
    }

    /// Segments received.
    pub fn segments_received(&self) -> u64 {
        self.segments_received
    }

    /// Retransmissions performed (timeout and fast retransmit).
    pub fn retransmit_count(&self) -> u64 {
        self.retransmit_count
    }

    /// Fully duplicate data segments observed from the peer — the failure
    /// estimator's raw signal.
    pub fn duplicate_data_count(&self) -> u64 {
        self.duplicate_data_count
    }

    /// Times the send-gate starvation watchdog fired: the gate blocked
    /// ready-to-transmit work for a full RTO without successor progress.
    pub fn gate_starved_count(&self) -> u64 {
        self.gate_starved_count
    }

    /// The congestion controller (for diagnostics).
    pub fn congestion(&self) -> &CongestionControl {
        &self.cc
    }

    /// The RTT estimator (for diagnostics).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    // ------------------------------------------------------------------
    // ft-TCP gates (driven by the stack for replicated ports)
    // ------------------------------------------------------------------

    /// Enables the send gate: data (and SYN-ACK/FIN slots) may only be
    /// transmitted up to what the chain successor has reported.
    pub fn enable_send_gate(&mut self) {
        self.send_gated = true;
    }

    /// Disables the send gate (connection became last in chain or the port
    /// is no longer replicated with a successor).
    pub fn disable_send_gate(&mut self, now: SimTime) {
        self.send_gated = false;
        self.send_gate = None;
        self.try_send_synack(now);
        self.pump(now);
    }

    /// Raises the send gate to at least `seq` (successor reported it).
    pub fn raise_send_gate(&mut self, seq: SeqNum, now: SimTime) {
        self.send_gate = Some(match self.send_gate {
            Some(g) => g.max_seq(seq),
            None => seq,
        });
        self.try_send_synack(now);
        self.pump(now);
    }

    /// Enables the deposit gate: received data stays staged until the
    /// successor acknowledges it.
    pub fn enable_deposit_gate(&mut self) {
        self.recvbuf.enable_gate();
    }

    /// Disables the deposit gate and releases staged data.
    pub fn disable_deposit_gate(&mut self, now: SimTime) {
        self.recvbuf.clear_gate();
        self.after_deposit_progress(now);
    }

    /// Raises the deposit gate: bytes before `upto` may be deposited.
    pub fn raise_deposit_gate(&mut self, upto: SeqNum, now: SimTime) {
        self.recvbuf.gate_deposits_below(upto);
        self.after_deposit_progress(now);
    }

    /// Whether the send gate currently blocks sequence slot `seq`.
    ///
    /// The gate value is the successor's send *progress* (first slot it has
    /// not covered), so slot `seq` may go out only when `seq < gate`.
    fn gate_blocks(&self, seq: SeqNum) -> bool {
        if !self.send_gated {
            return false;
        }
        match self.send_gate {
            None => true,
            Some(g) => !seq.before(g),
        }
    }

    /// Whether the send gate is the thing standing between ready work and
    /// the wire: an unsent SYN-ACK, buffered data, or a queued FIN whose
    /// next slot the gate refuses.
    fn gate_blocked_work(&self) -> bool {
        if !self.send_gated {
            return false;
        }
        if self.state == TcpState::SynRcvd {
            return self.gate_blocks(self.snd.iss);
        }
        let pending =
            self.snd.nxt.before(self.sendbuf.end()) || (self.fin_queued && self.fin_seq.is_none());
        pending && self.gate_blocks(self.snd.nxt)
    }

    /// Arms the starvation watchdog while the gate blocks ready work and
    /// clears it the moment it does not. One RTO of uninterrupted blockage
    /// fires [`ConnEvent::GateStarved`] (see [`Self::on_tick`]).
    fn update_gate_starvation(&mut self, now: SimTime) {
        if self.cfg.gate_watchdog && self.gate_blocked_work() {
            if self.gate_starved_deadline.is_none() {
                self.gate_starved_deadline = Some(now + self.rtt.rto());
            }
        } else {
            self.gate_starved_deadline = None;
        }
    }

    fn after_deposit_progress(&mut self, now: SimTime) {
        let advanced = self.recvbuf.deposit();
        let fin_done = self.try_process_peer_fin(now);
        if advanced {
            self.events.push(ConnEvent::DataReadable);
            if let Some(t) = self.telemetry.as_deref() {
                if let Some(since) = self.gate_stall_since.take() {
                    let stalled = now.duration_since(since);
                    self.gate_stall_total += stalled;
                    t.h_gate_stall_us.record(stalled.as_nanos() / 1_000);
                    // Only stalls long enough to matter become timeline
                    // events; sub-millisecond gate round trips are
                    // steady-state chain operation and would swamp the
                    // timeline.
                    if stalled >= SimDuration::from_millis(1) {
                        t.obs.event(
                            now.as_nanos(),
                            kinds::GATE_STALL,
                            &[
                                ("quad", self.quad.to_string()),
                                ("stalled_us", (stalled.as_nanos() / 1_000).to_string()),
                            ],
                        );
                    }
                }
            }
        }
        if advanced || fin_done {
            self.schedule_ack(now);
        }
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Writes application data; returns how many bytes were accepted.
    /// Writing on a connection that cannot send (closed, closing) returns 0.
    pub fn write(&mut self, data: &[u8], now: SimTime) -> usize {
        if !matches!(self.state, TcpState::Established | TcpState::CloseWait)
            && self.state != TcpState::SynSent
            && self.state != TcpState::SynRcvd
        {
            return 0;
        }
        if self.fin_queued {
            return 0;
        }
        let n = self.sendbuf.write(data);
        if n < data.len() {
            self.send_was_full = true;
        }
        self.pump(now);
        n
    }

    /// Reads up to `max` bytes of in-order received data.
    pub fn read(&mut self, max: usize, now: SimTime) -> Vec<u8> {
        let data = self.recvbuf.read(max);
        if !data.is_empty() {
            self.maybe_send_window_update(now);
        }
        data
    }

    /// Initiates a graceful close: a FIN follows any buffered data.
    pub fn close(&mut self, now: SimTime) {
        if self.fin_queued {
            return;
        }
        match self.state {
            TcpState::Established | TcpState::SynRcvd => {
                self.fin_queued = true;
                self.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.fin_queued = true;
                self.state = TcpState::LastAck;
            }
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                self.events.push(ConnEvent::Closed);
            }
            _ => {}
        }
        self.pump(now);
    }

    /// Aborts the connection with a RST.
    pub fn abort(&mut self, now: SimTime) {
        if self.state != TcpState::Closed {
            self.emit(
                TcpSegment {
                    src_port: self.quad.local.port,
                    dst_port: self.quad.remote.port,
                    seq: self.snd.nxt,
                    ack: self.rcv_nxt(),
                    flags: TcpFlags {
                        rst: true,
                        ack: true,
                        ..TcpFlags::default()
                    },
                    window: 0,
                    payload: PacketBuf::new(),
                },
                now,
            );
            self.enter_closed(ConnEvent::Reset);
        }
    }

    /// Drains queued outgoing segments.
    pub fn take_segments(&mut self) -> Vec<TcpSegment> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains queued application events.
    pub fn take_events(&mut self) -> Vec<ConnEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains queued outgoing segments into `out` by swapping backing
    /// stores: the connection inherits `out`'s (cleared) allocation, so a
    /// caller-owned scratch vector is recycled across every segment the
    /// stack processes instead of each connection re-growing its outbox.
    pub fn take_segments_into(&mut self, out: &mut Vec<TcpSegment>) {
        out.clear();
        std::mem::swap(&mut self.outbox, out);
    }

    /// Drains queued application events into `out`; see
    /// [`take_segments_into`](Self::take_segments_into).
    pub fn take_events_into(&mut self, out: &mut Vec<ConnEvent>) {
        out.clear();
        std::mem::swap(&mut self.events, out);
    }

    /// The earliest pending timer deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [
            self.rto_deadline,
            self.delack_deadline,
            self.timewait_deadline,
            self.persist_deadline,
            self.keepalive_deadline,
            self.gate_starved_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Approximate memory footprint of this connection in bytes: the
    /// structure itself plus the heap behind its socket buffers and queues.
    /// Depends only on the deterministic schedule (never on wall-clock), so
    /// scale benches can report per-flow memory reproducibly.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.sendbuf.heap_bytes()
            + self.recvbuf.heap_bytes()
            + self.outbox.capacity() * std::mem::size_of::<TcpSegment>()
            + self.events.capacity() * std::mem::size_of::<ConnEvent>()
    }

    // ------------------------------------------------------------------
    // Segment processing
    // ------------------------------------------------------------------

    /// Feeds one incoming segment.
    pub fn on_segment(&mut self, seg: TcpSegment, now: SimTime) {
        self.segments_received += 1;
        // Any inbound segment is proof of life: reset keepalive state.
        self.keepalive_probes_sent = 0;
        self.rearm_keepalive(now);
        if seg.flags.rst {
            self.on_rst(&seg);
            return;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.on_segment_syn_sent(seg, now),
            _ => self.on_segment_synchronized(seg, now),
        }
        self.sample_telemetry();
    }

    /// Samples the srtt/rto/cwnd trajectory once per processed segment.
    fn sample_telemetry(&self) {
        let Some(t) = self.telemetry.as_deref() else {
            return;
        };
        if let Some(srtt) = self.rtt.srtt() {
            t.h_srtt_us.record(srtt.as_nanos() / 1_000);
        }
        t.h_rto_us.record(self.rtt.rto().as_nanos() / 1_000);
        t.h_cwnd.record(u64::from(self.cc.cwnd()));
    }

    fn on_rst(&mut self, seg: &TcpSegment) {
        // Only accept RSTs that plausibly belong to this connection.
        let ok = match self.state {
            TcpState::SynSent => seg.flags.ack && seg.ack == self.snd.nxt,
            _ => seg
                .seq
                .in_window(self.rcv_nxt(), self.recvbuf.window().max(1)),
        };
        if ok {
            self.enter_closed(ConnEvent::Reset);
        }
    }

    fn on_segment_syn_sent(&mut self, seg: TcpSegment, now: SimTime) {
        if !(seg.flags.syn && seg.flags.ack) {
            return;
        }
        if seg.ack != self.snd.nxt {
            return; // does not ack our SYN
        }
        self.recvbuf = RecvBuffer::new(seg.seq + 1, self.cfg.recv_buf);
        self.last_advertised_window = self.recvbuf.window();
        self.snd.una = seg.ack;
        self.snd.wnd = u32::from(seg.window);
        self.snd.wl1 = seg.seq;
        self.snd.wl2 = seg.ack;
        // Karn: only sample the SYN round trip if the SYN was never
        // retransmitted.
        if self.retries == 0 {
            if let Some(sent_at) = self.syn_sent_at {
                self.rtt.sample(now.duration_since(sent_at));
            }
        }
        self.state = TcpState::Established;
        self.clear_rto();
        self.retries = 0;
        self.rearm_keepalive(now);
        self.events.push(ConnEvent::Established);
        // ACK the SYN-ACK (third step of the handshake), then any data.
        self.send_pure_ack(now);
        self.pump(now);
    }

    fn on_segment_synchronized(&mut self, seg: TcpSegment, now: SimTime) {
        // Duplicate SYN (e.g. retransmitted by the client because our
        // gated SYN-ACK is still held back): re-answer it.
        if seg.flags.syn {
            if self.state == TcpState::SynRcvd {
                self.try_send_synack(now);
            } else {
                self.send_pure_ack(now);
            }
            return;
        }

        if !seg.flags.ack {
            return; // every post-handshake segment must carry ACK
        }

        // --- ACK processing -------------------------------------------
        let ack = seg.ack;
        if ack.after(self.max_sent) {
            // Acks something we have not sent: challenge.
            self.send_pure_ack(now);
            return;
        }
        if ack.after(self.snd.una) {
            let acked = ack - self.snd.una;
            let data_acked = self.handshake_aware_acked(ack, acked);
            self.snd.una = ack;
            self.sendbuf.ack_to(ack);
            if self.snd.nxt.before(ack) {
                // A pre-rollback transmission was delivered after all.
                self.snd.nxt = ack;
            }
            if self.recover.is_some_and(|r| ack.after_eq(r)) {
                self.recover = None;
            }
            self.bytes_acked_total += u64::from(data_acked);
            self.cc.on_new_ack(data_acked.max(1));
            self.retries = 0;
            if data_acked > 0 {
                self.events.push(ConnEvent::AckProgress);
            }
            // RTT sample (Karn: only if the probe range is fully covered).
            if let Some((cover, sent_at)) = self.rtt_probe {
                if ack.after_eq(cover) {
                    self.rtt.sample(now.duration_since(sent_at));
                    self.rtt_probe = None;
                }
            }
            if self.state == TcpState::SynRcvd {
                self.state = TcpState::Established;
                self.rearm_keepalive(now);
                self.events.push(ConnEvent::Established);
            }
            self.on_fin_acked_if_complete(ack, now);
            // Re-arm or clear the retransmission timer.
            if self.snd.una == self.snd.nxt {
                self.clear_rto();
            } else {
                self.arm_rto(now);
            }
            if self.send_was_full && self.sendbuf.room() > 0 {
                self.send_was_full = false;
                self.events.push(ConnEvent::SendSpace);
            }
        } else if ack == self.snd.una
            && seg.payload.is_empty()
            && !seg.flags.fin
            && self.snd.una != self.snd.nxt
            && u32::from(seg.window) == self.snd.wnd
        {
            // Pure duplicate ACK while data is outstanding.
            if self.cc.on_dup_ack() {
                self.fast_retransmit(now);
            }
        }

        // Window update (RFC 793 WL1/WL2 check).
        if self.snd.wl1.before(seg.seq) || (self.snd.wl1 == seg.seq && self.snd.wl2.before_eq(ack))
        {
            let was_zero = self.snd.wnd == 0;
            self.snd.wnd = u32::from(seg.window);
            self.snd.wl1 = seg.seq;
            self.snd.wl2 = ack;
            if was_zero && self.snd.wnd > 0 {
                self.persist_deadline = None;
            }
        }

        // A zero-length segment below RCV.NXT is a keepalive probe (or a
        // stale duplicate): answer with a plain ACK so the prober sees
        // life. A normal ACK carries seq == RCV.NXT and is not affected.
        if seg.payload.is_empty() && !seg.flags.fin && seg.seq.before(self.rcv_nxt()) {
            self.send_pure_ack(now);
        }

        // --- data processing ------------------------------------------
        if !seg.payload.is_empty() {
            let coverage_before = self.coverage();
            let advanced = self.recvbuf.offer(seg.seq, &seg.payload);
            let is_duplicate = self.coverage() == coverage_before;
            if is_duplicate {
                self.duplicate_data_count += 1;
                if let Some(t) = self.telemetry.as_deref() {
                    t.c_duplicates.inc();
                }
                self.events.push(ConnEvent::DuplicateData);
                // Duplicates get an immediate ACK to resynchronise.
                self.send_pure_ack(now);
            } else if advanced {
                self.events.push(ConnEvent::DataReadable);
                self.schedule_ack(now);
            } else {
                // Out of order (or gated): immediate duplicate ACK so the
                // sender's fast-retransmit machinery sees it.
                self.send_pure_ack(now);
            }
            if self.telemetry.is_some()
                && self.gate_stall_since.is_none()
                && self.recvbuf.is_gated()
                && self.recvbuf.staged_bytes() > 0
            {
                self.gate_stall_since = Some(now);
            }
        }

        // --- FIN processing -------------------------------------------
        if seg.flags.fin {
            let fin_slot = seg.seq + seg.payload.len() as u32;
            if self.peer_fin.is_none() && !self.peer_fin_processed {
                self.peer_fin = Some(fin_slot);
            }
            if !self.try_process_peer_fin(now) {
                // FIN not yet processable (data missing or gate closed):
                // ack what we have.
                self.send_pure_ack(now);
            }
        }

        // Send whatever the new window/ack state allows.
        self.pump(now);
        if self.state == TcpState::TimeWait && seg.flags.fin {
            // Retransmitted FIN in TIME-WAIT: re-ack it.
            self.send_pure_ack(now);
        }
    }

    /// Splits an ACK advance into handshake slots (SYN/FIN) vs data bytes.
    fn handshake_aware_acked(&self, ack: SeqNum, advance: u32) -> u32 {
        let mut data = advance;
        // SYN slot: una == iss means our SYN/SYN-ACK was unacked.
        if self.snd.una == self.snd.iss {
            data = data.saturating_sub(1);
        }
        if let Some(fin) = self.fin_seq {
            if ack.after(fin) {
                data = data.saturating_sub(1);
            }
        }
        data
    }

    fn on_fin_acked_if_complete(&mut self, ack: SeqNum, now: SimTime) {
        let Some(fin) = self.fin_seq else {
            return;
        };
        if !ack.after(fin) {
            return;
        }
        match self.state {
            TcpState::FinWait1 => {
                self.state = TcpState::FinWait2;
            }
            TcpState::Closing => {
                self.enter_time_wait(now);
            }
            TcpState::LastAck => {
                self.enter_closed(ConnEvent::Closed);
            }
            _ => {}
        }
    }

    /// Processes the peer's FIN once all data before it is deposited and
    /// the deposit gate (if any) permits the FIN slot itself.
    fn try_process_peer_fin(&mut self, now: SimTime) -> bool {
        let Some(fin_slot) = self.peer_fin else {
            return false;
        };
        if self.rcv_nxt() != fin_slot {
            return false;
        }
        if self.recvbuf.is_gated() {
            // The FIN may only be consumed once the successor has seen it:
            // successor reports ack > fin_slot once it processed the FIN.
            self.recvbuf.gate_deposits_below(self.rcv_nxt()); // no-op keep-monotonic
            if !self.fin_gate_open() {
                return false;
            }
        }
        // Consume the FIN slot.
        self.recvbuf.consume_slot();
        self.peer_fin = None;
        self.peer_fin_processed = true;
        self.events.push(ConnEvent::PeerFin);
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                // Our FIN not yet acked: simultaneous close.
                self.state = TcpState::Closing;
            }
            TcpState::FinWait2 => self.enter_time_wait(now),
            _ => {}
        }
        self.send_pure_ack(now);
        true
    }

    fn fin_gate_open(&self) -> bool {
        // The deposit gate stores a byte-offset limit; the FIN occupies one
        // sequence slot past the data. The successor's ack passes the FIN
        // once it reports ack > fin_slot, which gate_deposits_below records
        // as limit >= fin_slot + 1. We approximate by asking the recv
        // buffer whether one more slot could deposit.
        self.recvbuf.gate_allows_one_more()
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Advances connection timers to `now`.
    pub fn on_tick(&mut self, now: SimTime) {
        if let Some(t) = self.timewait_deadline {
            if now >= t {
                self.timewait_deadline = None;
                self.enter_closed(ConnEvent::Closed);
                return;
            }
        }
        if let Some(t) = self.delack_deadline {
            if now >= t {
                self.delack_deadline = None;
                self.send_pure_ack(now);
            }
        }
        if let Some(t) = self.persist_deadline {
            if now >= t {
                self.persist_deadline = None;
                self.send_window_probe(now);
            }
        }
        if let Some(t) = self.rto_deadline {
            if now >= t {
                self.rto_deadline = None;
                self.on_rto(now);
            }
        }
        if let Some(t) = self.keepalive_deadline {
            if now >= t {
                self.keepalive_deadline = None;
                self.on_keepalive(now);
            }
        }
        if let Some(t) = self.gate_starved_deadline {
            if now >= t {
                self.gate_starved_deadline = None;
                if self.gate_blocked_work() {
                    self.gate_starved_count += 1;
                    self.events.push(ConnEvent::GateStarved);
                    if let Some(t) = self.telemetry.as_deref() {
                        t.obs.event(
                            now.as_nanos(),
                            kinds::GATE_STALL,
                            &[
                                ("quad", self.quad.to_string()),
                                ("starved", "send_gate".to_string()),
                            ],
                        );
                    }
                    // Solicit a fresh cumulative ACK from the client with a
                    // keepalive-shaped probe. The redirector replicates the
                    // client's answer to every replica, restoring ack state
                    // that a partition may have dropped on the backup
                    // branches — without it, backups wedge with SND.UNA
                    // frozen at a stale value (their retransmissions divert
                    // into the ack channel, so the client can never refresh
                    // them on its own) and the whole chain deadlocks on a
                    // quiescent connection.
                    if self.state.is_open() && self.state != TcpState::SynRcvd {
                        self.send_keepalive_probe(now);
                    }
                    // Keep firing once per RTO while the stall persists so
                    // the failure estimator can accumulate to its threshold.
                    self.gate_starved_deadline = Some(now + self.rtt.rto());
                }
            }
        }
    }

    fn rearm_keepalive(&mut self, now: SimTime) {
        if let Some(ka) = self.cfg.keepalive {
            if self.state.is_open() {
                self.keepalive_deadline = Some(now + ka.idle);
            }
        }
    }

    fn on_keepalive(&mut self, now: SimTime) {
        let Some(ka) = self.cfg.keepalive else {
            return;
        };
        if !self.state.is_open() {
            return;
        }
        if self.keepalive_probes_sent >= ka.probes {
            // The peer is gone: reset so the application can reap.
            self.abort(now);
            return;
        }
        self.keepalive_probes_sent += 1;
        self.send_keepalive_probe(now);
        self.keepalive_deadline = Some(now + ka.interval);
    }

    /// Classic keepalive probe: a zero-length segment one slot below
    /// SND.NXT; a live peer answers with a plain ACK.
    fn send_keepalive_probe(&mut self, now: SimTime) {
        self.emit(
            TcpSegment {
                src_port: self.quad.local.port,
                dst_port: self.quad.remote.port,
                seq: self.snd.nxt - 1,
                ack: self.rcv_nxt(),
                flags: TcpFlags::ACK,
                window: self.advertised_window(),
                payload: PacketBuf::new(),
            },
            now,
        );
    }

    fn on_rto(&mut self, now: SimTime) {
        self.retries += 1;
        self.events.push(ConnEvent::RetransmitTimeout);
        if self.retries > self.cfg.max_retries {
            self.abort(now);
            return;
        }
        self.rtt.on_timeout();
        self.cc.on_timeout();
        self.rtt_probe = None; // Karn: never sample retransmitted data
        match self.state {
            TcpState::SynSent => {
                self.retransmit_count += 1;
                let iss = self.snd.iss;
                self.emit(
                    TcpSegment {
                        src_port: self.quad.local.port,
                        dst_port: self.quad.remote.port,
                        seq: iss,
                        ack: SeqNum::new(0),
                        flags: TcpFlags::SYN,
                        window: self.advertised_window(),
                        payload: PacketBuf::new(),
                    },
                    now,
                );
            }
            TcpState::SynRcvd => {
                self.retransmit_count += 1;
                self.try_send_synack(now);
            }
            _ => {
                // Go-back-N: treat everything past SND.UNA as lost. Roll
                // SND.NXT back and let slow start clock the window out
                // again; pump() re-sends from the buffer.
                let old_nxt = self.snd.nxt;
                if old_nxt != self.snd.una {
                    if let Some(fin) = self.fin_seq {
                        if self.snd.una.before_eq(fin) {
                            // The FIN slot rolls back too; pump re-reserves
                            // the same slot when it drains the buffer.
                            self.fin_seq = None;
                        }
                    }
                    self.snd.nxt = self.snd.una;
                    self.recover = Some(match self.recover {
                        Some(r) => r.max_seq(old_nxt),
                        None => old_nxt,
                    });
                    self.pump(now);
                }
            }
        }
        self.arm_rto(now);
    }

    fn fast_retransmit(&mut self, now: SimTime) {
        self.rtt_probe = None;
        self.retransmit_segment_at_una(now);
        self.arm_rto(now);
    }

    fn retransmit_segment_at_una(&mut self, now: SimTime) {
        let una = self.snd.una;
        // Handshake slots first.
        if una == self.snd.iss {
            match self.state {
                TcpState::SynRcvd | TcpState::Established => {
                    self.try_send_synack(now);
                    return;
                }
                _ => {}
            }
        }
        let data = self.sendbuf.slice(una, self.cfg.mss);
        if data.is_empty() {
            // Only a FIN may be outstanding.
            if let Some(fin) = self.fin_seq {
                if una.before_eq(fin) && !self.gate_blocks(fin) {
                    self.retransmit_count += 1;
                    self.emit_data_segment(fin, PacketBuf::new(), true, now);
                }
            }
            return;
        }
        // Honour the send gate even on retransmission (it is monotonic, so
        // anything previously sent stays allowed).
        let mut len = data.len();
        if self.send_gated {
            match self.send_gate {
                None => return,
                Some(g) => {
                    if !una.before(g) {
                        return;
                    }
                    len = len.min((g - una) as usize);
                }
            }
        }
        let payload = data[..len].to_vec();
        let fin_here = self
            .fin_seq
            .map(|f| f == una + payload.len() as u32 && !self.gate_blocks(f))
            .unwrap_or(false);
        self.retransmit_count += 1;
        self.emit_data_segment(una, payload.into(), fin_here, now);
    }

    fn send_window_probe(&mut self, now: SimTime) {
        // One byte beyond the advertised window keeps the loop alive. The
        // byte counts as sent: if the window has silently reopened the peer
        // will accept and acknowledge it. The ft send gate applies to
        // probes like any other transmission (§4.3's ordering invariant).
        if self.gate_blocks(self.snd.nxt) {
            self.persist_deadline = Some(now + self.rtt.rto());
            return;
        }
        let probe = self.sendbuf.slice(self.snd.nxt, 1);
        if probe.is_empty() {
            return;
        }
        let seq = self.snd.nxt;
        self.emit_data_segment(seq, probe.into(), false, now);
        self.snd.nxt = seq + 1;
        self.arm_rto(now);
        self.persist_deadline = Some(now + self.rtt.rto());
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Attempts to transmit everything permitted by the windows, Nagle, and
    /// the send gate.
    pub fn pump(&mut self, now: SimTime) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::LastAck
                | TcpState::Closing
        ) {
            return;
        }
        loop {
            let wnd = self.snd.wnd.min(self.cc.cwnd());
            let in_flight = self.snd.nxt - self.snd.una;
            let usable = wnd.saturating_sub(in_flight);
            // SND.NXT sits one past the buffer end once our FIN is out;
            // wrapping subtraction would fabricate a giant backlog.
            let buf_end = self.sendbuf.end();
            let pending = if self.snd.nxt.before(buf_end) {
                buf_end - self.snd.nxt
            } else {
                0
            };
            let mut len = usable.min(pending).min(self.cfg.mss as u32) as usize;

            if self.send_gated {
                match self.send_gate {
                    None => len = 0,
                    Some(g) => {
                        if self.snd.nxt.before(g) {
                            len = len.min((g - self.snd.nxt) as usize);
                        } else {
                            len = 0;
                        }
                    }
                }
            }

            // Nagle: hold sub-MSS segments while data is in flight, unless
            // a FIN is ready to ride along (closing flushes).
            if self.cfg.nagle
                && len > 0
                && len < self.cfg.mss
                && in_flight > 0
                && !self.fin_ready(len as u32)
            {
                break;
            }

            // Zero-window handling: arm the persist timer.
            if len == 0 && pending > 0 && self.snd.wnd == 0 && in_flight == 0 {
                if self.persist_deadline.is_none() {
                    self.persist_deadline = Some(now + self.rtt.rto());
                }
                break;
            }

            let fin_now = self.fin_ready(len as u32);
            if len == 0 && !fin_now {
                break;
            }

            let payload: PacketBuf = self.sendbuf.slice(self.snd.nxt, len).into();
            debug_assert_eq!(payload.len(), len);
            let seq = self.snd.nxt;
            let is_retransmission = self.recover.is_some_and(|r| seq.before(r));
            if is_retransmission {
                self.retransmit_count += 1;
            } else if self.rtt_probe.is_none() && len > 0 {
                // Karn: only probe data that has never been retransmitted.
                self.rtt_probe = Some((seq + len as u32, now));
            }
            self.emit_data_segment(seq, payload, fin_now, now);
            self.snd.nxt = seq + len as u32 + fin_now as u32;
            if fin_now {
                self.fin_seq = Some(seq + len as u32);
            }
            self.arm_rto(now);
            if fin_now {
                break;
            }
        }
        self.update_gate_starvation(now);
    }

    /// Whether the FIN can ride after `extra` bytes we are about to send.
    fn fin_ready(&self, extra: u32) -> bool {
        if !self.fin_queued || self.fin_seq.is_some() {
            return false;
        }
        let after = self.snd.nxt + extra;
        if after != self.sendbuf.end() {
            return false; // data still unsent
        }
        !self.gate_blocks(after)
    }

    fn try_send_synack(&mut self, now: SimTime) {
        if self.state != TcpState::SynRcvd {
            return;
        }
        self.update_gate_starvation(now);
        if self.gate_blocks(self.snd.iss) {
            return; // held until the chain successor reports its SYN-ACK
        }
        self.emit(
            TcpSegment {
                src_port: self.quad.local.port,
                dst_port: self.quad.remote.port,
                seq: self.snd.iss,
                ack: self.rcv_nxt(),
                flags: TcpFlags::SYN_ACK,
                window: self.advertised_window(),
                payload: PacketBuf::new(),
            },
            now,
        );
    }

    fn emit_data_segment(&mut self, seq: SeqNum, payload: PacketBuf, fin: bool, now: SimTime) {
        self.bytes_sent += payload.len() as u64;
        let psh = !payload.is_empty();
        self.delack_deadline = None; // this segment carries our ACK
        self.emit(
            TcpSegment {
                src_port: self.quad.local.port,
                dst_port: self.quad.remote.port,
                seq,
                ack: self.rcv_nxt(),
                flags: TcpFlags {
                    ack: true,
                    psh,
                    fin,
                    ..TcpFlags::default()
                },
                window: self.advertised_window(),
                payload,
            },
            now,
        );
    }

    fn send_pure_ack(&mut self, now: SimTime) {
        self.delack_deadline = None;
        self.last_advertised_window = self.recvbuf.window();
        self.emit(
            TcpSegment {
                src_port: self.quad.local.port,
                dst_port: self.quad.remote.port,
                seq: self.snd.nxt,
                ack: self.rcv_nxt(),
                flags: TcpFlags::ACK,
                window: self.advertised_window(),
                payload: PacketBuf::new(),
            },
            now,
        );
    }

    fn schedule_ack(&mut self, now: SimTime) {
        if !self.cfg.delayed_ack {
            self.send_pure_ack(now);
            return;
        }
        match self.delack_deadline {
            Some(_) => {
                // Second in-order segment: ack immediately (RFC 1122).
                self.send_pure_ack(now);
            }
            None => {
                self.delack_deadline = Some(now + ACK_DELAY);
            }
        }
    }

    fn maybe_send_window_update(&mut self, now: SimTime) {
        // Only volunteer a window update when the previously advertised
        // window was too small to make progress (silly-window avoidance);
        // ordinary openings ride on the next regular ACK.
        let current = self.recvbuf.window();
        let starved = self.last_advertised_window < self.cfg.mss as u32;
        if starved && current >= self.cfg.mss as u32 {
            self.send_pure_ack(now);
        }
    }

    fn advertised_window(&self) -> u16 {
        self.recvbuf.window().min(u32::from(u16::MAX)) as u16
    }

    fn coverage(&self) -> u64 {
        self.recvbuf.coverage()
    }

    fn emit(&mut self, seg: TcpSegment, _now: SimTime) {
        self.segments_sent += 1;
        if seg.seq_len() > 0 {
            self.max_sent = self.max_sent.max_seq(seg.seq_end());
        }
        self.outbox.push(seg);
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rtt.rto());
    }

    fn clear_rto(&mut self) {
        self.rto_deadline = None;
        self.retries = 0;
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.clear_rto();
        self.timewait_deadline = Some(now + self.cfg.time_wait);
    }

    fn enter_closed(&mut self, event: ConnEvent) {
        self.state = TcpState::Closed;
        self.rto_deadline = None;
        self.delack_deadline = None;
        self.timewait_deadline = None;
        self.persist_deadline = None;
        self.keepalive_deadline = None;
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SockAddr;
    use hydranet_netsim::packet::IpAddr;

    const LATENCY: SimDuration = SimDuration::from_millis(5);

    fn quads() -> (Quad, Quad) {
        let c = SockAddr::new(IpAddr::new(10, 0, 0, 1), 40_000);
        let s = SockAddr::new(IpAddr::new(10, 0, 0, 2), 80);
        (Quad::new(c, s), Quad::new(s, c))
    }

    type DropFn = Box<dyn FnMut(bool, &TcpSegment) -> bool>;

    /// A two-endpoint harness that shuttles segments with fixed latency and
    /// an arbitrary per-segment drop predicate.
    struct Pair {
        client: Connection,
        server: Option<Connection>,
        server_cfg: TcpConfig,
        now: SimTime,
        /// (arrival time, destined-to-server, segment)
        wire: Vec<(SimTime, bool, TcpSegment)>,
        /// Called for each transmission; returning true drops the segment.
        drop_fn: DropFn,
        server_received: Vec<u8>,
        client_received: Vec<u8>,
        client_events: Vec<ConnEvent>,
        server_events: Vec<ConnEvent>,
        /// Read continuously (keep windows open)?
        auto_read: bool,
    }

    impl Pair {
        fn new(client_cfg: TcpConfig, server_cfg: TcpConfig) -> Self {
            let (cq, _) = quads();
            let now = SimTime::ZERO;
            let client = Connection::connect(cq, client_cfg, SeqNum::new(1000), now);
            let mut pair = Pair {
                client,
                server: None,
                server_cfg,
                now,
                wire: Vec::new(),
                drop_fn: Box::new(|_, _| false),
                server_received: Vec::new(),
                client_received: Vec::new(),
                client_events: Vec::new(),
                server_events: Vec::new(),
                auto_read: true,
            };
            pair.collect(false);
            pair
        }

        fn with_drop(mut self, mut f: impl FnMut(bool, &TcpSegment) -> bool + 'static) -> Self {
            // Re-filter anything already on the wire (the client's initial
            // SYN is sent during `new`).
            self.wire.retain(|(_, to_server, seg)| !f(*to_server, seg));
            self.drop_fn = Box::new(f);
            self
        }

        /// Gathers outbox segments from one side onto the wire.
        fn collect(&mut self, from_server: bool) {
            let segs = if from_server {
                self.server
                    .as_mut()
                    .map(|s| s.take_segments())
                    .unwrap_or_default()
            } else {
                self.client.take_segments()
            };
            for seg in segs {
                if (self.drop_fn)(!from_server, &seg) {
                    continue;
                }
                self.wire.push((self.now + LATENCY, !from_server, seg));
            }
            if from_server {
                if let Some(s) = self.server.as_mut() {
                    self.server_events.extend(s.take_events());
                }
            } else {
                self.client_events.extend(self.client.take_events());
            }
        }

        fn next_event_time(&self) -> Option<SimTime> {
            let wire_min = self.wire.iter().map(|(t, _, _)| *t).min();
            let client_t = self.client.next_deadline();
            let server_t = self.server.as_ref().and_then(|s| s.next_deadline());
            [wire_min, client_t, server_t].into_iter().flatten().min()
        }

        /// Runs the exchange until quiescent or `deadline`.
        fn run_until(&mut self, deadline: SimTime) {
            for _ in 0..100_000 {
                let Some(t) = self.next_event_time() else {
                    break;
                };
                if t > deadline {
                    break;
                }
                self.now = t;
                // Deliver due segments (stable order: wire vector order).
                let mut i = 0;
                while i < self.wire.len() {
                    if self.wire[i].0 <= self.now {
                        let (_, to_server, seg) = self.wire.remove(i);
                        if to_server {
                            self.deliver_to_server(seg);
                        } else {
                            self.client.on_segment(seg, self.now);
                            self.collect(false);
                            self.drain_client_reads();
                        }
                    } else {
                        i += 1;
                    }
                }
                // Fire timers.
                self.client.on_tick(self.now);
                self.collect(false);
                if let Some(s) = self.server.as_mut() {
                    s.on_tick(self.now);
                    self.collect(true);
                }
                self.drain_reads();
            }
            if self.now < deadline {
                self.now = deadline;
            }
        }

        fn deliver_to_server(&mut self, seg: TcpSegment) {
            if let Some(server) = self.server.as_mut() {
                server.on_segment(seg, self.now);
            } else {
                assert!(seg.flags.syn, "first server segment must be SYN, got {seg}");
                let (_, sq) = quads();
                self.server = Some(Connection::accept(
                    sq,
                    self.server_cfg.clone(),
                    SeqNum::new(77_000),
                    &seg,
                    self.now,
                ));
            }
            self.collect(true);
            self.drain_reads();
        }

        fn drain_reads(&mut self) {
            if !self.auto_read {
                return;
            }
            if let Some(s) = self.server.as_mut() {
                loop {
                    let data = s.read(4096, self.now);
                    if data.is_empty() {
                        break;
                    }
                    self.server_received.extend(data);
                }
                self.collect(true);
            }
            self.drain_client_reads();
        }

        fn drain_client_reads(&mut self) {
            if !self.auto_read {
                return;
            }
            loop {
                let data = self.client.read(4096, self.now);
                if data.is_empty() {
                    break;
                }
                self.client_received.extend(data);
            }
            self.collect(false);
        }

        fn client_write(&mut self, data: &[u8]) -> usize {
            let n = self.client.write(data, self.now);
            self.collect(false);
            n
        }

        fn server_write(&mut self, data: &[u8]) -> usize {
            let n = self
                .server
                .as_mut()
                .expect("server up")
                .write(data, self.now);
            self.collect(true);
            n
        }

        fn server(&mut self) -> &mut Connection {
            self.server.as_mut().expect("server up")
        }
    }

    fn nagle_off() -> TcpConfig {
        TcpConfig {
            nagle: false,
            ..TcpConfig::default()
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        p.run_until(SimTime::from_secs(1));
        assert_eq!(p.client.state(), TcpState::Established);
        assert_eq!(p.server().state(), TcpState::Established);
        assert!(p.client_events.contains(&ConnEvent::Established));
        assert!(p.server_events.contains(&ConnEvent::Established));
    }

    #[test]
    fn small_message_round_trip() {
        let mut p = Pair::new(nagle_off(), nagle_off());
        p.run_until(SimTime::from_millis(100));
        p.client_write(b"ping");
        p.run_until(SimTime::from_millis(200));
        assert_eq!(p.server_received, b"ping");
        p.server_write(b"pong!");
        p.run_until(SimTime::from_millis(300));
        assert_eq!(p.client_received, b"pong!");
    }

    #[test]
    fn bulk_transfer_integrity() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        p.run_until(SimTime::from_millis(100));
        let data = pattern(200_000);
        let mut written = 0;
        while written < data.len() {
            written += p.client_write(&data[written..]);
            p.run_until(p.now + SimDuration::from_millis(50));
        }
        p.run_until(p.now + SimDuration::from_secs(5));
        assert_eq!(p.server_received.len(), data.len());
        assert_eq!(p.server_received, data);
    }

    #[test]
    fn transfer_survives_heavy_loss() {
        // Drop every 7th segment in both directions.
        let mut n = 0u64;
        let mut p = Pair::new(nagle_off(), nagle_off()).with_drop(move |_, _| {
            n += 1;
            n.is_multiple_of(7)
        });
        p.run_until(SimTime::from_secs(2));
        let data = pattern(30_000);
        let mut written = 0;
        while written < data.len() {
            written += p.client_write(&data[written..]);
            p.run_until(p.now + SimDuration::from_millis(200));
        }
        p.run_until(p.now + SimDuration::from_secs(60));
        assert_eq!(p.server_received, data, "stream corrupted under loss");
        assert!(p.client.retransmit_count() > 0);
    }

    #[test]
    fn fast_retransmit_recovers_quickly() {
        // Drop exactly one mid-stream data segment.
        let mut dropped = false;
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default()).with_drop(
            move |to_server, seg| {
                if to_server && !dropped && !seg.payload.is_empty() && seg.seq.raw() > 1500 + 1000 {
                    dropped = true;
                    return true;
                }
                false
            },
        );
        p.run_until(SimTime::from_millis(100));
        let data = pattern(60_000);
        let mut written = 0;
        while written < data.len() {
            written += p.client_write(&data[written..]);
            p.run_until(p.now + SimDuration::from_millis(20));
        }
        // Run in small steps and record when the stream completes, since
        // run_until always advances the clock to its deadline.
        let start = p.now;
        let mut completed_at = None;
        for _ in 0..200 {
            p.run_until(p.now + SimDuration::from_millis(50));
            if p.server_received.len() == data.len() {
                completed_at = Some(p.now);
                break;
            }
        }
        assert_eq!(p.server_received, data);
        assert!(p.client.retransmit_count() >= 1);
        // Fast retransmit means recovery well before repeated 1 s RTOs
        // would have delivered it.
        let elapsed = completed_at
            .expect("transfer completed")
            .duration_since(start);
        assert!(elapsed < SimDuration::from_secs(5), "took {elapsed}");
    }

    #[test]
    fn graceful_close_four_way() {
        let mut p = Pair::new(nagle_off(), nagle_off());
        p.run_until(SimTime::from_millis(100));
        p.client_write(b"bye");
        p.client.close(p.now);
        p.collect(false);
        p.run_until(p.now + SimDuration::from_millis(100));
        assert_eq!(p.server_received, b"bye");
        assert!(p.server_events.contains(&ConnEvent::PeerFin));
        assert_eq!(p.server().state(), TcpState::CloseWait);
        let now = p.now;
        p.server().close(now);
        p.collect(true);
        p.run_until(p.now + SimDuration::from_millis(200));
        assert!(p.client_events.contains(&ConnEvent::PeerFin));
        assert_eq!(p.server().state(), TcpState::Closed);
        assert_eq!(p.client.state(), TcpState::TimeWait);
        // TIME-WAIT expires.
        p.run_until(p.now + SimDuration::from_secs(31));
        assert_eq!(p.client.state(), TcpState::Closed);
        assert!(
            p.client_events.contains(&ConnEvent::Closed) || p.client.state() == TcpState::Closed
        );
    }

    #[test]
    fn abort_resets_peer() {
        let mut p = Pair::new(nagle_off(), nagle_off());
        p.run_until(SimTime::from_millis(100));
        p.client.abort(p.now);
        p.collect(false);
        p.run_until(p.now + SimDuration::from_millis(100));
        assert_eq!(p.client.state(), TcpState::Closed);
        assert_eq!(p.server().state(), TcpState::Closed);
        assert!(p.server_events.contains(&ConnEvent::Reset));
    }

    #[test]
    fn nagle_coalesces_small_writes() {
        let run = |nagle: bool| {
            let cfg = TcpConfig {
                nagle,
                ..TcpConfig::default()
            };
            let mut p = Pair::new(cfg, TcpConfig::default());
            p.run_until(SimTime::from_millis(100));
            for _ in 0..50 {
                p.client_write(&[0xAB; 10]);
                p.run_until(p.now + SimDuration::from_millis(1));
            }
            p.run_until(p.now + SimDuration::from_secs(2));
            assert_eq!(p.server_received.len(), 500);
            p.client.segments_sent()
        };
        let with_nagle = run(true);
        let without_nagle = run(false);
        assert!(
            with_nagle < without_nagle,
            "nagle={with_nagle} vs no-nagle={without_nagle}"
        );
    }

    #[test]
    fn delayed_ack_halves_ack_traffic() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        p.run_until(SimTime::from_millis(100));
        let data = pattern(50_000);
        let mut written = 0;
        while written < data.len() {
            written += p.client_write(&data[written..]);
            p.run_until(p.now + SimDuration::from_millis(30));
        }
        p.run_until(p.now + SimDuration::from_secs(2));
        assert_eq!(p.server_received, data);
        let data_segments = p.client.segments_sent() - 1; // minus SYN
        let acks = p.server().segments_sent() - 1; // minus SYN-ACK
        assert!(
            acks * 3 < data_segments * 2,
            "expected ~half as many ACKs: {acks} acks for {data_segments} data segments"
        );
    }

    #[test]
    fn duplicate_data_is_detected() {
        let mut p = Pair::new(nagle_off(), nagle_off());
        p.run_until(SimTime::from_millis(100));
        p.client_write(b"payload!");
        p.run_until(p.now + SimDuration::from_millis(50));
        assert_eq!(p.server_received, b"payload!");
        // Hand-craft a retransmission of the same bytes.
        let dup = TcpSegment {
            src_port: 40_000,
            dst_port: 80,
            seq: SeqNum::new(1001),
            ack: p.client.rcv_nxt(),
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..TcpFlags::default()
            },
            window: 65535,
            payload: b"payload!".to_vec().into(),
        };
        let now = p.now;
        p.server().on_segment(dup.clone(), now);
        p.server().on_segment(dup, now);
        assert_eq!(p.server().duplicate_data_count(), 2);
        let events = p.server().take_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| **e == ConnEvent::DuplicateData)
                .count(),
            2
        );
    }

    #[test]
    fn send_gate_holds_synack_until_raised() {
        let (cq, sq) = quads();
        let now = SimTime::ZERO;
        let mut client = Connection::connect(cq, nagle_off(), SeqNum::new(500), now);
        let syn = client.take_segments().remove(0);
        let mut server = Connection::accept(sq, nagle_off(), SeqNum::new(9000), &syn, now);
        // Not gated: SYN-ACK flows immediately.
        assert_eq!(server.take_segments().len(), 1);

        let mut gated = Connection::accept(sq, nagle_off(), SeqNum::new(9000), &syn, now);
        gated.enable_send_gate();
        // accept() already emitted before the gate went up in this ordering;
        // construct the realistic order instead: gate first.
        let mut gated2 = {
            let mut c = Connection::connect(cq, nagle_off(), SeqNum::new(500), now);
            let syn = c.take_segments().remove(0);
            let mut s = Connection::accept(
                sq,
                TcpConfig {
                    nagle: false,
                    ..TcpConfig::default()
                },
                SeqNum::new(9000),
                &syn,
                now,
            );
            // In the stack, the gate is enabled before accept's SYN-ACK is
            // released; emulate by draining and gating, then asking for a
            // retransmit path.
            s.enable_send_gate();
            s
        };
        let _ = gated;
        // A retransmitted SYN while gated must not produce a SYN-ACK.
        gated2.take_segments();
        gated2.on_segment(syn.clone(), now);
        assert!(gated2.take_segments().is_empty(), "gated SYN-ACK leaked");
        // Successor reports its SYN-ACK progress: seq_end = ISS + 1 (same
        // ISS by construction).
        gated2.raise_send_gate(SeqNum::new(9001), now);
        let out = gated2.take_segments();
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.syn && out[0].flags.ack);
    }

    #[test]
    fn send_gate_limits_data() {
        let mut p = Pair::new(nagle_off(), nagle_off());
        p.run_until(SimTime::from_millis(100));
        // Gate the server's sending path.
        let _now = p.now;
        p.server().enable_send_gate();
        p.server_write(&pattern(1000));
        p.run_until(p.now + SimDuration::from_millis(50));
        assert_eq!(p.client_received.len(), 0, "gated data leaked");
        // Successor reports progress past the first 500 bytes.
        let base = p.server().snd_una();
        let now2 = p.now;
        p.server().raise_send_gate(base + 500, now2);
        p.collect(true);
        p.run_until(p.now + SimDuration::from_millis(50));
        assert_eq!(p.client_received.len(), 500); // bytes una..una+500
                                                  // Open fully.
        let now3 = p.now;
        p.server().disable_send_gate(now3);
        p.collect(true);
        p.run_until(p.now + SimDuration::from_millis(100));
        assert_eq!(p.client_received.len(), 1000);
    }

    #[test]
    fn gate_watchdog_fires_only_when_enabled() {
        for watchdog in [true, false] {
            let cfg = TcpConfig {
                nagle: false,
                gate_watchdog: watchdog,
                ..TcpConfig::default()
            };
            let mut p = Pair::new(cfg.clone(), cfg);
            p.run_until(SimTime::from_millis(100));
            // Gate the server's sending path with data queued behind it and
            // never report successor progress: the flow-control loop is
            // silently wedged (the client sees nothing to retransmit).
            p.server().enable_send_gate();
            p.server_write(&pattern(1000));
            p.run_until(p.now + SimDuration::from_secs(10));
            let fired = p.server().gate_starved_count();
            if watchdog {
                assert!(fired > 0, "watchdog armed but never fired");
            } else {
                assert_eq!(fired, 0, "disabled watchdog fired");
            }
        }
    }

    #[test]
    fn deposit_gate_stages_then_releases() {
        let mut p = Pair::new(nagle_off(), nagle_off());
        p.run_until(SimTime::from_millis(100));
        let now = p.now;
        p.server().enable_deposit_gate();
        p.client_write(b"gated-bytes");
        p.run_until(now + SimDuration::from_millis(50));
        assert_eq!(p.server_received.len(), 0);
        // The gate pins the server's ACKs, so the client's SND.UNA is still
        // the start of the gated data.
        let client_start = p.client.snd_una();
        let now2 = p.now;
        // Successor acked 5 bytes past start.
        p.server().raise_deposit_gate(client_start + 5, now2);
        p.drain_reads();
        assert_eq!(p.server_received, b"gated");
        let now3 = p.now;
        p.server().disable_deposit_gate(now3);
        p.drain_reads();
        assert_eq!(p.server_received, b"gated-bytes");
    }

    #[test]
    fn deposit_gate_suppresses_ack_progress() {
        let mut p = Pair::new(nagle_off(), nagle_off());
        p.run_until(SimTime::from_millis(100));
        p.server().enable_deposit_gate();
        p.client_write(b"0123456789");
        p.run_until(p.now + SimDuration::from_millis(200));
        // Client saw no ACK covering its data (server's rcv_nxt is pinned),
        // so snd_una stays at the data start.
        let server_rcv = p.server().rcv_nxt();
        assert_eq!(p.client.snd_una(), server_rcv);
        assert_eq!(p.server().readable_len(), 0);
    }

    #[test]
    fn zero_window_stalls_then_resumes() {
        let server_cfg = TcpConfig {
            recv_buf: 2048,
            nagle: false,
            ..TcpConfig::default()
        };
        let mut p = Pair::new(nagle_off(), server_cfg);
        p.auto_read = false;
        p.run_until(SimTime::from_millis(100));
        let data = pattern(8000);
        let mut written = 0;
        while written < data.len() {
            let n = p.client_write(&data[written..]);
            written += n;
            p.run_until(p.now + SimDuration::from_millis(100));
            if n == 0 {
                break;
            }
        }
        p.run_until(p.now + SimDuration::from_secs(3));
        // Server buffer full; client stalled.
        assert!(p.server().readable_len() >= 2000);
        let stalled_at = p.server_received.len();
        assert_eq!(stalled_at, 0);
        // Now read everything and let the window reopen.
        p.auto_read = true;
        for _ in 0..40 {
            p.drain_reads();
            let n = p.client_write(&data[written..]);
            written += n;
            p.run_until(p.now + SimDuration::from_millis(500));
            if p.server_received.len() >= data.len() {
                break;
            }
        }
        assert_eq!(p.server_received.len(), data.len());
        assert_eq!(p.server_received, data);
    }

    #[test]
    fn syn_retransmits_when_lost() {
        let mut first = true;
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default()).with_drop(
            move |to_server, seg| {
                if to_server && seg.flags.syn && first {
                    first = false;
                    return true;
                }
                false
            },
        );
        p.run_until(SimTime::from_secs(5));
        assert_eq!(p.client.state(), TcpState::Established);
        assert!(p.client.retransmit_count() >= 1);
    }

    #[test]
    fn retry_exhaustion_resets() {
        // Server never reachable: every segment to it is dropped.
        let cfg = TcpConfig {
            max_retries: 3,
            ..TcpConfig::default()
        };
        let mut p = Pair::new(cfg, TcpConfig::default()).with_drop(|to_server, _| to_server);
        p.run_until(SimTime::from_secs(120));
        assert_eq!(p.client.state(), TcpState::Closed);
        assert!(p.client_events.contains(&ConnEvent::Reset));
    }

    #[test]
    fn rtt_estimate_tracks_latency() {
        // Delayed ACKs would inflate the samples; turn them off.
        let cfg = TcpConfig {
            nagle: false,
            delayed_ack: false,
            ..TcpConfig::default()
        };
        let mut p = Pair::new(cfg.clone(), cfg);
        p.run_until(SimTime::from_millis(100));
        for _ in 0..30 {
            p.client_write(&pattern(512));
            p.run_until(p.now + SimDuration::from_millis(50));
        }
        let srtt = p.client.rtt().srtt().expect("sampled");
        let rtt = LATENCY * 2;
        assert!(
            srtt >= rtt && srtt <= rtt + SimDuration::from_millis(5),
            "srtt {srtt} vs link rtt {rtt}"
        );
    }

    #[test]
    fn write_after_close_rejected() {
        let mut p = Pair::new(nagle_off(), nagle_off());
        p.run_until(SimTime::from_millis(100));
        let now = p.now;
        p.client.close(now);
        assert_eq!(p.client.write(b"late", now), 0);
    }

    #[test]
    fn counters_track_bytes() {
        let mut p = Pair::new(nagle_off(), nagle_off());
        p.run_until(SimTime::from_millis(100));
        p.client_write(&pattern(5000));
        p.run_until(p.now + SimDuration::from_secs(2));
        assert_eq!(p.client.bytes_acked(), 5000);
        assert!(p.client.bytes_sent() >= 5000);
        assert_eq!(p.server_received.len(), 5000);
    }
}

#[cfg(test)]
mod keepalive_tests {
    use super::*;
    use crate::segment::SockAddr;
    use hydranet_netsim::packet::IpAddr;

    fn ka_cfg() -> TcpConfig {
        TcpConfig {
            nagle: false,
            keepalive: Some(KeepaliveConfig {
                idle: SimDuration::from_secs(5),
                interval: SimDuration::from_secs(1),
                probes: 2,
            }),
            ..TcpConfig::default()
        }
    }

    fn quads() -> (Quad, Quad) {
        let c = SockAddr::new(IpAddr::new(10, 0, 0, 1), 40_000);
        let s = SockAddr::new(IpAddr::new(10, 0, 0, 2), 80);
        (Quad::new(c, s), Quad::new(s, c))
    }

    /// Hand-drives a handshake, returning established client and server.
    fn established(server_cfg: TcpConfig) -> (Connection, Connection, SimTime) {
        let (cq, sq) = quads();
        let now = SimTime::ZERO;
        let mut client = Connection::connect(cq, TcpConfig::default(), SeqNum::new(100), now);
        let syn = client.take_segments().remove(0);
        let mut server = Connection::accept(sq, server_cfg, SeqNum::new(900), &syn, now);
        let synack = server.take_segments().remove(0);
        client.on_segment(synack, now);
        let ack = client.take_segments().remove(0);
        server.on_segment(ack, now);
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        (client, server, now)
    }

    #[test]
    fn keepalive_probes_fire_after_idle_and_reset_peerless_conn() {
        let (_client, mut server, _) = established(ka_cfg());
        server.take_segments();
        // Idle: the first probe at +5 s, then +6 s, then reset at +7 s.
        server.on_tick(SimTime::from_secs(5));
        let probes = server.take_segments();
        assert_eq!(probes.len(), 1, "first probe");
        assert!(probes[0].payload.is_empty());
        assert_eq!(probes[0].seq, server.snd_nxt() - 1);
        server.on_tick(SimTime::from_secs(6));
        assert_eq!(server.take_segments().len(), 1, "second probe");
        server.on_tick(SimTime::from_secs(7));
        let out = server.take_segments();
        assert!(out.iter().any(|s| s.flags.rst), "expected RST, got {out:?}");
        assert_eq!(server.state(), TcpState::Closed);
        assert!(server.take_events().contains(&ConnEvent::Reset));
    }

    #[test]
    fn live_peer_answers_probe_and_conn_survives() {
        let (mut client, mut server, _) = established(ka_cfg());
        server.take_segments();
        server.on_tick(SimTime::from_secs(5));
        let probe = server.take_segments().remove(0);
        // The (stock, keepalive-less) client answers the probe.
        client.on_segment(probe, SimTime::from_secs(5));
        let answers = client.take_segments();
        assert_eq!(answers.len(), 1, "probe unanswered: {answers:?}");
        server.on_segment(answers[0].clone(), SimTime::from_secs(5));
        // The answer reset the cycle; at +6 s nothing fires, next probe
        // would be at +10 s.
        server.on_tick(SimTime::from_secs(6));
        assert!(server.take_segments().is_empty());
        assert_eq!(server.state(), TcpState::Established);
        assert_eq!(server.next_deadline(), Some(SimTime::from_secs(10)));
    }

    /// Delivers all pending segments both ways until quiescent at `t`.
    fn shuttle(client: &mut Connection, server: &mut Connection, t: SimTime) {
        for _ in 0..16 {
            let c2s = client.take_segments();
            let s2c = server.take_segments();
            if c2s.is_empty() && s2c.is_empty() {
                break;
            }
            for seg in c2s {
                assert!(!seg.flags.rst, "client reset at {t}");
                server.on_segment(seg, t);
            }
            for seg in s2c {
                assert!(!seg.flags.rst, "server reset at {t}");
                client.on_segment(seg, t);
            }
        }
    }

    #[test]
    fn traffic_keeps_keepalive_quiet() {
        let (mut client, mut server, _) = established(ka_cfg());
        shuttle(&mut client, &mut server, SimTime::ZERO);
        // Chat every 3 s — under the 5 s idle threshold — while ticking
        // both endpoints every second.
        for tick in 1..=30u64 {
            let t = SimTime::from_secs(tick);
            if tick % 3 == 0 {
                client.write(b"ping", t);
            }
            client.on_tick(t);
            server.on_tick(t);
            shuttle(&mut client, &mut server, t);
            assert_eq!(server.state(), TcpState::Established, "at {t}");
            assert_eq!(client.state(), TcpState::Established, "at {t}");
        }
    }

    #[test]
    fn keepalive_disabled_by_default() {
        let (_c, mut server, _) = established(TcpConfig::default());
        server.take_segments();
        server.on_tick(SimTime::from_secs(3600));
        assert!(server.take_segments().is_empty());
        assert_eq!(server.state(), TcpState::Established);
    }
}

#[cfg(test)]
mod close_tests {
    use super::*;
    use crate::segment::SockAddr;
    use hydranet_netsim::packet::IpAddr;

    fn quads() -> (Quad, Quad) {
        let a = SockAddr::new(IpAddr::new(10, 0, 0, 1), 40_000);
        let b = SockAddr::new(IpAddr::new(10, 0, 0, 2), 80);
        (Quad::new(a, b), Quad::new(b, a))
    }

    fn established() -> (Connection, Connection) {
        let (aq, bq) = quads();
        let now = SimTime::ZERO;
        let cfg = TcpConfig {
            nagle: false,
            delayed_ack: false,
            time_wait: SimDuration::from_secs(1),
            ..TcpConfig::default()
        };
        let mut a = Connection::connect(aq, cfg.clone(), SeqNum::new(10), now);
        let syn = a.take_segments().remove(0);
        let mut b = Connection::accept(bq, cfg, SeqNum::new(20), &syn, now);
        let synack = b.take_segments().remove(0);
        a.on_segment(synack, now);
        for seg in a.take_segments() {
            b.on_segment(seg, now);
        }
        for seg in b.take_segments() {
            a.on_segment(seg, now);
        }
        (a, b)
    }

    fn shuttle(a: &mut Connection, b: &mut Connection, t: SimTime) {
        for _ in 0..16 {
            let ab = a.take_segments();
            let ba = b.take_segments();
            if ab.is_empty() && ba.is_empty() {
                break;
            }
            for seg in ab {
                b.on_segment(seg, t);
            }
            for seg in ba {
                a.on_segment(seg, t);
            }
        }
    }

    #[test]
    fn simultaneous_close_reaches_closed_on_both_sides() {
        let (mut a, mut b) = established();
        let t = SimTime::from_millis(10);
        // Both sides close before either FIN crosses the wire.
        a.close(t);
        b.close(t);
        let a_fins = a.take_segments();
        let b_fins = b.take_segments();
        assert!(a_fins.iter().any(|s| s.flags.fin));
        assert!(b_fins.iter().any(|s| s.flags.fin));
        for seg in a_fins {
            b.on_segment(seg, t);
        }
        for seg in b_fins {
            a.on_segment(seg, t);
        }
        shuttle(&mut a, &mut b, t);
        // Both went through CLOSING into TIME-WAIT.
        assert_eq!(a.state(), TcpState::TimeWait, "a: {:?}", a.state());
        assert_eq!(b.state(), TcpState::TimeWait, "b: {:?}", b.state());
        let expiry = SimTime::from_secs(2);
        a.on_tick(expiry);
        b.on_tick(expiry);
        assert_eq!(a.state(), TcpState::Closed);
        assert_eq!(b.state(), TcpState::Closed);
    }

    #[test]
    fn fin_with_outstanding_data_flushes_first() {
        let (mut a, mut b) = established();
        let t = SimTime::from_millis(5);
        a.write(b"last words", t);
        a.close(t);
        // The FIN must ride with/after the data, never before it.
        let segs = a.take_segments();
        let data_seg = segs
            .iter()
            .find(|s| !s.payload.is_empty())
            .expect("data sent");
        let fin_seg = segs.iter().find(|s| s.flags.fin).expect("fin sent");
        assert!(fin_seg.seq_end().after_eq(data_seg.seq_end()));
        for seg in segs {
            b.on_segment(seg, t);
        }
        shuttle(&mut a, &mut b, t);
        assert_eq!(b.read(100, t), b"last words");
        assert_eq!(b.state(), TcpState::CloseWait);
    }

    #[test]
    fn time_wait_reacks_retransmitted_fin() {
        let (mut a, mut b) = established();
        let t = SimTime::from_millis(5);
        a.close(t);
        shuttle(&mut a, &mut b, t);
        b.close(t);
        let fin = b
            .take_segments()
            .into_iter()
            .find(|s| s.flags.fin)
            .expect("b fin");
        a.on_segment(fin.clone(), t);
        a.take_segments();
        assert_eq!(a.state(), TcpState::TimeWait);
        // The last ACK was lost; b retransmits its FIN into TIME-WAIT.
        a.on_segment(fin, SimTime::from_millis(300));
        let reack = a.take_segments();
        assert!(
            reack.iter().any(|s| s.flags.ack && !s.flags.fin),
            "TIME-WAIT must re-ack a retransmitted FIN: {reack:?}"
        );
    }
}
