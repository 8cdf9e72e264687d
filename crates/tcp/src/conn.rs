//! The TCP connection state machine.
//!
//! [`Connection`] is a sans-I/O state machine: the owning stack feeds it
//! segments (`on_segment`) and clock ticks (`on_tick`), the application
//! reads/writes through it, and every call takes the stack's `ConnQueues`:
//! the configuration and telemetry its connections share, and the queues
//! each call's outgoing segments and application events go to. A
//! connection holds none of these, so its record carries only
//! per-connection state. Only the stack drives a connection, so those calls
//! are crate-private; the read accessors behind
//! [`TcpStack::conn`](crate::stack::TcpStack::conn) are public.
//!
//! HydraNet-FT hook: one [`ChainGate`] holds the paper's §4.3 send and
//! deposit limits and their watchdogs. It is open for ordinary
//! connections; the stack closes it at accept on a replica with a chain
//! successor and feeds it the successor's reports.

use hydranet_netsim::buf::PacketBuf;
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_obs::metrics::{Counter, Histogram};
use hydranet_obs::{kinds, Obs};

use crate::buffer::{Offer, RecvBuffer, SendBuffer};
use crate::cc::CongestionControl;
use crate::detector::Signal;
use crate::ft::ChainGate;
use crate::rto::RttEstimator;
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
    /// Delay ACKs briefly (at most 40 ms) to piggyback/coalesce
    /// (ack-every-other-segment).
    pub delayed_ack: bool,
    /// How long to linger in TIME-WAIT.
    pub time_wait: SimDuration,
}

/// How long a delayed ACK may be held. Well under the RTO floor
/// ([`MIN_RTO`](crate::rto::MIN_RTO)): a delayed ACK must never race the
/// sender's retransmission timer (BSD used 200 ms against a 1 s RTO floor;
/// this keeps the same 5x margin).
const ACK_DELAY: SimDuration = SimDuration::from_millis(40);

/// Consecutive retransmission timeouts of the same data before the
/// connection is aborted. With the RTO doubling from 1 s to its 64 s cap,
/// an unanswered SYN gives up 511 s after it was first sent.
const MAX_RETRIES: u8 = 12;

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            send_buf: 65_535,
            recv_buf: 65_535,
            delayed_ack: true,
            time_wait: SimDuration::from_secs(30),
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
    /// The peer acknowledged new data — forward progress that resets the
    /// failure estimator.
    AckProgress,
    /// One face of the broken flow-control loop that HydraNet-FT's failure
    /// estimator counts (§4.3): a fully duplicate data segment (the client
    /// retransmitted), a retransmission timeout on our own data (the
    /// primary that delivers it is gone), or a gate watchdog that saw work
    /// wait a full RTO at a limit the chain successor stopped raising.
    BrokenLoop(Signal),
}

/// What every connection of one stack shares, passed into each
/// connection call: the configuration, the telemetry series, and the
/// queues the call's output goes to — the segments to transmit and the
/// events for the application, in order. The caller drains both queues
/// after the call; the owning stack passes its one value to every
/// connection it processes.
#[derive(Debug)]
pub(crate) struct ConnQueues {
    /// Outgoing segments.
    pub(crate) segments: Vec<TcpSegment>,
    /// Application events.
    pub(crate) events: Vec<ConnEvent>,
    pub(crate) cfg: TcpConfig,
    /// Absent without a registry.
    pub(crate) telemetry: Option<ConnTelemetry>,
}

impl ConnQueues {
    pub(crate) fn new(cfg: TcpConfig) -> Self {
        ConnQueues {
            segments: Vec::new(),
            events: Vec::new(),
            cfg,
            telemetry: None,
        }
    }
}

/// An optional instant in 8 bytes where `Option<SimTime>` takes 16:
/// `u64::MAX` nanoseconds (585 years of simulated time) stands for unset,
/// so unset also sorts after every set instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct OptTime(u64);

impl OptTime {
    pub(crate) const NONE: OptTime = OptTime(u64::MAX);

    pub(crate) fn some(t: SimTime) -> OptTime {
        debug_assert!(t != SimTime::MAX, "SimTime::MAX reads as unset");
        OptTime(t.as_nanos())
    }

    pub(crate) fn get(self) -> Option<SimTime> {
        (self != OptTime::NONE).then_some(SimTime::from_nanos(self.0))
    }

    fn is_none(self) -> bool {
        self == OptTime::NONE
    }

    pub(crate) fn take(&mut self) -> Option<SimTime> {
        std::mem::replace(self, OptTime::NONE).get()
    }
}

impl From<Option<SimTime>> for OptTime {
    fn from(t: Option<SimTime>) -> OptTime {
        t.map_or(OptTime::NONE, OptTime::some)
    }
}

/// An optional sequence slot in 5 bytes of alignment 1 where
/// `Option<SeqNum>` takes 8 of alignment 4: every `u32` is a valid slot,
/// so there is no sentinel, but the flag and the byte-array slot pack
/// beside the record's other one-byte fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OptSeq {
    set: bool,
    raw: [u8; 4],
}

impl OptSeq {
    const NONE: OptSeq = OptSeq {
        set: false,
        raw: [0; 4],
    };

    fn some(seq: SeqNum) -> OptSeq {
        OptSeq {
            set: true,
            raw: seq.raw().to_ne_bytes(),
        }
    }

    fn get(self) -> Option<SeqNum> {
        self.set.then(|| SeqNum::new(u32::from_ne_bytes(self.raw)))
    }

    fn is_none(self) -> bool {
        !self.set
    }
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
    pub(crate) fn new(obs: &Obs, scope: &str) -> Option<Self> {
        obs.is_enabled().then(|| ConnTelemetry {
            h_srtt_us: obs.histogram(&format!("{scope}.conn.srtt_us")),
            h_rto_us: obs.histogram(&format!("{scope}.conn.rto_us")),
            h_cwnd: obs.histogram(&format!("{scope}.conn.cwnd")),
            h_gate_stall_us: obs.histogram(&format!("{scope}.conn.gate_stall_us")),
            c_duplicates: obs.counter(&format!("{scope}.conn.duplicate_segments")),
            obs: obs.clone(),
        })
    }
}

/// A sans-I/O TCP connection.
#[derive(Debug)]
pub struct Connection {
    state: TcpState,
    quad: Quad,
    snd: SendState,
    sendbuf: SendBuffer,
    recvbuf: RecvBuffer,
    cc: CongestionControl,
    rtt: RttEstimator,

    /// App called close: a FIN should follow the buffered data.
    fin_queued: bool,
    /// Sequence slot our FIN occupies once reserved.
    fin_seq: OptSeq,
    /// Peer FIN slot awaiting in-order processing (it may arrive before all
    /// data, or be held back by the deposit gate).
    peer_fin: OptSeq,
    peer_fin_processed: bool,

    /// The §4.3 send and deposit limits and their watchdogs. Closed at
    /// accept on a replica with a chain successor, then only ever raised
    /// or opened.
    gate: ChainGate,

    rto_deadline: OptTime,
    delack_deadline: OptTime,
    timewait_deadline: OptTime,
    persist_deadline: OptTime,

    /// RTT probe per Karn: when it was sent (unset: no probe out), and the
    /// sequence slot an ACK must reach to cover it. An active open's SYN is
    /// its first probe.
    rtt_probe_at: OptTime,
    rtt_probe_cover: SeqNum,
    /// Highest sequence slot ever transmitted (`SND.MAX` in BSD terms).
    /// After a go-back-N rollback, ACK validity is judged against this,
    /// not against the rolled-back `SND.NXT`.
    max_sent: SeqNum,
    /// Go-back-N recovery point: after an RTO, `SND.NXT` rolls back to
    /// `SND.UNA` and sequence numbers below this are retransmissions
    /// (never RTT-sampled, per Karn). Cleared once `SND.UNA` passes it.
    recover: OptSeq,
    /// Consecutive RTOs; the connection aborts past [`MAX_RETRIES`].
    retries: u8,
    /// Window space previously reported as exhausted (for SendSpace edge).
    send_was_full: bool,
    /// Whether received data may wait [`ACK_DELAY`] for a second segment
    /// to ack together; fixed when the connection opens.
    delayed_ack: bool,
    /// Accepted on a replicated port: the stack's failure estimator counts
    /// this connection's broken-loop signals. Set once, at accept; it sits
    /// in padding the other fields leave, so it costs no byte.
    watched: bool,
    last_advertised_window: u32,

    // Counters for diagnostics and benches (saturating).
    segments_sent: u32,
    retransmit_count: u32,

    /// When data first became staged behind the deposit gate with nothing
    /// depositable — the start of an ack-channel gating stall.
    gate_stall_since: OptTime,
    /// Sum of the stalls that ended (reported in the span's closing note).
    gate_stall_total: SimDuration,
}

impl Connection {
    /// Opens a connection actively (client side): queues a SYN into `q`.
    pub(crate) fn connect(quad: Quad, iss: SeqNum, now: SimTime, q: &mut ConnQueues) -> Self {
        let delayed_ack = q.cfg.delayed_ack;
        let mut conn = Self::new(quad, iss, SeqNum::new(0), TcpState::SynSent, delayed_ack, q);
        conn.emit(conn.segment(iss, TcpFlags::SYN, PacketBuf::new()), q);
        conn.snd.nxt = iss + 1;
        conn.rtt_probe_at = OptTime::some(now);
        conn.rtt_probe_cover = iss + 1;
        conn.arm_rto(now);
        conn
    }

    /// Opens a connection passively (server side) in response to `syn`.
    /// The SYN-ACK is queued into `q` at once unless the connection is
    /// `gated`: a replica with a chain successor gets both HydraNet-FT
    /// gates *before* the SYN-ACK can be emitted, so it does not answer
    /// the client's SYN until its successor has reported (the paper's
    /// §4.3 rules apply from the handshake onwards). `delayed_ack` sets
    /// the connection's ack policy for its lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `syn` does not have the SYN flag set.
    pub(crate) fn accept(
        quad: Quad,
        iss: SeqNum,
        syn: &TcpSegment,
        now: SimTime,
        gated: bool,
        delayed_ack: bool,
        q: &mut ConnQueues,
    ) -> Self {
        assert!(syn.flags.syn, "accept requires a SYN segment");
        let irs = syn.seq;
        let mut conn = Self::new(quad, iss, irs + 1, TcpState::SynRcvd, delayed_ack, q);
        conn.snd.wnd = u32::from(syn.window);
        conn.snd.wl1 = syn.seq;
        conn.snd.nxt = iss + 1;
        if gated {
            // Nothing from ISS or IRS + 1 on is covered until the
            // successor reports.
            conn.gate = ChainGate::closed(iss, irs + 1);
        }
        conn.try_send_synack(now, q);
        conn.arm_rto(now);
        conn
    }

    /// Nudges the connection after a role change (backup promoted to
    /// primary): advertises current state with a pure ACK and transmits
    /// whatever the windows allow, so the client resynchronises without
    /// waiting a full client-side RTO.
    pub(crate) fn kick(&mut self, now: SimTime, q: &mut ConnQueues) {
        if self.state == TcpState::SynRcvd {
            self.try_send_synack(now, q);
            return;
        }
        if self.state.is_open()
            || self.state == TcpState::LastAck
            || self.state == TcpState::Closing
        {
            self.send_pure_ack(q);
            // Anything between SND.UNA and SND.NXT was "sent" while we were
            // a backup — i.e. diverted into the ack channel and never
            // delivered. Retransmit it immediately rather than waiting out
            // a (possibly backed-off) RTO.
            if self.snd.una != self.snd.nxt {
                self.retransmit_segment_at_una(now, q);
                self.arm_rto(now);
            }
            self.pump(now, q);
        }
    }

    fn new(
        quad: Quad,
        iss: SeqNum,
        rcv_nxt: SeqNum,
        state: TcpState,
        delayed_ack: bool,
        q: &ConnQueues,
    ) -> Self {
        let sendbuf = SendBuffer::new(iss + 1);
        let recvbuf = RecvBuffer::new(rcv_nxt, q.cfg.recv_buf);
        let cc = CongestionControl::new(q.cfg.mss as u32);
        let rtt = RttEstimator::new();
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
            fin_seq: OptSeq::NONE,
            peer_fin: OptSeq::NONE,
            peer_fin_processed: false,
            gate: ChainGate::OPEN,
            rto_deadline: OptTime::NONE,
            delack_deadline: OptTime::NONE,
            timewait_deadline: OptTime::NONE,
            persist_deadline: OptTime::NONE,
            rtt_probe_at: OptTime::NONE,
            rtt_probe_cover: iss,
            max_sent: iss,
            recover: OptSeq::NONE,
            retries: 0,
            send_was_full: false,
            delayed_ack,
            watched: false,
            last_advertised_window,
            segments_sent: 0,
            retransmit_count: 0,
            gate_stall_since: OptTime::NONE,
            gate_stall_total: SimDuration::ZERO,
        }
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
    pub(crate) fn send_room(&self, q: &ConnQueues) -> usize {
        self.sendbuf.room(q.cfg.send_buf)
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

    /// Segments transmitted (saturating).
    pub fn segments_sent(&self) -> u32 {
        self.segments_sent
    }

    /// Retransmissions performed (timeout and fast retransmit; saturating
    /// at `u32::MAX`).
    pub fn retransmit_count(&self) -> u64 {
        u64::from(self.retransmit_count)
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

    /// Marks the connection as one the failure estimator watches (it was
    /// accepted on a replicated port).
    pub(crate) fn watch(&mut self) {
        self.watched = true;
    }

    /// Whether the failure estimator watches this connection.
    pub(crate) fn is_watched(&self) -> bool {
        self.watched
    }

    /// Applies a chain successor's report, its send progress `seq` and
    /// acknowledgement `ack`, to the gate.
    pub(crate) fn on_report(&mut self, seq: SeqNum, ack: SeqNum, now: SimTime, q: &mut ConnQueues) {
        self.gate.on_report(seq, ack);
        self.after_gate_moved(now, q);
    }

    /// Opens the gate for good (the replica has no successor any more) and
    /// releases everything it held.
    pub(crate) fn open_gate(&mut self, now: SimTime, q: &mut ConnQueues) {
        self.gate.open();
        self.after_gate_moved(now, q);
    }

    /// Lets out what the gate now admits: the send side first (SYN-ACK,
    /// data, FIN), then held client bytes.
    fn after_gate_moved(&mut self, now: SimTime, q: &mut ConnQueues) {
        self.try_send_synack(now, q);
        self.pump(now, q);
        self.after_deposit_progress(now, q);
    }

    /// Whether the send limit currently blocks sequence slot `seq`.
    fn gate_blocks(&self, seq: SeqNum) -> bool {
        self.gate.send_room(seq) == 0
    }

    /// Whether the send limit is the thing standing between ready work and
    /// the wire: an unsent SYN-ACK, buffered data, or a queued FIN whose
    /// next slot the gate refuses.
    fn gate_blocked_work(&self) -> bool {
        if self.state == TcpState::SynRcvd {
            return self.gate_blocks(self.snd.iss);
        }
        let pending =
            self.snd.nxt.before(self.sendbuf.end()) || (self.fin_queued && self.fin_seq.is_none());
        pending && self.gate_blocks(self.snd.nxt)
    }

    /// Keeps the send watchdog armed while the send limit blocks ready
    /// work, one RTO of which fires it (see [`Self::on_tick`]), and says
    /// whether work waits.
    fn update_gate_starvation(&mut self, now: SimTime) -> bool {
        let (waits, until) = (self.gate_blocked_work(), now + self.rtt.rto());
        self.gate.watch_send(waits, until);
        waits
    }

    /// The deposit watchdog likewise, while the slot at `RCV.NXT` (a byte
    /// or the peer's FIN) has arrived and waits at the deposit limit. A
    /// deposit (`advanced`) restarts it, so only a full RTO with `RCV.NXT`
    /// standing still fires.
    fn update_deposit_starvation(&mut self, now: SimTime, advanced: bool) -> bool {
        let next = self.rcv_nxt();
        let arrived = self.recvbuf.next_held() || self.peer_fin.get() == Some(next);
        let waits = arrived && self.gate.holds_deposit(next);
        let until = now + self.rtt.rto();
        self.gate.watch_deposit(waits, advanced, until);
        waits
    }

    fn after_deposit_progress(&mut self, now: SimTime, q: &mut ConnQueues) {
        let advanced = self.recvbuf.deposit(self.gate.deposit_limit());
        self.update_deposit_starvation(now, advanced);
        let fin_done = self.try_process_peer_fin(now, q);
        if advanced {
            q.events.push(ConnEvent::DataReadable);
            if let Some(t) = q.telemetry.as_ref() {
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
                            [
                                ("quad", self.quad.to_string()),
                                ("stalled_us", (stalled.as_nanos() / 1_000).to_string()),
                            ],
                        );
                    }
                }
            }
        }
        if advanced || fin_done {
            self.schedule_ack(now, q);
        }
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Writes application data; returns how many bytes were accepted.
    /// Writing on a connection that cannot send (closed, closing) returns 0.
    pub(crate) fn write(&mut self, data: &[u8], now: SimTime, q: &mut ConnQueues) -> usize {
        if !matches!(self.state, TcpState::Established | TcpState::CloseWait)
            && self.state != TcpState::SynSent
            && self.state != TcpState::SynRcvd
        {
            return 0;
        }
        if self.fin_queued {
            return 0;
        }
        let n = self.sendbuf.write(data, q.cfg.send_buf);
        if n < data.len() {
            self.send_was_full = true;
        }
        self.pump(now, q);
        n
    }

    /// Appends up to `max` bytes of in-order received data to `out`;
    /// returns how many.
    pub(crate) fn read(&mut self, out: &mut Vec<u8>, max: usize, q: &mut ConnQueues) -> usize {
        let n = self.recvbuf.read(out, max);
        if n > 0 {
            self.maybe_send_window_update(q);
        }
        n
    }

    /// Initiates a graceful close: a FIN follows any buffered data.
    pub(crate) fn close(&mut self, now: SimTime, q: &mut ConnQueues) {
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
                q.events.push(ConnEvent::Closed);
            }
            _ => {}
        }
        self.pump(now, q);
    }

    /// Aborts the connection with a RST.
    pub(crate) fn abort(&mut self, q: &mut ConnQueues) {
        if self.state != TcpState::Closed {
            let flags = TcpFlags {
                rst: true,
                ack: true,
                ..TcpFlags::default()
            };
            let rst = TcpSegment {
                window: 0,
                ..self.segment(self.snd.nxt, flags, PacketBuf::new())
            };
            self.emit(rst, q);
            self.enter_closed(ConnEvent::Reset, q);
        }
    }

    /// The earliest pending timer deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        // Unset sorts last, so the minimum is unset only if all are.
        [
            self.rto_deadline,
            self.delack_deadline,
            self.timewait_deadline,
            self.persist_deadline,
            self.gate.deadline(),
        ]
        .into_iter()
        .min()
        .and_then(OptTime::get)
    }

    /// Heap bytes behind this connection's socket buffers, beyond the
    /// structure itself. Depends only on the deterministic schedule (never
    /// on wall-clock), so scale benches can report per-flow memory
    /// reproducibly.
    pub fn heap_bytes(&self) -> usize {
        self.sendbuf.heap_bytes() + self.recvbuf.heap_bytes()
    }

    // ------------------------------------------------------------------
    // Segment processing
    // ------------------------------------------------------------------

    /// Feeds one incoming segment.
    pub(crate) fn on_segment(&mut self, seg: TcpSegment, now: SimTime, q: &mut ConnQueues) {
        if seg.flags.rst {
            self.on_rst(&seg, q);
            return;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.on_segment_syn_sent(seg, now, q),
            _ => self.on_segment_synchronized(seg, now, q),
        }
        self.sample_telemetry(q);
    }

    /// Samples the srtt/rto/cwnd trajectory once per processed segment.
    fn sample_telemetry(&self, q: &ConnQueues) {
        let Some(t) = q.telemetry.as_ref() else {
            return;
        };
        if let Some(srtt) = self.rtt.srtt() {
            t.h_srtt_us.record(srtt.as_nanos() / 1_000);
        }
        t.h_rto_us.record(self.rtt.rto().as_nanos() / 1_000);
        t.h_cwnd.record(u64::from(self.cc.cwnd()));
    }

    fn on_rst(&mut self, seg: &TcpSegment, q: &mut ConnQueues) {
        // Only accept RSTs that plausibly belong to this connection.
        let ok = match self.state {
            TcpState::SynSent => seg.flags.ack && seg.ack == self.snd.nxt,
            _ => seg
                .seq
                .in_window(self.rcv_nxt(), self.recvbuf.window().max(1)),
        };
        if ok {
            self.enter_closed(ConnEvent::Reset, q);
        }
    }

    fn on_segment_syn_sent(&mut self, seg: TcpSegment, now: SimTime, q: &mut ConnQueues) {
        if !(seg.flags.syn && seg.flags.ack) {
            return;
        }
        if seg.ack != self.snd.nxt {
            return; // does not ack our SYN
        }
        self.recvbuf = RecvBuffer::new(seg.seq + 1, q.cfg.recv_buf);
        self.last_advertised_window = self.recvbuf.window();
        self.snd.una = seg.ack;
        self.snd.wnd = u32::from(seg.window);
        self.snd.wl1 = seg.seq;
        self.snd.wl2 = seg.ack;
        // The SYN probe survives only if the SYN was never retransmitted
        // (Karn); taking it leaves the first data probe to start fresh.
        if let Some(sent_at) = self.rtt_probe_at.take() {
            self.rtt.sample(now.duration_since(sent_at));
        }
        self.state = TcpState::Established;
        self.clear_rto();
        self.retries = 0;
        q.events.push(ConnEvent::Established);
        // ACK the SYN-ACK (third step of the handshake), then any data.
        self.send_pure_ack(q);
        self.pump(now, q);
    }

    fn on_segment_synchronized(&mut self, seg: TcpSegment, now: SimTime, q: &mut ConnQueues) {
        // Duplicate SYN (e.g. retransmitted by the client because our
        // gated SYN-ACK is still held back): re-answer it.
        if seg.flags.syn {
            if self.state == TcpState::SynRcvd {
                self.try_send_synack(now, q);
            } else {
                self.send_pure_ack(q);
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
            self.send_pure_ack(q);
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
            if self.recover.get().is_some_and(|r| ack.after_eq(r)) {
                self.recover = OptSeq::NONE;
            }
            self.cc.on_new_ack(data_acked.max(1));
            self.retries = 0;
            if data_acked > 0 {
                q.events.push(ConnEvent::AckProgress);
            }
            // RTT sample (Karn: only if the probe range is fully covered).
            if let Some(sent_at) = self.rtt_probe_at.get() {
                if ack.after_eq(self.rtt_probe_cover) {
                    self.rtt.sample(now.duration_since(sent_at));
                    self.rtt_probe_at = OptTime::NONE;
                }
            }
            if self.state == TcpState::SynRcvd {
                self.state = TcpState::Established;
                q.events.push(ConnEvent::Established);
            }
            self.on_fin_acked_if_complete(ack, now, q);
            // Re-arm or clear the retransmission timer.
            if self.snd.una == self.snd.nxt {
                self.clear_rto();
            } else {
                self.arm_rto(now);
            }
            if self.send_was_full && self.send_room(q) > 0 {
                self.send_was_full = false;
                q.events.push(ConnEvent::SendSpace);
            }
        } else if ack == self.snd.una
            && seg.payload.is_empty()
            && !seg.flags.fin
            && self.snd.una != self.snd.nxt
            && u32::from(seg.window) == self.snd.wnd
        {
            // Pure duplicate ACK while data is outstanding.
            if self.cc.on_dup_ack() {
                self.fast_retransmit(now, q);
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
                self.persist_deadline = OptTime::NONE;
            }
        }

        // A zero-length segment below RCV.NXT is a keepalive-shaped probe
        // (the gate watchdog's, see `on_tick`) or a stale duplicate: answer
        // with a plain ACK so the prober sees life. A normal ACK carries
        // seq == RCV.NXT and is not affected.
        if seg.payload.is_empty() && !seg.flags.fin && seg.seq.before(self.rcv_nxt()) {
            self.send_pure_ack(q);
        }

        // --- data processing ------------------------------------------
        if !seg.payload.is_empty() {
            let limit = self.gate.deposit_limit();
            let offer = self.recvbuf.offer(seg.seq, seg.payload.clone(), limit);
            self.update_deposit_starvation(now, offer == Offer::Deposited);
            match offer {
                Offer::Deposited => {
                    q.events.push(ConnEvent::DataReadable);
                    self.schedule_ack(now, q);
                }
                Offer::Duplicate => {
                    if let Some(t) = q.telemetry.as_ref() {
                        t.c_duplicates.inc();
                    }
                    q.events
                        .push(ConnEvent::BrokenLoop(Signal::ClientDuplicate));
                    // Duplicates get an immediate ACK to resynchronise.
                    self.send_pure_ack(q);
                }
                // Out of order (or gated): immediate duplicate ACK so the
                // sender's fast-retransmit machinery sees it. Past the
                // window (a zero-window probe): the ACK restates the window,
                // and a full buffer is no sign of a broken chain, so no
                // broken-loop signal.
                Offer::Held | Offer::PastWindow => self.send_pure_ack(q),
            }
            if q.telemetry.is_some()
                && self.gate_stall_since.is_none()
                && self.gate.deposit_limit().is_some()
                && self.recvbuf.staged_bytes() > 0
            {
                self.gate_stall_since = OptTime::some(now);
            }
        }

        // --- FIN processing -------------------------------------------
        if seg.flags.fin {
            let fin_slot = seg.seq + seg.payload.len() as u32;
            if self.peer_fin.is_none() && !self.peer_fin_processed {
                self.peer_fin = OptSeq::some(fin_slot);
            }
            if !self.try_process_peer_fin(now, q) {
                // FIN not yet processable (data missing or gate closed):
                // ack what we have, and watch a FIN the gate holds.
                self.update_deposit_starvation(now, false);
                self.send_pure_ack(q);
            }
        }

        // Send whatever the new window/ack state allows.
        self.pump(now, q);
        if self.state == TcpState::TimeWait && seg.flags.fin {
            // Retransmitted FIN in TIME-WAIT: re-ack it.
            self.send_pure_ack(q);
        }
    }

    /// Splits an ACK advance into handshake slots (SYN/FIN) vs data bytes.
    fn handshake_aware_acked(&self, ack: SeqNum, advance: u32) -> u32 {
        let mut data = advance;
        // SYN slot: una == iss means our SYN/SYN-ACK was unacked.
        if self.snd.una == self.snd.iss {
            data = data.saturating_sub(1);
        }
        if let Some(fin) = self.fin_seq.get() {
            if ack.after(fin) {
                data = data.saturating_sub(1);
            }
        }
        data
    }

    fn on_fin_acked_if_complete(&mut self, ack: SeqNum, now: SimTime, q: &mut ConnQueues) {
        let Some(fin) = self.fin_seq.get() else {
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
                self.enter_time_wait(now, q);
            }
            TcpState::LastAck => {
                self.enter_closed(ConnEvent::Closed, q);
            }
            _ => {}
        }
    }

    /// Processes the peer's FIN once all data before it is deposited and
    /// the deposit gate (if any) permits the FIN slot itself.
    fn try_process_peer_fin(&mut self, now: SimTime, q: &mut ConnQueues) -> bool {
        let Some(fin_slot) = self.peer_fin.get() else {
            return false;
        };
        if self.rcv_nxt() != fin_slot {
            return false;
        }
        // The FIN may only be consumed once the successor has seen it: its
        // report then acks past the FIN slot.
        if self.gate.holds_deposit(fin_slot) {
            return false;
        }
        // Consume the FIN slot.
        self.recvbuf.consume_slot();
        self.peer_fin = OptSeq::NONE;
        self.peer_fin_processed = true;
        q.events.push(ConnEvent::PeerFin);
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                // Our FIN not yet acked: simultaneous close.
                self.state = TcpState::Closing;
            }
            TcpState::FinWait2 => self.enter_time_wait(now, q),
            _ => {}
        }
        self.send_pure_ack(q);
        true
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Advances connection timers to `now`.
    pub(crate) fn on_tick(&mut self, now: SimTime, q: &mut ConnQueues) {
        if let Some(t) = self.timewait_deadline.get() {
            if now >= t {
                self.timewait_deadline = OptTime::NONE;
                self.enter_closed(ConnEvent::Closed, q);
                return;
            }
        }
        if let Some(t) = self.delack_deadline.get() {
            if now >= t {
                self.delack_deadline = OptTime::NONE;
                self.send_pure_ack(q);
            }
        }
        if let Some(t) = self.persist_deadline.get() {
            if now >= t {
                self.persist_deadline = OptTime::NONE;
                self.send_window_probe(now, q);
            }
        }
        if let Some(t) = self.rto_deadline.get() {
            if now >= t {
                self.rto_deadline = OptTime::NONE;
                self.on_rto(now, q);
            }
        }
        // A watchdog that expires with work still waiting fires, and again
        // once per RTO while the stall persists, so the failure estimator
        // can accumulate to its threshold.
        let (send_expired, deposit_expired) = self.gate.take_expired(now);
        if send_expired && self.update_gate_starvation(now) {
            self.report_starved(Signal::SendGate, now, q);
            // Solicit a fresh cumulative ACK from the client with a
            // keepalive-shaped probe. The redirector replicates the client's
            // answer to every replica, restoring ack state that a partition
            // may have dropped on the backup branches — without it, backups
            // wedge with SND.UNA frozen at a stale value (their
            // retransmissions divert into the ack channel, so the client can
            // never refresh them on its own) and the whole chain deadlocks on
            // a quiescent connection.
            if self.state.is_open() && self.state != TcpState::SynRcvd {
                self.send_keepalive_probe(q);
            }
        }
        if deposit_expired && self.update_deposit_starvation(now, false) {
            // No probe: the bytes waiting here prove the client's path
            // alive; only the successor's reports are missing.
            self.report_starved(Signal::DepositGate, now, q);
        }
    }

    /// Reports one RTO of starvation at the gate `signal` names to the
    /// stack, and to the timeline when telemetry is on.
    fn report_starved(&self, signal: Signal, now: SimTime, q: &mut ConnQueues) {
        q.events.push(ConnEvent::BrokenLoop(signal));
        if let Some(t) = q.telemetry.as_ref() {
            t.obs.event(
                now.as_nanos(),
                kinds::GATE_STALL,
                [
                    ("quad", self.quad.to_string()),
                    ("starved", signal.name().to_string()),
                ],
            );
        }
    }

    /// The send-gate watchdog's keepalive-shaped probe: a zero-length segment
    /// one slot below SND.NXT; a live peer answers with a plain ACK.
    fn send_keepalive_probe(&mut self, q: &mut ConnQueues) {
        let probe = self.segment(self.snd.nxt - 1, TcpFlags::ACK, PacketBuf::new());
        self.emit(probe, q);
    }

    fn on_rto(&mut self, now: SimTime, q: &mut ConnQueues) {
        self.retries += 1;
        q.events.push(ConnEvent::BrokenLoop(Signal::OwnRto));
        if self.retries > MAX_RETRIES {
            self.abort(q);
            return;
        }
        self.rtt.on_timeout();
        self.cc.on_timeout();
        self.rtt_probe_at = OptTime::NONE; // Karn: never sample retransmitted data
        match self.state {
            TcpState::SynSent => {
                self.count_retransmit();
                // RCV.NXT is still zero: a SYN carries no ACK.
                let syn = self.segment(self.snd.iss, TcpFlags::SYN, PacketBuf::new());
                self.emit(syn, q);
            }
            TcpState::SynRcvd => {
                self.count_retransmit();
                self.try_send_synack(now, q);
            }
            _ => {
                // Go-back-N: treat everything past SND.UNA as lost. Roll
                // SND.NXT back and let slow start clock the window out
                // again; pump() re-sends from the buffer.
                let old_nxt = self.snd.nxt;
                if old_nxt != self.snd.una {
                    if let Some(fin) = self.fin_seq.get() {
                        if self.snd.una.before_eq(fin) {
                            // The FIN slot rolls back too; pump re-reserves
                            // the same slot when it drains the buffer.
                            self.fin_seq = OptSeq::NONE;
                        }
                    }
                    self.snd.nxt = self.snd.una;
                    let recover = self.recover.get().map_or(old_nxt, |r| r.max_seq(old_nxt));
                    self.recover = OptSeq::some(recover);
                    self.pump(now, q);
                }
            }
        }
        self.arm_rto(now);
    }

    fn fast_retransmit(&mut self, now: SimTime, q: &mut ConnQueues) {
        self.rtt_probe_at = OptTime::NONE;
        self.retransmit_segment_at_una(now, q);
        self.arm_rto(now);
    }

    fn retransmit_segment_at_una(&mut self, now: SimTime, q: &mut ConnQueues) {
        let una = self.snd.una;
        // Handshake slots first.
        if una == self.snd.iss {
            match self.state {
                TcpState::SynRcvd | TcpState::Established => {
                    self.try_send_synack(now, q);
                    return;
                }
                _ => {}
            }
        }
        let mut data = self.sendbuf.slice(una, q.cfg.mss);
        if data.is_empty() {
            // Only a FIN may be outstanding.
            if let Some(fin) = self.fin_seq.get() {
                if una.before_eq(fin) && !self.gate_blocks(fin) {
                    self.count_retransmit();
                    self.emit_data_segment(fin, PacketBuf::new(), true, q);
                }
            }
            return;
        }
        // Honour the send gate even on retransmission: it is monotonic, so
        // anything previously sent stays allowed, but a full MSS from
        // SND.UNA may reach past what was.
        data.truncate(self.gate.send_room(una));
        if data.is_empty() {
            return;
        }
        let fin_here = self
            .fin_seq
            .get()
            .is_some_and(|f| f == una + data.len() as u32 && !self.gate_blocks(f));
        self.count_retransmit();
        self.emit_data_segment(una, data, fin_here, q);
    }

    fn count_retransmit(&mut self) {
        self.retransmit_count = self.retransmit_count.saturating_add(1);
    }

    fn send_window_probe(&mut self, now: SimTime, q: &mut ConnQueues) {
        // One byte beyond the advertised window keeps the loop alive. The
        // byte counts as sent: if the window has silently reopened the peer
        // will accept and acknowledge it. The ft send gate applies to
        // probes like any other transmission (§4.3's ordering invariant).
        if self.gate_blocks(self.snd.nxt) {
            self.persist_deadline = OptTime::some(now + self.rtt.rto());
            return;
        }
        let probe = self.sendbuf.slice(self.snd.nxt, 1);
        if probe.is_empty() {
            return;
        }
        let seq = self.snd.nxt;
        self.emit_data_segment(seq, probe, false, q);
        self.snd.nxt = seq + 1;
        self.arm_rto(now);
        self.persist_deadline = OptTime::some(now + self.rtt.rto());
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Attempts to transmit everything permitted by the windows, Nagle, and
    /// the send gate.
    pub(crate) fn pump(&mut self, now: SimTime, q: &mut ConnQueues) {
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
            let len = (usable.min(pending).min(q.cfg.mss as u32) as usize)
                .min(self.gate.send_room(self.snd.nxt));

            // Nagle: hold sub-MSS segments while data is in flight, unless
            // a FIN is ready to ride along (closing flushes).
            if len > 0 && len < q.cfg.mss && in_flight > 0 && !self.fin_ready(len as u32) {
                break;
            }

            // Zero-window handling: arm the persist timer.
            if len == 0 && pending > 0 && self.snd.wnd == 0 && in_flight == 0 {
                if self.persist_deadline.is_none() {
                    self.persist_deadline = OptTime::some(now + self.rtt.rto());
                }
                break;
            }

            let fin_now = self.fin_ready(len as u32);
            if len == 0 && !fin_now {
                break;
            }

            let payload = self.sendbuf.slice(self.snd.nxt, len);
            debug_assert_eq!(payload.len(), len);
            let seq = self.snd.nxt;
            let is_retransmission = self.recover.get().is_some_and(|r| seq.before(r));
            if is_retransmission {
                self.count_retransmit();
            } else if self.rtt_probe_at.is_none() && len > 0 {
                // Karn: only probe data that has never been retransmitted.
                self.rtt_probe_at = OptTime::some(now);
                self.rtt_probe_cover = seq + len as u32;
            }
            self.emit_data_segment(seq, payload, fin_now, q);
            self.snd.nxt = seq + len as u32 + fin_now as u32;
            if fin_now {
                self.fin_seq = OptSeq::some(seq + len as u32);
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
        if !self.fin_queued || self.fin_seq.get().is_some() {
            return false;
        }
        let after = self.snd.nxt + extra;
        if after != self.sendbuf.end() {
            return false; // data still unsent
        }
        !self.gate_blocks(after)
    }

    fn try_send_synack(&mut self, now: SimTime, q: &mut ConnQueues) {
        if self.state != TcpState::SynRcvd {
            return;
        }
        self.update_gate_starvation(now);
        if self.gate_blocks(self.snd.iss) {
            return; // held until the chain successor reports its SYN-ACK
        }
        let synack = self.segment(self.snd.iss, TcpFlags::SYN_ACK, PacketBuf::new());
        self.emit(synack, q);
    }

    fn emit_data_segment(
        &mut self,
        seq: SeqNum,
        payload: PacketBuf,
        fin: bool,
        q: &mut ConnQueues,
    ) {
        let psh = !payload.is_empty();
        self.delack_deadline = OptTime::NONE; // this segment carries our ACK
        let flags = TcpFlags {
            ack: true,
            psh,
            fin,
            ..TcpFlags::default()
        };
        self.emit(self.segment(seq, flags, payload), q);
    }

    fn send_pure_ack(&mut self, q: &mut ConnQueues) {
        self.delack_deadline = OptTime::NONE;
        self.last_advertised_window = self.recvbuf.window();
        self.emit(
            self.segment(self.snd.nxt, TcpFlags::ACK, PacketBuf::new()),
            q,
        );
    }

    fn schedule_ack(&mut self, now: SimTime, q: &mut ConnQueues) {
        if !self.delayed_ack {
            self.send_pure_ack(q);
            return;
        }
        if self.delack_deadline.is_none() {
            self.delack_deadline = OptTime::some(now + ACK_DELAY);
        } else {
            // Second in-order segment: ack immediately (RFC 1122).
            self.send_pure_ack(q);
        }
    }

    fn maybe_send_window_update(&mut self, q: &mut ConnQueues) {
        // Only volunteer a window update when the previously advertised
        // window was too small to make progress (silly-window avoidance);
        // ordinary openings ride on the next regular ACK.
        let current = self.recvbuf.window();
        let starved = self.last_advertised_window < q.cfg.mss as u32;
        if starved && current >= q.cfg.mss as u32 {
            self.send_pure_ack(q);
        }
    }

    fn advertised_window(&self) -> u16 {
        self.recvbuf.window().min(u32::from(u16::MAX)) as u16
    }

    /// A segment from this connection's port pair at `seq`, carrying
    /// `RCV.NXT` as its acknowledgement and the current receive window.
    fn segment(&self, seq: SeqNum, flags: TcpFlags, payload: PacketBuf) -> TcpSegment {
        TcpSegment {
            src_port: self.quad.local.port,
            dst_port: self.quad.remote.port,
            seq,
            ack: self.rcv_nxt(),
            flags,
            window: self.advertised_window(),
            payload,
        }
    }

    fn emit(&mut self, seg: TcpSegment, q: &mut ConnQueues) {
        self.segments_sent = self.segments_sent.saturating_add(1);
        if seg.seq_len() > 0 {
            self.max_sent = self.max_sent.max_seq(seg.seq_end());
        }
        q.segments.push(seg);
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = OptTime::some(now + self.rtt.rto());
    }

    fn clear_rto(&mut self) {
        self.rto_deadline = OptTime::NONE;
        self.retries = 0;
    }

    fn enter_time_wait(&mut self, now: SimTime, q: &ConnQueues) {
        self.state = TcpState::TimeWait;
        self.clear_rto();
        self.timewait_deadline = OptTime::some(now + q.cfg.time_wait);
    }

    fn enter_closed(&mut self, event: ConnEvent, q: &mut ConnQueues) {
        self.state = TcpState::Closed;
        self.rto_deadline = OptTime::NONE;
        self.delack_deadline = OptTime::NONE;
        self.timewait_deadline = OptTime::NONE;
        self.persist_deadline = OptTime::NONE;
        q.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SockAddr;
    use hydranet_netsim::packet::IpAddr;

    const LATENCY: SimDuration = SimDuration::from_millis(5);

    impl ConnQueues {
        pub(super) fn take_segments(&mut self) -> Vec<TcpSegment> {
            std::mem::take(&mut self.segments)
        }

        pub(super) fn take_events(&mut self) -> Vec<ConnEvent> {
            std::mem::take(&mut self.events)
        }
    }

    /// A connection and the queues its calls write into.
    pub(super) struct End {
        pub(super) c: Connection,
        pub(super) q: ConnQueues,
    }

    impl End {
        pub(super) fn connect(quad: Quad, cfg: TcpConfig, iss: u32) -> End {
            let mut q = ConnQueues::new(cfg);
            let c = Connection::connect(quad, SeqNum::new(iss), SimTime::ZERO, &mut q);
            End { c, q }
        }

        pub(super) fn accept(
            quad: Quad,
            cfg: TcpConfig,
            iss: u32,
            syn: &TcpSegment,
            gated: bool,
        ) -> End {
            let delayed_ack = cfg.delayed_ack;
            let mut q = ConnQueues::new(cfg);
            let iss = SeqNum::new(iss);
            let c = Connection::accept(quad, iss, syn, SimTime::ZERO, gated, delayed_ack, &mut q);
            End { c, q }
        }
    }

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
        /// Each side's output, moved onto the wire by `collect`.
        client_q: ConnQueues,
        server_q: ConnQueues,
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
        /// Accept the server as a gated replica?
        server_gated: bool,
    }

    impl Pair {
        fn new(client_cfg: TcpConfig, server_cfg: TcpConfig) -> Self {
            let (cq, _) = quads();
            let now = SimTime::ZERO;
            let End { c: client, q } = End::connect(cq, client_cfg, 1000);
            let mut pair = Pair {
                client,
                server: None,
                client_q: q,
                server_q: ConnQueues::new(server_cfg),
                now,
                wire: Vec::new(),
                drop_fn: Box::new(|_, _| false),
                server_received: Vec::new(),
                client_received: Vec::new(),
                client_events: Vec::new(),
                server_events: Vec::new(),
                auto_read: true,
                server_gated: false,
            };
            pair.collect(false);
            pair
        }

        /// A pair whose server is a gated replica, its send gate raised
        /// over the SYN-ACK so the handshake completes.
        fn gated(cfg: TcpConfig) -> Self {
            let mut p = Pair::new(cfg.clone(), cfg);
            p.server_gated = true;
            p.run_until(SimTime::from_millis(100));
            let (iss, now) = (p.server().iss(), p.now);
            let (server, q) = p.server_io();
            server.on_report(iss + 1, server.rcv_nxt(), now, q);
            p.collect(true);
            p.run_until(SimTime::from_millis(200));
            assert_eq!(p.server().state(), TcpState::Established);
            p
        }

        fn with_drop(mut self, mut f: impl FnMut(bool, &TcpSegment) -> bool + 'static) -> Self {
            // Re-filter anything already on the wire (the client's initial
            // SYN is sent during `new`).
            self.wire.retain(|(_, to_server, seg)| !f(*to_server, seg));
            self.drop_fn = Box::new(f);
            self
        }

        /// Gathers one side's queued segments onto the wire and its events
        /// into its log.
        fn collect(&mut self, from_server: bool) {
            let (q, log) = if from_server {
                (&mut self.server_q, &mut self.server_events)
            } else {
                (&mut self.client_q, &mut self.client_events)
            };
            log.append(&mut q.events);
            for seg in q.take_segments() {
                if (self.drop_fn)(!from_server, &seg) {
                    continue;
                }
                self.wire.push((self.now + LATENCY, !from_server, seg));
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
                            self.client.on_segment(seg, self.now, &mut self.client_q);
                            self.collect(false);
                            self.drain_client_reads();
                        }
                    } else {
                        i += 1;
                    }
                }
                // Fire timers.
                self.client.on_tick(self.now, &mut self.client_q);
                self.collect(false);
                if let Some(s) = self.server.as_mut() {
                    s.on_tick(self.now, &mut self.server_q);
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
                server.on_segment(seg, self.now, &mut self.server_q);
            } else {
                assert!(seg.flags.syn, "first server segment must be SYN, got {seg}");
                let (_, sq) = quads();
                self.server = Some(Connection::accept(
                    sq,
                    SeqNum::new(77_000),
                    &seg,
                    self.now,
                    self.server_gated,
                    self.server_q.cfg.delayed_ack,
                    &mut self.server_q,
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
                while s.read(&mut self.server_received, 4096, &mut self.server_q) > 0 {}
                self.collect(true);
            }
            self.drain_client_reads();
        }

        fn drain_client_reads(&mut self) {
            if !self.auto_read {
                return;
            }
            let (client, q) = (&mut self.client, &mut self.client_q);
            while client.read(&mut self.client_received, 4096, q) > 0 {}
            self.collect(false);
        }

        fn client_write(&mut self, data: &[u8]) -> usize {
            let n = self.client.write(data, self.now, &mut self.client_q);
            self.collect(false);
            n
        }

        fn server_write(&mut self, data: &[u8]) -> usize {
            let now = self.now;
            let (server, q) = self.server_io();
            let n = server.write(data, now, q);
            self.collect(true);
            n
        }

        fn server(&mut self) -> &mut Connection {
            self.server.as_mut().expect("server up")
        }

        /// The server and its queues, for a direct call.
        fn server_io(&mut self) -> (&mut Connection, &mut ConnQueues) {
            (self.server.as_mut().expect("server up"), &mut self.server_q)
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
        // The SYN is the active opener's first RTT probe; the passive side
        // does not time its SYN-ACK, and no data moved.
        assert_eq!(p.client.rtt().srtt(), Some(LATENCY * 2));
        assert_eq!(p.client.rtt().samples_taken(), 1);
        assert_eq!(p.server().rtt().srtt(), None);
    }

    /// The SYN-ACK consumes the SYN's probe, so the first data segment is
    /// timed from its own send, not from the SYN's.
    #[test]
    fn first_data_probe_is_timed_from_its_own_send() {
        let server_cfg = TcpConfig {
            delayed_ack: false,
            ..TcpConfig::default()
        };
        let mut p = Pair::new(TcpConfig::default(), server_cfg);
        p.run_until(SimTime::from_millis(100));
        p.client_write(b"ping");
        p.run_until(SimTime::from_millis(200));
        assert_eq!(p.client.rtt().samples_taken(), 2);
        assert_eq!(p.client.rtt().srtt(), Some(LATENCY * 2));
    }

    #[test]
    fn small_message_round_trip() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
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
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default()).with_drop(move |_, _| {
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
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        p.run_until(SimTime::from_millis(100));
        p.client_write(b"bye");
        p.client.close(p.now, &mut p.client_q);
        p.collect(false);
        p.run_until(p.now + SimDuration::from_millis(100));
        assert_eq!(p.server_received, b"bye");
        assert!(p.server_events.contains(&ConnEvent::PeerFin));
        assert_eq!(p.server().state(), TcpState::CloseWait);
        let now = p.now;
        let (server, q) = p.server_io();
        server.close(now, q);
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
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        p.run_until(SimTime::from_millis(100));
        p.client.abort(&mut p.client_q);
        p.collect(false);
        p.run_until(p.now + SimDuration::from_millis(100));
        assert_eq!(p.client.state(), TcpState::Closed);
        assert_eq!(p.server().state(), TcpState::Closed);
        assert!(p.server_events.contains(&ConnEvent::Reset));
    }

    #[test]
    fn nagle_coalesces_small_writes() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        p.run_until(SimTime::from_millis(100));
        let before = p.client.segments_sent();
        let writes = 50;
        for _ in 0..writes {
            p.client_write(&[0xAB; 10]);
            p.run_until(p.now + SimDuration::from_millis(1));
        }
        p.run_until(p.now + SimDuration::from_secs(2));
        assert_eq!(p.server_received.len(), 500);
        let segments = p.client.segments_sent() - before;
        assert!(segments < writes, "{segments} segments for {writes} writes");
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
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
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
        let (server, q) = p.server_io();
        server.on_segment(dup.clone(), now, q);
        server.on_segment(dup, now, q);
        let events = q.take_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| **e == ConnEvent::BrokenLoop(Signal::ClientDuplicate))
                .count(),
            2
        );
    }

    /// A probe into a full receive buffer takes no byte and is answered
    /// with an ACK that restates the zero window, but it is no
    /// client duplicate: a full replica's failure estimator must not count
    /// a client's zero-window probes as retransmissions.
    #[test]
    fn zero_window_probe_to_a_full_buffer_is_acked_not_duplicate() {
        let server_cfg = TcpConfig {
            recv_buf: 2048,
            ..TcpConfig::default()
        };
        let mut p = Pair::new(TcpConfig::default(), server_cfg);
        p.auto_read = false;
        p.run_until(SimTime::from_millis(100));
        p.client_write(&pattern(4000));
        // Long enough for the client's persist timer to probe repeatedly.
        p.run_until(p.now + SimDuration::from_secs(3));
        assert_eq!(p.server().readable_len(), 2048);
        let rcv_nxt = p.server().rcv_nxt();
        let probe = TcpSegment {
            src_port: 40_000,
            dst_port: 80,
            seq: rcv_nxt,
            ack: p.client.rcv_nxt(),
            flags: TcpFlags::ACK,
            window: 65535,
            payload: vec![0u8].into(),
        };
        let now = p.now;
        let (server, q) = p.server_io();
        server.on_segment(probe, now, q);
        let acks = q.take_segments();
        assert_eq!(acks.len(), 1, "the probe is answered at once");
        assert_eq!((acks[0].ack, acks[0].window), (rcv_nxt, 0));
        assert_eq!(
            p.server().readable_len(),
            2048,
            "the probe byte is not taken"
        );
        let events = p.server_q.take_events();
        assert!(!p
            .server_events
            .iter()
            .chain(&events)
            .any(|e| *e == ConnEvent::BrokenLoop(Signal::ClientDuplicate)));
    }

    #[test]
    fn send_gate_holds_synack_until_raised() {
        let (cq, sq) = quads();
        let now = SimTime::ZERO;
        let mut client = End::connect(cq, TcpConfig::default(), 500);
        let syn = client.q.take_segments().remove(0);
        let mut server = End::accept(sq, TcpConfig::default(), 9000, &syn, false);
        // Not gated: SYN-ACK flows immediately.
        assert_eq!(server.q.take_segments().len(), 1);

        let End {
            c: mut gated,
            mut q,
        } = End::accept(sq, TcpConfig::default(), 9000, &syn, true);
        assert!(q.take_segments().is_empty(), "gated SYN-ACK leaked");
        // A retransmitted SYN while gated must not produce a SYN-ACK.
        gated.on_segment(syn, now, &mut q);
        assert!(q.take_segments().is_empty(), "gated SYN-ACK leaked");
        // Successor reports its SYN-ACK progress: seq_end = ISS + 1 (same
        // ISS by construction).
        gated.on_report(SeqNum::new(9001), gated.rcv_nxt(), now, &mut q);
        let out = q.take_segments();
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.syn && out[0].flags.ack);
    }

    #[test]
    fn send_gate_limits_data() {
        // The server's gate covers nothing past its SYN-ACK.
        let mut p = Pair::gated(TcpConfig::default());
        p.server_write(&pattern(1000));
        p.run_until(p.now + SimDuration::from_millis(50));
        assert_eq!(p.client_received.len(), 0, "gated data leaked");
        // Successor reports progress past the first 500 bytes.
        let base = p.server().snd_una();
        let now2 = p.now;
        let (server, q) = p.server_io();
        server.on_report(base + 500, server.rcv_nxt(), now2, q);
        p.collect(true);
        p.run_until(p.now + SimDuration::from_millis(50));
        assert_eq!(p.client_received.len(), 500); // bytes una..una+500
                                                  // Open fully.
        let now3 = p.now;
        let (server, q) = p.server_io();
        server.open_gate(now3, q);
        p.collect(true);
        p.run_until(p.now + SimDuration::from_millis(100));
        assert_eq!(p.client_received.len(), 1000);
    }

    #[test]
    fn gate_watchdog_fires_on_a_silent_successor() {
        // Queue data behind the server's gate and never report successor
        // progress: the flow-control loop is silently wedged (the client
        // sees nothing to retransmit).
        let mut p = Pair::gated(TcpConfig::default());
        p.server_write(&pattern(1000));
        p.run_until(p.now + SimDuration::from_secs(10));
        assert!(
            p.server_events
                .contains(&ConnEvent::BrokenLoop(Signal::SendGate)),
            "watchdog armed but never fired"
        );
    }

    /// A client and a gated server past the handshake, the server's send
    /// gate raised over its SYN-ACK and nothing more, as the stack sets up
    /// a replica with a chain successor.
    fn gated_established() -> (End, End) {
        let (cq, sq) = quads();
        let now = SimTime::ZERO;
        let mut client = End::connect(cq, TcpConfig::default(), 1000);
        let syn = client.q.take_segments().remove(0);
        let mut server = End::accept(sq, TcpConfig::default(), 77_000, &syn, true);
        assert!(server.q.take_segments().is_empty(), "gated SYN-ACK leaked");
        let iss = server.c.iss();
        server
            .c
            .on_report(iss + 1, server.c.rcv_nxt(), now, &mut server.q);
        let synack = server.q.take_segments().remove(0);
        client.c.on_segment(synack, now, &mut client.q);
        for seg in client.q.take_segments() {
            server.c.on_segment(seg, now, &mut server.q);
        }
        assert_eq!(server.c.state(), TcpState::Established);
        (client, server)
    }

    #[test]
    fn retransmissions_never_pass_the_send_gate() {
        let (
            client,
            End {
                c: mut server,
                mut q,
            },
        ) = gated_established();
        let t = SimTime::from_millis(1);
        let start = server.snd_nxt();
        // The successor has covered 700 of 3,000 buffered bytes, not the
        // FIN: a full MSS from SND.UNA would run past the gate.
        let mut gate = start + 700;
        server.on_report(gate, server.rcv_nxt(), t, &mut q);
        server.write(&pattern(3000), t, &mut q);
        server.close(t, &mut q);
        let sent = |q: &mut ConnQueues, gate: SeqNum| {
            let segs = q.take_segments();
            for s in &segs {
                assert!(s.seq_end().before_eq(gate), "{s} passes the gate {gate}");
            }
            segs
        };
        let resent_at = |segs: &[TcpSegment], seq: SeqNum| {
            segs.iter()
                .any(|s| s.seq == seq && (!s.payload.is_empty() || s.flags.fin))
        };
        assert!(resent_at(&sent(&mut q, gate), start));

        // RTO: go-back-N re-sends from SND.UNA.
        let rto = server.next_deadline().expect("RTO armed");
        server.on_tick(rto, &mut q);
        assert!(resent_at(&sent(&mut q, gate), start), "RTO");

        // Fast retransmit: three duplicate ACKs at SND.UNA.
        let dup_ack = TcpSegment {
            src_port: 40_000,
            dst_port: 80,
            seq: client.c.snd_nxt(),
            ack: start,
            flags: TcpFlags::ACK,
            window: u16::MAX,
            payload: PacketBuf::new(),
        };
        for _ in 0..3 {
            server.on_segment(dup_ack.clone(), rto, &mut q);
        }
        assert!(resent_at(&sent(&mut q, gate), start), "fast retransmit");

        // FIN: the successor covers everything, the client acknowledges
        // the data but not the FIN, then repeats that ACK three times.
        gate = start + 3001;
        server.on_report(gate, server.rcv_nxt(), rto, &mut q);
        assert!(sent(&mut q, gate).iter().any(|s| s.flags.fin));
        let fin = start + 3000;
        let data_ack = TcpSegment {
            ack: fin,
            ..dup_ack
        };
        for _ in 0..4 {
            server.on_segment(data_ack.clone(), rto, &mut q);
        }
        assert!(resent_at(&sent(&mut q, gate), fin), "FIN retransmit");
    }

    /// The gate watchdog's probe sits at `SND.NXT - 1`, below the peer's
    /// `RCV.NXT`: a live peer answers it with exactly one pure ACK.
    #[test]
    fn live_peer_answers_probe_and_conn_survives() {
        let (mut client, mut server) = gated_established();
        server
            .c
            .write(b"held behind the gate", SimTime::ZERO, &mut server.q);
        assert!(server.q.take_segments().is_empty());
        let starved = server.c.next_deadline().expect("watchdog armed");
        server.c.on_tick(starved, &mut server.q);
        assert!(server
            .q
            .take_events()
            .contains(&ConnEvent::BrokenLoop(Signal::SendGate)));
        let probe = server.q.take_segments().remove(0);
        assert!(probe.payload.is_empty());
        assert_eq!(probe.seq, server.c.snd_nxt() - 1);
        client.c.on_segment(probe, starved, &mut client.q);
        let answers = client.q.take_segments();
        assert_eq!(answers.len(), 1, "probe unanswered: {answers:?}");
        let answer = &answers[0];
        assert!(answer.payload.is_empty() && answer.flags == TcpFlags::ACK);
        assert_eq!(answer.ack, server.c.snd_nxt());
        server.c.on_segment(answer.clone(), starved, &mut server.q);
        assert!(server.q.take_segments().is_empty());
        assert_eq!(server.c.state(), TcpState::Established);
        assert_eq!(client.c.state(), TcpState::Established);
    }

    /// A client data segment of `len` bytes from `client`'s `SND.NXT` plus
    /// `skip`, as the wire would carry it to the server.
    fn client_data(client: &End, skip: u32, len: usize) -> TcpSegment {
        TcpSegment {
            src_port: 40_000,
            dst_port: 80,
            seq: client.c.snd_nxt() + skip,
            ack: client.c.rcv_nxt(),
            flags: TcpFlags::ACK,
            window: u16::MAX,
            payload: PacketBuf::from(pattern(len)),
        }
    }

    /// The `signal` events `q` holds, draining its queues.
    fn starved(q: &mut ConnQueues, signal: Signal) -> usize {
        q.take_segments();
        let events = q.take_events();
        events
            .iter()
            .filter(|&&e| e == ConnEvent::BrokenLoop(signal))
            .count()
    }

    /// A gated replica holding in-order client bytes, with nothing of its
    /// own to send, fires the deposit watchdog once per RTO while the
    /// successor stays silent. Bytes behind a hole wait on the client, not
    /// on the gate, and arm nothing.
    #[test]
    fn deposit_watchdog_fires_once_per_rto_while_bytes_wait() {
        let (client, mut server) = gated_established();
        let t = SimTime::from_millis(1);
        let q = &mut server.q;
        server.c.on_segment(client_data(&client, 100, 50), t, q);
        assert!(server.c.gate.watchdogs()[1].is_none(), "a hole armed it");
        server.c.on_segment(client_data(&client, 0, 100), t, q);
        assert_eq!(server.c.readable_len(), 0, "the gate let bytes through");
        let rto = server.c.rtt.rto();
        assert_eq!(server.c.next_deadline(), Some(t + rto));
        let mut at = t + rto;
        for fired in 1..=3 {
            server.c.on_tick(SimTime::from_nanos(at.as_nanos() - 1), q);
            assert_eq!(starved(q, Signal::DepositGate), 0, "early, period {fired}");
            server.c.on_tick(at, q);
            assert_eq!(starved(q, Signal::DepositGate), 1, "period {fired}");
            at += server.c.rtt.rto();
            assert_eq!(server.c.next_deadline(), Some(at));
        }
        assert!(server.c.gate.watchdogs()[0].is_none());
    }

    /// A successor report that opens the gate within the RTO disarms the
    /// watchdog: nothing fires when its deadline would have come.
    #[test]
    fn a_report_within_the_rto_disarms_the_deposit_watchdog() {
        let (client, mut server) = gated_established();
        let t = SimTime::from_millis(1);
        let q = &mut server.q;
        server.c.on_segment(client_data(&client, 0, 100), t, q);
        let rto = server.c.rtt.rto();
        let report = SimTime::from_nanos((t + rto).as_nanos() - 1_000_000);
        server
            .c
            .on_report(server.c.iss(), client.c.snd_nxt() + 100, report, q);
        assert_eq!(server.c.readable_len(), 100);
        assert!(server.c.gate.watchdogs()[1].is_none());
        server.c.on_tick(t + rto, q);
        server.c.on_tick(t + rto + rto, q);
        assert_eq!(starved(q, Signal::DepositGate), 0);
    }

    /// A report that deposits some of the held bytes restarts the clock:
    /// the watchdog fires one RTO after the report, not after the bytes
    /// first arrived.
    #[test]
    fn a_partial_report_restarts_the_deposit_watchdog() {
        let (client, mut server) = gated_established();
        let t = SimTime::from_millis(1);
        let q = &mut server.q;
        server.c.on_segment(client_data(&client, 0, 100), t, q);
        let rto = server.c.rtt.rto();
        let report = t + SimDuration::from_millis(10);
        server
            .c
            .on_report(server.c.iss(), client.c.snd_nxt() + 40, report, q);
        assert_eq!(server.c.readable_len(), 40);
        assert_eq!(server.c.gate.watchdogs()[1], Some(report + rto));
        server.c.on_tick(t + rto, q);
        assert_eq!(starved(q, Signal::DepositGate), 0);
        server.c.on_tick(report + rto, q);
        assert_eq!(starved(q, Signal::DepositGate), 1);
    }

    /// An ungated connection (plain TCP, or a chain's tail) never arms the
    /// deposit watchdog, whether its bytes deposit or wait on a hole.
    #[test]
    fn an_ungated_tail_never_arms_the_deposit_watchdog() {
        let (cq, sq) = quads();
        let mut client = End::connect(cq, TcpConfig::default(), 1000);
        let syn = client.q.take_segments().remove(0);
        let mut server = End::accept(sq, TcpConfig::default(), 77_000, &syn, false);
        let synack = server.q.take_segments().remove(0);
        client.c.on_segment(synack, SimTime::ZERO, &mut client.q);
        for seg in client.q.take_segments() {
            server.c.on_segment(seg, SimTime::ZERO, &mut server.q);
        }
        let t = SimTime::from_millis(1);
        let q = &mut server.q;
        server.c.on_segment(client_data(&client, 100, 50), t, q);
        server.c.on_segment(client_data(&client, 0, 100), t, q);
        assert_eq!(server.c.readable_len(), 150);
        server.c.on_segment(client_data(&client, 300, 50), t, q);
        assert!(server.c.gate.watchdogs()[1].is_none());
        server.c.on_tick(t + SimDuration::from_secs(10), q);
        assert_eq!(starved(q, Signal::DepositGate), 0);
    }

    /// Random client segments (in order, out of order, repeated, the last
    /// one sometimes carrying the FIN), successor reports (stale or fresh),
    /// timer ticks and, in half the rounds, an opening, fed to a gated replica: both
    /// limits only ever rise, an opened gate never closes, no byte at or
    /// past the deposit limit becomes readable, and the FIN is consumed
    /// only once the limit has passed its slot.
    #[test]
    fn chain_gate_holds_over_random_reports_opens_and_offers() {
        let mut rng = hydranet_netsim::rng::SimRng::seed_from(0xc4a1_6a7e);
        let mut gated_fins = 0;
        for _ in 0..64 {
            let (client, mut server) = gated_established();
            let (irs, iss) = (server.c.rcv_nxt(), server.c.iss());
            let len = rng.range(1, 600) as u32;
            let (stream, fin) = (pattern(len as usize), irs + len);
            let mut send_room = server.c.gate.send_room(iss);
            let mut limit = server.c.gate.deposit_limit();
            // The client's bytes before it have all been offered.
            let mut sent = 0;
            // Half the rounds open the gate on the way.
            let open_at = rng.range(0, 400);
            for step in 0..200 {
                let t = SimTime::from_millis(1 + step);
                let q = &mut server.q;
                match rng.range(0, 16) {
                    0..=8 => {
                        let off = match rng.range(0, 2) {
                            0 => sent.min(len - 1),
                            _ => rng.range(0, u64::from(len)) as u32,
                        };
                        let end = (off + rng.range(1, 100) as u32).min(len);
                        if off <= sent {
                            sent = sent.max(end);
                        }
                        let seg = TcpSegment {
                            flags: TcpFlags {
                                fin: end == len && rng.range(0, 2) == 0,
                                ..TcpFlags::ACK
                            },
                            payload: PacketBuf::from(&stream[off as usize..end as usize]),
                            ..client_data(&client, off, 0)
                        };
                        server.c.on_segment(seg, t, q);
                    }
                    9..=13 => {
                        let seq = iss + rng.range(0, 50) as u32;
                        // Anywhere in the stream, level with the client's
                        // bytes sent so far (never past a FIN), or close
                        // behind or past what the replica has deposited.
                        let ack = match rng.range(0, 3) {
                            0 => irs + rng.range(0, u64::from(len) + 12) as u32 - 10,
                            1 => irs + sent,
                            _ => server.c.rcv_nxt() + rng.range(0, 200) as u32 - 20,
                        };
                        server.c.on_report(seq, ack, t, q);
                    }
                    _ => server.c.on_tick(t, q),
                }
                if step == open_at {
                    server.c.open_gate(t, q);
                }
                let gate = server.c.gate;
                assert!(gate.send_room(iss) >= send_room, "the send limit fell");
                match (limit, gate.deposit_limit()) {
                    (None, Some(_)) => panic!("an opened gate closed"),
                    (Some(old), Some(new)) => assert!(old.before_eq(new), "the deposit limit fell"),
                    _ => {}
                }
                (send_room, limit) = (gate.send_room(iss), gate.deposit_limit());
                let readable_end = irs + server.c.readable_len() as u32;
                assert!(
                    limit.is_none_or(|l| readable_end.before_eq(l)),
                    "a byte passed"
                );
                q.take_segments();
                if q.take_events().contains(&ConnEvent::PeerFin) {
                    assert!(limit.is_none_or(|l| fin.before(l)), "the FIN passed");
                    gated_fins += usize::from(limit.is_some());
                }
            }
        }
        assert!(
            gated_fins > 32,
            "only {gated_fins} FINs consumed at a closed gate"
        );
    }

    #[test]
    fn deposit_gate_stages_then_releases() {
        let mut p = Pair::gated(TcpConfig::default());
        let now = p.now;
        p.client_write(b"gated-bytes");
        p.run_until(now + SimDuration::from_millis(50));
        assert_eq!(p.server_received.len(), 0);
        // The gate pins the server's ACKs, so the client's SND.UNA is still
        // the start of the gated data.
        let client_start = p.client.snd_una();
        let now2 = p.now;
        // Successor acked 5 bytes past start.
        let (server, q) = p.server_io();
        server.on_report(server.iss(), client_start + 5, now2, q);
        p.drain_reads();
        assert_eq!(p.server_received, b"gated");
        let now3 = p.now;
        let (server, q) = p.server_io();
        server.open_gate(now3, q);
        p.drain_reads();
        assert_eq!(p.server_received, b"gated-bytes");
    }

    #[test]
    fn deposit_gate_suppresses_ack_progress() {
        let mut p = Pair::gated(TcpConfig::default());
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
            ..TcpConfig::default()
        };
        let mut p = Pair::new(TcpConfig::default(), server_cfg);
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
        // Karn: a retransmitted SYN's round trip is ambiguous, so unsampled.
        assert_eq!(p.client.rtt().samples_taken(), 0);
    }

    #[test]
    fn retry_exhaustion_resets() {
        // Server never reachable: every segment to it is dropped. The SYN
        // backs off 1, 2, 4 … 64 s and gives up on the 13th timeout, 511 s
        // after the first transmission.
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default())
            .with_drop(|to_server, _| to_server);
        p.run_until(SimTime::from_secs(510));
        assert_eq!(p.client.state(), TcpState::SynSent);
        p.run_until(SimTime::from_secs(512));
        assert_eq!(p.client.state(), TcpState::Closed);
        assert!(p.client_events.contains(&ConnEvent::Reset));
        assert_eq!(p.client.retransmit_count(), 12);
    }

    #[test]
    fn rtt_estimate_tracks_latency() {
        // Delayed ACKs would inflate the samples; turn them off.
        let cfg = TcpConfig {
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
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        p.run_until(SimTime::from_millis(100));
        let now = p.now;
        p.client.close(now, &mut p.client_q);
        assert_eq!(p.client.write(b"late", now, &mut p.client_q), 0);
    }

    #[test]
    fn transfer_is_acked_and_counted() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        p.run_until(SimTime::from_millis(100));
        let sent = p.client.segments_sent();
        p.client_write(&pattern(5000));
        p.run_until(p.now + SimDuration::from_secs(2));
        // Everything after the SYN's slot is acknowledged.
        assert_eq!(p.client.snd_una(), p.client.iss() + 1 + 5000);
        assert!(
            p.client.segments_sent() >= sent + 4,
            "5,000 B in 1,460 B segments"
        );
        assert_eq!(p.client.retransmit_count(), 0);
        assert_eq!(p.server_received.len(), 5000);
    }
}

#[cfg(test)]
mod close_tests {
    use super::tests::End;
    use super::*;
    use crate::segment::SockAddr;
    use hydranet_netsim::packet::IpAddr;

    fn quads() -> (Quad, Quad) {
        let a = SockAddr::new(IpAddr::new(10, 0, 0, 1), 40_000);
        let b = SockAddr::new(IpAddr::new(10, 0, 0, 2), 80);
        (Quad::new(a, b), Quad::new(b, a))
    }

    fn established() -> (End, End) {
        let (aq, bq) = quads();
        let now = SimTime::ZERO;
        let cfg = TcpConfig {
            delayed_ack: false,
            time_wait: SimDuration::from_secs(1),
            ..TcpConfig::default()
        };
        let mut a = End::connect(aq, cfg.clone(), 10);
        let syn = a.q.take_segments().remove(0);
        let mut b = End::accept(bq, cfg, 20, &syn, false);
        let synack = b.q.take_segments().remove(0);
        a.c.on_segment(synack, now, &mut a.q);
        for seg in a.q.take_segments() {
            b.c.on_segment(seg, now, &mut b.q);
        }
        for seg in b.q.take_segments() {
            a.c.on_segment(seg, now, &mut a.q);
        }
        (a, b)
    }

    fn shuttle(a: &mut End, b: &mut End, t: SimTime) {
        for _ in 0..16 {
            let ab = a.q.take_segments();
            let ba = b.q.take_segments();
            if ab.is_empty() && ba.is_empty() {
                break;
            }
            for seg in ab {
                b.c.on_segment(seg, t, &mut b.q);
            }
            for seg in ba {
                a.c.on_segment(seg, t, &mut a.q);
            }
        }
    }

    #[test]
    fn simultaneous_close_reaches_closed_on_both_sides() {
        let (mut a, mut b) = established();
        let t = SimTime::from_millis(10);
        // Both sides close before either FIN crosses the wire.
        a.c.close(t, &mut a.q);
        b.c.close(t, &mut b.q);
        let a_fins = a.q.take_segments();
        let b_fins = b.q.take_segments();
        assert!(a_fins.iter().any(|s| s.flags.fin));
        assert!(b_fins.iter().any(|s| s.flags.fin));
        for seg in a_fins {
            b.c.on_segment(seg, t, &mut b.q);
        }
        for seg in b_fins {
            a.c.on_segment(seg, t, &mut a.q);
        }
        shuttle(&mut a, &mut b, t);
        // Both went through CLOSING into TIME-WAIT.
        assert_eq!(a.c.state(), TcpState::TimeWait, "a: {:?}", a.c.state());
        assert_eq!(b.c.state(), TcpState::TimeWait, "b: {:?}", b.c.state());
        let expiry = SimTime::from_secs(2);
        a.c.on_tick(expiry, &mut a.q);
        b.c.on_tick(expiry, &mut b.q);
        assert_eq!(a.c.state(), TcpState::Closed);
        assert_eq!(b.c.state(), TcpState::Closed);
    }

    #[test]
    fn fin_with_outstanding_data_flushes_first() {
        let (mut a, mut b) = established();
        let t = SimTime::from_millis(5);
        a.c.write(b"last words", t, &mut a.q);
        a.c.close(t, &mut a.q);
        // The FIN must ride with/after the data, never before it.
        let segs = a.q.take_segments();
        let data_seg = segs
            .iter()
            .find(|s| !s.payload.is_empty())
            .expect("data sent");
        let fin_seg = segs.iter().find(|s| s.flags.fin).expect("fin sent");
        assert!(fin_seg.seq_end().after_eq(data_seg.seq_end()));
        for seg in segs {
            b.c.on_segment(seg, t, &mut b.q);
        }
        shuttle(&mut a, &mut b, t);
        let mut got = Vec::new();
        b.c.read(&mut got, 100, &mut b.q);
        assert_eq!(got, b"last words");
        assert_eq!(b.c.state(), TcpState::CloseWait);
    }

    #[test]
    fn time_wait_reacks_retransmitted_fin() {
        let (mut a, mut b) = established();
        let t = SimTime::from_millis(5);
        a.c.close(t, &mut a.q);
        shuttle(&mut a, &mut b, t);
        b.c.close(t, &mut b.q);
        let fin =
            b.q.take_segments()
                .into_iter()
                .find(|s| s.flags.fin)
                .expect("b fin");
        a.c.on_segment(fin.clone(), t, &mut a.q);
        a.q.take_segments();
        assert_eq!(a.c.state(), TcpState::TimeWait);
        // The last ACK was lost; b retransmits its FIN into TIME-WAIT.
        a.c.on_segment(fin, SimTime::from_millis(300), &mut a.q);
        let reack = a.q.take_segments();
        assert!(
            reack.iter().any(|s| s.flags.ack && !s.flags.fin),
            "TIME-WAIT must re-ack a retransmitted FIN: {reack:?}"
        );
    }
}
