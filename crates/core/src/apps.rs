//! Reusable applications for services and clients.
//!
//! Applications communicate results to scenario code through shared
//! [`Rc<RefCell<…>>`] handles: the simulation owns the app instances, the
//! scenario keeps the handles.

use std::cell::RefCell;
use std::rc::Rc;

use hydranet_netsim::time::SimTime;
use hydranet_tcp::segment::Quad;
use hydranet_tcp::stack::{SocketApp, SocketIo};

/// Shared mutable handle used by apps to expose state to scenarios.
pub type Shared<T> = Rc<RefCell<T>>;

/// Creates a [`Shared`] value.
pub fn shared<T>(value: T) -> Shared<T> {
    Rc::new(RefCell::new(value))
}

/// Progress record kept by sink-style apps.
#[derive(Debug, Clone, Default)]
pub struct SinkState {
    /// Bytes received, in order.
    pub data: Vec<u8>,
    /// When the first byte arrived.
    pub first_byte_at: Option<SimTime>,
    /// When the most recent byte arrived.
    pub last_byte_at: Option<SimTime>,
    /// Largest gap observed between consecutive data arrivals — the
    /// client-visible "stall" during a fail-over.
    pub max_gap: Option<(SimTime, SimTime)>,
    /// Whether the peer closed.
    pub peer_closed: bool,
    /// Whether the connection was reset.
    pub reset: bool,
}

impl SinkState {
    /// Total bytes received.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has arrived.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The largest inter-arrival gap, if at least two arrivals happened.
    pub fn max_gap_duration(&self) -> Option<hydranet_netsim::time::SimDuration> {
        self.max_gap.map(|(a, b)| b.duration_since(a))
    }

    /// Notes a delivery at `now`, whose bytes the reader has appended to
    /// `data` already.
    fn record_arrival(&mut self, now: SimTime) {
        if self.first_byte_at.is_none() {
            self.first_byte_at = Some(now);
        }
        if let Some(last) = self.last_byte_at {
            let better = match self.max_gap {
                Some((a, b)) => now.duration_since(last) > b.duration_since(a),
                None => true,
            };
            if better {
                self.max_gap = Some((last, now));
            }
        }
        self.last_byte_at = Some(now);
    }
}

/// Writes `bytes` until the socket takes no more; returns how many it took.
fn write_until_full(io: &mut SocketIo<'_>, bytes: &[u8]) -> usize {
    let mut at = 0;
    while at < bytes.len() {
        let n = io.write(&bytes[at..]);
        if n == 0 {
            break;
        }
        at += n;
    }
    at
}

/// A server/client app that collects everything it receives and optionally
/// echoes it back (buffering across full send windows, as a deterministic
/// replicated service must).
#[derive(Debug)]
pub struct EchoApp {
    state: Shared<SinkState>,
    echo: bool,
    backlog: Vec<u8>,
}

impl EchoApp {
    /// Creates an echoing app reporting into `state`.
    pub fn new(state: Shared<SinkState>) -> Self {
        EchoApp {
            state,
            echo: true,
            backlog: Vec::new(),
        }
    }

    /// Creates a silent sink reporting into `state`.
    pub fn sink(state: Shared<SinkState>) -> Self {
        EchoApp {
            state,
            echo: false,
            backlog: Vec::new(),
        }
    }

    fn flush_backlog(&mut self, io: &mut SocketIo<'_>) {
        let n = write_until_full(io, &self.backlog);
        self.backlog.drain(..n);
    }
}

impl SocketApp for EchoApp {
    /// Reads straight into the sink's record; an echo writes the fresh
    /// bytes from there and queues only what the socket refuses (behind
    /// an older backlog, all of them, so the echo stays in order).
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let mut st = self.state.borrow_mut();
        let start = st.data.len();
        io.read_to_end(&mut st.data);
        st.record_arrival(io.now());
        if !self.echo {
            return;
        }
        let fresh = &st.data[start..];
        if self.backlog.is_empty() {
            let sent = write_until_full(io, fresh);
            self.backlog.extend_from_slice(&fresh[sent..]);
        } else {
            self.backlog.extend_from_slice(fresh);
            drop(st);
            self.flush_backlog(io);
        }
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        self.flush_backlog(io);
    }

    fn on_peer_fin(&mut self, io: &mut SocketIo<'_>) {
        self.state.borrow_mut().peer_closed = true;
        // Half-close etiquette: finish our side once the peer is done.
        if self.backlog.is_empty() {
            io.close();
        }
    }

    fn on_reset(&mut self, _quad: Quad) {
        self.state.borrow_mut().reset = true;
    }
}

/// Progress record kept by [`StreamSenderApp`].
#[derive(Debug, Clone, Default)]
pub struct SenderState {
    /// Bytes accepted into the send buffer so far.
    pub written: usize,
    /// Whether every byte has been handed to TCP.
    pub finished_writing: bool,
    /// Replies collected (for request/response or echo flows).
    pub replies: SinkState,
    /// When the connection established.
    pub established_at: Option<SimTime>,
}

/// A client app that streams a fixed payload to the service as fast as the
/// socket accepts it, collecting any response bytes.
#[derive(Debug)]
pub struct StreamSenderApp {
    payload: Vec<u8>,
    cursor: usize,
    close_when_done: bool,
    state: Shared<SenderState>,
}

impl StreamSenderApp {
    /// Creates a sender streaming `payload`; if `close_when_done`, the app
    /// half-closes after the last byte is accepted.
    pub fn new(payload: Vec<u8>, close_when_done: bool, state: Shared<SenderState>) -> Self {
        StreamSenderApp {
            payload,
            cursor: 0,
            close_when_done,
            state,
        }
    }

    fn pump(&mut self, io: &mut SocketIo<'_>) {
        self.cursor += write_until_full(io, &self.payload[self.cursor..]);
        let mut st = self.state.borrow_mut();
        st.written = self.cursor;
        if self.cursor == self.payload.len() && !st.finished_writing {
            st.finished_writing = true;
            drop(st);
            if self.close_when_done {
                io.close();
            }
        }
    }
}

impl SocketApp for StreamSenderApp {
    fn on_established(&mut self, io: &mut SocketIo<'_>) {
        self.state.borrow_mut().established_at = Some(io.now());
        self.pump(io);
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        self.pump(io);
    }

    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let replies = &mut self.state.borrow_mut().replies;
        io.read_to_end(&mut replies.data);
        replies.record_arrival(io.now());
    }

    fn on_reset(&mut self, _quad: Quad) {
        self.state.borrow_mut().replies.reset = true;
    }
}

/// A simple request/response service: for every newline-terminated request
/// line, responds with `body_bytes` bytes of deterministic content. Stands
/// in for the stateful web/e-commerce services the paper motivates.
#[derive(Debug)]
pub struct LineReplyApp {
    body_bytes: usize,
    pending_line: Vec<u8>,
    backlog: Vec<u8>,
    served: Shared<u64>,
}

impl LineReplyApp {
    /// Creates a service answering each request line with `body_bytes`
    /// bytes, counting served requests into `served`.
    pub fn new(body_bytes: usize, served: Shared<u64>) -> Self {
        LineReplyApp {
            body_bytes,
            pending_line: Vec::new(),
            backlog: Vec::new(),
            served,
        }
    }

    fn flush_backlog(&mut self, io: &mut SocketIo<'_>) {
        let n = write_until_full(io, &self.backlog);
        self.backlog.drain(..n);
    }
}

impl SocketApp for LineReplyApp {
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        for byte in io.read_all() {
            if byte == b'\n' {
                // Body bytes avoid the terminator byte by construction.
                let reply: Vec<u8> = (0..self.body_bytes)
                    .map(|i| b'a' + (i % 26) as u8)
                    .collect();
                self.backlog.extend_from_slice(&reply);
                self.backlog.push(b'\n');
                *self.served.borrow_mut() += 1;
                self.pending_line.clear();
            } else if self.pending_line.len() < MAX_REQUEST_LINE {
                self.pending_line.push(byte);
            }
            // Bytes past the cap are dropped: a peer that never terminates
            // its request line must not grow server memory without bound.
        }
        self.flush_backlog(io);
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        self.flush_backlog(io);
    }
}

/// Longest request line [`LineReplyApp`] buffers before discarding input.
pub const MAX_REQUEST_LINE: usize = 8192;

/// A client that issues `count` request lines, waiting for each full
/// response (terminated by `\n`) before sending the next.
#[derive(Debug)]
pub struct RequestLoopApp {
    remaining: u32,
    state: Shared<RequestLoopState>,
}

/// Progress of a [`RequestLoopApp`].
#[derive(Debug, Clone, Default)]
pub struct RequestLoopState {
    /// Completed request/response exchanges.
    pub completed: u32,
    /// Completion times of each exchange.
    pub completion_times: Vec<SimTime>,
    /// Response bytes of the exchange in progress.
    pub in_progress: Vec<u8>,
    /// Whether the connection was reset.
    pub reset: bool,
}

impl RequestLoopApp {
    /// Creates a client that performs `count` exchanges.
    pub fn new(count: u32, state: Shared<RequestLoopState>) -> Self {
        RequestLoopApp {
            remaining: count,
            state,
        }
    }

    fn send_request(&mut self, io: &mut SocketIo<'_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            io.write(b"GET /object\n");
        } else {
            io.close();
        }
    }
}

impl SocketApp for RequestLoopApp {
    fn on_established(&mut self, io: &mut SocketIo<'_>) {
        self.send_request(io);
    }

    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        let mut finished = false;
        {
            let mut st = self.state.borrow_mut();
            for byte in data {
                if byte == b'\n' {
                    st.completed += 1;
                    st.completion_times.push(io.now());
                    st.in_progress.clear();
                    finished = true;
                } else {
                    st.in_progress.push(byte);
                }
            }
        }
        if finished {
            self.send_request(io);
        }
    }

    fn on_reset(&mut self, _quad: Quad) {
        self.state.borrow_mut().reset = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydranet_netsim::time::SimDuration;

    #[test]
    fn sink_state_tracks_gaps() {
        let mut s = SinkState::default();
        for (ms, byte) in [(10, b'a'), (20, b'b'), (500, b'c'), (510, b'd')] {
            s.data.push(byte);
            s.record_arrival(SimTime::from_millis(ms));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.first_byte_at, Some(SimTime::from_millis(10)));
        assert_eq!(s.last_byte_at, Some(SimTime::from_millis(510)));
        assert_eq!(s.max_gap_duration(), Some(SimDuration::from_millis(480)));
    }

    #[test]
    fn sink_state_empty() {
        let s = SinkState::default();
        assert!(s.is_empty());
        assert!(s.max_gap_duration().is_none());
    }

    #[test]
    fn shared_handles_are_shared() {
        let h = shared(5u32);
        let h2 = h.clone();
        *h.borrow_mut() = 7;
        assert_eq!(*h2.borrow(), 7);
    }
}
