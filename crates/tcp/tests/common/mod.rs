//! Shared test support: a netsim node wrapping a `TcpStack`, plus simple
//! applications with shared-state handles.

#![allow(dead_code)] // not every integration test uses every helper

use std::cell::RefCell;
use std::rc::Rc;

use hydranet_netsim::prelude::*;
use hydranet_tcp::prelude::*;

/// A host node driving a [`TcpStack`] (single-homed: interface 0).
pub struct StackHost {
    pub stack: TcpStack,
    pub events: Vec<StackEvent>,
    name: String,
}

impl StackHost {
    pub fn new(name: impl Into<String>, addr: IpAddr, cfg: TcpConfig) -> Self {
        StackHost {
            stack: TcpStack::new(addr, cfg),
            events: Vec::new(),
            name: name.into(),
        }
    }

    pub fn flush(&mut self, ctx: &mut Context<'_>) {
        for p in self.stack.take_packets() {
            ctx.send(IfaceId::from_index(0), p);
        }
        let mut events = Vec::new();
        self.stack.take_events_into(&mut events);
        self.events.extend(events);
        if let Some(t) = self.stack.next_deadline() {
            ctx.set_timer_at(t);
        }
    }
}

impl Node for StackHost {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        self.stack.handle_packet(packet, ctx.now());
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>) {
        self.stack.on_timer(ctx.now());
        self.flush(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Shared byte-collector handle.
pub type Collected = Rc<RefCell<Vec<u8>>>;

/// Shared record of how an app's connections ended: one
/// [`ConnEvent::Reset`] or [`ConnEvent::Closed`] per `on_reset` /
/// `on_closed` call.
pub type Ends = Rc<RefCell<Vec<ConnEvent>>>;

/// Server app: accumulates received bytes into shared state; optionally
/// echoes everything back. A deterministic replicated service must not
/// drop bytes when the send buffer fills (a real server would block), so
/// unaccepted echo bytes are kept in a backlog and flushed when space
/// opens.
pub struct CollectApp {
    pub received: Collected,
    pub echo: bool,
    pub backlog: Vec<u8>,
}

impl CollectApp {
    pub fn new(received: Collected, echo: bool) -> Self {
        CollectApp {
            received,
            echo,
            backlog: Vec::new(),
        }
    }

    fn flush_backlog(&mut self, io: &mut SocketIo<'_>) {
        while !self.backlog.is_empty() {
            let n = io.write(&self.backlog);
            if n == 0 {
                break;
            }
            self.backlog.drain(..n);
        }
    }
}

impl SocketApp for CollectApp {
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        if self.echo {
            self.backlog.extend_from_slice(&data);
            self.flush_backlog(io);
        }
        self.received.borrow_mut().extend(data);
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        self.flush_backlog(io);
    }
}

/// Client app: streams a fixed payload starting at establishment (refilling
/// the send buffer as space opens), collects replies and records how the
/// connection ended.
pub struct SendOnceApp {
    pub payload: Vec<u8>,
    pub received: Collected,
    pub close_after: Option<usize>,
    pub ends: Ends,
}

impl SendOnceApp {
    fn pump_writes(&mut self, io: &mut SocketIo<'_>) {
        while !self.payload.is_empty() {
            let n = io.write(&self.payload);
            if n == 0 {
                break;
            }
            self.payload.drain(..n);
        }
    }
}

impl SocketApp for SendOnceApp {
    fn on_established(&mut self, io: &mut SocketIo<'_>) {
        self.pump_writes(io);
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        self.pump_writes(io);
    }

    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let data = io.read_all();
        self.received.borrow_mut().extend(data);
        if let Some(n) = self.close_after {
            if self.received.borrow().len() >= n {
                io.close();
            }
        }
    }

    fn on_reset(&mut self, _quad: Quad) {
        self.ends.borrow_mut().push(ConnEvent::Reset);
    }

    fn on_closed(&mut self, _quad: Quad) {
        self.ends.borrow_mut().push(ConnEvent::Closed);
    }
}

/// A plain L3 replicator used to stand in for the HydraNet redirector in
/// transport-level tests: packets whose destination matches `service_addr`
/// are copied to every server interface; everything else is forwarded by
/// its destination address.
pub struct Replicator {
    pub service_addr: IpAddr,
    /// Interfaces of the replica links, in chain order.
    pub server_ifaces: Vec<IfaceId>,
    /// `(address, iface)` routes for unicast traffic.
    pub routes: Vec<(IpAddr, IfaceId)>,
}

impl Node for Replicator {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        if packet.dst() == self.service_addr {
            for &iface in &self.server_ifaces {
                ctx.send(iface, packet.clone());
            }
            return;
        }
        if let Some(&(_, iface)) = self.routes.iter().find(|(a, _)| *a == packet.dst()) {
            ctx.send(iface, packet);
        }
    }

    fn name(&self) -> &str {
        "replicator"
    }
}

pub fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}
