//! # hydranet-obs
//!
//! A zero-dependency, simulation-time-aware telemetry layer for the
//! HydraNet-FT reproduction. The paper's claims are quantitative —
//! detection latency vs. retransmission threshold, ack-channel gating
//! overhead, client-invisible fail-over time — so every layer of the stack
//! records into a shared [`Obs`] handle:
//!
//! - a **metrics registry** ([`metrics`]) of named counters and
//!   fixed-bucket histograms (p50/p90/p99/p999/max), cheap enough for the
//!   event-loop hot path (handles are `Rc<Cell>`s; a disabled handle is a
//!   no-op);
//! - a **structured event timeline** ([`timeline`]) of detector state
//!   transitions, chain reconfigurations, promotions, and redirector table
//!   updates, stamped with simulated time, so a fail-over replays as an
//!   ordered `detect → remove → promote → resume` narrative — one bounded
//!   log that, with tracing on, also holds the span entries the causal
//!   tracer ([`trace`]) replays into spans;
//! - **JSON export** ([`json`], [`Obs::to_json`]) of registry + timeline
//!   per scenario run, consumed by the bench binaries.
//!
//! Timestamps are plain `u64` nanoseconds of simulated time so this crate
//! sits below `hydranet-netsim` in the dependency graph (convert with
//! `SimTime::as_nanos()` at call sites).
//!
//! Metric names follow the `layer.component.name` convention documented in
//! DESIGN.md, e.g. `tcp.stack.10.0.1.1.conn.rto_us`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod metrics;
pub mod timeline;
pub mod trace;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use metrics::{Counter, Histogram, Registry};
use timeline::{Timeline, TimelineEvent};

/// Well-known timeline event kinds (the taxonomy documented in DESIGN.md).
pub mod kinds {
    /// A duplicate client segment was observed by a backup's detector.
    pub const DETECTOR_DUPLICATE: &str = "tcp.detector.duplicate";
    /// The detector crossed its threshold and suspects the primary.
    pub const DETECTOR_SUSPECTED: &str = "tcp.detector.suspected";
    /// Forward progress cleared the detector's duplicate window.
    pub const DETECTOR_CLEARED: &str = "tcp.detector.cleared";
    /// A deposit gate released bytes that had been stalled in the gated
    /// receive buffer of a backup.
    pub const GATE_STALL: &str = "tcp.gate.stall";
    /// A host daemon forwarded a failure suspicion to its redirectors.
    pub const FAILURE_REPORTED: &str = "mgmt.daemon.failure_reported";
    /// A host daemon registered a replica with a redirector.
    pub const REPLICA_REGISTERED: &str = "mgmt.daemon.registered";
    /// A host daemon applied a `SetRole(index = 0)` — primary promotion.
    pub const PROMOTED: &str = "mgmt.daemon.promoted";
    /// The controller started a probe round after a failure report.
    pub const PROBE_STARTED: &str = "mgmt.controller.probe_started";
    /// The controller removed an unresponsive host from a chain.
    pub const HOST_REMOVED: &str = "mgmt.controller.host_removed";
    /// The controller committed a reconfigured chain.
    pub const CHAIN_RECONFIGURED: &str = "mgmt.controller.chain_reconfigured";
    /// A fault-tolerant entry was installed in a redirector table.
    pub const TABLE_INSTALLED: &str = "redirect.table.installed";
    /// An entry was removed from a redirector table.
    pub const TABLE_REMOVED: &str = "redirect.table.removed";
    /// A simulated node crashed (fail-stop).
    pub const NODE_CRASHED: &str = "netsim.node.crashed";
    /// A simulated node recovered.
    pub const NODE_RECOVERED: &str = "netsim.node.recovered";
    /// A link went down.
    pub const LINK_DOWN: &str = "netsim.link.down";
    /// A link came back up.
    pub const LINK_UP: &str = "netsim.link.up";
    /// A link's impairment set was replaced (scheduled or immediate).
    pub const LINK_IMPAIRED: &str = "netsim.link.impaired";
    /// A standby redirector promoted itself to active after losing its peer.
    pub const REDIRECTOR_PROMOTED: &str = "mgmt.controller.redirector_promoted";
    /// An ex-active redirector demoted itself after meeting a newer epoch.
    pub const REDIRECTOR_DEMOTED: &str = "mgmt.controller.redirector_demoted";
    /// A replicated table update carried a stale epoch and was rejected.
    pub const STALE_EPOCH_REJECTED: &str = "mgmt.controller.stale_epoch_rejected";
}

#[derive(Debug, Default)]
struct Inner {
    registry: Registry,
    timeline: Timeline,
    /// The span views' bound on retired spans, set by
    /// [`Obs::enable_tracing`] — tracing is off by default even on an
    /// enabled handle.
    trace_capacity: Option<usize>,
}

/// A shared telemetry handle.
///
/// `Obs` is cheap to clone (an `Rc`); all clones record into the same
/// registry and timeline. The [`Default`] value is **disabled**: every
/// operation is a no-op and handles it returns are no-ops, so components
/// can hold an `Obs` unconditionally without wiring overhead when
/// telemetry is off.
///
/// # Examples
///
/// ```
/// use hydranet_obs::Obs;
///
/// let obs = Obs::enabled();
/// let c = obs.counter("tcp.stack.segments_rx");
/// c.inc();
/// obs.event(1_000, "tcp.detector.suspected", [("quad", "a-b".into())]);
/// assert!(obs.to_json().contains("tcp.detector.suspected"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Rc<RefCell<Inner>>>,
    /// Shared tracing flag, readable without borrowing `inner`: hot paths
    /// check this one `Cell` read before building any span entry, so
    /// disabled tracing costs a load and a branch.
    tracing: Rc<Cell<bool>>,
}

impl Obs {
    /// Creates a live telemetry handle.
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Rc::new(RefCell::new(Inner::default()))),
            tracing: Rc::new(Cell::new(false)),
        }
    }

    /// A disabled handle (same as `Obs::default()`); every call is a no-op.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns (creating if needed) the counter handle for `name`.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(rc) => rc.borrow_mut().registry.counter(name),
            None => Counter::default(),
        }
    }

    /// Returns (creating if needed) the histogram handle for `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(rc) => rc.borrow_mut().registry.histogram(name),
            None => Histogram::default(),
        }
    }

    /// Appends a fact to the timeline at `at_nanos` simulated nanoseconds.
    ///
    /// Facts recorded at the same instant keep their insertion order. When
    /// tracing is on, the well-known fail-over kinds also make up the
    /// crash→detect→report→promote→reconverge phase spans (see [`trace`]).
    /// The log keeps `fields` themselves; nothing is cloned.
    pub fn event(
        &self,
        at_nanos: u64,
        kind: &'static str,
        fields: impl IntoIterator<Item = (&'static str, String)>,
    ) {
        if let Some(rc) = &self.inner {
            // The log keeps a fact for the whole run, so each value is kept
            // at its length: one formatted by `to_string` can carry up to
            // half its capacity spare. Shrinking an exact one is free.
            let fields = fields
                .into_iter()
                .map(|(name, mut value)| {
                    value.shrink_to_fit();
                    (name, value)
                })
                .collect();
            rc.borrow_mut().timeline.push(at_nanos, kind, 0, fields);
        }
    }

    // ------------------------------------------------------------------
    // Causal tracing (spans + flight recorder)
    // ------------------------------------------------------------------

    /// Turns the causal tracer on: span entries are logged from here on,
    /// and the span views show the newest `capacity` retired spans.
    /// Tracing is off by default — even on an enabled handle — so the
    /// data-path span sites cost one flag check until someone asks for
    /// causality. No-op on a disabled handle.
    pub fn enable_tracing(&self, capacity: usize) {
        if let Some(rc) = &self.inner {
            rc.borrow_mut().trace_capacity = Some(capacity.max(1));
            self.tracing.set(true);
        }
    }

    /// Whether span entries currently record anything. One `Cell` read —
    /// hot paths check this before formatting span names or notes.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.get()
    }

    /// Appends a span entry — [`trace::BEGIN`], [`trace::NOTE`],
    /// [`trace::END`] or [`trace::INSTANT`] — under `key` (0 for an
    /// instant). A begin's or an instant's first field is the span's
    /// `(category, name)`; every other field is a note. No-op when tracing
    /// is off.
    pub fn trace(
        &self,
        at_nanos: u64,
        kind: &'static str,
        key: u128,
        fields: impl IntoIterator<Item = (&'static str, String)>,
    ) {
        if !self.tracing.get() {
            return;
        }
        if let Some(rc) = &self.inner {
            let fields = fields.into_iter().collect();
            rc.borrow_mut().timeline.push(at_nanos, kind, key, fields);
        }
    }

    /// Spans the flight recorder no longer shows (surfaced as
    /// `flight_recorder_evicted` in `System::telemetry_json`).
    pub fn trace_evicted(&self) -> u64 {
        self.with_spans(0, |s| s.evicted)
    }

    /// Spans the log's entries have opened, counting those whose begin it
    /// evicted. 0 when tracing is off.
    pub fn spans_opened(&self) -> u64 {
        self.with_spans(0, |s| s.opened)
    }

    /// FNV-1a fingerprint of every recorded span (simulated time only) —
    /// what the determinism guard pins across thread counts. 0 when
    /// tracing is off.
    pub fn span_fingerprint(&self) -> u64 {
        self.with_spans(0, |s| s.fingerprint())
    }

    /// Dumps the flight recorder (newest retired spans + still-open spans)
    /// as a self-contained JSON document. Empty string when tracing is off.
    pub fn flight_recorder_json(&self, meta: &[(&str, String)]) -> String {
        self.with_spans(String::new(), |s| {
            let mut out = String::with_capacity(4096);
            s.write_flight_json(&mut out, meta);
            out
        })
    }

    /// Exports every recorded span as Chrome trace-event JSON for
    /// chrome://tracing. Empty string when tracing is off.
    pub fn chrome_trace_json(&self) -> String {
        self.with_spans(String::new(), |s| {
            let mut out = String::with_capacity(4096);
            s.write_chrome_json(&mut out);
            out
        })
    }

    /// Replays the log into its span view and applies `f`; `default` when
    /// tracing is off.
    fn with_spans<R>(&self, default: R, f: impl FnOnce(&trace::Spans<'_>) -> R) -> R {
        let Some(rc) = &self.inner else {
            return default;
        };
        let inner = rc.borrow();
        match inner.trace_capacity {
            Some(capacity) => f(&trace::Spans::replay(&inner.timeline, capacity)),
            None => default,
        }
    }

    /// A snapshot of every retained fact, oldest first.
    pub fn events(&self) -> Vec<TimelineEvent> {
        match &self.inner {
            Some(rc) => rc.borrow().timeline.facts().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// The instant of the first retained event with the given kind, if
    /// any.
    pub fn first_event_at(&self, kind: &str) -> Option<u64> {
        match &self.inner {
            Some(rc) => rc.borrow().timeline.first_at(kind),
            None => None,
        }
    }

    /// Entries the timeline has evicted (surfaced as `timeline_evicted` in
    /// `System::telemetry_json`).
    pub fn timeline_evicted(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |rc| rc.borrow().timeline.evicted())
    }

    /// Measured failure-detection latency in nanoseconds: the span from the
    /// first `tcp.detector.suspected` event to the first subsequent
    /// `mgmt.daemon.promoted` event — the paper's *detect → promote* window.
    pub fn detection_latency_nanos(&self) -> Option<u64> {
        let rc = self.inner.as_ref()?;
        let inner = rc.borrow();
        let detect = inner.timeline.first_at(kinds::DETECTOR_SUSPECTED)?;
        let promoted = inner
            .timeline
            .entries()
            .find(|e| e.kind == kinds::PROMOTED && e.at_nanos >= detect)?;
        Some(promoted.at_nanos - detect)
    }

    /// Serialises registry + timeline as a JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_with_meta(&[])
    }

    /// Serialises registry + timeline as JSON, with caller-supplied string
    /// metadata (scenario name, seed, …) in a leading `"meta"` object.
    pub fn to_json_with_meta(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"meta\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_string(&mut out, k);
            out.push_str(": ");
            json::push_string(&mut out, v);
        }
        out.push_str("},\n");
        match &self.inner {
            Some(rc) => {
                let inner = rc.borrow();
                out.push_str("  \"metrics\": ");
                inner.registry.write_json(&mut out);
                out.push_str(",\n  \"timeline\": ");
                inner.timeline.write_json(&mut out);
            }
            None => {
                out.push_str(
                    "  \"metrics\": {\"counters\": {}, \"histograms\": {}},\n  \"timeline\": []",
                );
            }
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_is_a_noop() {
        let obs = Obs::disabled();
        obs.counter("x").add(3);
        obs.histogram("h").record(9);
        obs.event(5, kinds::DETECTOR_SUSPECTED, []);
        assert!(!obs.is_enabled());
        assert!(obs.events().is_empty());
        assert_eq!(obs.detection_latency_nanos(), None);
        assert!(obs.to_json().contains("\"timeline\": []"));
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.counter("shared.counter").add(2);
        obs.counter("shared.counter").inc();
        assert!(obs.to_json().contains("\"shared.counter\": 3"));
    }

    #[test]
    fn detection_latency_spans_detect_to_promote() {
        let obs = Obs::enabled();
        obs.event(1_000, kinds::DETECTOR_DUPLICATE, []);
        obs.event(2_000, kinds::DETECTOR_SUSPECTED, []);
        obs.event(3_000, kinds::HOST_REMOVED, []);
        obs.event(7_500, kinds::PROMOTED, []);
        assert_eq!(obs.detection_latency_nanos(), Some(5_500));
    }

    #[test]
    fn detection_latency_requires_both_events() {
        let obs = Obs::enabled();
        obs.event(2_000, kinds::DETECTOR_SUSPECTED, []);
        assert_eq!(obs.detection_latency_nanos(), None);
        // A promotion *before* the suspicion does not count.
        let obs = Obs::enabled();
        obs.event(1_000, kinds::PROMOTED, []);
        obs.event(2_000, kinds::DETECTOR_SUSPECTED, []);
        assert_eq!(obs.detection_latency_nanos(), None);
    }

    #[test]
    fn spans_are_noops_until_tracing_is_enabled() {
        let obs = Obs::enabled();
        assert!(!obs.tracing_enabled());
        let conn = || [("conn", "x".to_string())];
        obs.trace(5, trace::BEGIN, 7, conn());
        obs.trace(8, trace::INSTANT, 0, [("ackchan", "flush".to_string())]);
        assert_eq!(obs.spans_opened(), 0);
        assert_eq!(obs.span_fingerprint(), 0);
        assert_eq!(obs.flight_recorder_json(&[]), "");
        assert_eq!(obs.chrome_trace_json(), "");
        assert!(obs.events().is_empty(), "nothing was logged");

        obs.enable_tracing(16);
        assert!(obs.tracing_enabled());
        obs.trace(5, trace::BEGIN, 7, conn());
        obs.trace(6, trace::NOTE, 7, [("last_rx_lineage", "0x1".into())]);
        obs.trace(7, trace::END, 7, []);
        let flush = [("ackchan", "flush".to_string()), ("pairs", "1".into())];
        obs.trace(8, trace::INSTANT, 0, flush);
        assert_eq!(obs.spans_opened(), 2);
        let dump = obs.flight_recorder_json(&[("scenario", "t".into())]);
        assert!(dump.contains("last_rx_lineage"), "{dump}");
        assert!(
            dump.contains("\"start_nanos\": 8, \"end_nanos\": 8"),
            "{dump}"
        );
        assert_ne!(obs.span_fingerprint(), 0);
        assert!(obs.events().is_empty(), "span entries are not facts");
    }

    #[test]
    fn tracing_flag_is_shared_across_clones() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        obs.enable_tracing(8);
        assert!(clone.tracing_enabled());
        clone.trace(1, trace::BEGIN, 1, [("conn", "k".to_string())]);
        assert_eq!(obs.spans_opened(), 1);
    }

    #[test]
    fn flight_recorder_shows_the_newest_capacity_spans() {
        let obs = Obs::enabled();
        obs.enable_tracing(3);
        for i in 0..5u64 {
            let key = u128::from(i) + 1;
            obs.trace(i, trace::BEGIN, key, [("conn", format!("s{i}"))]);
            obs.trace(i + 1, trace::END, key, []);
        }
        assert_eq!(obs.trace_evicted(), 2);
        assert_eq!(obs.timeline_evicted(), 0, "the log keeps every entry");
        let dump = obs.flight_recorder_json(&[]);
        assert!(dump.contains("\"evicted\": 2"), "{dump}");
        assert!(!dump.contains("\"s0\""), "oldest span must be gone: {dump}");
        assert!(dump.contains("\"s4\""), "newest span must survive: {dump}");
    }

    #[test]
    fn timeline_events_drive_failover_spans_when_tracing() {
        let obs = Obs::enabled();
        obs.enable_tracing(32);
        obs.event(100, kinds::NODE_CRASHED, [("node", "n2".into())]);
        obs.event(200, kinds::DETECTOR_SUSPECTED, []);
        obs.event(250, kinds::FAILURE_REPORTED, []);
        obs.event(300, kinds::PROMOTED, []);
        obs.event(400, kinds::CHAIN_RECONFIGURED, []);
        let dump = obs.flight_recorder_json(&[]);
        for needle in [
            "detect",
            "report",
            "promote",
            "reconverge",
            "crash→reconverge",
            "\"start_nanos\": 100, \"end_nanos\": 400",
        ] {
            assert!(dump.contains(needle), "missing {needle} in {dump}");
        }
        assert_eq!(obs.spans_opened(), 5);
        // The facts themselves are unaffected.
        assert_eq!(obs.events().len(), 5);
    }

    #[test]
    fn json_has_all_sections() {
        let obs = Obs::enabled();
        obs.counter("a.b.count").inc();
        obs.histogram("a.b.lat_us").record(100);
        obs.event(9, kinds::PROMOTED, [("host", "10.0.2.1".into())]);
        let j = obs.to_json_with_meta(&[("scenario", "test".into())]);
        for needle in [
            "\"meta\"",
            "\"scenario\": \"test\"",
            "\"counters\"",
            "\"histograms\"",
            "\"timeline\"",
            "\"a.b.count\": 1",
            "mgmt.daemon.promoted",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        // The registry has two members, and a disabled handle writes the
        // same two, empty.
        let metrics =
            "\"metrics\": {\"counters\": {\"a.b.count\": 1}, \"histograms\": {\"a.b.lat_us\"";
        assert!(j.contains(metrics), "{j}");
        let empty = "\"metrics\": {\"counters\": {}, \"histograms\": {}}";
        assert!(Obs::disabled().to_json().contains(empty));
    }
}
