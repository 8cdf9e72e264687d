//! Causal trace spans and the crash-dump flight recorder.
//!
//! The paper's §4.3 fail-over argument is causal — a segment arrives at a
//! backup, a (SEQ, ACK) report crosses the ack channel, the deposit and
//! transmission gates advance — but counters and a flat timeline cannot
//! answer "*which* connection wedged, and what was the last packet it
//! saw?". This module adds:
//!
//! - **spans**: named intervals of simulated time with parent/child
//!   causality (connection lifecycle, the fail-over phases
//!   crash→detect→report→promote→reconverge, redirector multicast fan-out,
//!   ack-channel flushes), each carrying a bounded list of timestamped
//!   key/value notes;
//! - a **flight recorder**: retired spans live in a bounded ring with an
//!   eviction counter, so tracing through a multi-second chaos run costs
//!   capped memory; on an invariant violation the whole thing dumps as
//!   self-contained JSON — the failing seed's causal story without a
//!   re-run;
//! - **Chrome trace export**: the same spans as chrome://tracing
//!   `traceEvents` JSON;
//! - a **span fingerprint**: an FNV-1a hash over the canonical span
//!   serialisation, containing only simulated time — the determinism
//!   guard pins it bit-identical across thread counts and calendar
//!   backends.
//!
//! This is the workspace's one tracer: the simulator keeps counters, not a
//! packet log, and a packet is followed across hops by the lineage id its
//! spans' notes carry.
//!
//! Everything here is sim-time only (`u64` nanoseconds); no wall clock
//! ever enters a span, so traces are bit-identical across runs.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::json;
use crate::kinds;

/// Span categories get stable Chrome-trace thread ids so each family
/// renders as its own track.
fn chrome_tid(cat: &str) -> u64 {
    match cat {
        "conn" => 1,
        "failover" => 2,
        "redirect" => 3,
        "ackchan" => 4,
        _ => 9,
    }
}

/// One span: a named interval of simulated time with causal parentage and
/// bounded notes. `end_nanos == None` means the span never closed — for a
/// flight-recorder dump that is the interesting case (a wedged
/// connection's span is still open when the invariants fail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Recorder-unique id, assigned in open order.
    pub id: u64,
    /// Parent span id, when opened with a causal parent.
    pub parent: Option<u64>,
    /// Category: `conn`, `failover`, `redirect`, `ackchan`, …
    pub cat: String,
    /// Display name (a quad, a phase name, a service address).
    pub name: String,
    /// Open instant, simulated nanoseconds.
    pub start_nanos: u64,
    /// Close instant, if the span closed.
    pub end_nanos: Option<u64>,
    /// Timestamped key/value annotations, oldest evicted past the cap.
    pub notes: Vec<(u64, String, String)>,
}

impl Span {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"id\": ");
        json::push_u64(out, self.id);
        out.push_str(", \"parent\": ");
        match self.parent {
            Some(p) => json::push_u64(out, p),
            None => out.push_str("null"),
        }
        out.push_str(", \"cat\": ");
        json::push_string(out, &self.cat);
        out.push_str(", \"name\": ");
        json::push_string(out, &self.name);
        out.push_str(", \"start_nanos\": ");
        json::push_u64(out, self.start_nanos);
        out.push_str(", \"end_nanos\": ");
        match self.end_nanos {
            Some(e) => json::push_u64(out, e),
            None => out.push_str("null"),
        }
        self.write_notes(out);
        out.push('}');
    }

    /// Writes `, "notes": [[at, k, v], …]` — one array, so notes sharing a
    /// key and an instant all survive a JSON parser.
    fn write_notes(&self, out: &mut String) {
        out.push_str(", \"notes\": [");
        for (i, (at, k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            json::push_u64(out, *at);
            out.push_str(", ");
            json::push_string(out, k);
            out.push_str(", ");
            json::push_string(out, v);
            out.push(']');
        }
        out.push(']');
    }

    fn fingerprint_into(&self, acc: &mut u64) {
        fnv_u64(acc, self.id);
        fnv_u64(acc, self.parent.map_or(u64::MAX, |p| p));
        fnv_str(acc, &self.cat);
        fnv_str(acc, &self.name);
        fnv_u64(acc, self.start_nanos);
        fnv_u64(acc, self.end_nanos.map_or(u64::MAX, |e| e));
        for (at, k, v) in &self.notes {
            fnv_u64(acc, *at);
            fnv_str(acc, k);
            fnv_str(acc, v);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_byte(acc: &mut u64, b: u8) {
    *acc ^= u64::from(b);
    *acc = acc.wrapping_mul(FNV_PRIME);
}

fn fnv_u64(acc: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        fnv_byte(acc, b);
    }
}

fn fnv_str(acc: &mut u64, s: &str) {
    for &b in s.as_bytes() {
        fnv_byte(acc, b);
    }
    fnv_byte(acc, 0xFF); // field separator
}

/// Notes kept per span; older notes are dropped first, so the *last*
/// lineage-linked packet a wedged connection saw always survives.
pub const NOTES_PER_SPAN: usize = 16;

/// Span key of the fail-over root; a phase's key is `failover/<phase>`.
const FAILOVER_ROOT: &str = "failover";

/// The fail-over phase table, in §4.3 order: timeline kind → phase it
/// closes → phase it opens. A crash closes nothing (it starts the tree);
/// the last phase opens nothing (the root closes with it).
const FAILOVER_PHASES: [(&str, Option<&str>, Option<&str>); 5] = [
    (kinds::NODE_CRASHED, None, Some("detect")),
    (kinds::DETECTOR_SUSPECTED, Some("detect"), Some("report")),
    (kinds::FAILURE_REPORTED, Some("report"), Some("promote")),
    (kinds::PROMOTED, Some("promote"), Some("reconverge")),
    (kinds::CHAIN_RECONFIGURED, Some("reconverge"), None),
];

/// The tracer state behind an enabled [`crate::Obs`]: open spans keyed by
/// caller-chosen strings, plus the bounded ring of retired spans.
#[derive(Debug)]
pub struct TraceData {
    next_id: u64,
    /// Open spans by key. `BTreeMap` for deterministic iteration order in
    /// dumps and fingerprints.
    open: BTreeMap<String, Span>,
    /// Retired spans, oldest first; bounded at `capacity`.
    ring: VecDeque<Span>,
    capacity: usize,
    evicted: u64,
    /// Fail-over phase machine: the id of the first fail-over's root span.
    /// It stays set once the tree closes, so only one fail-over is spanned.
    failover_root: Option<u64>,
}

impl TraceData {
    pub(crate) fn new(capacity: usize) -> Self {
        TraceData {
            next_id: 0,
            open: BTreeMap::new(),
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
            failover_root: None,
        }
    }

    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }

    fn retire(&mut self, span: Span) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(span);
    }

    /// Opens a span. Re-opening a live key retires the old span first (a
    /// reused connection quad starts a fresh lifecycle span). Returns the
    /// new span's id.
    pub(crate) fn open(
        &mut self,
        key: &str,
        cat: &str,
        name: &str,
        parent: Option<u64>,
        at_nanos: u64,
    ) -> u64 {
        if let Some(old) = self.open.remove(key) {
            self.retire(old);
        }
        // The open-span map is bounded by the same capacity as the ring:
        // past it, the oldest open span is force-retired (still open —
        // `end_nanos` stays `None` in the ring).
        if self.open.len() >= self.capacity {
            if let Some(oldest_key) = self
                .open
                .iter()
                .min_by_key(|(_, s)| s.id)
                .map(|(k, _)| k.clone())
            {
                let old = self.open.remove(&oldest_key).expect("key just found");
                self.retire(old);
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.insert(
            key.to_string(),
            Span {
                id,
                parent,
                cat: cat.to_string(),
                name: name.to_string(),
                start_nanos: at_nanos,
                end_nanos: None,
                notes: Vec::new(),
            },
        );
        id
    }

    /// Retires an instantaneous span — start = end = `at_nanos`, no
    /// parent — carrying the newest [`NOTES_PER_SPAN`] of `notes`. It
    /// takes the next id but never enters the open-span map, so it cannot
    /// force-retire a live span.
    pub(crate) fn span<'a>(
        &mut self,
        cat: &str,
        name: &str,
        at_nanos: u64,
        notes: impl IntoIterator<Item = (&'a str, String)>,
    ) {
        let mut notes: Vec<_> = notes
            .into_iter()
            .map(|(k, v)| (at_nanos, k.to_string(), v))
            .collect();
        notes.drain(..notes.len().saturating_sub(NOTES_PER_SPAN));
        let id = self.next_id;
        self.next_id += 1;
        self.retire(Span {
            id,
            parent: None,
            cat: cat.to_string(),
            name: name.to_string(),
            start_nanos: at_nanos,
            end_nanos: Some(at_nanos),
            notes,
        });
    }

    /// Closes the span under `key` (no-op when absent) and retires it.
    pub(crate) fn close(&mut self, key: &str, at_nanos: u64) {
        if let Some(mut span) = self.open.remove(key) {
            span.end_nanos = Some(at_nanos.max(span.start_nanos));
            self.retire(span);
        }
    }

    /// Appends a timestamped note to the open span under `key` (no-op when
    /// absent). Past [`NOTES_PER_SPAN`], the oldest note is dropped.
    pub(crate) fn note(&mut self, key: &str, at_nanos: u64, k: &str, v: String) {
        if let Some(span) = self.open.get_mut(key) {
            if span.notes.len() >= NOTES_PER_SPAN {
                span.notes.remove(0);
            }
            span.notes.push((at_nanos, k.to_string(), v));
        }
    }

    /// Feeds one timeline event into the fail-over phase machine, driven by
    /// [`FAILOVER_PHASES`]: the first `netsim.node.crashed` opens the
    /// `crash→reconverge` root and its `detect` phase, each later kind
    /// closes the phase it names and opens the next, and
    /// `mgmt.controller.chain_reconfigured` closes the last phase and the
    /// root. The event's fields become notes on the root (crash) or on the
    /// phase it closes. A kind whose phase is not open — out of order or
    /// repeated — does nothing, and only the first fail-over is spanned.
    pub(crate) fn on_event(&mut self, at_nanos: u64, kind: &str, fields: &[(&str, String)]) {
        let Some(&(_, closes, opens)) = FAILOVER_PHASES.iter().find(|(k, ..)| *k == kind) else {
            return;
        };
        let phase_key = |phase: &str| format!("{FAILOVER_ROOT}/{phase}");
        let closes = closes.map(phase_key);
        let root = match (&closes, self.failover_root) {
            (None, None) => {
                let root = self.open(
                    FAILOVER_ROOT,
                    "failover",
                    "crash→reconverge",
                    None,
                    at_nanos,
                );
                self.failover_root = Some(root);
                root
            }
            (Some(key), Some(root)) if self.open.contains_key(key) => root,
            _ => return,
        };
        let noted = closes.as_deref().unwrap_or(FAILOVER_ROOT);
        for (k, v) in fields {
            self.note(noted, at_nanos, k, v.clone());
        }
        if let Some(key) = &closes {
            self.close(key, at_nanos);
        }
        match opens {
            Some(phase) => {
                self.open(&phase_key(phase), "failover", phase, Some(root), at_nanos);
            }
            None => self.close(FAILOVER_ROOT, at_nanos),
        }
    }

    /// Serialises the flight recorder — retired ring plus still-open spans
    /// — as a self-contained JSON document with caller-supplied metadata.
    pub(crate) fn write_flight_json(&self, out: &mut String, meta: &[(&str, String)]) {
        out.push_str("{\n\"meta\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_string(out, k);
            out.push_str(": ");
            json::push_string(out, v);
        }
        out.push_str("},\n\"capacity\": ");
        json::push_u64(out, self.capacity as u64);
        out.push_str(",\n\"evicted\": ");
        json::push_u64(out, self.evicted);
        out.push_str(",\n\"spans\": [\n");
        for (i, span) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            span.write_json(out);
        }
        out.push_str("\n],\n\"open_spans\": [\n");
        for (i, span) in self.open.values().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            span.write_json(out);
        }
        out.push_str("\n]\n}\n");
    }

    /// Serialises every span as Chrome trace-event JSON (`traceEvents`
    /// array of `"X"` complete events; still-open spans get zero duration
    /// and an `"open": true` arg). Load in chrome://tracing or Perfetto.
    pub(crate) fn write_chrome_json(&self, out: &mut String) {
        out.push_str("{\"traceEvents\": [\n");
        let mut first = true;
        let mut push_span = |out: &mut String, span: &Span, open: bool| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  {\"name\": ");
            json::push_string(out, &span.name);
            out.push_str(", \"cat\": ");
            json::push_string(out, &span.cat);
            out.push_str(", \"ph\": \"X\", \"ts\": ");
            json::push_f64(out, span.start_nanos as f64 / 1e3);
            out.push_str(", \"dur\": ");
            let dur = span.end_nanos.map_or(0, |e| e - span.start_nanos);
            json::push_f64(out, dur as f64 / 1e3);
            out.push_str(", \"pid\": 1, \"tid\": ");
            json::push_u64(out, chrome_tid(&span.cat));
            out.push_str(", \"args\": {\"id\": ");
            json::push_u64(out, span.id);
            out.push_str(", \"parent\": ");
            match span.parent {
                Some(p) => json::push_u64(out, p),
                None => out.push_str("null"),
            }
            if open {
                out.push_str(", \"open\": true");
            }
            span.write_notes(out);
            out.push_str("}}");
        };
        for span in &self.ring {
            push_span(out, span, false);
        }
        for span in self.open.values() {
            push_span(out, span, true);
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    }

    /// FNV-1a over the canonical serialisation of every span (retired ring
    /// in order, then open spans in key order). Pure simulated time — the
    /// determinism guard pins this across thread counts and calendar
    /// backends.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut acc = FNV_OFFSET;
        for span in &self.ring {
            span.fingerprint_into(&mut acc);
        }
        for span in self.open.values() {
            span.fingerprint_into(&mut acc);
        }
        acc
    }

    /// Total spans opened so far.
    pub(crate) fn spans_opened(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_retires_in_order() {
        let mut t = TraceData::new(8);
        let a = t.open("a", "conn", "a", None, 10);
        let b = t.open("b", "conn", "b", Some(a), 20);
        assert_eq!(t.open["a"].id, a);
        t.close("a", 30);
        t.close("b", 40);
        assert_eq!(t.ring.len(), 2);
        assert_eq!(t.ring[0].id, a);
        assert_eq!(t.ring[0].end_nanos, Some(30));
        assert_eq!(t.ring[1].parent, Some(a));
        assert_eq!(t.ring[1].id, b);
        assert!(t.open.is_empty());
        assert_eq!(t.evicted(), 0);
    }

    #[test]
    fn ring_caps_and_evicts_oldest() {
        let mut t = TraceData::new(4);
        for i in 0..7u64 {
            t.open(&format!("s{i}"), "conn", &format!("s{i}"), None, i);
            t.close(&format!("s{i}"), i + 1);
        }
        assert_eq!(t.ring.len(), 4);
        assert_eq!(t.evicted(), 3);
        // Oldest three gone; newest four retained in order.
        let names: Vec<&str> = t.ring.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["s3", "s4", "s5", "s6"]);
    }

    /// Both ways into a span keep the newest [`NOTES_PER_SPAN`] notes: one
    /// note at a time on an open span, and all at once on an instantaneous
    /// one.
    #[test]
    fn notes_are_bounded_keeping_newest() {
        // Capacity 1: the open `conn` span fills the open-span map, so an
        // open-then-close would force-retire it.
        let mut t = TraceData::new(1);
        t.open("k", "conn", "k", None, 0);
        for i in 0..(NOTES_PER_SPAN as u64 + 5) {
            t.note("k", i, "seq", i.to_string());
        }
        let span = t.open.get("k").unwrap();
        assert_eq!(span.notes.len(), NOTES_PER_SPAN);
        // The newest note survives; the oldest five were dropped.
        assert_eq!(
            span.notes.last().unwrap().2,
            (NOTES_PER_SPAN + 4).to_string()
        );
        assert_eq!(span.notes[0].2, "5");
        let conn = span.clone();

        let notes = (0..20).map(|i| ("pair", i.to_string()));
        t.span("ackchan", "flush", 30, notes);
        assert_eq!(t.ring.len(), 1);
        let flush = &t.ring[0];
        assert_eq!(flush.id, 1, "the next id");
        assert_eq!((flush.start_nanos, flush.end_nanos), (30, Some(30)));
        let kept: Vec<&str> = flush.notes.iter().map(|n| n.2.as_str()).collect();
        let newest: Vec<String> = (4..20).map(|i| i.to_string()).collect();
        assert_eq!(kept, newest);
        assert!(flush.notes.iter().all(|n| n.0 == 30 && n.1 == "pair"));
        assert_eq!(t.open.get("k"), Some(&conn), "the open span is untouched");
        assert_eq!((t.spans_opened(), t.evicted()), (2, 0));
    }

    #[test]
    fn reopening_a_live_key_retires_the_old_span() {
        let mut t = TraceData::new(4);
        let first = t.open("k", "conn", "gen1", None, 0);
        let second = t.open("k", "conn", "gen2", None, 10);
        assert_ne!(first, second);
        assert_eq!(t.ring.len(), 1);
        assert_eq!(t.ring[0].name, "gen1");
        assert_eq!(t.ring[0].end_nanos, None, "force-retired spans stay open");
        assert_eq!(t.open["k"].id, second);
    }

    #[test]
    fn failover_phase_machine_builds_the_span_tree() {
        let mut t = TraceData::new(32);
        t.on_event(100, crate::kinds::NODE_CRASHED, &[("node", "n2".into())]);
        t.on_event(200, crate::kinds::DETECTOR_SUSPECTED, &[]);
        t.on_event(250, crate::kinds::FAILURE_REPORTED, &[]);
        t.on_event(300, crate::kinds::PROMOTED, &[("host", "10.0.3.1".into())]);
        t.on_event(400, crate::kinds::CHAIN_RECONFIGURED, &[]);
        assert!(t.open.is_empty(), "all phases closed");
        let names: Vec<&str> = t.ring.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "detect",
                "report",
                "promote",
                "reconverge",
                "crash→reconverge"
            ]
        );
        let root_id = t.ring.back().unwrap().id;
        assert!(t.ring.iter().take(4).all(|s| s.parent == Some(root_id)));
        assert_eq!(t.ring[0].start_nanos, 100);
        assert_eq!(t.ring[0].end_nanos, Some(200));
        assert_eq!(t.ring[3].end_nanos, Some(400));
        // A crash's fields note the root; any other kind's, the phase it
        // closes.
        let note = |i: usize| t.ring[i].notes.clone();
        assert_eq!(note(4), [(100, "node".to_string(), "n2".to_string())]);
        assert_eq!(note(2), [(300, "host".to_string(), "10.0.3.1".to_string())]);
    }

    /// Feeds the §4.3 arc crash → suspected → reported → promoted →
    /// reconfigured, starting at `t0`.
    fn failover_arc(t: &mut TraceData, t0: u64) {
        use crate::kinds::*;
        let arc = [
            NODE_CRASHED,
            DETECTOR_SUSPECTED,
            FAILURE_REPORTED,
            PROMOTED,
            CHAIN_RECONFIGURED,
        ];
        for (i, kind) in arc.into_iter().enumerate() {
            t.on_event(t0 + 100 * i as u64, kind, &[]);
        }
    }

    /// A kind whose phase is not open is not a transition: out of order or
    /// repeated, it opens, closes and notes nothing.
    #[test]
    fn kinds_out_of_order_or_repeated_open_and_close_nothing() {
        use crate::kinds::*;
        let mut t = TraceData::new(32);
        // No crash yet: a reconfiguration or promotion is not a fail-over.
        t.on_event(50, CHAIN_RECONFIGURED, &[("chain", "c".into())]);
        t.on_event(60, PROMOTED, &[("host", "h".into())]);
        assert_eq!(t.spans_opened(), 0);
        assert!(t.open.is_empty() && t.ring.is_empty());

        t.on_event(100, NODE_CRASHED, &[]);
        // Promotion and reconvergence before the report was made.
        t.on_event(150, PROMOTED, &[("host", "h".into())]);
        t.on_event(160, CHAIN_RECONFIGURED, &[]);
        t.on_event(200, DETECTOR_SUSPECTED, &[]);
        // Repeats: the phase each would close is already closed.
        t.on_event(210, DETECTOR_SUSPECTED, &[("again", "1".into())]);
        t.on_event(220, NODE_CRASHED, &[("node", "n3".into())]);
        t.on_event(250, FAILURE_REPORTED, &[]);
        t.on_event(260, FAILURE_REPORTED, &[]);
        assert_eq!(t.spans_opened(), 4, "root, detect, report, promote");
        let open: Vec<&str> = t.open.keys().map(String::as_str).collect();
        assert_eq!(open, ["failover", "failover/promote"]);
        let retired: Vec<_> = t
            .ring
            .iter()
            .map(|s| (s.name.as_str(), s.end_nanos))
            .collect();
        assert_eq!(retired, [("detect", Some(200)), ("report", Some(250))]);
        assert!(t
            .ring
            .iter()
            .chain(t.open.values())
            .all(|s| s.notes.is_empty()));

        t.on_event(300, PROMOTED, &[]);
        t.on_event(400, CHAIN_RECONFIGURED, &[]);
        t.on_event(410, PROMOTED, &[]);
        t.on_event(420, CHAIN_RECONFIGURED, &[]);
        assert!(t.open.is_empty());
        assert_eq!(t.spans_opened(), 5);
        assert_eq!(t.ring.back().unwrap().end_nanos, Some(400));
    }

    /// Only the first fail-over is spanned: a second crash after the first
    /// tree closed starts nothing, and the arc that follows adds nothing.
    #[test]
    fn a_second_crash_after_the_first_failover_opens_no_new_tree() {
        let mut t = TraceData::new(32);
        failover_arc(&mut t, 100);
        assert!(t.open.is_empty());
        assert_eq!(t.spans_opened(), 5);
        let fingerprint = t.fingerprint();
        failover_arc(&mut t, 10_000);
        assert!(t.open.is_empty());
        assert_eq!(t.spans_opened(), 5);
        assert_eq!(t.fingerprint(), fingerprint);
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let build = |notes: bool| {
            let mut t = TraceData::new(8);
            t.open("a", "conn", "a", None, 1);
            if notes {
                t.note("a", 2, "k", "v".into());
            }
            t.close("a", 3);
            t.fingerprint()
        };
        assert_eq!(build(false), build(false));
        assert_ne!(build(false), build(true));
    }

    #[test]
    fn flight_json_and_chrome_json_are_well_formed() {
        let mut t = TraceData::new(4);
        let root = t.open("f", "failover", "crash→reconverge", None, 1_000);
        t.open(
            "c",
            "conn",
            "10.0.1.1:40000-192.20.225.20:80",
            Some(root),
            2_000,
        );
        t.note("c", 2_500, "last_rx_lineage", "0x2a".into());
        t.close("f", 9_000);
        let mut flight = String::new();
        t.write_flight_json(&mut flight, &[("scenario", "test".into())]);
        for needle in [
            "\"scenario\": \"test\"",
            "\"evicted\": 0",
            "\"open_spans\": [",
            "10.0.1.1:40000-192.20.225.20:80",
            "last_rx_lineage",
            "\"end_nanos\": null",
        ] {
            assert!(flight.contains(needle), "missing {needle} in {flight}");
        }
        let mut chrome = String::new();
        t.write_chrome_json(&mut chrome);
        for needle in [
            "\"traceEvents\": [",
            "\"ph\": \"X\"",
            "\"ts\": 1",
            "\"dur\": 8",
            "\"open\": true",
        ] {
            assert!(chrome.contains(needle), "missing {needle} in {chrome}");
        }
    }

    /// A fan-out notes one `member` per chain host at one instant. Notes
    /// must not become args keys — two equal keys in one object keep only
    /// the last under a JSON parser — so the Chrome export writes them as
    /// the flight dump does: one `notes` array, every note in order.
    #[test]
    fn chrome_export_keeps_same_instant_notes_with_one_key() {
        let mut t = TraceData::new(4);
        t.open("f", "redirect", "fanout", None, 5);
        t.note("f", 5, "member", "10.0.2.1".into());
        t.note("f", 5, "member", "10.0.3.1".into());
        t.close("f", 5);
        let notes = r#""notes": [[5, "member", "10.0.2.1"], [5, "member", "10.0.3.1"]]"#;
        let mut chrome = String::new();
        t.write_chrome_json(&mut chrome);
        assert!(chrome.contains(notes), "{chrome}");
        assert_eq!(chrome.matches("\"member").count(), 2, "{chrome}");
        let mut flight = String::new();
        t.write_flight_json(&mut flight, &[]);
        assert!(flight.contains(notes), "{flight}");
    }
}
