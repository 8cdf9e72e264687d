//! Causal trace spans and the crash-dump flight recorder, as views of the
//! event log.
//!
//! The paper's §4.3 fail-over argument is causal — a segment arrives at a
//! backup, a (SEQ, ACK) report crosses the ack channel, the deposit and
//! transmission gates advance — but counters and a flat list of facts
//! cannot answer "*which* connection wedged, and what was the last packet
//! it saw?". With tracing on, the data path writes four more entry kinds
//! into the one [`crate::timeline`] ring — [`BEGIN`], [`NOTE`], [`END`] and
//! [`INSTANT`] — and this module replays the ring into:
//!
//! - **spans**: named intervals of simulated time with parent/child
//!   causality (connection lifecycle, the fail-over phases
//!   crash→detect→report→promote→reconverge, redirector multicast fan-out,
//!   ack-channel flushes, failure reports), each carrying a bounded list
//!   of timestamped key/value notes;
//! - a **flight recorder**: the newest `capacity` retired spans plus the
//!   still-open ones, with a count of the older ones — on an invariant
//!   violation it dumps as self-contained JSON, the failing seed's causal
//!   story without a re-run;
//! - **Chrome trace export**: the same spans as chrome://tracing
//!   `traceEvents` JSON;
//! - a **span fingerprint**: an FNV-1a hash over the canonical span
//!   serialisation, containing only simulated time — the determinism
//!   guard pins it bit-identical across thread counts.
//!
//! This is the workspace's one tracer: the simulator keeps counters, not a
//! packet log, and a packet is followed across hops by the lineage id its
//! spans' notes carry.
//!
//! Everything here is sim-time only (`u64` nanoseconds); no wall clock
//! ever enters a span, so traces are bit-identical across runs.

use std::collections::BTreeMap;

use crate::json;
use crate::kinds;
use crate::timeline::Timeline;

/// Opens the span under the entry's key. Its first field is the span's
/// `(category, name)`; the rest are notes.
pub const BEGIN: &str = "span.begin";
/// Notes the open span under the entry's key.
pub const NOTE: &str = "span.note";
/// Notes and closes the open span under the entry's key.
pub const END: &str = "span.end";
/// A span that opens and closes at one instant, with no key; its fields
/// are laid out as a [`BEGIN`]'s.
pub const INSTANT: &str = "span.instant";

/// Whether `kind` is one of the four span-entry kinds.
pub(crate) fn is_span_kind(kind: &str) -> bool {
    kind.starts_with("span.")
}

/// Whether an entry of `kind` opens a span of its own.
pub(crate) fn opens_span(kind: &str) -> bool {
    kind == BEGIN || kind == INSTANT
}

/// Span categories get stable Chrome-trace thread ids so each family
/// renders as its own track.
fn chrome_tid(cat: &str) -> u64 {
    match cat {
        "conn" => 1,
        "failover" => 2,
        "redirect" => 3,
        "ackchan" => 4,
        "mgmt" => 5,
        _ => 9,
    }
}

/// Notes kept per span; older notes are dropped first, so the *last*
/// lineage-linked packet a wedged connection saw always survives.
pub const NOTES_PER_SPAN: usize = 16;

/// The fail-over phase table, in §4.3 order: fact kind → phase it closes →
/// phase it opens. A crash closes nothing (it starts the tree); the last
/// phase opens nothing (the root closes with it).
const FAILOVER_PHASES: [(&str, Option<&str>, Option<&str>); 5] = [
    (kinds::NODE_CRASHED, None, Some("detect")),
    (kinds::DETECTOR_SUSPECTED, Some("detect"), Some("report")),
    (kinds::FAILURE_REPORTED, Some("report"), Some("promote")),
    (kinds::PROMOTED, Some("promote"), Some("reconverge")),
    (kinds::CHAIN_RECONFIGURED, Some("reconverge"), None),
];

/// One span: a named interval of simulated time with causal parentage and
/// bounded notes, borrowed from the log it was replayed from.
/// `end_nanos == None` means the span never closed — for a flight-recorder
/// dump that is the interesting case (a wedged connection's span is still
/// open when the invariants fail).
#[derive(Debug)]
struct Span<'a> {
    id: u64,
    parent: Option<u64>,
    cat: &'a str,
    name: &'a str,
    start_nanos: u64,
    end_nanos: Option<u64>,
    notes: Vec<(u64, &'a str, &'a str)>,
}

impl<'a> Span<'a> {
    /// Appends `fields` as notes at `at`, keeping the newest
    /// [`NOTES_PER_SPAN`].
    fn note(&mut self, at: u64, fields: &'a [(&'static str, String)]) {
        self.notes
            .extend(fields.iter().map(|(k, v)| (at, *k, v.as_str())));
        self.notes
            .drain(..self.notes.len().saturating_sub(NOTES_PER_SPAN));
    }

    fn close(mut self, at: u64) -> Self {
        self.end_nanos = Some(at.max(self.start_nanos));
        self
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"id\": ");
        json::push_u64(out, self.id);
        out.push_str(", \"parent\": ");
        push_opt(out, self.parent);
        out.push_str(", \"cat\": ");
        json::push_string(out, self.cat);
        out.push_str(", \"name\": ");
        json::push_string(out, self.name);
        out.push_str(", \"start_nanos\": ");
        json::push_u64(out, self.start_nanos);
        out.push_str(", \"end_nanos\": ");
        push_opt(out, self.end_nanos);
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
        fnv_u64(acc, self.parent.unwrap_or(u64::MAX));
        fnv_str(acc, self.cat);
        fnv_str(acc, self.name);
        fnv_u64(acc, self.start_nanos);
        fnv_u64(acc, self.end_nanos.unwrap_or(u64::MAX));
        for (at, k, v) in &self.notes {
            fnv_u64(acc, *at);
            fnv_str(acc, k);
            fnv_str(acc, v);
        }
    }
}

fn push_opt(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => json::push_u64(out, v),
        None => out.push_str("null"),
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

/// The span view of a log: what every trace export reads.
#[derive(Debug)]
pub(crate) struct Spans<'a> {
    /// The newest `capacity` retired spans, in retirement order.
    retired: Vec<Span<'a>>,
    /// Still-open spans, by `(cat, name)`.
    open: Vec<Span<'a>>,
    /// Spans opened, counting those whose begin the log evicted.
    pub(crate) opened: u64,
    /// Spans opened but not shown: retired past `capacity`, or evicted
    /// from the log with their begin.
    pub(crate) evicted: u64,
    capacity: usize,
}

impl<'a> Spans<'a> {
    /// Replays the log's retained entries, oldest first.
    ///
    /// Ids are assigned in open order: each begin, each instant and each
    /// fail-over phase at the fact that opens it, counting on from the
    /// spans the log's evicted entries opened. Re-opening a live key
    /// retires the old span still open; a note or end with no open span
    /// under its key — never begun, or begun in an evicted entry — is
    /// dropped.
    ///
    /// Facts drive the fail-over tree through [`FAILOVER_PHASES`]: the
    /// first `netsim.node.crashed` opens the `crash→reconverge` root and
    /// its `detect` phase, each later kind closes the phase it names and
    /// opens the next, and `mgmt.controller.chain_reconfigured` closes the
    /// last phase and the root. A fact's fields become notes on the root
    /// (crash) or on the phase it closes. A kind whose phase is not open —
    /// out of order or repeated — does nothing, and only the first
    /// fail-over is spanned.
    pub(crate) fn replay(log: &'a Timeline, capacity: usize) -> Self {
        let mut next_id = log.evicted_spans();
        let mut new_span = |parent, cat: &'a str, name: &'a str, at| {
            next_id += 1;
            Span {
                id: next_id - 1,
                parent,
                cat,
                name,
                start_nanos: at,
                end_nanos: None,
                notes: Vec::new(),
            }
        };
        let mut keyed: BTreeMap<u128, Span<'a>> = BTreeMap::new();
        let mut retired = Vec::new();
        let (mut root, mut phase): (Option<Span<'a>>, Option<Span<'a>>) = (None, None);
        let mut failover_seen = false;
        for e in log.entries() {
            let (at, kind, key, fields) = (e.at_nanos, e.kind, e.key, &e.fields);
            match kind {
                BEGIN | INSTANT => {
                    let Some(((cat, name), notes)) = fields.split_first() else {
                        continue;
                    };
                    let mut span = new_span(None, cat, name, at);
                    span.note(at, notes);
                    if kind == INSTANT {
                        retired.push(span.close(at));
                    } else if let Some(old) = keyed.insert(key, span) {
                        retired.push(old);
                    }
                }
                NOTE | END => {
                    if let Some(span) = keyed.get_mut(&key) {
                        span.note(at, fields);
                    }
                    if kind == END {
                        retired.extend(keyed.remove(&key).map(|s| s.close(at)));
                    }
                }
                _ => {
                    let Some(&(_, closes, opens)) = FAILOVER_PHASES.iter().find(|r| r.0 == kind)
                    else {
                        continue;
                    };
                    let noted = match closes {
                        None if !failover_seen => {
                            failover_seen = true;
                            root.insert(new_span(None, "failover", "crash→reconverge", at))
                        }
                        Some(name) if phase.as_ref().is_some_and(|p| p.name == name) => {
                            phase.as_mut().expect("phase just matched")
                        }
                        _ => continue,
                    };
                    noted.note(at, fields);
                    if closes.is_some() {
                        retired.extend(phase.take().map(|p| p.close(at)));
                    }
                    let root_id = root.as_ref().map(|r| r.id);
                    match opens {
                        Some(name) => phase = Some(new_span(root_id, "failover", name, at)),
                        None => retired.extend(root.take().map(|r| r.close(at))),
                    }
                }
            }
        }
        let opened = next_id;
        let mut open: Vec<Span<'a>> = keyed.into_values().chain(root).chain(phase).collect();
        open.sort_by(|a, b| (a.cat, a.name).cmp(&(b.cat, b.name)));
        let overflow = retired.len().saturating_sub(capacity);
        retired.drain(..overflow);
        Spans {
            retired,
            open,
            opened,
            evicted: log.evicted_spans() + overflow as u64,
            capacity,
        }
    }

    /// Serialises the flight recorder — retired spans plus still-open
    /// spans — as a self-contained JSON document with caller-supplied
    /// metadata.
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
        for (member, spans) in [("spans", &self.retired), ("open_spans", &self.open)] {
            out.push_str(",\n\"");
            out.push_str(member);
            out.push_str("\": [\n");
            for (i, span) in spans.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str("  ");
                span.write_json(out);
            }
            out.push_str("\n]");
        }
        out.push_str("\n}\n");
    }

    /// Serialises every span as Chrome trace-event JSON (`traceEvents`
    /// array of `"X"` complete events; still-open spans get zero duration
    /// and an `"open": true` arg). Load in chrome://tracing or Perfetto.
    pub(crate) fn write_chrome_json(&self, out: &mut String) {
        out.push_str("{\"traceEvents\": [\n");
        let spans = self.retired.iter().map(|s| (s, false));
        for (i, (span, open)) in spans.chain(self.open.iter().map(|s| (s, true))).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  {\"name\": ");
            json::push_string(out, span.name);
            out.push_str(", \"cat\": ");
            json::push_string(out, span.cat);
            out.push_str(", \"ph\": \"X\", \"ts\": ");
            json::push_f64(out, span.start_nanos as f64 / 1e3);
            out.push_str(", \"dur\": ");
            let dur = span.end_nanos.map_or(0, |e| e - span.start_nanos);
            json::push_f64(out, dur as f64 / 1e3);
            out.push_str(", \"pid\": 1, \"tid\": ");
            json::push_u64(out, chrome_tid(span.cat));
            out.push_str(", \"args\": {\"id\": ");
            json::push_u64(out, span.id);
            out.push_str(", \"parent\": ");
            push_opt(out, span.parent);
            if open {
                out.push_str(", \"open\": true");
            }
            span.write_notes(out);
            out.push_str("}}");
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    }

    /// FNV-1a over the canonical serialisation of every span (retired in
    /// order, then open by `(cat, name)`). Pure simulated time — the
    /// determinism guard pins this across thread counts.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut acc = FNV_OFFSET;
        for span in self.retired.iter().chain(&self.open) {
            span.fingerprint_into(&mut acc);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::CAP;

    fn begin(t: &mut Timeline, at: u64, key: u128, cat: &'static str, name: &str) {
        t.push(at, BEGIN, key, vec![(cat, name.to_string())]);
    }

    fn note(t: &mut Timeline, at: u64, key: u128, k: &'static str, v: &str) {
        t.push(at, NOTE, key, vec![(k, v.to_string())]);
    }

    fn end(t: &mut Timeline, at: u64, key: u128) {
        t.push(at, END, key, Vec::new());
    }

    fn fact(t: &mut Timeline, at: u64, kind: &'static str, fields: &[(&'static str, &str)]) {
        let fields = fields.iter().map(|&(k, v)| (k, v.to_string())).collect();
        t.push(at, kind, 0, fields);
    }

    fn view(t: &Timeline, capacity: usize) -> Spans<'_> {
        Spans::replay(t, capacity)
    }

    fn names<'a>(spans: &[Span<'a>]) -> Vec<&'a str> {
        spans.iter().map(|s| s.name).collect()
    }

    #[test]
    fn begin_end_retires_in_order() {
        let mut t = Timeline::default();
        begin(&mut t, 10, 1, "conn", "a");
        begin(&mut t, 20, 2, "conn", "b");
        end(&mut t, 30, 1);
        end(&mut t, 40, 2);
        let v = view(&t, 8);
        assert_eq!(names(&v.retired), ["a", "b"]);
        assert_eq!((v.retired[0].id, v.retired[0].end_nanos), (0, Some(30)));
        assert_eq!(v.retired[1].id, 1);
        assert!(v.open.is_empty());
        assert_eq!((v.opened, v.evicted), (2, 0));
    }

    /// The view shows the newest `capacity` retired spans and counts the
    /// older ones; the log itself keeps them all.
    #[test]
    fn view_caps_retired_spans_and_counts_the_rest() {
        let mut t = Timeline::default();
        for i in 0..7u64 {
            begin(&mut t, i, u128::from(i) + 1, "conn", &format!("s{i}"));
            end(&mut t, i + 1, u128::from(i) + 1);
        }
        let v = view(&t, 4);
        assert_eq!(names(&v.retired), ["s3", "s4", "s5", "s6"]);
        assert_eq!((v.opened, v.evicted), (7, 3));
        assert_eq!(view(&t, 16).retired.len(), 7);
    }

    /// Both ways into a span keep the newest [`NOTES_PER_SPAN`] notes: one
    /// note entry at a time on an open span, and all at once on an
    /// instant.
    #[test]
    fn notes_are_bounded_keeping_newest() {
        let mut t = Timeline::default();
        begin(&mut t, 0, 9, "conn", "k");
        for i in 0..(NOTES_PER_SPAN as u64 + 5) {
            note(&mut t, i, 9, "seq", &i.to_string());
        }
        let head = ("ackchan", "flush".to_string());
        let notes = (0..20).map(|i| ("pair", i.to_string()));
        t.push(30, INSTANT, 0, std::iter::once(head).chain(notes).collect());
        let v = view(&t, 1);
        let conn = &v.open[0];
        assert_eq!(conn.notes.len(), NOTES_PER_SPAN);
        // The newest note survives; the oldest five were dropped.
        assert_eq!(conn.notes[0].2, "5");
        assert_eq!(
            conn.notes.last().unwrap().2,
            (NOTES_PER_SPAN + 4).to_string()
        );

        let flush = &v.retired[0];
        assert_eq!(flush.id, 1, "the next id");
        assert_eq!((flush.start_nanos, flush.end_nanos), (30, Some(30)));
        let kept: Vec<&str> = flush.notes.iter().map(|n| n.2).collect();
        let newest: Vec<String> = (4..20).map(|i| i.to_string()).collect();
        assert_eq!(kept, newest);
        assert!(flush.notes.iter().all(|n| n.0 == 30 && n.1 == "pair"));
        assert_eq!((v.opened, v.evicted), (2, 0));
    }

    #[test]
    fn reopening_a_live_key_retires_the_old_span() {
        let mut t = Timeline::default();
        begin(&mut t, 0, 5, "conn", "gen1");
        begin(&mut t, 10, 5, "conn", "gen2");
        let v = view(&t, 4);
        assert_eq!(names(&v.retired), ["gen1"]);
        assert_eq!(v.retired[0].end_nanos, None, "a re-opened span stays open");
        assert_eq!((v.open[0].name, v.open[0].id), ("gen2", 1));
    }

    /// Open spans come out by `(cat, name)`, whatever their keys.
    #[test]
    fn open_spans_sort_by_category_then_name() {
        let mut t = Timeline::default();
        begin(&mut t, 0, 1, "conn", "b");
        fact(&mut t, 1, kinds::NODE_CRASHED, &[]);
        begin(&mut t, 2, 3, "conn", "a");
        let v = view(&t, 4);
        assert_eq!(names(&v.open), ["a", "b", "crash→reconverge", "detect"]);
    }

    #[test]
    fn failover_phases_build_the_span_tree() {
        let mut t = Timeline::default();
        fact(&mut t, 100, kinds::NODE_CRASHED, &[("node", "n2")]);
        fact(&mut t, 200, kinds::DETECTOR_SUSPECTED, &[]);
        fact(&mut t, 250, kinds::FAILURE_REPORTED, &[]);
        fact(&mut t, 300, kinds::PROMOTED, &[("host", "10.0.3.1")]);
        fact(&mut t, 400, kinds::CHAIN_RECONFIGURED, &[]);
        let v = view(&t, 32);
        assert!(v.open.is_empty(), "all phases closed");
        let retired = names(&v.retired);
        assert_eq!(
            retired,
            [
                "detect",
                "report",
                "promote",
                "reconverge",
                "crash→reconverge"
            ]
        );
        let root_id = v.retired[4].id;
        assert!(v.retired.iter().take(4).all(|s| s.parent == Some(root_id)));
        assert_eq!(
            (v.retired[0].start_nanos, v.retired[0].end_nanos),
            (100, Some(200))
        );
        assert_eq!(v.retired[3].end_nanos, Some(400));
        // A crash's fields note the root; any other kind's, the phase it
        // closes.
        assert_eq!(v.retired[4].notes, [(100, "node", "n2")]);
        assert_eq!(v.retired[2].notes, [(300, "host", "10.0.3.1")]);
    }

    /// Feeds the §4.3 arc crash → suspected → reported → promoted →
    /// reconfigured, starting at `t0`.
    fn failover_arc(t: &mut Timeline, t0: u64) {
        use crate::kinds::*;
        let arc = [
            NODE_CRASHED,
            DETECTOR_SUSPECTED,
            FAILURE_REPORTED,
            PROMOTED,
            CHAIN_RECONFIGURED,
        ];
        for (i, kind) in arc.into_iter().enumerate() {
            fact(t, t0 + 100 * i as u64, kind, &[]);
        }
    }

    /// A kind whose phase is not open is not a transition: out of order or
    /// repeated, it opens, closes and notes nothing.
    #[test]
    fn kinds_out_of_order_or_repeated_open_and_close_nothing() {
        use crate::kinds::*;
        let mut t = Timeline::default();
        // No crash yet: a reconfiguration or promotion is not a fail-over.
        fact(&mut t, 50, CHAIN_RECONFIGURED, &[("chain", "c")]);
        fact(&mut t, 60, PROMOTED, &[("host", "h")]);
        let v = view(&t, 32);
        assert_eq!(v.opened, 0);
        assert!(v.open.is_empty() && v.retired.is_empty());

        fact(&mut t, 100, NODE_CRASHED, &[]);
        // Promotion and reconvergence before the report was made.
        fact(&mut t, 150, PROMOTED, &[("host", "h")]);
        fact(&mut t, 160, CHAIN_RECONFIGURED, &[]);
        fact(&mut t, 200, DETECTOR_SUSPECTED, &[]);
        // Repeats: the phase each would close is already closed.
        fact(&mut t, 210, DETECTOR_SUSPECTED, &[("again", "1")]);
        fact(&mut t, 220, NODE_CRASHED, &[("node", "n3")]);
        fact(&mut t, 250, FAILURE_REPORTED, &[]);
        fact(&mut t, 260, FAILURE_REPORTED, &[]);
        let v = view(&t, 32);
        assert_eq!(v.opened, 4, "root, detect, report, promote");
        assert_eq!(names(&v.open), ["crash→reconverge", "promote"]);
        let retired: Vec<_> = v.retired.iter().map(|s| (s.name, s.end_nanos)).collect();
        assert_eq!(retired, [("detect", Some(200)), ("report", Some(250))]);
        assert!(v.retired.iter().chain(&v.open).all(|s| s.notes.is_empty()));

        fact(&mut t, 300, PROMOTED, &[]);
        fact(&mut t, 400, CHAIN_RECONFIGURED, &[]);
        fact(&mut t, 410, PROMOTED, &[]);
        fact(&mut t, 420, CHAIN_RECONFIGURED, &[]);
        let v = view(&t, 32);
        assert!(v.open.is_empty());
        assert_eq!(v.opened, 5);
        assert_eq!(v.retired.last().unwrap().end_nanos, Some(400));
    }

    /// Only the first fail-over is spanned: a second crash after the first
    /// tree closed starts nothing, and the arc that follows adds nothing.
    #[test]
    fn a_second_crash_after_the_first_failover_opens_no_new_tree() {
        let mut t = Timeline::default();
        failover_arc(&mut t, 100);
        let (opened, fingerprint) = (view(&t, 32).opened, view(&t, 32).fingerprint());
        assert_eq!(opened, 5);
        failover_arc(&mut t, 10_000);
        let v = view(&t, 32);
        assert!(v.open.is_empty());
        assert_eq!((v.opened, v.fingerprint()), (5, fingerprint));
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let build = |notes: bool| {
            let mut t = Timeline::default();
            begin(&mut t, 1, 1, "conn", "a");
            if notes {
                note(&mut t, 2, 1, "k", "v");
            }
            end(&mut t, 3, 1);
            view(&t, 8).fingerprint()
        };
        assert_eq!(build(false), build(false));
        assert_ne!(build(false), build(true));
    }

    /// A full log evicts span entries like any other: a note or end whose
    /// begin was evicted is dropped from every view, and the evicted
    /// begins still count as opened and as not shown.
    #[test]
    fn a_note_or_end_whose_begin_was_evicted_is_dropped() {
        let mut t = Timeline::default();
        begin(&mut t, 0, 1, "conn", "gone");
        for i in 1..CAP as u64 {
            fact(&mut t, i, "filler", &[]);
        }
        let at = CAP as u64;
        begin(&mut t, at, 2, "conn", "kept");
        note(&mut t, at, 1, "last_rx_lineage", "0x1");
        end(&mut t, at, 1);
        end(&mut t, at, 2);
        assert_eq!(t.evicted(), 4, "the first begin and three fillers");
        let v = view(&t, 8);
        assert_eq!(names(&v.retired), ["kept"]);
        assert_eq!(v.retired[0].id, 1, "ids count on from the evicted begins");
        assert!(v.open.is_empty());
        assert_eq!((v.opened, v.evicted), (2, 1));
        for export in [
            {
                let mut out = String::new();
                v.write_flight_json(&mut out, &[]);
                out
            },
            {
                let mut out = String::new();
                v.write_chrome_json(&mut out);
                out
            },
        ] {
            assert!(
                !export.contains("gone") && !export.contains("0x1"),
                "{export}"
            );
        }
    }

    #[test]
    fn flight_json_and_chrome_json_are_well_formed() {
        let mut t = Timeline::default();
        fact(&mut t, 1_000, kinds::NODE_CRASHED, &[]);
        begin(&mut t, 2_000, 7, "conn", "10.0.1.1:40000-192.20.225.20:80");
        note(&mut t, 2_500, 7, "last_rx_lineage", "0x2a");
        fact(&mut t, 9_000, kinds::DETECTOR_SUSPECTED, &[]);
        let v = view(&t, 4);
        let mut flight = String::new();
        v.write_flight_json(&mut flight, &[("scenario", "test".into())]);
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
        v.write_chrome_json(&mut chrome);
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
        let mut t = Timeline::default();
        let fields = [
            ("redirect", "fanout"),
            ("member", "10.0.2.1"),
            ("member", "10.0.3.1"),
        ];
        t.push(
            5,
            INSTANT,
            0,
            fields.map(|(k, v)| (k, v.to_string())).to_vec(),
        );
        let v = view(&t, 4);
        let notes = r#""notes": [[5, "member", "10.0.2.1"], [5, "member", "10.0.3.1"]]"#;
        let mut chrome = String::new();
        v.write_chrome_json(&mut chrome);
        assert!(chrome.contains(notes), "{chrome}");
        assert_eq!(chrome.matches("\"member").count(), 2, "{chrome}");
        let mut flight = String::new();
        v.write_flight_json(&mut flight, &[]);
        assert!(flight.contains(notes), "{flight}");
    }

    /// Each category renders on its own Chrome track.
    #[test]
    fn every_category_has_its_own_chrome_track() {
        let cats = ["conn", "failover", "redirect", "ackchan", "mgmt"];
        let mut tids: Vec<u64> = cats.iter().map(|c| chrome_tid(c)).collect();
        tids.push(chrome_tid("other"));
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), cats.len() + 1);
    }
}
