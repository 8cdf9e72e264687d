//! The event log: one bounded, append-only ring of entries stamped with
//! simulated time — the only record `obs` keeps besides the registry.
//!
//! An entry is either a **fact** — a [`crate::kinds`] kind, what happened
//! to the replicated service — or a **span entry** — a [`crate::trace`]
//! kind (begin, note, end, instant) written only while tracing is on. A
//! single fail-over replays from the facts as the paper's narrative:
//! `tcp.detector.suspected` → `mgmt.daemon.failure_reported` →
//! `mgmt.controller.probe_started` → `mgmt.controller.host_removed` →
//! `mgmt.controller.chain_reconfigured` → `redirect.table.installed` →
//! `mgmt.daemon.promoted`; the span tree, flight dump and Chrome export
//! are views that replay the same ring. Entries at the same instant keep
//! their insertion order (each carries a monotonically increasing `seq`).

use std::collections::VecDeque;

use crate::json;
use crate::trace;

/// Entries the log holds; past it the oldest is evicted and counted. No
/// untraced run comes near it (a 2,800-flow scale cell logs about 4,100
/// facts), and no traced test, soak or paper binary reaches it. Traced, a
/// 2,800-flow cell logs about 115k entries and one 8 MiB primary+backup
/// transfer at 1 KiB writes about 42k; a 512 KiB primary+backup transfer
/// at 16 B writes (141k) and a 20,000-flow cell (623k) evict.
pub(crate) const CAP: usize = 1 << 17;

/// One log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Simulated nanoseconds since simulation start.
    pub at_nanos: u64,
    /// Insertion index — total order even at equal timestamps.
    pub seq: u64,
    /// Entry kind, dotted taxonomy (see [`crate::kinds`] and
    /// [`crate::trace`]).
    pub kind: &'static str,
    /// The span a note or end belongs to (a connection's `Quad::key()`);
    /// 0 means none.
    pub key: u128,
    /// Key/value detail fields, in recording order.
    pub fields: Vec<(&'static str, String)>,
}

impl TimelineEvent {
    /// The value of detail field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The bounded append-only log.
#[derive(Debug, Default)]
pub struct Timeline {
    entries: VecDeque<TimelineEvent>,
    next_seq: u64,
    evicted: u64,
    /// Evicted entries that opened a span (begins and instants).
    evicted_spans: u64,
}

impl Timeline {
    /// Appends an entry, evicting the oldest when the log is full.
    pub fn push(
        &mut self,
        at_nanos: u64,
        kind: &'static str,
        key: u128,
        fields: Vec<(&'static str, String)>,
    ) {
        if self.entries.len() == CAP {
            let old = self.entries.pop_front().expect("a full log is not empty");
            self.evicted += 1;
            self.evicted_spans += u64::from(trace::opens_span(old.kind));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(TimelineEvent {
            at_nanos,
            seq,
            kind,
            key,
            fields,
        });
    }

    /// Every retained entry, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TimelineEvent> {
        self.entries.iter()
    }

    /// The retained facts, oldest first.
    pub fn facts(&self) -> impl Iterator<Item = &TimelineEvent> {
        self.entries().filter(|e| !trace::is_span_kind(e.kind))
    }

    /// The timestamp of the first retained entry of `kind`.
    pub fn first_at(&self, kind: &str) -> Option<u64> {
        self.entries().find(|e| e.kind == kind).map(|e| e.at_nanos)
    }

    /// Entries evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Evicted entries that opened a span.
    pub(crate) fn evicted_spans(&self) -> u64 {
        self.evicted_spans
    }

    /// Serialises the facts as a JSON array, one object per fact; span
    /// entries are exported by the views in [`crate::trace`].
    pub fn write_json(&self, out: &mut String) {
        out.push('[');
        let mut any = false;
        for e in self.facts() {
            if any {
                out.push(',');
            }
            any = true;
            out.push_str("\n    {\"at_nanos\": ");
            json::push_u64(out, e.at_nanos);
            out.push_str(", \"seq\": ");
            json::push_u64(out, e.seq);
            out.push_str(", \"kind\": ");
            json::push_string(out, e.kind);
            for (k, v) in &e.fields {
                out.push_str(", ");
                json::push_string(out, k);
                out.push_str(": ");
                json::push_string(out, v);
            }
            out.push('}');
        }
        if any {
            out.push_str("\n  ");
        }
        out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(t: &mut Timeline, at: u64, kind: &'static str, fields: &[(&'static str, &str)]) {
        let fields = fields.iter().map(|&(k, v)| (k, v.to_string())).collect();
        t.push(at, kind, 0, fields);
    }

    #[test]
    fn equal_timestamps_keep_insertion_order() {
        let mut t = Timeline::default();
        fact(&mut t, 500, "b.second", &[]);
        fact(&mut t, 500, "a.first", &[]);
        fact(&mut t, 500, "c.third", &[]);
        let kinds: Vec<&str> = t.entries().map(|e| e.kind).collect();
        assert_eq!(kinds, ["b.second", "a.first", "c.third"]);
        let seqs: Vec<u64> = t.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn fields_are_queryable() {
        let mut t = Timeline::default();
        fact(&mut t, 1, "x", &[("host", "10.0.2.1"), ("idx", "0")]);
        let e = t.entries().next().unwrap();
        assert_eq!(e.field("host"), Some("10.0.2.1"));
        assert_eq!(e.field("idx"), Some("0"));
        assert_eq!(e.field("missing"), None);
    }

    #[test]
    fn first_at_finds_earliest() {
        let mut t = Timeline::default();
        fact(&mut t, 10, "k", &[]);
        fact(&mut t, 20, "k", &[]);
        assert_eq!(t.first_at("k"), Some(10));
        assert_eq!(t.first_at("other"), None);
    }

    #[test]
    fn json_array_shape() {
        let mut t = Timeline::default();
        fact(&mut t, 7, "a.b", &[("k", "v\"q")]);
        let mut out = String::new();
        t.write_json(&mut out);
        assert_eq!(
            out,
            "[\n    {\"at_nanos\": 7, \"seq\": 0, \"kind\": \"a.b\", \"k\": \"v\\\"q\"}\n  ]"
        );
        let mut empty = String::new();
        Timeline::default().write_json(&mut empty);
        assert_eq!(empty, "[]");
    }

    /// Span entries share the ring and the `seq` counter but are not facts:
    /// the JSON array and `facts` skip them.
    #[test]
    fn span_entries_are_not_facts() {
        let mut t = Timeline::default();
        t.push(1, trace::BEGIN, 7, vec![("conn", "q".into())]);
        fact(&mut t, 2, "a.b", &[]);
        t.push(3, trace::END, 7, Vec::new());
        let facts: Vec<(u64, &str)> = t.facts().map(|e| (e.seq, e.kind)).collect();
        assert_eq!(facts, [(1, "a.b")]);
        let mut out = String::new();
        t.write_json(&mut out);
        assert!(
            !out.contains("span.") && out.contains("\"seq\": 1"),
            "{out}"
        );
        let mut only_spans = Timeline::default();
        only_spans.push(1, trace::NOTE, 7, Vec::new());
        let mut out = String::new();
        only_spans.write_json(&mut out);
        assert_eq!(out, "[]");
    }

    /// The ring holds `CAP` entries: `CAP + k` appends evict the oldest
    /// `k`, count them, and leave `first_at` answering from what remains.
    #[test]
    fn full_log_evicts_oldest_and_counts() {
        let k = 3;
        let mut t = Timeline::default();
        fact(&mut t, 0, "early", &[]);
        t.push(1, trace::INSTANT, 0, vec![("ackchan", "flush".into())]);
        fact(&mut t, 2, "early", &[]);
        for i in 3..(CAP + k) as u64 {
            fact(&mut t, i, "late", &[]);
        }
        assert_eq!(t.evicted(), k as u64);
        assert_eq!(t.evicted_spans(), 1, "the instant opened a span");
        assert_eq!(t.entries().count(), CAP);
        assert_eq!(t.entries().next().map(|e| e.seq), Some(k as u64));
        assert_eq!(t.first_at("early"), None);
        assert_eq!(t.first_at("late"), Some(k as u64));
    }
}
