//! Driver-side tracing: spans recorded from the benchmark's own files around
//! every call into a layer, held in memory and written out at exit.
//!
//! A switched-off probe (every end-to-end run) records nothing: no clock
//! reads, no allocations. A switched-on probe (the one traced rep) also arms the
//! product's own instruments on each system it is shown — the netsim event
//! profiler and the obs causal tracer — and folds the profiler's categories
//! into the trace as children of the `run_until` span they were spent in.

use std::time::Instant;

use hydranet_core::system::System;
use hydranet_netsim::profile::{CategoryStats, EventCategory, CATEGORY_COUNT};
use hydranet_netsim::time::{SimDuration, SimTime};

use crate::json::Value;
use crate::pace::Pacer;

/// Flight-ring capacity for the obs tracer in the traced rep (the chaos
/// soak's size: holds the spans around one transfer, stays cheap).
const FLIGHT_CAPACITY: usize = 4096;

pub type SpanId = usize;
const NO_SPAN: SpanId = usize::MAX;

type Profile = [CategoryStats; CATEGORY_COUNT];

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    rep: u32,
    /// Profiler reading when a `run_until` span opened.
    profile_base: Option<Profile>,
}

#[derive(Debug)]
pub struct Probe {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    rep: u32,
    /// Wall nanoseconds and events per profiler category, summed over every
    /// `run_until` span of the traced rep.
    pub profile: Profile,
    /// Spans the product's obs tracer opened in the systems shown to
    /// [`Probe::retire`].
    pub obs_spans: u64,
    /// Host-speed calibration run alongside the work, when timing a rep.
    pub pacer: Option<Pacer>,
}

fn snapshot(system: &System) -> Profile {
    EventCategory::ALL.map(|c| system.sim.profiler().stats(c))
}

impl Probe {
    pub fn off() -> Self {
        Probe {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            profile: [CategoryStats::default(); CATEGORY_COUNT],
            obs_spans: 0,
            pacer: None,
        }
    }

    /// Adds host-speed pacing (see [`crate::pace`]).
    pub fn paced(mut self) -> Self {
        self.pacer = Some(Pacer::new());
        self
    }

    /// Yields to a calibration slice if one is due. Drivers call this from
    /// every loop that advances the simulation.
    #[inline]
    pub fn pace(&mut self) {
        if let Some(pacer) = &mut self.pacer {
            pacer.pace();
        }
    }

    /// `system.sim.run_until(deadline)` in 10 ms steps of simulated time
    /// with a pacing point after each. Intermediate deadlines process the
    /// same events in the same order, so the run is unchanged.
    pub fn run_until(&mut self, system: &mut System, deadline: SimTime) {
        let step = SimDuration::from_millis(10);
        loop {
            let next = system.sim.now().saturating_add(step).min(deadline);
            system.sim.run_until(next);
            self.pace();
            if next >= deadline {
                return;
            }
        }
    }

    pub fn on() -> Self {
        Probe {
            on: true,
            ..Probe::off()
        }
    }

    /// Starts a new rep: spans opened from here on carry the next rep id.
    pub fn begin_rep(&mut self) {
        self.rep += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
            profile_base: None,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Switches on the product-side instruments of a freshly built system.
    pub fn arm(&self, system: &mut System) {
        if self.on {
            system.enable_profiler();
            system.enable_tracing(FLIGHT_CAPACITY);
        }
    }

    /// Opens a span around one `run_until` phase of `system`.
    pub fn open_run(&mut self, name: &str, system: &System) -> SpanId {
        let id = self.open(name);
        if id != NO_SPAN {
            self.spans[id].profile_base = Some(snapshot(system));
        }
        id
    }

    /// Closes a `run_until` span: what the profiler attributed since it
    /// opened becomes one child span per category, laid end to end from the
    /// parent's start (their order inside the phase is not known; their
    /// durations are). The parent's self time is then the simulator's own
    /// dispatch and calendar work the profiler does not attribute.
    pub fn close_run(&mut self, id: SpanId, system: &System) {
        if id == NO_SPAN {
            return;
        }
        self.close(id);
        let base = self.spans[id]
            .profile_base
            .expect("span was opened with open_run");
        let now = snapshot(system);
        let mut cursor = self.spans[id].start_ns;
        for (i, cat) in EventCategory::ALL.iter().enumerate() {
            let nanos = now[i].wall_nanos - base[i].wall_nanos;
            let events = now[i].events - base[i].events;
            self.profile[i].wall_nanos += nanos;
            self.profile[i].events += events;
            if events == 0 {
                continue;
            }
            self.spans.push(Span {
                name: format!("profile:{}", cat.name()),
                start_ns: cursor,
                end_ns: cursor + nanos,
                parent: Some(id),
                rep: self.rep,
                profile_base: None,
            });
            cursor += nanos;
        }
    }

    /// Collects what the product tracer recorded before a system is dropped.
    pub fn retire(&mut self, system: &System) {
        if self.on {
            self.obs_spans += system.obs().spans_opened();
        }
    }

    /// Wall nanoseconds summed over every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Wall share per profiler category; the seven sum to 1 (all 0 when the
    /// probe was off).
    pub fn profile_shares(&self) -> [f64; CATEGORY_COUNT] {
        let total: u64 = self.profile.iter().map(|c| c.wall_nanos).sum();
        self.profile.map(|c| {
            if total == 0 {
                0.0
            } else {
                c.wall_nanos as f64 / total as f64
            }
        })
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// complete events, one row (`tid`) per rep, with each span's id and
    /// parent id in `args`.
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj([
                    ("name", Value::str(s.name.as_str())),
                    ("cat", Value::str("driver")),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Int(1)),
                    ("tid", Value::Int(u64::from(s.rep))),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::Int(id as u64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Int(p as u64)),
                            ),
                            ("rep", Value::Int(u64::from(s.rep))),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("displayTimeUnit", Value::str("ms")),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_probe_records_nothing() {
        let mut p = Probe::off();
        let a = p.open("build");
        p.close(a);
        assert_eq!(p.total_ns("build"), 0);
        assert_eq!(
            p.chrome_trace().get("traceEvents").unwrap().as_arr().len(),
            0
        );
        assert_eq!(p.profile_shares(), [0.0; CATEGORY_COUNT]);
    }

    #[test]
    fn spans_nest_and_carry_rep_ids() {
        let mut p = Probe::on();
        p.begin_rep();
        let outer = p.open("rep");
        let inner = p.open("build");
        p.close(inner);
        p.close(outer);
        p.begin_rep();
        let second = p.open("rep");
        p.close(second);
        let trace = p.chrome_trace();
        let events = trace.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 3);
        let args = |i: usize| events[i].get("args").unwrap().clone();
        assert_eq!(args(0).get("parent"), Some(&Value::Null));
        assert_eq!(args(1).get("parent"), Some(&Value::Int(0)));
        assert_eq!(args(1).get("rep"), Some(&Value::Int(1)));
        assert_eq!(args(2).get("rep"), Some(&Value::Int(2)));
        assert!(p.total_ns("rep") >= p.total_ns("build"));
        // The file must load: it is JSON.
        crate::json::parse(&trace.to_pretty()).expect("trace is JSON");
    }
}
