//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, bound and — for per-layer metrics — which end-to-end metric it
//! is expected to move on which workload. `BENCHMARK.json` is generated
//! from this file (`hydranet-benchmark manifest`), and a test keeps the two
//! equal.

use crate::json::Value;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Wall-clock on this machine: noisy; medians of repeated measurement.
    Host,
    /// Simulated time or an exact count from a seeded deterministic run:
    /// repeats bit for bit, so it doubles as the correctness check.
    Sim,
}

impl Domain {
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Host => "host",
            Domain::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. Set from three ten-seed batteries
    /// on the build host (README, Bounds): `wall_s` and `peak_rss_mib` were
    /// widened after their first values failed.
    pub bound: f64,
    pub domain: Domain,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        domain: Domain::Host,
        what: "calibrated host seconds to generate the inputs and build and converge every topology one rep uses (median of 5 batches)",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        domain: Domain::Host,
        what: "calibrated host seconds one rep of the workload's fixed work takes (median over the run's reps); deliberately not events/sec, which falls when a change removes no-op events",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        domain: Domain::Host,
        what: "peak resident set of the process (VmHWM) after the warm-up and the first three timed reps: a fixed amount of work",
    },
    EndToEnd {
        name: "sim_goodput_kBps",
        unit: "kB/s",
        better: Better::Higher,
        bound: 0.10,
        domain: Domain::Sim,
        what: "payload delivered over the replicated path per simulated second: primary+backup receiver throughput (bulk_1k, tiny_16), completed flow bytes over first arrival to last receipt (flows_*), echoed bytes over connect to last reply across the fault (failover)",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
        domain: Domain::Sim,
        what: "median simulated latency of one operation: a write accepted by the client socket until the primary+backup service has read it (bulk_1k, tiny_16), a flow due until its receipt (flows_*), the largest client-visible gap between reply bytes across a chain fault (failover)",
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        domain: Domain::Sim,
        what: "the same latency at the highest percentile that still has ten samples beyond it (p99 of 8,192 writes, p999 of 32,768 writes, 11,200 and 20,000 flows, p95 of 300 fault runs)",
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exact, from public counters after a rep.
    Count,
    /// Simulated time from the rep.
    SimTime,
    /// Host time of the untraced reps.
    Host,
    /// ns/op or allocations/op from timing a public function directly, with
    /// packet size and working set taken from the workload.
    Ladder,
    /// From the one traced rep.
    Traced,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Count => "count",
            Kind::SimTime => "sim",
            Kind::Host => "host",
            Kind::Ladder => "ladder",
            Kind::Traced => "traced",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// The prediction, written down before measuring: which end-to-end
    /// metric this should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind,
        moves,
    }
}

use Better::{Higher, Lower};
use Kind::{Count, Host, Ladder, SimTime, Traced};

const TIMER_STORY: &str = "wall_s on bulk_1k and tiny_16: node-timer coalescing on by default should cut these 5x or more there and leave flows_*, which already opt in, unchanged";
const QUEUE_STORY: &str = "op_tail_ms on flows_*, sim_goodput_kBps on bulk_1k and tiny_16";
const PER_PACKET_STORY: &str = "wall_s on tiny_16 most, bulk_1k least";
const RD_STORY: &str = "wall_s on flows_20k far more than flows_3k; predicted no change on bulk_1k (one always-hot flow)";
const FAILOVER_STORY: &str = "op_p50_ms and op_tail_ms on failover";
const SHARE_STORY: &str =
    "the layer's share of wall_s; where a saving claimed for the layer must show";

pub const PER_LAYER: [PerLayer; 52] = [
    // netsim
    layer("netsim.events", "count", Lower, Count, TIMER_STORY),
    layer("netsim.events_per_payload_kB", "1/kB", Lower, Count, TIMER_STORY),
    layer("netsim.timers_fired", "count", Lower, Count, TIMER_STORY),
    layer("netsim.timer_event_share", "ratio", Lower, Count, TIMER_STORY),
    layer("netsim.events_per_sec", "1/s", Higher, Host, "reported for continuity with perf/scale; not a target, see wall_s"),
    layer("netsim.ns_per_event", "ns", Lower, Host, "wall_s on every workload; flows_20k over flows_3k is the working-set penalty per event"),
    layer("netsim.link_enqueued", "count", Lower, Count, QUEUE_STORY),
    layer("netsim.link_queue_drops", "count", Lower, Count, QUEUE_STORY),
    layer("netsim.calendar_push_pop_ns", "ns", Lower, Ladder, PER_PACKET_STORY),
    layer("netsim.packet_codec_ns", "ns", Lower, Ladder, PER_PACKET_STORY),
    layer("netsim.packet_codec_allocs", "count", Lower, Ladder, PER_PACKET_STORY),
    layer("netsim.forward_ns_per_pkt", "ns", Lower, Ladder, PER_PACKET_STORY),
    layer("netsim.profile.timers_share", "ratio", Lower, Traced, SHARE_STORY),
    layer("netsim.profile.other_share", "ratio", Lower, Traced, SHARE_STORY),
    // tcp
    layer("tcp.segments_rx", "count", Lower, Count, "wall_s on every workload, one segment walk each"),
    layer("tcp.fastpath_hit_ratio", "ratio", Higher, Count, "wall_s on bulk_1k and flows_*; none on failover"),
    layer("tcp.retransmits", "count", Lower, Count, "sim_goodput_kBps on tiny_16; op_p50_ms and op_tail_ms on failover"),
    layer("tcp.ackchan_pairs_tx", "count", Lower, Count, "wall_s on tiny_16 (one pair per segment), sim_goodput_kBps there"),
    layer("tcp.ackchan_coalesced_ratio", "ratio", Higher, Count, "wall_s on flows_* through fewer ack-channel datagrams"),
    layer("tcp.bytes_per_flow", "B", Lower, Count, "peak_rss_mib and wall_s on flows_20k only"),
    layer("tcp.loopback_ns_per_segment", "ns", Lower, Ladder, "wall_s on every workload in proportion to tcp.segments_rx"),
    layer("tcp.loopback_allocs_per_segment", "count", Lower, Ladder, "wall_s on tiny_16 most"),
    layer("tcp.ackchan_codec_ns_per_pair", "ns", Lower, Ladder, "wall_s on tiny_16"),
    layer("tcp.on_timer_ns", "ns", Lower, Ladder, "wall_s on flows_20k (the workload's connection count)"),
    layer("tcp.profile.data_share", "ratio", Lower, Traced, SHARE_STORY),
    layer("tcp.profile.ack_share", "ratio", Lower, Traced, SHARE_STORY),
    layer("tcp.profile.ackchan_share", "ratio", Lower, Traced, SHARE_STORY),
    // redirect
    layer("redirect.packets", "count", Lower, Count, RD_STORY),
    layer("redirect.copies_per_packet", "ratio", Lower, Count, RD_STORY),
    layer("redirect.syn_deferred", "count", Lower, Count, "op_tail_ms on failover (rd_failover admission grace)"),
    layer("redirect.dropped_no_route", "count", Lower, Count, FAILOVER_STORY),
    layer("redirect.target_cache_hit_ratio", "ratio", Higher, Count, RD_STORY),
    layer("redirect.process_batch_ns_per_pkt", "ns", Lower, Ladder, RD_STORY),
    layer("redirect.process_batch_allocs_per_pkt", "count", Lower, Ladder, RD_STORY),
    layer("redirect.encap_ns", "ns", Lower, Ladder, "a sub-rung of redirect.process_batch_ns_per_pkt; wall_s on tiny_16"),
    layer("redirect.profile.share", "ratio", Lower, Traced, SHARE_STORY),
    // mgmt
    layer("mgmt.datagrams", "count", Lower, Count, "wall_s on failover only"),
    layer("mgmt.reconfigurations", "count", Lower, Count, FAILOVER_STORY),
    layer("mgmt.promotions", "count", Lower, Count, FAILOVER_STORY),
    layer("mgmt.detect_to_promote_p50_ms", "sim_ms", Lower, SimTime, FAILOVER_STORY),
    layer("mgmt.rd_promote_p50_ms", "sim_ms", Lower, SimTime, "sim_goodput_kBps on failover (rd_failover runs)"),
    layer("mgmt.rd_promote_p90_ms", "sim_ms", Lower, SimTime, "sim_goodput_kBps on failover (rd_failover runs)"),
    layer("mgmt.reliable_roundtrip_ns", "ns", Lower, Ladder, "wall_s on failover only"),
    layer("mgmt.profile.share", "ratio", Lower, Traced, "wall_s on failover only"),
    // core
    layer("core.build_s", "s", Lower, Traced, "setup_s; wall_s on failover, where every run pays it"),
    layer("core.converge_s", "s", Lower, Traced, "setup_s; wall_s on failover, where every run pays it"),
    layer("core.ft_overhead_pct", "%", Lower, SimTime, "the paper's Figure 4 claim: 100 x (1 - primary+backup / clean) receiver throughput; bulk_1k and tiny_16"),
    layer("core.unattributed_pct", "%", Lower, Traced, "the share of wall no ladder rung explains; a finding, not a gate"),
    layer("core.wall_raw_s", "s", Lower, Host, "wall_s before calibration, for reading against the host's own clock"),
    layer("core.host_slowdown", "ratio", Lower, Host, "how much slower than the reference host the run's calibration slices ran; the divisor between core.wall_raw_s and wall_s"),
    // obs
    layer("obs.trace_overhead_ratio", "ratio", Lower, Traced, "what turning profiler, tracer and spans on costs; the skew of every profile share"),
    layer("obs.spans_recorded", "count", Lower, Traced, "obs.trace_overhead_ratio"),
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest(run_seconds: u64) -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Int(run_seconds)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The measuring time `BENCHMARK.json` asks the driver to pass.
pub const RUN_SECONDS: u64 = 12;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Checks every name, unit, bound and why-sentence against the driver's
/// limits; the command refuses to run on a catalogue that breaks one.
pub fn validate() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if !is_name(name) {
            return Err(format!("`{name}` is not a valid name"));
        }
        if !seen.insert(name) {
            return Err(format!("`{name}` is used twice"));
        }
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        if !is_unit(unit) {
            return Err(format!("`{unit}` is not a valid unit"));
        }
    }
    for m in END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("bound of `{}` is outside (0, 0.25]", m.name));
        }
    }
    for w in WORKLOADS {
        if w.why().len() > 200 || w.why().contains('\n') {
            return Err(format!("why of `{}` is not one line of 200", w.name()));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        return Err("no `setup_s` in seconds, lower is better".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_within_the_drivers_limits() {
        validate().expect("catalogue");
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(manifest(RUN_SECONDS).to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(is_name("netsim.events_per_payload_kB"));
        assert!(is_name("1k"));
        assert!(!is_name(".hidden"));
        assert!(!is_name("has space"));
        assert!(!is_name(""));
        assert!(is_unit("1/kB") && is_unit("%") && is_unit("kB/s"));
        assert!(!is_unit("per second") && !is_unit("much_too_long_a_unit"));
    }

    /// `BENCHMARK.json` at the repository root is this catalogue, rendered.
    #[test]
    fn manifest_file_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&on_disk).expect("BENCHMARK.json parses"),
            crate::json::parse(&manifest(RUN_SECONDS).to_pretty()).expect("manifest parses"),
            "regenerate with `cargo run --release -- manifest > ../BENCHMARK.json`"
        );
    }
}
