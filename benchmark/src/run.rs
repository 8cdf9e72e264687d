//! One workload, one process, one thread: set-up, a warm-up rep, timed reps
//! for the asked number of seconds, the correctness gate, and — with
//! `--trace 1` — the traced rep and the ladder. Prints every metric by name
//! with its unit, writes the result files, and ends with the one-line JSON
//! object the driver reads.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::counts::ratio;
use crate::json::Value;
use crate::ladder::{self, Ladder};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::pace::{Pacer, Timing};
use crate::probe::Probe;
use crate::stats::{self, Summary};
use crate::workloads::{Inputs, SimOutcome, Workload, WorkloadId};

/// Reps never drop below this, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-up samples, and set-ups timed back to back in each.
const SETUP_SAMPLES: usize = 5;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: WorkloadId,
    /// `None`: the workload's default seed.
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// Facts about the run recorded in every result file.
fn meta(opts: &Options, seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let output_of = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Value::obj([
        ("workload", Value::str(opts.workload.name())),
        ("why", Value::str(opts.workload.why())),
        ("seed", Value::Int(seed)),
        ("seconds", Value::Num(opts.seconds)),
        ("nproc", Value::Int(nproc)),
        ("threads", Value::Int(1)),
        ("rustc", Value::str(output_of("rustc", &["--version"]))),
        // The driver's checkout is not a git repository: "unknown" there.
        (
            "git_commit",
            Value::str(output_of("git", &["rev-parse", "HEAD"])),
        ),
        ("host_speed_fnv_Bps", Value::Num(stats::host_speed())),
    ])
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `setup_s`: several set-ups timed back to back, several times, median.
/// One set-up is short (a millisecond for some workloads), so each sample
/// times enough of them to last about a tenth of a second.
fn measure_setup(w: &Workload, seed: u64, pacer: &mut Pacer) -> (Summary, Summary) {
    let t = Instant::now();
    w.set_up(seed);
    let once = t.elapsed().as_secs_f64();
    let per_sample = ((0.1 / once.max(1e-6)).ceil() as usize).clamp(1, 500);
    let mut raw = Vec::new();
    let mut calibrated = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        pacer.start();
        for _ in 0..per_sample {
            w.set_up(seed);
            pacer.pace();
        }
        let t = pacer.finish();
        raw.push(t.raw_s / per_sample as f64);
        calibrated.push(t.calibrated_s() / per_sample as f64);
    }
    (stats::summarize(&calibrated), stats::summarize(&raw))
}

/// One timed rep.
fn timed_rep(w: &Workload, inputs: &Inputs, probe: &mut Probe) -> (SimOutcome, Timing) {
    probe.begin_rep();
    probe.pacer.as_mut().expect("reps are paced").start();
    let span = probe.open("rep");
    let out = w.run_rep(inputs, probe);
    probe.close(span);
    let timing = probe.pacer.as_mut().expect("reps are paced").finish();
    (out, timing)
}

/// What the process measured, before it is turned into metrics.
struct Measured {
    seed: u64,
    setup: Summary,
    setup_raw: Summary,
    first: SimOutcome,
    /// `VmHWM` once the warm-up and the first [`MIN_REPS`] reps are done: a
    /// fixed amount of work, where the count of later reps depends on how
    /// fast the host happens to be.
    peak_rss_mib: f64,
    timings: Vec<Timing>,
    /// Reasons the run is not correct; empty when it is.
    violations: Vec<String>,
    traced: Option<Traced>,
}

struct Traced {
    timing: Timing,
    probe: Probe,
    ladder: Ladder,
}

fn measure(opts: &Options) -> Measured {
    let seed = opts.seed.unwrap_or(opts.workload.default_seed());
    let w = opts.workload.instantiate();
    let mut probe = Probe::off().paced();

    let (setup, setup_raw) = measure_setup(&w, seed, probe.pacer.as_mut().expect("paced"));
    let inputs = w.prepare(seed);

    // Warm-up rep, untimed: caches fill, the allocator settles. It is also
    // the reference every later rep must reproduce.
    let (first, _) = timed_rep(&w, &inputs, &mut probe);
    let mut violations = Vec::new();
    if first.failed > 0 {
        violations.push(format!(
            "{} of {} operations failed, first: {}",
            first.failed,
            first.attempted,
            first.failures.first().map_or("?", String::as_str)
        ));
    } else if let Some(why) = first.failures.first() {
        violations.push(format!("invariant violated: {why}"));
    }
    if first.lateness_ns != 0 {
        violations.push(format!(
            "open-loop generator ran {} ns late",
            first.lateness_ns
        ));
    }

    // Timed reps. A traced run spends a third of its time here (it needs
    // an untraced baseline for the overhead ratio) and the rest tracing.
    let budget = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let min_reps = if opts.trace { 1 } else { MIN_REPS };
    let started = Instant::now();
    let mut timings = Vec::new();
    let mut peak_rss = 0.0;
    while timings.len() < min_reps || started.elapsed().as_secs_f64() < budget {
        let (out, timing) = timed_rep(&w, &inputs, &mut probe);
        timings.push(timing);
        if timings.len() == min_reps {
            peak_rss = peak_rss_mib();
        }
        if out != first && violations.len() < 8 {
            violations.push(format!(
                "rep {} did not reproduce the first rep's simulated metrics and counts",
                timings.len()
            ));
        }
    }

    let traced = opts.trace.then(|| {
        let mut probe = Probe::on().paced();
        let (out, timing) = timed_rep(&w, &inputs, &mut probe);
        if out != first {
            violations.push("the traced rep changed the simulated outcome".to_string());
        }
        let ladder = ladder::run(
            opts.workload.ladder_shape(),
            probe.pacer.as_mut().expect("paced"),
        );
        Traced {
            timing,
            probe,
            ladder,
        }
    });

    Measured {
        seed,
        setup,
        setup_raw,
        first,
        peak_rss_mib: peak_rss,
        timings,
        violations,
        traced,
    }
}

/// A metric as printed and stored.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    detail: Vec<(&'static str, Value)>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn summary_detail(s: &Summary) -> Vec<(&'static str, Value)> {
    vec![
        ("n", Value::Int(s.n as u64)),
        ("min", Value::Num(s.min)),
        ("q1", Value::Num(s.q1)),
        ("median", Value::Num(s.median)),
        ("q3", Value::Num(s.q3)),
        ("max", Value::Num(s.max)),
    ]
}

fn end_to_end(m: &Measured) -> Vec<Reported> {
    let sim = &m.first;
    let wall: Vec<f64> = m.timings.iter().map(Timing::calibrated_s).collect();
    let wall = stats::summarize(&wall);
    let (tail_name, tail_q) = stats::tail_level(sim.op_ns.len());
    let value_of = |name: &str| -> (f64, Vec<(&'static str, Value)>) {
        match name {
            "setup_s" => (m.setup.median, summary_detail(&m.setup)),
            "wall_s" => (wall.median, summary_detail(&wall)),
            "peak_rss_mib" => (m.peak_rss_mib, vec![]),
            "sim_goodput_kBps" => (
                sim.payload_bytes as f64 / 1e3 / (sim.sim_busy_ns as f64 / 1e9),
                vec![
                    ("payload_bytes", Value::Int(sim.payload_bytes)),
                    ("sim_busy_ns", Value::Int(sim.sim_busy_ns)),
                ],
            ),
            "op_p50_ms" => (
                ms(stats::quantile(&sim.op_ns, 0.5)),
                vec![("n", Value::Int(sim.op_ns.len() as u64))],
            ),
            "op_tail_ms" => (
                ms(stats::quantile(&sim.op_ns, tail_q)),
                vec![
                    ("n", Value::Int(sim.op_ns.len() as u64)),
                    ("level", Value::str(tail_name)),
                ],
            ),
            other => unreachable!("no measurement for end-to-end metric {other}"),
        }
    };
    END_TO_END
        .iter()
        .map(|spec| {
            let (value, mut detail) = value_of(spec.name);
            detail.push(("better", Value::str(spec.better.as_str())));
            detail.push(("bound", Value::Num(spec.bound)));
            detail.push(("domain", Value::str(spec.domain.as_str())));
            detail.push(("what", Value::str(spec.what)));
            Reported {
                name: spec.name,
                unit: spec.unit,
                value,
                detail,
            }
        })
        .collect()
}

fn per_layer(m: &Measured, t: &Traced) -> Vec<Reported> {
    let sim = &m.first;
    let c = &sim.counts;
    let median_of =
        |f: fn(&Timing) -> f64| stats::median(&m.timings.iter().map(f).collect::<Vec<_>>());
    let raw_wall = median_of(|t| t.raw_s);
    let slowdown = median_of(|t| t.slowdown);
    // Host-domain figures below are on the reference host, like `wall_s`.
    let wall = median_of(Timing::calibrated_s);
    let shares = t.probe.profile_shares();
    let share = |cat: hydranet_netsim::profile::EventCategory| shares[cat.index()];
    use hydranet_netsim::profile::EventCategory as Cat;
    let l = &t.ladder;
    let value_of = |name: &str| -> f64 {
        match name {
            "netsim.events" => c.events as f64,
            "netsim.events_per_payload_kB" => ratio(c.events * 1000, sim.payload_bytes_all),
            "netsim.timers_fired" => c.timers_fired as f64,
            "netsim.timer_event_share" => ratio(c.timers_fired, c.events),
            "netsim.events_per_sec" => c.events as f64 / wall,
            "netsim.ns_per_event" => wall * 1e9 / c.events as f64,
            "netsim.link_enqueued" => c.link_enqueued as f64,
            "netsim.link_queue_drops" => c.link_queue_drops as f64,
            "netsim.calendar_push_pop_ns" => l.calendar_push_pop.ns_per_op,
            "netsim.packet_codec_ns" => l.packet_codec.ns_per_op,
            "netsim.packet_codec_allocs" => l.packet_codec.allocs_per_op,
            "netsim.forward_ns_per_pkt" => l.forward_per_pkt.ns_per_op,
            "netsim.profile.timers_share" => share(Cat::Timers),
            "netsim.profile.other_share" => share(Cat::Other),
            "tcp.segments_rx" => c.segments_rx as f64,
            "tcp.fastpath_hit_ratio" => ratio(c.fastpath_hits, c.fastpath_hits + c.fastpath_misses),
            "tcp.retransmits" => c.retransmits as f64,
            "tcp.ackchan_pairs_tx" => c.ackchan_pairs_tx as f64,
            "tcp.ackchan_coalesced_ratio" => ratio(
                c.ackchan_coalesced,
                c.ackchan_coalesced + c.ackchan_pairs_tx,
            ),
            "tcp.bytes_per_flow" => ratio(c.conn_bytes, c.conn_count),
            "tcp.loopback_ns_per_segment" => l.tcp_loopback_per_segment.ns_per_op,
            "tcp.loopback_allocs_per_segment" => l.tcp_loopback_per_segment.allocs_per_op,
            "tcp.ackchan_codec_ns_per_pair" => l.ackchan_codec_per_pair.ns_per_op,
            "tcp.on_timer_ns" => l.tcp_on_timer.ns_per_op,
            "tcp.profile.data_share" => share(Cat::TcpData),
            "tcp.profile.ack_share" => share(Cat::TcpAck),
            "tcp.profile.ackchan_share" => share(Cat::AckChannel),
            "redirect.packets" => c.rd_packets() as f64,
            "redirect.copies_per_packet" => ratio(c.rd_copies, c.rd_redirected),
            "redirect.syn_deferred" => c.rd_syn_deferred as f64,
            "redirect.dropped_no_route" => c.rd_dropped_no_route as f64,
            "redirect.target_cache_hit_ratio" => {
                ratio(c.rd_cache_hits, c.rd_cache_hits + c.rd_cache_misses)
            }
            "redirect.process_batch_ns_per_pkt" => l.rd_process_batch_per_pkt.ns_per_op,
            "redirect.process_batch_allocs_per_pkt" => l.rd_process_batch_per_pkt.allocs_per_op,
            "redirect.encap_ns" => l.rd_encap.ns_per_op,
            "redirect.profile.share" => share(Cat::Redirector),
            "mgmt.datagrams" => c.rd_local as f64,
            "mgmt.reconfigurations" => c.reconfigurations as f64,
            "mgmt.promotions" => c.promotions as f64,
            "mgmt.detect_to_promote_p50_ms" => ms(stats::quantile(&sim.detect_ns, 0.5)),
            "mgmt.rd_promote_p50_ms" => ms(stats::quantile(&sim.rd_promote_ns, 0.5)),
            "mgmt.rd_promote_p90_ms" => ms(stats::quantile(&sim.rd_promote_ns, 0.9)),
            "mgmt.reliable_roundtrip_ns" => l.mgmt_reliable_roundtrip.ns_per_op,
            "mgmt.profile.share" => share(Cat::Mgmt),
            "core.build_s" => t.probe.total_ns("build") as f64 / 1e9 / t.timing.slowdown,
            "core.converge_s" => t.probe.total_ns("converge") as f64 / 1e9 / t.timing.slowdown,
            "core.ft_overhead_pct" => sim.ft_overhead_pct,
            "core.unattributed_pct" => ladder::reconcile(l, c, wall),
            "core.wall_raw_s" => raw_wall,
            "core.host_slowdown" => slowdown,
            "obs.trace_overhead_ratio" => t.timing.calibrated_s() / wall,
            "obs.spans_recorded" => t.probe.obs_spans as f64,
            other => unreachable!("no measurement for per-layer metric {other}"),
        }
    };
    PER_LAYER
        .iter()
        .map(|spec| Reported {
            name: spec.name,
            unit: spec.unit,
            value: value_of(spec.name),
            detail: vec![
                ("better", Value::str(spec.better.as_str())),
                ("kind", Value::str(spec.kind.as_str())),
                ("moves", Value::str(spec.moves)),
            ],
        })
        .collect()
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload and reports it. `Ok(true)` when every check passed.
///
/// # Errors
///
/// Returns a message when a result file cannot be written.
pub fn run(opts: &Options) -> Result<bool, String> {
    metrics::validate()?;
    let m = measure(opts);
    let header = meta(opts, m.seed);
    let name = opts.workload.name();

    let reported = match &m.traced {
        None => end_to_end(&m),
        Some(t) => per_layer(&m, t),
    };
    let mut violations = m.violations.clone();
    for r in &reported {
        if !r.value.is_finite() {
            violations.push(format!("{} is not a finite number", r.name));
        }
    }
    let correct = violations.is_empty();

    // Every metric by name, with its unit.
    let mode = if m.traced.is_some() {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "{name} seed {} — {mode}, {} timed reps",
        m.seed,
        m.timings.len()
    );
    for r in &reported {
        println!("  {:<40} {:>18.6} {}", r.name, r.value, r.unit);
    }
    if m.traced.is_none() {
        for (series, kbps) in &m.first.series_kbps {
            println!("  series {series:<33} {kbps:>18.6} kB/s");
        }
    }
    for v in &violations {
        println!("  VIOLATION: {v}");
    }

    let sim = &m.first;
    let file = Value::obj([
        ("meta", header),
        ("mode", Value::str(mode)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(sim.attempted)),
        ("failed", Value::Int(sim.failed)),
        (
            "violations",
            Value::Arr(violations.iter().map(Value::str).collect()),
        ),
        ("timed_reps", Value::Int(m.timings.len() as u64)),
        (
            "rep_wall_raw_s",
            Value::Arr(m.timings.iter().map(|t| Value::Num(t.raw_s)).collect()),
        ),
        (
            "rep_host_slowdown",
            Value::Arr(m.timings.iter().map(|t| Value::Num(t.slowdown)).collect()),
        ),
        ("setup_raw_s", Value::obj(summary_detail(&m.setup_raw))),
        (
            "metrics",
            Value::obj(reported.iter().map(|r| {
                let mut fields = vec![("value", Value::Num(r.value)), ("unit", Value::str(r.unit))];
                fields.extend(r.detail.iter().cloned());
                (r.name, Value::obj(fields))
            })),
        ),
        (
            "sim",
            Value::obj([
                ("lateness_ns", Value::Int(sim.lateness_ns)),
                (
                    "series_kBps",
                    Value::obj(sim.series_kbps.iter().map(|(k, v)| (*k, Value::Num(*v)))),
                ),
                (
                    "series_client_retransmits",
                    Value::obj(
                        sim.series_retransmits
                            .iter()
                            .map(|(k, v)| (*k, Value::Int(*v))),
                    ),
                ),
                ("ft_overhead_pct", Value::Num(sim.ft_overhead_pct)),
                ("counts", sim.counts.to_json()),
            ]),
        ),
    ]);
    let stem = if m.traced.is_some() {
        "LAYERS"
    } else {
        "BENCH"
    };
    write_file(
        &opts.out_dir.join(format!("{stem}_{name}.json")),
        &file.to_pretty(),
    )?;
    if let Some(t) = &m.traced {
        write_file(
            &opts.out_dir.join(format!("TRACE_{name}.json")),
            &t.probe.chrome_trace().to_pretty(),
        )?;
    }

    // The driver reads the last line of standard output.
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(sim.attempted.max(1))),
        ("failed", Value::Int(sim.failed)),
        (
            "metrics",
            Value::obj(reported.iter().map(|r| {
                (
                    r.name,
                    Value::obj([("value", Value::Num(r.value)), ("unit", Value::str(r.unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.to_line());
    Ok(correct)
}
