//! Many-flow scale driver: thousands of concurrent flows through shared
//! redirectors, fanned out one cell per task across the experiment engine.
//!
//! ```text
//! scale [--smoke] [--cells N] [--flows N] [--threads N] [--no-profile]
//!       [--save-baseline] [--require-baseline] [--ratchet F]
//! ```
//!
//! - `--smoke`      reduced flow-count configuration for CI;
//! - `--cells N`    override the cell count;
//! - `--flows N`    override flows per cell;
//! - `--threads N`  measure at 1 and N threads (default: 1, 2, and 4);
//! - `--no-profile` skip the profiled attribution run.
//!
//! Ratchet flags, mirroring the `perf` binary:
//!
//! - `--save-baseline`    record per-thread-count events/sec (plus a
//!   product-code-free host-speed calibration) to
//!   `crates/bench/data/scale_baseline[_smoke].json`;
//! - `--require-baseline` fail (exit 1) instead of continuing without a
//!   committed baseline — CI uses this so a missing baseline is loud;
//! - `--ratchet F`        fail (exit 1) if any host-speed-normalized
//!   events/sec ratio vs. the baseline falls below `F`.
//!
//! The workload runs once per thread count, asserts every merged report is
//! **byte-identical** to the single-threaded one, prints the concurrency /
//! tail-latency / per-flow-memory summary plus the event-attribution table
//! from a profiled cell, and writes `BENCH_scale.json`: the deterministic
//! report plus wall-clock timing (events/sec, speedups, attribution — all
//! kept *outside* the merged report).

use std::fmt::Write as _;

use hydranet_bench::scale::{
    aggregate_bytes_per_flow, merged_report, profile_cell, run_scale, total_bytes, total_events,
    CellOutcome, ScaleConfig,
};
use hydranet_bench::{render_table, RunnerStats};
use hydranet_obs::Obs;

struct Measurement {
    threads: usize,
    stats: RunnerStats,
    events: u64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        if self.stats.wall_nanos == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.stats.wall_nanos as f64
        }
    }
}

/// Product-code-free host-speed calibration (same FNV-1a loop as the
/// `perf` binary): wall-clock ratios against a baseline recorded on
/// different hardware conflate host speed with code speed, so the ratchet
/// divides ratios by the host-speed ratio.
fn measure_host_speed() -> f64 {
    let buf: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let mut best = 0.0f64;
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        for round in 0..400u64 {
            acc ^= round;
            for &b in &buf {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        best = best.max((400 * buf.len() as u64) as f64 / secs);
    }
    std::hint::black_box(acc);
    best
}

/// Smoke and full mode run different workloads, so each ratchets against
/// (and re-pins) its own baseline file.
fn baseline_path(smoke: bool) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(if smoke {
            "scale_baseline_smoke.json"
        } else {
            "scale_baseline.json"
        })
}

/// Extracts `"key": <number>` from one line of the baseline document (a
/// pairing convenience over the format written below, not a JSON parser).
fn extract_f64(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn baseline_host_speed(doc: &str) -> Option<f64> {
    doc.lines()
        .find(|l| l.contains("\"host_speed\": "))
        .and_then(|l| extract_f64(l, "host_speed"))
}

/// The per-flow memory pin recorded in the baseline document (absent in
/// baselines from before memory was ratcheted).
fn baseline_bytes_per_flow(doc: &str) -> Option<f64> {
    doc.lines()
        .find(|l| l.contains("\"bytes_per_flow\": "))
        .and_then(|l| extract_f64(l, "bytes_per_flow"))
}

/// Reads the recorded events/sec for one thread count back out of the
/// baseline document.
fn baseline_eps(doc: &str, threads: usize) -> Option<f64> {
    let needle = format!("\"threads\": {threads},");
    doc.lines()
        .find(|l| l.contains(&needle))
        .and_then(|l| extract_f64(l, "events_per_sec"))
}

fn baseline_json(
    cfg: &ScaleConfig,
    host_speed: f64,
    bytes_per_flow: u64,
    measurements: &[Measurement],
) -> String {
    let mut out = String::new();
    out.push_str("{\n\"bench\": \"scale_baseline\",\n");
    let _ = write!(
        out,
        "\"cells\": {}, \"flows_per_cell\": {},\n\"host_speed\": {host_speed:.1},\n\"bytes_per_flow\": {bytes_per_flow},\n\"timing\": [\n",
        cfg.cells, cfg.flows_per_cell
    );
    for (i, m) in measurements.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "  {{\"threads\": {}, \"events_per_sec\": {:.1}}}",
            m.threads,
            m.events_per_sec()
        );
    }
    out.push_str("\n]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ScaleConfig::default();
    let mut thread_counts: Vec<usize> = vec![1, 2, 4];
    let mut profile = true;
    let mut smoke = false;
    let save_baseline = args.iter().any(|a| a == "--save-baseline");
    let require_baseline = args.iter().any(|a| a == "--require-baseline");
    let mut ratchet: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                cfg = ScaleConfig::smoke();
            }
            "--save-baseline" | "--require-baseline" => {}
            "--ratchet" => {
                i += 1;
                ratchet = Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --ratchet requires a numeric threshold, e.g. --ratchet 0.95");
                    std::process::exit(2);
                }));
            }
            "--no-profile" => profile = false,
            "--cells" => {
                i += 1;
                cfg.cells = args[i].parse().expect("--cells takes a number");
            }
            "--flows" => {
                i += 1;
                cfg.flows_per_cell = args[i].parse().expect("--flows takes a number");
            }
            "--threads" => {
                i += 1;
                let n: usize = args[i].parse().expect("--threads takes a number");
                thread_counts = if n <= 1 { vec![1] } else { vec![1, n] };
            }
            other => {
                eprintln!(
                    "unknown flag {other} (try --smoke, --cells N, --flows N, --threads N, \
                     --no-profile, --save-baseline, --require-baseline, --ratchet F)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if require_baseline && !save_baseline && !baseline_path(smoke).exists() {
        eprintln!(
            "error: --require-baseline set but no baseline at {} — run `scale --save-baseline` and commit the file",
            baseline_path(smoke).display()
        );
        std::process::exit(1);
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "scale workload: {} cells x {} flows ({} services/cell), host has {} cpu(s)",
        cfg.cells, cfg.flows_per_cell, cfg.services, host_cpus
    );

    let mut measurements: Vec<Measurement> = Vec::new();
    let mut reference: Option<(Vec<CellOutcome>, String)> = None;
    for &threads in &thread_counts {
        let (outcomes, stats) = run_scale(&cfg, threads);
        let events = total_events(&outcomes);
        let report = merged_report(&cfg, &outcomes);
        match &reference {
            None => reference = Some((outcomes, report)),
            Some((ref_outcomes, ref_report)) => {
                assert_eq!(
                    ref_outcomes, &outcomes,
                    "outcomes diverged between threads={} and threads={threads}",
                    thread_counts[0]
                );
                assert_eq!(
                    ref_report, &report,
                    "merged report not byte-identical at threads={threads}"
                );
            }
        }
        println!(
            "  threads={threads}: {:.1} ms wall, {:.0} events/sec, utilization {:.2}",
            stats.wall_nanos as f64 / 1e6,
            events as f64 * 1e9 / stats.wall_nanos.max(1) as f64,
            stats.utilization()
        );
        measurements.push(Measurement {
            threads,
            stats,
            events,
        });
    }
    let (outcomes, report) = reference.expect("at least one thread count");

    let host_speed = measure_host_speed();
    let bytes_per_flow = aggregate_bytes_per_flow(&outcomes);
    if save_baseline {
        let path = baseline_path(smoke);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create baseline dir");
        }
        std::fs::write(
            &path,
            baseline_json(&cfg, host_speed, bytes_per_flow, &measurements),
        )
        .expect("write baseline");
        println!("baseline written to {}", path.display());
        return;
    }

    // Events/sec ratchet against the committed baseline, host-speed
    // normalized so machine-wide swings cancel while engine regressions do
    // not. Events/sec is work over wall only while the event count of the
    // fixed configuration holds still (`PINNED_SCALE` pins it): a change
    // that removes events here re-records the baseline in the same PR.
    let mut ratchet_failures: Vec<String> = Vec::new();
    if let Ok(doc) = std::fs::read_to_string(baseline_path(smoke)) {
        let speed_norm = baseline_host_speed(&doc)
            .map(|base| host_speed / base)
            .filter(|r| r.is_finite() && *r > 0.0)
            .unwrap_or(1.0);
        println!("vs. baseline (host-speed x{speed_norm:.2}):");
        for m in &measurements {
            let Some(base_eps) = baseline_eps(&doc, m.threads) else {
                continue;
            };
            let ratio = m.events_per_sec() / base_eps;
            let normalized = ratio / speed_norm;
            println!(
                "  threads={}: events/sec x{ratio:.2} ({normalized:.2} host-speed-normalized)",
                m.threads
            );
            // Only the single-threaded ratio is enforced: multi-thread
            // throughput scales with the host's core count, which the
            // host-speed calibration cannot cancel.
            if m.threads == 1 && ratchet.is_some_and(|min| normalized < min) {
                ratchet_failures.push(format!(
                    "threads={}: events_per_sec_ratio {ratio:.3} \
                     ({normalized:.3} host-speed-normalized)",
                    m.threads
                ));
            }
        }
        // Memory ratchet: per-flow bytes derive from slab/buffer
        // accounting over simulated state, so for a fixed config the
        // number is exactly reproducible — no host-speed normalization,
        // and only a small allowance for platform allocation-size skew.
        if let Some(base) = baseline_bytes_per_flow(&doc) {
            let ratio = bytes_per_flow as f64 / base.max(1.0);
            println!("  bytes_per_flow {bytes_per_flow} vs baseline {base:.0} (x{ratio:.3})");
            if ratchet.is_some() && ratio > 1.05 {
                ratchet_failures.push(format!(
                    "bytes_per_flow {bytes_per_flow} regressed over baseline {base:.0} \
                     (x{ratio:.3} > 1.05)"
                ));
            }
        }
    } else if ratchet.is_some() {
        println!(
            "(no baseline at {} — ratchet skipped)",
            baseline_path(smoke).display()
        );
    }

    // Deterministic workload summary.
    let peak: u64 = outcomes.iter().map(|o| o.peak_concurrent).sum();
    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    let flows: u64 = outcomes.iter().map(|o| o.flows).sum();
    let bytes = total_bytes(&outcomes);
    let events = total_events(&outcomes);
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.completion_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let q = |p: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            latencies[((latencies.len() - 1) as f64 * p) as usize] as f64 / 1e6
        }
    };
    println!();
    println!(
        "{completed}/{flows} flows completed, {peak} peak concurrent across {} cells, {bytes} payload bytes, {events} events ({:.4} events/byte)",
        outcomes.len(),
        events as f64 / bytes.max(1) as f64
    );
    println!(
        "completion latency ms: p50 {:.2}  p99 {:.2}  p999 {:.2}",
        q(0.50),
        q(0.99),
        q(0.999)
    );
    let per_flow: Vec<String> = outcomes
        .iter()
        .map(|o| format!("{}", o.per_flow_bytes()))
        .collect();
    println!(
        "client per-flow memory at peak hold: {bytes_per_flow} bytes/conn aggregate (per cell: {})",
        per_flow.join(", ")
    );

    // Event-attribution table from a profiled run of the base cell: where
    // the remaining wall time goes with a 10k-scale population held open.
    let mut attribution = String::new();
    if profile {
        let (outcome, snap) = profile_cell(&cfg, cfg.base_seed);
        let total_wall: u64 = snap.iter().map(|(_, s)| s.wall_nanos).sum();
        let header: Vec<String> = ["category", "events", "wall ms", "share"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = snap
            .iter()
            .filter(|(_, s)| s.events > 0)
            .map(|(name, s)| {
                vec![
                    name.to_string(),
                    s.events.to_string(),
                    format!("{:.2}", s.wall_nanos as f64 / 1e6),
                    format!(
                        "{:.1}%",
                        s.wall_nanos as f64 * 100.0 / total_wall.max(1) as f64
                    ),
                ]
            })
            .collect();
        println!();
        println!(
            "event attribution (profiled cell, seed {}, {} events):",
            outcome.seed, outcome.events
        );
        println!("{}", render_table(&header, &rows));
        for (i, (name, s)) in snap.iter().filter(|(_, s)| s.events > 0).enumerate() {
            if i > 0 {
                attribution.push_str(",\n");
            }
            let _ = write!(
                attribution,
                "  {{\"category\": \"{name}\", \"events\": {}, \"wall_nanos\": {}}}",
                s.events, s.wall_nanos
            );
        }
    }

    // Speedup table (wall-clock; honest about the host).
    let base_wall = measurements[0].stats.wall_nanos.max(1) as f64;
    let header: Vec<String> = ["threads", "wall ms", "events/sec", "speedup", "util"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.threads.to_string(),
                format!("{:.1}", m.stats.wall_nanos as f64 / 1e6),
                format!("{:.0}", m.events_per_sec()),
                format!("{:.2}x", base_wall / m.stats.wall_nanos.max(1) as f64),
                format!("{:.2}", m.stats.utilization()),
            ]
        })
        .collect();
    println!();
    println!("{}", render_table(&header, &rows));

    // Engine telemetry through the obs registry (runner.* metrics).
    let obs = Obs::enabled();
    if let Some(last) = measurements.last() {
        last.stats.publish(&obs, last.events);
    }

    let mut json = String::with_capacity(report.len() + 4096);
    json.push_str("{\n\"bench\": \"scale\",\n");
    let _ = write!(json, "\"host_cpus\": {host_cpus},\n\"timing\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "  {{\"threads\": {}, \"wall_nanos\": {}, \"worker_busy_nanos\": {}, \"tasks\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \"speedup_vs_1\": {:.3}, \"utilization\": {:.3}}}",
            m.threads,
            m.stats.wall_nanos,
            m.stats.worker_busy_nanos,
            m.stats.tasks_completed,
            m.events,
            m.events_per_sec(),
            base_wall / m.stats.wall_nanos.max(1) as f64,
            m.stats.utilization()
        );
    }
    json.push_str("\n],\n\"attribution\": [\n");
    json.push_str(&attribution);
    json.push_str("\n],\n\"runner_telemetry\": ");
    json.push_str(obs.to_json().trim_end());
    json.push_str(",\n\"report\": ");
    json.push_str(report.trim_end());
    json.push_str("\n}\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!(
        "wrote BENCH_scale.json ({} cells, byte-identical across {thread_counts:?} threads)",
        outcomes.len()
    );

    if !ratchet_failures.is_empty() {
        eprintln!("\nscale ratchet FAILED (threshold {}):", ratchet.unwrap());
        for f in &ratchet_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
