//! Many-flow scale driver: thousands of concurrent flows through shared
//! redirectors, fanned out one cell per task across the experiment engine.
//!
//! ```text
//! scale [--smoke] [--cells N] [--flows N] [--threads N] [--no-profile]
//! ```
//!
//! - `--smoke`      reduced flow-count configuration for CI;
//! - `--cells N`    override the cell count;
//! - `--flows N`    override flows per cell;
//! - `--threads N`  measure at 1 and N threads (default: 1, 2, and 4);
//! - `--no-profile` skip the profiled attribution run.
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ScaleConfig::default();
    let mut thread_counts: Vec<usize> = vec![1, 2, 4];
    let mut profile = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => cfg = ScaleConfig::smoke(),
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
                    "unknown flag {other} (try --smoke, --cells N, --flows N, --threads N, --no-profile)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
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

    let bytes_per_flow = aggregate_bytes_per_flow(&outcomes);

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
}
