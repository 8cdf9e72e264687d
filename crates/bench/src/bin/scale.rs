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
//! kept *outside* the merged report) and each cell's calendar peak.

use std::fmt::Write as _;

use hydranet_bench::runner::{host_cpus, run_soak, total_events, SoakArgs};
use hydranet_bench::scale::{
    aggregate_bytes_per_flow, merged_report, run_cell, run_scale, total_bytes, ScaleConfig,
    VALUE_FLAGS,
};
use hydranet_bench::{quantile, render_table};

fn main() {
    let args = SoakArgs::from_env(&["--no-profile"], VALUE_FLAGS);
    let mut cfg = if args.switch("--smoke") {
        ScaleConfig::smoke()
    } else {
        ScaleConfig::default()
    };
    if let Some(n) = args.value("--cells") {
        cfg.cells = usize::try_from(n).unwrap_or(usize::MAX);
    }
    if let Some(n) = args.value("--flows") {
        cfg.flows_per_cell = usize::try_from(n).unwrap_or(usize::MAX);
    }

    println!(
        "scale workload: {} cells x {} flows ({} services/cell), host has {} cpu(s)",
        cfg.cells,
        cfg.flows_per_cell,
        cfg.services,
        host_cpus()
    );
    let soak = run_soak(
        &args.thread_counts(),
        |threads| run_scale(&cfg, threads),
        |outcomes| merged_report(&cfg, outcomes),
    );
    let outcomes = &soak.outcomes;

    let bytes_per_flow = aggregate_bytes_per_flow(outcomes);

    // Deterministic workload summary.
    let peak: u64 = outcomes.iter().map(|o| o.peak_concurrent).sum();
    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    let flows: u64 = outcomes.iter().map(|o| o.flows).sum();
    let bytes = total_bytes(outcomes);
    let events = total_events(outcomes);
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.completion_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let q = |p: f64| quantile(&latencies, p) as f64 / 1e6;
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
    let calendar_peak: Vec<String> = outcomes
        .iter()
        .map(|o| o.calendar_peak.to_string())
        .collect();
    let calendar_peak = calendar_peak.join(", ");
    println!("calendar peak (most events filed at once) per cell: {calendar_peak}");

    // Event-attribution table from a profiled run of the base cell: where
    // the remaining wall time goes with a 10k-scale population held open.
    let mut attribution = String::new();
    if !args.switch("--no-profile") {
        let (outcome, snap) = run_cell(&cfg, cfg.base_seed, true);
        let total_wall: u64 = snap.iter().map(|(_, s)| s.wall_nanos).sum();
        let header = ["category", "events", "wall ms", "share"].map(String::from);
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

    println!();
    soak.finish(
        "scale",
        "BENCH_scale.json",
        &[
            ("calendar_peak", &format!("[{calendar_peak}]")),
            ("attribution", &format!("[\n{attribution}\n]")),
        ],
    );
}
