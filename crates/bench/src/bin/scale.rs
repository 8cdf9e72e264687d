//! Many-flow scale driver: thousands of concurrent flows through shared
//! redirectors, fanned out one cell per task across the experiment engine.
//!
//! ```text
//! scale [--smoke] [--cells N] [--flows N] [--threads N]
//! ```
//!
//! - `--smoke`      reduced flow-count configuration for CI;
//! - `--cells N`    override the cell count;
//! - `--flows N`    override flows per cell;
//! - `--threads N`  run at 1 and N threads (default: 1 and 2).
//!
//! The workload runs once per thread count, asserts every merged report is
//! **byte-identical** to the single-threaded one, prints the concurrency /
//! tail-latency / per-flow-memory summary, and writes `BENCH_scale.json`:
//! the deterministic report and each cell's calendar peak, the same bytes
//! at any thread count. Wall time and per-subsystem shares of this code mix
//! are `benchmark/`'s (`wall_s`, `netsim.events_per_sec` and the
//! `*.profile.*_share` metrics on `flows_3k` / `flows_20k`).

use hydranet_bench::quantile;
use hydranet_bench::runner::{run_soak, SoakArgs};
use hydranet_bench::scale::{
    aggregate_bytes_per_flow, merged_report, run_scale, total_bytes, total_events, ScaleConfig,
    VALUE_FLAGS,
};

fn main() {
    let args = SoakArgs::from_env(&[], VALUE_FLAGS);
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
        "scale workload: {} cells x {} flows ({} services/cell)",
        cfg.cells, cfg.flows_per_cell, cfg.services
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

    println!();
    soak.finish(
        "scale",
        "BENCH_scale.json",
        &[("calendar_peak", &format!("[{calendar_peak}]"))],
    );
}
