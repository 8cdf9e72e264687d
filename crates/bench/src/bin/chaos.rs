//! Chaos-soak driver: scripted fault plans swept over seeds, fanned out
//! across the parallel experiment engine, with hard invariants asserted on
//! every run.
//!
//! ```text
//! chaos [--smoke] [--seeds N] [--threads N] [--trace]
//!       [--probe-ms N] [--probe-attempts N]
//! ```
//!
//! - `--smoke`     scaled-down soak for CI (4 seeds per fault class);
//! - `--seeds N`   override the per-class seed count;
//! - `--threads N` run at 1 and N threads (default: 1 and 2);
//! - `--trace`     additionally export one traced primary-crash run as
//!   Chrome trace-event JSON (`TRACE_chaos.json`);
//! - `--probe-ms N` / `--probe-attempts N` redirector-pair peer-probe
//!   period and miss budget (default 200 ms x 2; the `rd_*` classes only —
//!   used by the EXPERIMENTS.md C2 detection-threshold sweep).
//!
//! The soak runs once per thread count ([`run_soak`] asserts every merged
//! report is **byte-identical** to the single-threaded one), asserts the
//! chaos invariants (client stream intact and exactly-once, survivor
//! replicas intact, chain reconverged, false alarms absorbed) over every
//! `(class, seed)` run, prints the per-class distributions of the fail-over
//! window (EXPERIMENTS.md S1 and C1), and writes `BENCH_chaos.json`.

use std::collections::BTreeMap;

use hydranet_bench::chaos::{
    chrome_trace_json, merged_report, run_chaos_soak, violations, ChaosConfig, ChaosOutcome,
    FaultClass, CLASSES, VALUE_FLAGS,
};
use hydranet_bench::runner::{run_soak, SoakArgs};
use hydranet_bench::{quantile, render_table};
use hydranet_netsim::time::SimDuration;
use hydranet_tcp::detector::Signal;

/// One optional nanosecond reading of a run.
type Reading = fn(&ChaosOutcome) -> Option<u64>;

/// Prints one per-class p50/p90/p99/max table (milliseconds) of `reading`;
/// classes that never produced it are left out.
fn print_latency_table(title: &str, outcomes: &[ChaosOutcome], reading: Reading) {
    let header = ["class", "runs", "p50 ms", "p90 ms", "p99 ms", "max ms"].map(String::from);
    let rows: Vec<Vec<String>> = CLASSES
        .iter()
        .filter_map(|class| {
            let mut vals: Vec<u64> = outcomes
                .iter()
                .filter(|o| o.class == class.name())
                .filter_map(reading)
                .collect();
            vals.sort_unstable();
            let ms = |p: f64| format!("{:.1}", quantile(&vals, p) as f64 / 1e6);
            (!vals.is_empty()).then(|| {
                let runs = vals.len().to_string();
                let name = class.name().to_string();
                vec![name, runs, ms(0.50), ms(0.90), ms(0.99), ms(1.0)]
            })
        })
        .collect();
    if !rows.is_empty() {
        println!("{title}:");
        println!("{}", render_table(&header, &rows));
    }
}

/// Prints fault → first suspicion split by the signal that raised it and
/// the replica that reported it: one row per (class, signal, reporter).
fn print_suspicion_split(outcomes: &[ChaosOutcome]) {
    let mut groups: BTreeMap<(usize, Signal, &str), Vec<u64>> = BTreeMap::new();
    for o in outcomes {
        let (Some(ns), Some((signal, reporter))) = (o.crash_to_detect_ns, &o.first_suspicion)
        else {
            continue;
        };
        let class = CLASSES.iter().position(|c| c.name() == o.class);
        let key = (class.expect("known class"), *signal, reporter.as_str());
        groups.entry(key).or_default().push(ns);
    }
    let header = [
        "class", "signal", "reporter", "runs", "p50 ms", "p99 ms", "max ms",
    ];
    let rows: Vec<Vec<String>> = groups
        .into_iter()
        .map(|((class, signal, reporter), mut vals)| {
            vals.sort_unstable();
            let ms = |p: f64| format!("{:.1}", quantile(&vals, p) as f64 / 1e6);
            let (name, signal) = (CLASSES[class].name(), signal.name());
            let runs = vals.len().to_string();
            let cells = [name, signal, reporter, &runs, &ms(0.5), &ms(0.99), &ms(1.0)];
            cells.map(String::from).to_vec()
        })
        .collect();
    println!("fault -> first suspicion, by signal and reporter:");
    println!("{}", render_table(&header.map(String::from), &rows));
}

fn main() {
    let args = SoakArgs::from_env(&["--trace"], VALUE_FLAGS);
    let mut cfg = if args.switch("--smoke") {
        ChaosConfig::smoke()
    } else {
        ChaosConfig::default()
    };
    if let Some(n) = args.value("--seeds") {
        cfg.seeds_per_class = n;
    }
    if let Some(ms) = args.value("--probe-ms") {
        cfg.pair_probe_timeout = SimDuration::from_millis(ms);
    }
    if let Some(n) = args.value("--probe-attempts") {
        cfg.pair_probe_attempts = u32::try_from(n).unwrap_or(u32::MAX);
    }

    println!(
        "chaos soak: {} classes x {} seeds, threshold {}",
        CLASSES.len(),
        cfg.seeds_per_class,
        cfg.threshold
    );
    let soak = run_soak(
        &args.thread_counts(),
        |threads| run_chaos_soak(&cfg, threads),
        |outcomes| merged_report(&cfg, outcomes),
    );
    let outcomes = &soak.outcomes;

    // The soak's point: every run must satisfy the invariants. Before
    // failing, persist every captured flight-recorder dump so CI attaches
    // the causal evidence (span tree + lineage notes) to the red run.
    // Dumps land in a gitignored scratch dir; CI uploads them as workflow
    // artifacts, they are never committed to the repo.
    for o in outcomes {
        let Some(dump) = o.flight_dump.as_deref() else {
            continue;
        };
        let path = format!("artifacts/FLIGHT_chaos_{}_{}.json", o.class, o.seed);
        match std::fs::create_dir_all("artifacts").and_then(|()| std::fs::write(&path, dump)) {
            Ok(()) => eprintln!("flight recorder dumped to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    let bad = violations(outcomes);
    assert!(
        bad.is_empty(),
        "{} invariant violation(s):\n{}",
        bad.len(),
        bad.join("\n")
    );
    println!();
    println!(
        "invariants held on all {} runs ({} classes x {} seeds)",
        outcomes.len(),
        CLASSES.len(),
        cfg.seeds_per_class
    );

    let tables: [(&str, Reading); 4] = [
        ("client-visible recovery latency", |o| o.recovery_ns),
        ("fault -> first suspicion", |o| o.crash_to_detect_ns),
        ("first suspicion -> promotion", |o| o.detection_latency_ns),
        ("fault -> standby redirector promotion", |o| o.failover_ns),
    ];
    for (title, reading) in tables {
        print_latency_table(title, outcomes, reading);
    }
    print_suspicion_split(outcomes);
    let false_reports: Vec<u64> = outcomes.iter().filter_map(|o| o.false_reports).collect();
    println!(
        "lossy_healthy: {} false report(s) over {} of {} runs, every one absorbed by the probe round\n",
        false_reports.iter().sum::<u64>(),
        false_reports.iter().filter(|&&n| n > 0).count(),
        false_reports.len()
    );

    soak.finish("chaos_soak", "BENCH_chaos.json", &[]);

    if args.switch("--trace") {
        let chrome = chrome_trace_json(&cfg, FaultClass::PrimaryCrash, cfg.base_seed);
        std::fs::write("TRACE_chaos.json", &chrome).expect("write TRACE_chaos.json");
        println!(
            "wrote TRACE_chaos.json ({} bytes, traced primary-crash run, chrome://tracing)",
            chrome.len()
        );
    }
}
