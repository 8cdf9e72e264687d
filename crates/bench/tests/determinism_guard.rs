//! Determinism guard for the hot-path optimisations.
//!
//! Two generations of pins live here. The `Clean` fingerprint predates the
//! zero-copy refactor and has never moved: plain TCP involves no ack
//! channel and no divert path, so neither the shared-buffer work nor ack
//! batching may touch it. The replicated-path pins (`PrimaryBackup`,
//! fail-over, chaos partition) were re-captured for the batched ack
//! channel: coalescing (SEQ, ACK) reports into multi-pair datagrams
//! deliberately removes events from the schedule, so those fingerprints
//! *must* change exactly once — at the flip to batching — and stay
//! bit-identical afterwards. Gate outcomes (bytes released, retransmits,
//! completion) are asserted unchanged.
//!
//! The thread-equivalence tests extend the same contract to the parallel
//! experiment engine: an ablation grid or a chaos soak fanned out over N
//! workers must merge to the byte-identical JSON the single-threaded run
//! produces — thread count is a wall-clock knob, never a results knob.
//!
//! Pins are over behaviour (latencies, bytes, retransmits, completion
//! instants), never over `events_processed`: removing no-op events is not
//! a behaviour change. The one re-pin that rule cost is PR 13 (one wakeup
//! per node), which dropped `events=` from the three pins that carried it.

use hydranet_bench::ablations::{build_star, detector_sweep, service, DetectorGridConfig, Star};
use hydranet_bench::chaos::{self, ChaosConfig, FaultClass};
use hydranet_bench::fig4::{run_point, Fig4Config, Fig4Params};
use hydranet_bench::runner::{run_tasks, Task};
use hydranet_bench::scale::{merged_report as scale_report, run_scale, ScaleConfig};
use hydranet_core::prelude::*;
use hydranet_obs::kinds;

const SEED: u64 = 21;

/// fig4 `Clean` @ 512 B writes: plain TCP end-to-end, no redirector. No
/// ack channel on this path — pinned since the zero-copy refactor and
/// unchanged by batching.
const PINNED_CLEAN: &str = "clean tput=0x407350f1d241914f retx=0 completed=true";
/// fig4 `PrimaryBackup` @ 1480 B writes: multicast + tunnel + fragmentation.
/// Re-pinned for the batched ack channel (PR 5).
const PINNED_PRIMARY_BACKUP: &str = "pb tput=0x40759b5382f05691 retx=0 completed=true";
/// Primary crash under load: detection latency, bytes the promoted backup
/// holds, client retransmissions, and the instant its last byte landed.
/// `detect_ns` and `bytes` are unchanged since the batched ack channel
/// (PR 5); `bytes` must stay 200000.
const PINNED_FAILOVER: &str = "failover detect_ns=401086400 bytes=200000 retx=4 done_ns=3630716000";

fn fig4_fingerprint(config: Fig4Config, tag: &str, write_size: usize) -> String {
    let p = run_point(config, write_size, &Fig4Params::default(), SEED);
    format!(
        "{tag} tput={:#018x} retx={} completed={}",
        p.throughput_kbps.to_bits(),
        p.retransmits,
        p.completed
    )
}

/// The primary-crash scenario behind [`PINNED_FAILOVER`], with the causal
/// tracer on at `trace_capacity` if given. Returns the fingerprint line and
/// the star after the run.
fn failover_run(trace_capacity: Option<usize>) -> (String, Star) {
    let detector = DetectorParams::new(4, SimDuration::from_secs(60));
    let mut star = build_star(2, detector, false, SEED);
    if let Some(capacity) = trace_capacity {
        star.system.enable_tracing(capacity);
    }
    let total = 200_000usize;
    let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
    let state = shared(SenderState::default());
    let app = StreamSenderApp::new(payload, false, state);
    let quad = star
        .system
        .connect_client(star.client, service(), Box::new(app));
    let crash_at = star
        .system
        .sim
        .now()
        .saturating_add(SimDuration::from_millis(50));
    star.system.sim.schedule_crash(star.replicas[0], crash_at);
    star.system.sim.run_until(SimTime::from_secs(30));
    let detect_ns = star.system.detection_latency_nanos().unwrap_or(0);
    // After the fail-over the backup (now primary) must hold the stream.
    let (bytes, done_ns) = {
        let survivor = star.sinks[1].borrow();
        (
            survivor.len(),
            survivor.last_byte_at.map_or(0, SimTime::as_nanos),
        )
    };
    let retx = star
        .system
        .client(star.client)
        .stack()
        .conn(quad)
        .map_or(0, |c| c.retransmit_count());
    let line =
        format!("failover detect_ns={detect_ns} bytes={bytes} retx={retx} done_ns={done_ns}");
    (line, star)
}

fn failover_fingerprint() -> String {
    failover_run(None).0
}

#[test]
fn fig4_clean_is_bit_identical() {
    assert_eq!(
        fig4_fingerprint(Fig4Config::Clean, "clean", 512),
        PINNED_CLEAN
    );
}

#[test]
fn fig4_primary_backup_is_bit_identical() {
    assert_eq!(
        fig4_fingerprint(Fig4Config::PrimaryBackup, "pb", 1480),
        PINNED_PRIMARY_BACKUP
    );
}

#[test]
fn failover_latency_is_bit_identical() {
    assert_eq!(failover_fingerprint(), PINNED_FAILOVER);
}

/// Thread count is a wall-clock knob, never a results knob: two fail-over
/// runs side by side must produce the pinned fingerprint at 1 and at 4
/// runner threads.
#[test]
fn failover_is_thread_invariant() {
    let tasks = || -> Vec<Task<String>> {
        vec![
            Box::new(failover_fingerprint),
            Box::new(failover_fingerprint),
        ]
    };
    let seq = run_tasks(tasks(), 1);
    let par = run_tasks(tasks(), 4);
    assert_eq!(seq, par, "fingerprints diverged between 1 and 4 threads");
    assert_eq!(seq[0], seq[1], "side-by-side runs diverged");
    assert_eq!(seq[0], PINNED_FAILOVER);
}

/// Pinned span-tree fingerprint of the traced fail-over run (fig4 star,
/// primary crash @ +50 ms, 200 kB): FNV-1a over every span's category,
/// name, causal parent, simulated open/close instants, and notes. Tracing
/// is observational, so this pin moves only when the span taxonomy itself
/// changes — and must be bit-identical across thread counts.
const PINNED_SPAN_TREE: &str = "spans fp=0x3c603170005eb9f6 opened=163 evicted=0";

/// The traced variant of [`failover_fingerprint`]: same scenario with the
/// causal tracer on. Returns the span fingerprint line plus the full
/// flight-recorder JSON for post-mortem when the pin moves.
fn traced_failover_fingerprint() -> (String, String) {
    let (_, star) = failover_run(Some(8192));
    let obs = star.system.obs();
    let fp = format!(
        "spans fp={:#018x} opened={} evicted={}",
        obs.span_fingerprint(),
        obs.spans_opened(),
        obs.trace_evicted()
    );
    let dump = obs.flight_recorder_json(&[("scenario", "span_determinism".into())]);
    (fp, dump)
}

/// Tracing is observational: the fail-over run untraced, traced with room
/// for every span, and traced with a view of four must give the pinned
/// outcome and the same facts — kind, instant and fields — in the same
/// order. Span entries share the facts' log, so this fails on any design
/// where they can evict a fact.
#[test]
fn tracing_is_observational() {
    let facts = |star: &Star| -> Vec<_> {
        let events = star.system.obs().events();
        events
            .into_iter()
            .map(|e| (e.kind, e.at_nanos, e.fields))
            .collect()
    };
    let (line, star) = failover_run(None);
    assert_eq!(line, PINNED_FAILOVER);
    let untraced = facts(&star);
    assert!(
        untraced.iter().any(|f| f.0 == kinds::PROMOTED),
        "no fail-over"
    );
    for capacity in [8192, 4] {
        let (line, star) = failover_run(Some(capacity));
        assert_eq!(line, PINNED_FAILOVER, "traced at {capacity}");
        assert!(star.system.obs().spans_opened() > 0, "traced at {capacity}");
        assert_eq!(
            facts(&star),
            untraced,
            "facts moved when traced at {capacity}"
        );
    }
}

/// The span tree is part of the determinism contract: the traced fail-over
/// must produce a bit-identical span fingerprint at 1 and 4 runner
/// threads, pinned against drift. On a pin mismatch the flight recorder
/// auto-dumps for post-mortem.
#[test]
fn span_tree_is_thread_invariant() {
    let tasks = || -> Vec<Task<(String, String)>> {
        vec![
            Box::new(traced_failover_fingerprint),
            Box::new(traced_failover_fingerprint),
        ]
    };
    let seq = run_tasks(tasks(), 1);
    let par = run_tasks(tasks(), 4);
    assert_eq!(
        seq.iter().map(|(fp, _)| fp).collect::<Vec<_>>(),
        par.iter().map(|(fp, _)| fp).collect::<Vec<_>>(),
        "span fingerprints diverged between 1 and 4 threads"
    );
    assert_eq!(
        seq[0].0, seq[1].0,
        "span fingerprints diverged between side-by-side runs"
    );
    let (fp, dump) = &seq[0];
    if fp != PINNED_SPAN_TREE {
        let path = std::env::temp_dir().join("hydranet_span_tree_mismatch.json");
        let write = std::fs::write(&path, dump);
        panic!(
            "span-tree fingerprint moved: {fp:?} != {PINNED_SPAN_TREE:?}; \
             flight dump {} {}",
            if write.is_ok() {
                "written to"
            } else {
                "NOT written to"
            },
            path.display()
        );
    }
}

#[test]
fn ablation_grid_is_thread_count_invariant() {
    let cfg = DetectorGridConfig::quick();
    let thresholds = [3u32, 4];
    let seq = detector_sweep(&thresholds, &cfg, SEED, 1);
    let par = detector_sweep(&thresholds, &cfg, SEED, 4);
    assert_eq!(seq, par, "A1 grid points diverged between 1 and 4 threads");
    // One point per threshold, in threshold order, whatever the worker
    // layout.
    let order: Vec<u32> = seq.iter().map(|p| p.threshold).collect();
    assert_eq!(order, thresholds);
}

/// Pinned fingerprint of the chaos partition run at the default base seed:
/// the class whose recovery depends on the gate-starvation probe refreshing
/// ack state after the partition heals. Captured at 1 thread; the soak must
/// reproduce it bit-identically at 4. `bytes` and `recovery_ns` are
/// unchanged since the batched ack channel (PR 5); `bytes` must stay 60000.
const PINNED_CHAOS_PARTITION: &str =
    "partition seed=13000 bytes=60000 recovery_ns=209868800 chain=3";

/// Pinned fingerprint of the redirector-failover chaos run (crash the
/// active pair member under load; the standby must promote and flip the
/// anycast route). The whole replication/promotion path — peer probes,
/// epoch-stamped table replication, `ROUTE_ANNOUNCE` flooding — rides
/// under this pin, captured at 1 thread and reproduced at 4.
const PINNED_CHAOS_RD_FAILOVER: &str =
    "rd_failover seed=15000 bytes=60000 failover_ns=547461684 recovery_ns=30508800 chain=2";

#[test]
fn chaos_soak_is_thread_count_invariant_and_pinned() {
    let cfg = ChaosConfig {
        seeds_per_class: 1,
        payload: 60_000,
        ..ChaosConfig::default()
    };
    let seq = chaos::run_chaos_soak(&cfg, 1);
    let par = chaos::run_chaos_soak(&cfg, 4);
    assert_eq!(seq, par, "chaos outcomes diverged between 1 and 4 threads");
    assert_eq!(
        chaos::merged_report(&cfg, &seq),
        chaos::merged_report(&cfg, &par),
        "merged chaos report not byte-identical across thread counts"
    );
    assert!(chaos::violations(&seq).is_empty());
    let o = seq
        .iter()
        .find(|o| o.class == "partition")
        .expect("partition class present");
    let fp = format!(
        "partition seed={} bytes={} recovery_ns={} chain={}",
        o.seed,
        o.bytes,
        o.recovery_ns.unwrap_or(0),
        o.chain_len
    );
    assert_eq!(fp, PINNED_CHAOS_PARTITION);
    let o = seq
        .iter()
        .find(|o| o.class == "rd_failover")
        .expect("rd_failover class present");
    let fp = format!(
        "rd_failover seed={} bytes={} failover_ns={} recovery_ns={} chain={}",
        o.seed,
        o.bytes,
        o.failover_ns.unwrap_or(0),
        o.recovery_ns.unwrap_or(0),
        o.chain_len
    );
    assert_eq!(fp, PINNED_CHAOS_RD_FAILOVER);
}

/// Pinned fingerprint of the tiny scale workload: FNV-1a over the entire
/// merged report (every counter, histogram bucket, percentile, and
/// per-cell line), plus the headline counts in the clear. The slab demux,
/// per-stack deadline heaps, and buffer recycling all ride under this pin:
/// any schedule-visible change to the many-flow engine moves it.
/// Re-pinned when `bytes_per_flow` joined the merged report (the lean
/// connection layout + honest memory accounting); the headline counts did
/// not move. Re-pinned once more when the per-connection registry series
/// became one shared set per stack: `memory_bytes` stopped charging a
/// `ConnTelemetry` per connection, so `bytes_per_flow` 1742 → 1726 and
/// `primary_conn_bytes` are the only report fields that differ —
/// `flows`/`completed`/`peak`/`events` and every percentile are unchanged
/// (reports diffed against the parent commit's). Re-pinned when
/// `Connection` lost its keepalive state and second send-gate field
/// (640 → 616 B): `bytes_per_flow` 1712 → 1664 and `primary_conn_bytes`
/// are again the only report fields that moved. Re-pinned when the
/// registry lost its gauges: the report's embedded registry JSON dropped
/// its empty `"gauges": {}` member, the only byte that moved (reports
/// diffed against the parent commit's). Re-pinned when received bytes
/// became views in one run list released on drain (no 512 B readable ring
/// kept per connection): `bytes_per_flow` and its histogram 1678 → 1645,
/// `per_flow_client_bytes` 1678 → 1645 and `primary_conn_bytes`
/// 105,468 / 104,636 → 98,876 / 98,876 are the only report fields that
/// moved. Re-pinned when a parked connection stopped holding an outbox and
/// an event queue (the stack lends its own at check-out) and its record
/// shrank (`ConnEntry` 704 → 584 B, `Connection` 600 → 512 B): of every
/// report field only `bytes_per_flow` and its histogram 1631 → 1193,
/// `per_flow_client_bytes` 1631 → 1193 and `primary_conn_bytes`
/// 653,712 / 653,712 → 478,808 / 478,808 moved. Re-pinned when the record
/// lost its queues and test-only counters (`ConnEntry` 584 → 440 B, the
/// slab slot 48 → 40 B) and `conn_memory_bytes` stopped charging each
/// parked connection's `Connection` twice: of every report field only
/// `bytes_per_flow` and its histogram 1206 → 542 (bucket 2048 → 1024),
/// `per_flow_client_bytes` 1206 → 542 and `primary_conn_bytes`
/// 73,572 / 73,572 → 33,044 / 33,044 moved. Re-pinned when `Connection`
/// stopped pointing at the stack's config and telemetry and dropped its
/// SYN timestamp (`Connection` 368 → 352 B, `ConnEntry` 440 → 424 B): of
/// every report field only `bytes_per_flow` and its histogram 542 → 526,
/// `per_flow_client_bytes` 542 → 526 and `primary_conn_bytes`
/// 33,044 / 33,044 → 32,068 / 32,068 moved. Re-pinned when the slab slot
/// became the parked box (40 → 8 B), the demux bucket shrank 32 → 16 B and
/// the detector 56 → 48 B (`ConnEntry` 424 → 416 B): of every report field
/// only `bytes_per_flow` and its histogram 526 → 454 (bucket 1024 → 512),
/// `per_flow_client_bytes` 526 → 454 and `primary_conn_bytes`
/// 32,068 / 32,068 → 27,740 / 27,740 moved. Re-pinned when the failure
/// detector became built at a connection's first duplicate, the RTT
/// estimator's counters and the retry count narrowed (`ConnEntry`
/// 416 → 360 B, `Connection` 352 → 336 B) and emptied send rings were
/// released: of every report field only `bytes_per_flow` and its
/// histogram 454 → 398 (bucket unchanged), `per_flow_client_bytes`
/// 454 → 398 and `primary_conn_bytes` 27,740 / 27,740 → 24,344 / 24,344
/// moved.
const PINNED_SCALE: &str =
    "scale fp=0x2ef4c4d46e9b3a20 flows=120 completed=120 peak=120 events=25816";

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

#[test]
fn scale_workload_is_thread_invariant_and_pinned() {
    let cfg = ScaleConfig::tiny();
    let seq = run_scale(&cfg, 1);
    let par = run_scale(&cfg, 4);
    assert_eq!(seq, par, "scale outcomes diverged between 1 and 4 threads");
    let report = scale_report(&cfg, &seq);
    assert_eq!(
        report,
        scale_report(&cfg, &par),
        "merged scale report not byte-identical across thread counts"
    );
    let flows: u64 = seq.iter().map(|o| o.flows).sum();
    let completed: u64 = seq.iter().map(|o| o.completed).sum();
    let peak: u64 = seq.iter().map(|o| o.peak_concurrent).sum();
    let events: u64 = seq.iter().map(|o| o.events).sum();
    let fp = format!(
        "scale fp={:#018x} flows={flows} completed={completed} peak={peak} events={events}",
        fnv1a(report.as_bytes())
    );
    assert_eq!(fp, PINNED_SCALE);
}

/// The S1 crash distributions are `primary_crash` runs. These are the
/// values the retired `sweep` binary produced for its `--smoke` crash run
/// (60 kB echo) at seeds 1000 and 1004, so the fold moved no number:
/// detect→promote, the client's stall, crash→first suspicion, bytes.
const PINNED_S1_CRASH: [&str; 2] = [
    "primary_crash seed=1000 detect_ns=401086400 recovery_ns=1045628000 crash_to_detect_ns=645638639 bytes=60000",
    "primary_crash seed=1004 detect_ns=401086400 recovery_ns=1009244000 crash_to_detect_ns=607704883 bytes=60000",
];

#[test]
fn primary_crash_reproduces_the_seed_sweep_crash_run() {
    let cfg = ChaosConfig {
        payload: 60_000,
        ..ChaosConfig::default()
    };
    for (seed, pinned) in [1000, 1004].into_iter().zip(PINNED_S1_CRASH) {
        let o = chaos::chaos_point(&cfg, FaultClass::PrimaryCrash, seed);
        assert!(o.invariants_hold());
        let fp = format!(
            "primary_crash seed={seed} detect_ns={} recovery_ns={} crash_to_detect_ns={} bytes={}",
            o.detection_latency_ns.unwrap_or(0),
            o.recovery_ns.unwrap_or(0),
            o.crash_to_detect_ns.unwrap_or(0),
            o.bytes
        );
        assert_eq!(fp, pinned);
    }
}

/// S1's false-positive half, on a seed where the 3 % loss on the primary's
/// branch does trip the backup's estimator: the class exercises the
/// false-alarm path (a report, a probe round), not a quiet run, and the
/// probe round absorbs it.
const PINNED_LOSSY_HEALTHY: &str =
    "lossy_healthy seed=18012 bytes=90000 false_reports=1 false_reconfigurations=0 crash_to_detect_ns=660160000 chain=2";

#[test]
fn lossy_healthy_raises_a_false_alarm_and_absorbs_it() {
    let mut o = chaos::chaos_point(&ChaosConfig::default(), FaultClass::LossyHealthy, 18012);
    assert!(o.invariants_hold());
    let fp = format!(
        "lossy_healthy seed={} bytes={} false_reports={} false_reconfigurations={} crash_to_detect_ns={} chain={}",
        o.seed,
        o.bytes,
        o.false_reports.unwrap_or(0),
        o.false_reconfigurations.unwrap_or(u64::MAX),
        o.crash_to_detect_ns.unwrap_or(0),
        o.chain_len
    );
    assert_eq!(fp, PINNED_LOSSY_HEALTHY);
    // Had the false alarm reconfigured the chain, the soak would go red.
    o.false_reconfigurations = Some(1);
    assert!(!o.invariants_hold());
    assert!(chaos::violations(&[o])[0].contains("false_reconfigurations=1"));
}
