//! Fast-lane equivalence property test.
//!
//! The TCP header-prediction fast lane is an *optimisation*, never a
//! behaviour: any segment the predicate admits must produce exactly the
//! state transitions the slow path would have produced. This test keeps
//! that claim executable by running the same seeded scenarios twice — fast
//! lane force-enabled vs force-disabled (`TcpConfig::fastpath`) — and
//! asserting bit-identical results:
//!
//! - every Figure 4 configuration (clean through primary+backup) at small,
//!   medium, and fragmenting write sizes: identical throughput bits,
//!   retransmit counts, and completion;
//! - a replicated star under SimRng-driven loss, reordering, and
//!   duplication, with a mid-stream primary crash: identical event counts,
//!   span-tree fingerprints (the packet trace), byte-for-byte identical
//!   replica deposits, and identical detector signals (detection latency).
//!
//! The fast lane is only allowed to differ in the `tcp.fastpath.hits` /
//! `tcp.fastpath.misses` counters, which are asserted live here: hits > 0
//! with the lane on, hits == 0 with it off.

use hydranet_bench::ablations::{build_star_cfg, service};
use hydranet_bench::fig4::{run_point, Fig4Config, Fig4Params};
use hydranet_core::prelude::*;

/// One fig4 point reduced to its comparable bits.
fn fig4_line(config: Fig4Config, write_size: usize, fastpath: bool, seed: u64) -> String {
    let params = Fig4Params {
        total_bytes: 48 * 1024,
        fastpath,
        ..Fig4Params::default()
    };
    let p = run_point(config, write_size, &params, seed);
    format!(
        "{config:?}/{write_size} tput={:#018x} retx={} completed={}",
        p.throughput_kbps.to_bits(),
        p.retransmits,
        p.completed
    )
}

#[test]
fn fig4_points_identical_with_fast_lane_on_and_off() {
    for config in Fig4Config::ALL {
        for write_size in [16usize, 512, 1480] {
            let on = fig4_line(config, write_size, true, 21);
            let off = fig4_line(config, write_size, false, 21);
            assert_eq!(on, off, "fast lane changed a fig4 point");
        }
    }
}

/// Everything one impaired star run produced that the fast lane could
/// conceivably perturb, plus the fast-lane hit count for the liveness
/// assertion.
struct StarRun {
    fingerprint: String,
    deposits: Vec<Vec<u8>>,
    client_fastpath_hits: u64,
}

/// Replicated star (primary + backup) streaming through an impaired client
/// link, with the primary crashed mid-stream. Loss, reordering, and
/// duplication all draw from the link's SimRng, so the run exercises the
/// fast lane's fallback on genuinely out-of-order, duplicated, and
/// retransmitted segments — not just the happy path.
fn impaired_star_run(seed: u64, fastpath: bool) -> StarRun {
    let tcp = TcpConfig {
        fastpath,
        ..TcpConfig::default()
    };
    let detector = DetectorParams::new(4, SimDuration::from_secs(60));
    let mut star = build_star_cfg(2, detector, false, seed, tcp);
    star.system.enable_tracing(8192);
    let imp = Impairments::NONE
        .with_loss(LossModel::Bernoulli { p: 0.02 })
        .with_reordering(0.2, SimDuration::from_millis(2))
        .with_duplication(0.05);
    star.system.sim.set_link_impairments(star.client_link, imp);

    let total = 60_000usize;
    let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
    let state = shared(SenderState::default());
    star.system.connect_client(
        star.client,
        service(),
        Box::new(StreamSenderApp::new(payload, false, state)),
    );
    let crash_at = star
        .system
        .sim
        .now()
        .saturating_add(SimDuration::from_millis(80));
    star.system.sim.schedule_crash(star.replicas[0], crash_at);
    star.system.sim.run_until(SimTime::from_secs(40));

    let obs = star.system.obs();
    let fingerprint = format!(
        "seed={seed} events={} spans={:#018x} detect_ns={} deposit_lens={:?}",
        star.system.sim.stats().events_processed,
        obs.span_fingerprint(),
        star.system.detection_latency_nanos().unwrap_or(0),
        star.sinks
            .iter()
            .map(|s| s.borrow().data.len())
            .collect::<Vec<_>>(),
    );
    let deposits = star.sinks.iter().map(|s| s.borrow().data.clone()).collect();
    let client_fastpath_hits = star
        .system
        .client(star.client)
        .stack()
        .stats()
        .fastpath_hits;
    StarRun {
        fingerprint,
        deposits,
        client_fastpath_hits,
    }
}

#[test]
fn impaired_replicated_runs_identical_with_fast_lane_on_and_off() {
    for seed in [21u64, 22, 23] {
        let on = impaired_star_run(seed, true);
        let off = impaired_star_run(seed, false);
        assert_eq!(
            on.fingerprint, off.fingerprint,
            "fast lane changed the schedule, span tree, or detector signal"
        );
        assert_eq!(
            on.deposits, off.deposits,
            "fast lane changed delivered bytes (seed {seed})"
        );
        // The comparison is only meaningful if the lane actually engaged.
        assert!(
            on.client_fastpath_hits > 0,
            "fast lane never engaged at seed {seed}"
        );
        assert_eq!(
            off.client_fastpath_hits, 0,
            "fast lane engaged while force-disabled at seed {seed}"
        );
    }
}
