//! Chaos soak: scripted fault plans swept over many seeds, with hard
//! invariants instead of point measurements.
//!
//! Each *fault class* is a [`FaultPlan`] template — primary / mid-chain /
//! tail crash with recovery, a redirector outage, a client-link flap, an
//! impaired-link window (loss + reordering + duplication + corruption), a
//! group partition, and an ack-channel loss burst — plus three `rd_*`
//! classes that run against a *replicated redirector pair* (crash the
//! active under load, partition-then-heal with stale updates, crash during
//! table install) and report the standby's promotion latency, and a
//! `lossy_healthy` class where nobody fails but the primary's branch drops
//! packets (the detector's false-positive side). Per
//! `(class, seed)` the soak builds a star (or pair) deployment, streams an
//! echo transfer through it, applies the plan, and checks the properties
//! that must survive *any* of these faults:
//!
//! - **stream intact, exactly once** — the client's reply stream equals the
//!   sent payload byte for byte (detects loss, duplication, and corrupt
//!   segments sneaking past a checksum);
//! - **survivor replicas intact** — every replica that never crashed
//!   consumed the full client stream (a permanently gated deposit buffer
//!   would leave a survivor short);
//! - **chain reconverges** — after recovery the redirector's chain is back
//!   to full strength with a single primary at its head;
//! - **false alarms absorbed** — when nobody failed, the redirector's probe
//!   round answers every failure report and never reconfigures.
//!
//! Each run is a pure function of `(config, class, seed)` on the parallel
//! experiment engine ([`crate::runner`]), so outcomes and the merged report
//! are byte-identical at any thread count. The `chaos` binary wraps the
//! report in `BENCH_chaos.json` with per-class distributions (p50/p90/p99)
//! of the fail-over window's parts: fault → first suspicion
//! (`crash_to_detect_ns`), suspicion → promotion (`detection_latency_ns`)
//! and the client's largest reply gap (`recovery_ns`).

use std::fmt::Write as _;

use hydranet_core::faults::FaultPlan;
use hydranet_core::prelude::*;
use hydranet_netsim::link::{Impairments, LinkId};
use hydranet_obs::{json, kinds, Obs};
use hydranet_tcp::detector::Signal;

use crate::ablations::{build_star, deploy_echo_chain, pattern, service, stream_echo, Star};
use crate::runner::{run_tasks, Task};

/// The classes that crash one replica of a solo-redirector chain. Their
/// fault → first suspicion is an invariant: every replica's estimator hears
/// a broken loop within [`SUSPICION_BOUND`], whichever replica died and
/// whatever the client happened to have outstanding.
const BOUNDED_SUSPICION: [FaultClass; 3] = [
    FaultClass::PrimaryCrash,
    FaultClass::MidChainCrash,
    FaultClass::TailCrash,
];

/// The longest fault → first suspicion a [`BOUNDED_SUSPICION`] class may
/// take.
const SUSPICION_BOUND: SimDuration = SimDuration::from_secs(1);

/// The `chaos` binary's number-valued flags (besides `--threads`).
pub const VALUE_FLAGS: &[&str] = &["--seeds", "--probe-ms", "--probe-attempts"];

/// Retired spans a soak run's flight dump shows: enough to hold the spans
/// around a wedged transfer.
const FLIGHT_CAPACITY: usize = 4096;

/// The scripted fault classes the soak sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Crash the chain head mid-transfer; recover it later.
    PrimaryCrash,
    /// Crash the middle backup of a 3-chain mid-transfer; recover it later.
    MidChainCrash,
    /// Crash the chain tail of a 3-chain mid-transfer; recover it later.
    TailCrash,
    /// Crash the redirector briefly (its tables survive, traffic does not).
    RedirectorOutage,
    /// Take the client's access link down briefly.
    ClientLinkFlap,
    /// A window of loss + reordering + duplication + corruption on the
    /// client link.
    ImpairedLinks,
    /// Partition both backups of a 3-chain from the redirector, then heal.
    Partition,
    /// A Bernoulli loss burst on the first backup's link — the path that
    /// carries its §4.3 acknowledgement channel.
    AckChannelBurst,
    /// Crash the *active* redirector of a replicated pair mid-transfer;
    /// the standby must promote itself and flip the anycast route.
    RedirectorFailover,
    /// Partition the active redirector from its peer and the clients (its
    /// daemon side stays up), crash the chain tail during the partition so
    /// the doomed ex-active accepts a genuinely *stale* table update, then
    /// heal: the new active must reject the stale epoch and resync the
    /// ex-active.
    RedirectorPartitionStale,
    /// Crash the active redirector inside the registration window, while
    /// table installs are still in flight — unacked registrations must
    /// retransmit into the promoted standby.
    RedirectorCrashInstall,
    /// Nobody fails: 3 % Bernoulli loss on the primary's branch for the
    /// whole run. Packets the backup received but the primary lost make the
    /// client retransmit, and those retransmissions are exactly the
    /// duplicates the backup's estimator counts — ordinary congestion loss
    /// looking like a failure (§4.3's false-positive risk).
    LossyHealthy,
}

/// Every class, in report order. New classes are appended so existing
/// classes keep their seed bands (`base_seed + 1000 * index`).
pub const CLASSES: [FaultClass; 12] = [
    FaultClass::PrimaryCrash,
    FaultClass::MidChainCrash,
    FaultClass::TailCrash,
    FaultClass::RedirectorOutage,
    FaultClass::ClientLinkFlap,
    FaultClass::ImpairedLinks,
    FaultClass::Partition,
    FaultClass::AckChannelBurst,
    FaultClass::RedirectorFailover,
    FaultClass::RedirectorPartitionStale,
    FaultClass::RedirectorCrashInstall,
    FaultClass::LossyHealthy,
];

impl FaultClass {
    /// Stable name used in task labels, metrics, and the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::PrimaryCrash => "primary_crash",
            FaultClass::MidChainCrash => "midchain_crash",
            FaultClass::TailCrash => "tail_crash",
            FaultClass::RedirectorOutage => "redirector_outage",
            FaultClass::ClientLinkFlap => "client_link_flap",
            FaultClass::ImpairedLinks => "impaired_links",
            FaultClass::Partition => "partition",
            FaultClass::AckChannelBurst => "ackchan_burst",
            FaultClass::RedirectorFailover => "rd_failover",
            FaultClass::RedirectorPartitionStale => "rd_partition_stale",
            FaultClass::RedirectorCrashInstall => "rd_crash_install",
            FaultClass::LossyHealthy => "lossy_healthy",
        }
    }

    /// Chain length the class deploys (crash position needs a 3-chain for
    /// the mid-chain and tail cases).
    pub fn replicas(self) -> usize {
        match self {
            FaultClass::MidChainCrash
            | FaultClass::TailCrash
            | FaultClass::Partition
            | FaultClass::RedirectorPartitionStale
            | FaultClass::RedirectorCrashInstall => 3,
            _ => 2,
        }
    }

    /// Whether the class runs against a redirector *pair* deployment
    /// instead of the solo-redirector star.
    pub fn is_pair(self) -> bool {
        matches!(
            self,
            FaultClass::RedirectorFailover
                | FaultClass::RedirectorPartitionStale
                | FaultClass::RedirectorCrashInstall
        )
    }

    /// The replica (chain index) this class crashes, if any.
    fn crashed_replica(self) -> Option<usize> {
        match self {
            FaultClass::PrimaryCrash => Some(0),
            FaultClass::MidChainCrash => Some(1),
            FaultClass::TailCrash | FaultClass::RedirectorPartitionStale => Some(2),
            _ => None,
        }
    }

    /// Builds the class's fault plan against its deployment, starting at
    /// `t0`.
    fn plan(self, rig: &Rig, t0: SimTime, cfg: &ChaosConfig) -> FaultPlan {
        let star = &rig.star;
        match self {
            FaultClass::PrimaryCrash | FaultClass::MidChainCrash | FaultClass::TailCrash => {
                let victim = star.replicas[self.crashed_replica().expect("crash class")];
                FaultPlan::new().crash_for(victim, t0, cfg.crash_downtime)
            }
            FaultClass::RedirectorOutage => {
                // Short: the engine's tables survive the crash, but every
                // packet through it blackholes until recovery.
                FaultPlan::new().crash_for(star.rd, t0, SimDuration::from_millis(100))
            }
            FaultClass::ClientLinkFlap => {
                FaultPlan::new().link_flap(star.client_link, t0, SimDuration::from_millis(100))
            }
            FaultClass::ImpairedLinks => {
                let imp = Impairments::NONE
                    .with_loss(0.02)
                    .with_reordering(0.2, SimDuration::from_millis(2))
                    .with_duplication(0.05)
                    .with_corruption(0.05);
                FaultPlan::new().impair_for(
                    star.client_link,
                    imp,
                    t0,
                    SimDuration::from_millis(500),
                )
            }
            FaultClass::Partition => {
                // Cut both backups off (their links to the redirector);
                // heal before the controller's probe round can conclude
                // they are dead.
                let group: Vec<NodeId> = star.replicas[1..].to_vec();
                FaultPlan::new().partition(
                    &star.system.sim,
                    &group,
                    t0,
                    SimDuration::from_millis(150),
                )
            }
            FaultClass::AckChannelBurst => FaultPlan::new().loss_burst(
                star.replica_links[1],
                0.3,
                t0,
                SimDuration::from_millis(250),
            ),
            FaultClass::LossyHealthy => FaultPlan::new().impair(
                star.replica_links[0],
                Impairments::NONE.with_loss(0.03),
                t0,
            ),
            FaultClass::RedirectorFailover | FaultClass::RedirectorCrashInstall => {
                FaultPlan::new().crash_for(star.rd, t0, cfg.crash_downtime)
            }
            FaultClass::RedirectorPartitionStale => {
                // Cut the active's client-facing and peer links (its daemon
                // side stays reachable), and crash the chain tail inside
                // the partition window: the failure reports that reach the
                // doomed ex-active make it build a stale table update under
                // the old term. Heal while its reliable retransmits are
                // still alive so the stale update is delivered — and must
                // be rejected — by the promoted standby.
                let crash_tail = t0.saturating_add(SimDuration::from_millis(50));
                rig.west_links
                    .iter()
                    .fold(FaultPlan::new(), |p, &l| {
                        p.link_flap(l, t0, SimDuration::from_millis(1500))
                    })
                    .crash_for(star.replicas[2], crash_tail, cfg.crash_downtime)
            }
        }
    }
}

/// Knobs for the chaos soak.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeds per fault class (the full soak uses ≥ 100).
    pub seeds_per_class: u64,
    /// First seed; class *c*, index *i* runs seed `base_seed + 1000 c + i`.
    pub base_seed: u64,
    /// Detector retransmission threshold.
    pub threshold: u32,
    /// Bytes the client streams (echoed back).
    pub payload: usize,
    /// Give-up deadline per run (simulated).
    pub deadline: SimTime,
    /// How long crashed nodes stay down. Long enough that detection,
    /// probing, and splicing finish first, so recovery is a clean re-join.
    pub crash_downtime: SimDuration,
    /// Extra simulated time after transfer completion for the chain to
    /// reconverge (recovered replicas re-register).
    pub converge_grace: SimDuration,
    /// Peer-probe period for the redirector-pair rig (pair classes only;
    /// the solo-redirector star keeps the builder default so its pinned
    /// fingerprints never move).
    pub pair_probe_timeout: SimDuration,
    /// Consecutive missed peer probes before the standby promotes.
    pub pair_probe_attempts: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seeds_per_class: 100,
            base_seed: 7000,
            threshold: 4,
            payload: 90_000,
            deadline: SimTime::from_secs(60),
            crash_downtime: SimDuration::from_secs(8),
            converge_grace: SimDuration::from_secs(10),
            pair_probe_timeout: SimDuration::from_millis(200),
            pair_probe_attempts: 2,
        }
    }
}

impl ChaosConfig {
    /// A scaled-down soak for CI smoke runs and tests.
    pub fn smoke() -> Self {
        ChaosConfig {
            seeds_per_class: 4,
            payload: 60_000,
            ..ChaosConfig::default()
        }
    }
}

/// Everything one `(class, seed)` run measured. Derives only from simulated
/// time and seed-determined state — bit-identical across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Fault class name.
    pub class: &'static str,
    /// The run's seed.
    pub seed: u64,
    /// Faults the plan injected.
    pub faults: u64,
    /// Whether the echo transfer completed before the deadline.
    pub completed: bool,
    /// Whether the client's reply stream equals the payload byte-for-byte.
    pub intact: bool,
    /// Whether every never-crashed replica consumed the full stream (the
    /// observable form of "no permanently gated deposit buffer").
    pub survivors_intact: bool,
    /// Final chain length at the redirector (expected: the class's full
    /// replica count after recovery).
    pub chain_len: usize,
    /// Chain length the class should reconverge to.
    pub chain_expected: usize,
    /// Largest client-visible gap between reply bytes — the recovery
    /// latency the client experienced.
    pub recovery_ns: Option<u64>,
    /// Fault→first-suspicion span: the part of the fail-over window that
    /// depends on where the fault landed relative to the client's
    /// retransmission schedule (the seed-varying part).
    pub crash_to_detect_ns: Option<u64>,
    /// The broken-loop signal that raised the first suspicion, and the
    /// replica that reported it (the first failure report's reporter).
    /// Printed beside the report, not in it.
    pub first_suspicion: Option<(Signal, String)>,
    /// Detect→promote latency, when the run involved a fail-over.
    pub detection_latency_ns: Option<u64>,
    /// Fault-injection→standby-promotion latency, for redirector-pair
    /// classes (None for solo-redirector classes).
    pub failover_ns: Option<u64>,
    /// Failure reports the replicas' estimators sent although nobody failed
    /// (`lossy_healthy` only).
    pub false_reports: Option<u64>,
    /// Of those, how many survived the redirector's probe round and caused
    /// a spurious reconfiguration — must be 0 (`lossy_healthy` only).
    pub false_reconfigurations: Option<u64>,
    /// Bytes the client received.
    pub bytes: usize,
    /// Simulated events processed.
    pub events: u64,
    /// Flight-recorder JSON dump, captured iff the run's invariants failed.
    /// Derived from sim-time spans only, so it is bit-identical at any
    /// thread count like the rest of the outcome.
    pub flight_dump: Option<String>,
}

impl ChaosOutcome {
    /// The soak's hard invariants for this run.
    pub fn invariants_hold(&self) -> bool {
        self.completed
            && self.intact
            && self.survivors_intact
            && self.chain_len == self.chain_expected
            && self.false_reconfigurations.unwrap_or(0) == 0
            && self.suspected_in_time()
    }

    /// Whether a replica crash was suspected within [`SUSPICION_BOUND`]
    /// (true for classes the bound does not cover).
    fn suspected_in_time(&self) -> bool {
        let bounded = BOUNDED_SUSPICION.iter().any(|c| c.name() == self.class);
        let bound = SUSPICION_BOUND.as_nanos();
        !bounded || self.crash_to_detect_ns.is_some_and(|ns| ns <= bound)
    }

    /// The optional readings, by report key: each gets a per-class
    /// histogram in the summary and a field in the per-run line.
    fn readings(&self) -> [(&'static str, Option<u64>); 5] {
        [
            ("recovery_ns", self.recovery_ns),
            ("crash_to_detect_ns", self.crash_to_detect_ns),
            ("detection_latency_ns", self.detection_latency_ns),
            ("failover_ns", self.failover_ns),
            ("false_reports", self.false_reports),
        ]
    }
}

/// Runs one `(class, seed)` chaos run. Pure function of its arguments —
/// the unit of parallel work.
pub fn chaos_point(cfg: &ChaosConfig, class: FaultClass, seed: u64) -> ChaosOutcome {
    ChaosRun::build(cfg, class, seed).run()
}

/// Chrome trace-event JSON of one traced `(class, seed)` run — the
/// `--trace` export of the `chaos` binary, loadable in chrome://tracing.
pub fn chrome_trace_json(cfg: &ChaosConfig, class: FaultClass, seed: u64) -> String {
    let (_, system) = run_deployed(ChaosRun::build(cfg, class, seed));
    system.obs().chrome_trace_json()
}

/// One `(class, seed)` chaos run split where its set-up ends, so the two
/// phases can be measured apart: [`build`](Self::build) deploys the rig,
/// converges its registrations and arms the fault plan; [`run`](Self::run)
/// streams the echo through the faults and judges it. [`chaos_point`] is
/// the two in a row.
pub struct ChaosRun<'a> {
    cfg: &'a ChaosConfig,
    class: FaultClass,
    seed: u64,
    rig: Rig,
    plan: FaultPlan,
    /// When the plan's first fault lands.
    t0: SimTime,
}

impl<'a> ChaosRun<'a> {
    /// Builds the run's deployment up to its first client byte.
    pub fn build(cfg: &'a ChaosConfig, class: FaultClass, seed: u64) -> Self {
        let (rig, plan, t0) = deploy(cfg, class, seed);
        ChaosRun {
            cfg,
            class,
            seed,
            rig,
            plan,
            t0,
        }
    }

    /// Simulated events the set-up processed.
    pub fn events(&self) -> u64 {
        self.rig.star.system.sim.stats().events_processed
    }

    /// Streams the echo through the faults and checks the invariants.
    pub fn run(self) -> ChaosOutcome {
        run_deployed(self).0
    }
}

/// A chaos deployment: the solo-redirector [`Star`], or the redirector pair
/// laid out in the same fields (`rd` is the initial active, `client_link`
/// and `replica_links` hang off the plain routers on either side).
struct Rig {
    star: Star,
    /// The standby redirector, for pair classes: reconvergence is judged at
    /// whichever member is active at the end, and `failover_ns` is its
    /// promotion.
    standby: Option<NodeId>,
    /// Pair only: routerA—rdA and rdA—rdB. Cutting exactly these isolates
    /// the initial active from the clients and its peer while its daemon
    /// side stays reachable (the stale-update partition shape).
    west_links: Vec<LinkId>,
}

/// Builds the class's deployment, its fault plan, and the instant the
/// plan's first fault lands.
fn deploy(cfg: &ChaosConfig, class: FaultClass, seed: u64) -> (Rig, FaultPlan, SimTime) {
    let detector = DetectorParams::new(cfg.threshold, SimDuration::from_secs(60));
    let n = class.replicas();
    let rig = if class.is_pair() {
        let probe = ProbeParams {
            timeout: cfg.pair_probe_timeout,
            attempts: cfg.pair_probe_attempts,
        };
        build_pair_rig(n, detector, seed, probe)
    } else {
        Rig {
            star: build_star(n, detector, true, seed),
            standby: None,
            west_links: Vec::new(),
        }
    };
    let base_ms = match class {
        // No fault instant: the loss is there from the first packet.
        FaultClass::LossyHealthy => None,
        // Lands *inside* the staggered registration window (starting 5 ms
        // in).
        FaultClass::RedirectorCrashInstall => Some(5),
        // Every other class waits until the transfer is in full flight.
        _ => Some(50),
    };
    // Jittered across a 40 ms window per seed, so the fault hits different
    // phases of the transfer.
    let jitter_ns = hydranet_netsim::rng::SimRng::seed_from(seed).next_u64() % 40_000_000;
    let now = rig.star.system.sim.now();
    let t0 = base_ms.map_or(now, |ms| {
        now.saturating_add(SimDuration::from_millis(ms))
            .saturating_add(SimDuration::from_nanos(jitter_ns))
    });
    let plan = class.plan(&rig, t0, cfg);
    (rig, plan, t0)
}

/// Streams an echo transfer through a built run, applies the class's plan,
/// and checks the chaos invariants (for pair classes also measuring the
/// standby's promotion latency); hands back the system for export.
fn run_deployed(run: ChaosRun<'_>) -> (ChaosOutcome, System) {
    let ChaosRun {
        cfg,
        class,
        seed,
        rig,
        plan,
        t0,
    } = run;
    let Star {
        mut system,
        client,
        rd,
        replicas,
        sinks,
        ..
    } = rig.star;
    let standby = rig.standby;
    // Tracing is purely observational (no RNG draws, no scheduled events),
    // so the soak always flies with the recorder on: any invariant
    // violation yields a causal dump instead of just a failing bool.
    system.enable_tracing(FLIGHT_CAPACITY);

    let payload = pattern(cfg.payload);
    let state = stream_echo(
        &mut system,
        client,
        payload.clone(),
        cfg.deadline,
        |system| plan.apply(system),
    );
    let healthy = class == FaultClass::LossyHealthy;
    if healthy {
        // A false alarm raised just before the last byte still has its
        // probe round (2 x 200 ms) in flight: let it conclude before
        // judging whether it was absorbed.
        let settled = system.sim.now().saturating_add(SimDuration::from_secs(1));
        system.sim.run_until(settled);
    }
    let (completed, intact, bytes, recovery_ns) = {
        let st = state.borrow();
        (
            st.replies.data.len() >= cfg.payload,
            st.replies.data == payload,
            st.replies.data.len(),
            st.replies.max_gap_duration().map(|d| d.as_nanos()),
        )
    };

    // Survivors (replicas the plan never crashed) must have consumed the
    // whole stream — a stuck deposit gate would leave one short.
    let crashed = class.crashed_replica();
    let survivors_intact = sinks
        .iter()
        .enumerate()
        .filter(|&(i, _)| Some(i) != crashed)
        .all(|(_, sink)| sink.borrow().data == payload);

    // Reconvergence: recovered replicas re-register, so the chain must be
    // back to full strength — judged at whichever pair member holds the
    // active role now (after a promotion, the standby).
    let n = class.replicas();
    let judged = standby
        .filter(|&s| system.redirector(s).controller().is_active())
        .unwrap_or(rd);
    let converge_deadline = system.sim.now().saturating_add(cfg.converge_grace);
    system.wait_for_chain(judged, service(), n, converge_deadline);
    let chain_len = system
        .redirector(judged)
        .controller()
        .chain(service())
        .map_or(0, <[IpAddr]>::len);

    let failover_ns = standby
        .and_then(|_| system.obs().first_event_at(kinds::REDIRECTOR_PROMOTED))
        .and_then(|at| at.checked_sub(t0.as_nanos()));
    let crash_to_detect_ns = system
        .obs()
        .first_event_at(kinds::DETECTOR_SUSPECTED)
        .map(|at| at.saturating_sub(t0.as_nanos()));
    let first_suspicion = first_suspicion(system.obs());
    // With nobody failed, every report is a false alarm the probe round
    // must absorb.
    let false_reports = healthy.then(|| {
        let sent = |&r: &NodeId| system.host_server(r).daemon().reports_sent();
        replicas.iter().map(sent).sum()
    });
    let false_reconfigurations =
        healthy.then(|| system.redirector(rd).controller().reconfigurations());

    let mut outcome = ChaosOutcome {
        class: class.name(),
        seed,
        faults: plan.len() as u64,
        completed,
        intact,
        survivors_intact,
        chain_len,
        chain_expected: n,
        recovery_ns,
        crash_to_detect_ns,
        first_suspicion,
        detection_latency_ns: system.detection_latency_nanos(),
        failover_ns,
        false_reports,
        false_reconfigurations,
        bytes,
        events: system.sim.stats().events_processed,
        flight_dump: None,
    };
    if !outcome.invariants_hold() {
        outcome.flight_dump = Some(system.obs().flight_recorder_json(&[
            ("workload", "chaos_soak".into()),
            ("class", class.name().into()),
            ("seed", seed.to_string()),
        ]));
    }
    (outcome, system)
}

/// The signal named by the timeline's first suspicion, and the reporter
/// named by its first failure report.
fn first_suspicion(obs: &Obs) -> Option<(Signal, String)> {
    let events = obs.events();
    let field = |kind: &str, key: &str| {
        let e = events.iter().find(|e| e.kind == kind)?;
        e.field(key).map(str::to_string)
    };
    let name = field(kinds::DETECTOR_SUSPECTED, "signal")?;
    let signal = Signal::ALL.into_iter().find(|s| s.name() == name)?;
    Some((signal, field(kinds::FAILURE_REPORTED, "reporter")?))
}

/// Deploys the redirector-*pair* topology of the `rd_*` chaos classes:
/// clients and host daemons address only the pair's VIP, plain routers sit
/// on both sides, and each router is linked to both members (the anycast
/// group):
///
/// ```text
/// client — routerA ═ (rdA ↔ rdB) ═ routerB — hs1..hsN
/// ```
fn build_pair_rig(n: usize, detector: DetectorParams, seed: u64, probe: ProbeParams) -> Rig {
    const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
    const RD_A: IpAddr = IpAddr::new(10, 9, 0, 1);
    const RD_B: IpAddr = IpAddr::new(10, 9, 0, 2);
    const VIP: IpAddr = IpAddr::new(10, 9, 0, 9);
    let mut b = SystemBuilder::new(TcpConfig::default());
    b.set_probe_params(probe);
    let client = b.add_client("client", CLIENT);
    let (rd_a, rd_b) = b.add_redirector_pair("rdA", RD_A, "rdB", RD_B, VIP);
    b.route_via_pair(VIP, service().addr);
    let router_a = b.add_router("routerA");
    let router_b = b.add_router("routerB");
    let replicas: Vec<NodeId> = (0..n)
        .map(|i| {
            b.add_host_server(
                &format!("hs{}", i + 1),
                IpAddr::new(10, 0, 2 + i as u8, 1),
                VIP,
            )
        })
        .collect();
    let client_link = b.link(client, router_a, LinkParams::default());
    let l_client_side = b.link(router_a, rd_a, LinkParams::default());
    b.link(router_a, rd_b, LinkParams::default());
    let l_peer = b.link(rd_a, rd_b, LinkParams::default());
    b.link(rd_a, router_b, LinkParams::default());
    b.link(rd_b, router_b, LinkParams::default());
    let replica_links = replicas
        .iter()
        .map(|&r| b.link(router_b, r, LinkParams::default()))
        .collect();
    let sinks = deploy_echo_chain(&mut b, &replicas, detector, true);
    let system = b.build(seed);
    Rig {
        star: Star {
            system,
            client,
            rd: rd_a,
            replicas,
            sinks,
            replica_links,
            client_link,
        },
        standby: Some(rd_b),
        west_links: vec![l_client_side, l_peer],
    }
}

/// Runs the full soak (every class × every seed) across the experiment
/// engine. Outcomes come back in (class, seed) order regardless of
/// `threads`.
pub fn run_chaos_soak(cfg: &ChaosConfig, threads: usize) -> Vec<ChaosOutcome> {
    let tasks = CLASSES
        .iter()
        .flat_map(|&class| (0..cfg.seeds_per_class).map(move |i| (class, i)))
        .map(|(class, i)| -> Task<ChaosOutcome> {
            let seed = cfg.base_seed + 1000 * class_index(class) + i;
            let cfg = cfg.clone();
            Box::new(move || chaos_point(&cfg, class, seed))
        })
        .collect();
    run_tasks(tasks, threads)
}

fn class_index(class: FaultClass) -> u64 {
    CLASSES
        .iter()
        .position(|&c| c == class)
        .expect("known class") as u64
}

/// Violation descriptions for any outcome whose invariants failed (empty
/// when the soak is clean).
pub fn violations(outcomes: &[ChaosOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .filter(|o| !o.invariants_hold())
        .map(|o| {
            format!(
                "{} seed {}: completed={} intact={} survivors_intact={} chain={}/{} \
                 false_reconfigurations={} suspected_in_time={}{}",
                o.class,
                o.seed,
                o.completed,
                o.intact,
                o.survivors_intact,
                o.chain_len,
                o.chain_expected,
                o.false_reconfigurations.unwrap_or(0),
                o.suspected_in_time(),
                if o.flight_dump.is_some() {
                    " [flight recorded]"
                } else {
                    ""
                }
            )
        })
        .collect()
}

/// Builds the deterministic merged report: per-class recovery-latency and
/// detection-latency distributions (p50/p90/p99 via `obs` histograms) plus
/// the per-run array. Contains no wall-clock data — byte-identical however
/// the soak was scheduled.
pub fn merged_report(cfg: &ChaosConfig, outcomes: &[ChaosOutcome]) -> String {
    let obs = Obs::enabled();
    let runs = obs.counter("chaos.runs");
    let ok = obs.counter("chaos.invariants_ok");
    let faults = obs.counter("chaos.faults_injected");
    let events = obs.counter("chaos.total_events");
    for o in outcomes {
        runs.inc();
        if o.invariants_hold() {
            ok.inc();
        }
        faults.add(o.faults);
        events.add(o.events);
        for (name, value) in o.readings() {
            if let Some(v) = value {
                obs.histogram(&format!("chaos.{}.{name}", o.class))
                    .record(v);
            }
        }
    }
    let summary = obs.to_json_with_meta(&[
        ("workload", "chaos_soak".into()),
        ("classes", CLASSES.len().to_string()),
        ("seeds_per_class", cfg.seeds_per_class.to_string()),
        ("base_seed", cfg.base_seed.to_string()),
        ("threshold", cfg.threshold.to_string()),
        ("payload", cfg.payload.to_string()),
    ]);

    let mut out = String::with_capacity(summary.len() + outcomes.len() * 160);
    out.push_str("{\n\"summary\": ");
    out.push_str(summary.trim_end());
    out.push_str(",\n\"runs\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "  {{\"class\": \"{}\", \"seed\": {}, \"faults\": {}, \"completed\": {}, \
             \"intact\": {}, \"survivors_intact\": {}, \"chain_len\": {}",
            o.class, o.seed, o.faults, o.completed, o.intact, o.survivors_intact, o.chain_len
        );
        for (key, value) in o.readings() {
            let _ = write!(out, ", \"{key}\": ");
            push_opt_u64(&mut out, value);
        }
        let _ = write!(out, ", \"bytes\": {}, \"events\": {}}}", o.bytes, o.events);
    }
    out.push_str("\n]\n}\n");
    out
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(n) => json::push_u64(out, n),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosConfig {
        ChaosConfig {
            seeds_per_class: 1,
            payload: 60_000,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn every_class_passes_invariants_for_one_seed() {
        let cfg = tiny();
        let outcomes = run_chaos_soak(&cfg, 2);
        let classes: Vec<&str> = outcomes.iter().map(|o| o.class).collect();
        let expected: Vec<&str> = CLASSES.iter().map(|c| c.name()).collect();
        assert_eq!(classes, expected, "one run per class, in class order");
        let bad = violations(&outcomes);
        assert!(bad.is_empty(), "invariant violations: {bad:#?}");
    }

    #[test]
    fn crash_classes_measure_a_failover() {
        let cfg = tiny();
        let o = chaos_point(&cfg, FaultClass::PrimaryCrash, cfg.base_seed);
        assert!(o.completed && o.intact);
        assert!(
            o.detection_latency_ns.is_some(),
            "primary crash must be detected and promoted"
        );
        assert!(o.recovery_ns.is_some());
    }

    /// The pair classes measure a redirector fail-over: the standby's
    /// promotion shows up on the timeline strictly after the fault lands,
    /// and the partition class also forces (and survives) a stale-epoch
    /// rejection at the new active.
    #[test]
    fn pair_classes_report_promotion_latency() {
        let cfg = tiny();
        for class in [
            FaultClass::RedirectorFailover,
            FaultClass::RedirectorPartitionStale,
            FaultClass::RedirectorCrashInstall,
        ] {
            let seed = cfg.base_seed + 1000 * class_index(class);
            let o = chaos_point(&cfg, class, seed);
            assert!(
                o.invariants_hold(),
                "{} seed {seed}: completed={} intact={} survivors={} chain={}/{}",
                class.name(),
                o.completed,
                o.intact,
                o.survivors_intact,
                o.chain_len,
                o.chain_expected
            );
            assert!(
                o.failover_ns.is_some(),
                "{} never promoted the standby",
                class.name()
            );
        }
    }

    /// Each suspicion names its signal and reporter. A dead tail leaves
    /// the middle replica waiting on whichever of its gates holds bytes: in
    /// seed 9000 its reply bytes wait at its send gate, in seed 9004 its
    /// client bytes wait at its deposit gate. Either gate's watchdog
    /// reports within the soak's bound.
    #[test]
    fn a_dead_tail_is_suspected_through_the_gate_that_holds_bytes() {
        let cfg = ChaosConfig::default();
        for (seed, signal) in [(9000, Signal::SendGate), (9004, Signal::DepositGate)] {
            let o = chaos_point(&cfg, FaultClass::TailCrash, seed);
            assert!(
                o.suspected_in_time(),
                "seed {seed}: {:?}",
                o.crash_to_detect_ns
            );
            let (got, reporter) = o.first_suspicion.expect("a suspicion");
            assert_eq!(
                (got, reporter.as_str()),
                (signal, "10.0.3.1"),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn outcomes_are_thread_count_invariant() {
        let cfg = tiny();
        let seq = run_chaos_soak(&cfg, 1);
        let par = run_chaos_soak(&cfg, 4);
        assert_eq!(seq, par);
        assert_eq!(merged_report(&cfg, &seq), merged_report(&cfg, &par));
    }

    /// The flight recorder's reason to exist: a primary crash the detector
    /// never reports (threshold 1000) leaves the client retransmitting into
    /// a dead head, so the transfer wedges. The invariant violation must
    /// capture a dump naming the wedged connection and the last
    /// lineage-linked packet it saw.
    #[test]
    fn undetected_primary_crash_wedges_and_flight_records_the_conn() {
        let mut cfg = tiny();
        cfg.threshold = 1000;
        // Keep the dead primary down past the deadline: recovery would let
        // the run converge late and mask the missed detection.
        cfg.crash_downtime = SimDuration::from_secs(120);
        cfg.deadline = SimTime::from_secs(20);
        cfg.converge_grace = SimDuration::from_secs(1);
        let seed = cfg.base_seed + 1000 * class_index(FaultClass::PrimaryCrash);
        let o = chaos_point(&cfg, FaultClass::PrimaryCrash, seed);
        assert!(
            !o.invariants_hold(),
            "undetected primary crash should violate invariants \
             (completed={} intact={} survivors_intact={} chain={}/{})",
            o.completed,
            o.intact,
            o.survivors_intact,
            o.chain_len,
            o.chain_expected
        );
        let dump = o
            .flight_dump
            .as_deref()
            .expect("invariant violation must capture a flight dump");
        // The wedged connection shows up as an (unclosed) conn span whose
        // name is the connection quad, carrying the lineage note of the
        // last packet it received.
        assert!(
            dump.contains("\"cat\": \"conn\""),
            "dump names no connection span"
        );
        assert!(
            dump.contains("192.20.225.20:80"),
            "dump does not name the service quad"
        );
        assert!(
            dump.contains("last_rx_lineage"),
            "dump has no lineage-linked packet note"
        );
        // Same harsh timing with the soak's threshold: the fail-over runs
        // and the transfer completes intact, so the violation above is the
        // missed detection and nothing else. (The chain stays short — the
        // old primary is still down — hence no completed-run invariant
        // check here.)
        let fixed = ChaosConfig {
            threshold: 4,
            ..cfg
        };
        let c = chaos_point(&fixed, FaultClass::PrimaryCrash, seed);
        assert!(
            c.completed && c.intact && c.survivors_intact,
            "threshold-4 control should fail over and stream intact \
             (completed={} intact={} survivors_intact={})",
            c.completed,
            c.intact,
            c.survivors_intact
        );
    }

    #[test]
    fn report_has_per_class_distributions() {
        let cfg = tiny();
        let outcomes = run_chaos_soak(&cfg, 2);
        let report = merged_report(&cfg, &outcomes);
        for needle in [
            "\"workload\": \"chaos_soak\"",
            "chaos.primary_crash.recovery_ns",
            "\"p99\"",
            "\"runs\": [",
            "\"survivors_intact\"",
        ] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }
}
