//! `failover`: a closed-loop echo transfer through a replicated service
//! while a scripted fault lands mid-transfer, swept over four fault classes
//! and many seeds. Ported from `crates/bench/src/chaos.rs` and its star
//! builder in `ablations.rs`, on `core::faults::FaultPlan`.
//!
//! It uses the layers the other way round from the data-path workloads:
//! sparse far-future timers instead of dense packet events, RTO,
//! retransmission and the failure detector instead of the fast lane, and
//! mgmt probes, reliable retransmits and `SystemBuilder::build` once per
//! run instead of one long run.
//!
//! Besides the fault's jitter, each run's seed sets its cable lengths
//! ([`gen::link_delays`]). The soak's links are all alike, and on them
//! recovery is so dominated by fixed timers that a hundred seeds of a class
//! stall for one of a handful of identical durations.

use hydranet_core::faults::FaultPlan;
use hydranet_core::prelude::*;
use hydranet_netsim::link::LinkId;
use hydranet_obs::kinds;

use crate::gen;
use crate::probe::Probe;
use crate::workloads::{member_spec, SimOutcome};

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const SERVICE: SockAddr = SockAddr::new(IpAddr::new(192, 20, 225, 20), 80);
/// Replicas on the star; the pair rig runs a chain of two.
const STAR_REPLICAS: usize = 3;
const PAIR_REPLICAS: usize = 2;

fn replica_addr(i: usize) -> IpAddr {
    IpAddr::new(10, 0, 2 + i as u8, 1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Crash the chain head mid-transfer; recover it later.
    PrimaryCrash,
    /// Crash the chain tail mid-transfer; recover it later.
    TailCrash,
    /// A 30 % loss burst on the first backup's link — the path that
    /// carries its acknowledgement channel.
    AckChannelBurst,
    /// Crash the active redirector of a replicated pair; the standby must
    /// promote itself and flip the anycast route.
    RedirectorFailover,
}

pub const CLASSES: [FaultClass; 4] = [
    FaultClass::PrimaryCrash,
    FaultClass::TailCrash,
    FaultClass::AckChannelBurst,
    FaultClass::RedirectorFailover,
];

impl FaultClass {
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::PrimaryCrash => "primary_crash",
            FaultClass::TailCrash => "tail_crash",
            FaultClass::AckChannelBurst => "ackchan_burst",
            FaultClass::RedirectorFailover => "rd_failover",
        }
    }

    /// The class's seed band: run *i* uses `seed + 1000·band + i`. Bands
    /// are the chaos soak's class indices, so a run here can be replayed
    /// there.
    fn band(self) -> u64 {
        match self {
            FaultClass::PrimaryCrash => 0,
            FaultClass::TailCrash => 2,
            FaultClass::AckChannelBurst => 7,
            FaultClass::RedirectorFailover => 8,
        }
    }

    /// The replica (chain index) the class crashes, if any.
    fn crashed_replica(self) -> Option<usize> {
        match self {
            FaultClass::PrimaryCrash => Some(0),
            FaultClass::TailCrash => Some(STAR_REPLICAS - 1),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
pub struct FailoverWorkload {
    pub seeds_per_class: u64,
    /// Bytes the client streams and the service echoes.
    pub payload: usize,
    /// Detector retransmission threshold.
    pub threshold: u32,
    /// How long crashed nodes stay down: long enough that detection,
    /// probing and splicing finish first, so recovery is a clean re-join.
    pub downtime: SimDuration,
    /// Give-up deadline per run.
    pub deadline: SimTime,
    /// Simulated time after the transfer for the chain to reconverge.
    pub reconverge_grace: SimDuration,
    pub probe: ProbeParams,
    /// Stretch each link's propagation delay per run seed; off, the rigs
    /// are `crates/bench`'s exactly.
    pub seeded_cables: bool,
}

impl Default for FailoverWorkload {
    fn default() -> Self {
        FailoverWorkload {
            seeds_per_class: 100,
            payload: 90_000,
            threshold: 4,
            downtime: SimDuration::from_secs(8),
            deadline: SimTime::from_secs(60),
            reconverge_grace: SimDuration::from_secs(10),
            probe: ProbeParams {
                timeout: SimDuration::from_millis(200),
                attempts: 2,
            },
            seeded_cables: true,
        }
    }
}

/// One planned run: everything the seed decides.
#[derive(Debug, Clone, Copy)]
struct Run {
    class: FaultClass,
    seed: u64,
    /// Fault time after the client connects: 50 ms plus the seed's jitter.
    fault_after: SimDuration,
}

#[derive(Debug)]
pub struct Inputs {
    runs: Vec<Run>,
    payload: Vec<u8>,
}

/// A deployed topology: the star (client — redirector — replicas) or the
/// redirector pair
/// (`client — routerA ═ (rdA ↔ rdB) ═ routerB — replicas`).
struct Rig {
    system: System,
    client: NodeId,
    /// The redirector, or the pair `[active, standby]`.
    redirectors: Vec<NodeId>,
    replicas: Vec<NodeId>,
    sinks: Vec<Shared<SinkState>>,
    /// Link from the (star's) redirector to each replica, in chain order.
    replica_links: Vec<LinkId>,
}

impl FailoverWorkload {
    pub fn prepare(&self, seed: u64) -> Inputs {
        let runs = CLASSES
            .iter()
            .flat_map(|&class| {
                (0..self.seeds_per_class).map(move |i| {
                    let seed = seed + 1000 * class.band() + i;
                    Run {
                        class,
                        seed,
                        fault_after: SimDuration::from_millis(50) + gen::fault_jitter(seed),
                    }
                })
            })
            .collect();
        Inputs {
            runs,
            payload: gen::pattern(self.payload),
        }
    }

    /// The rig's `n` links, in the order the builders connect them.
    fn links(&self, seed: u64, n: usize) -> impl Iterator<Item = LinkParams> {
        let base = LinkParams::default();
        let delays = if self.seeded_cables {
            gen::link_delays(seed, base.delay, n)
        } else {
            vec![base.delay; n]
        };
        delays.into_iter().map(move |delay| LinkParams {
            delay,
            ..base.clone()
        })
    }

    fn detector(&self) -> DetectorParams {
        DetectorParams::new(self.threshold, SimDuration::from_secs(60))
    }

    /// Deploys one echo replica per chain member, each reporting into its
    /// own sink, registering in chain order.
    fn deploy(&self, b: &mut SystemBuilder, replicas: &[NodeId]) -> Vec<Shared<SinkState>> {
        let base = FtServiceSpec::new(SERVICE, replicas.to_vec(), self.detector());
        replicas
            .iter()
            .enumerate()
            .map(|(i, &replica)| {
                let sink = shared(SinkState::default());
                let one = member_spec(&base, i, replica);
                let handle = sink.clone();
                b.deploy_ft_service(&one, move |_q| Box::new(EchoApp::new(handle.clone())));
                sink
            })
            .collect()
    }

    fn build_star(&self, seed: u64, probe: &mut Probe) -> Rig {
        let span = probe.open("build");
        let mut b = SystemBuilder::new(TcpConfig::default());
        b.set_probe_params(self.probe);
        let client = b.add_client("client", CLIENT);
        let rd = b.add_redirector("rd", RD);
        let replicas: Vec<NodeId> = (0..STAR_REPLICAS)
            .map(|i| b.add_host_server(&format!("hs{}", i + 1), replica_addr(i), RD))
            .collect();
        let mut links = self.links(seed, 1 + STAR_REPLICAS);
        let mut next_link = || links.next().expect("one per connection");
        b.link(client, rd, next_link());
        let replica_links = replicas
            .iter()
            .map(|&r| b.link(rd, r, next_link()))
            .collect();
        let sinks = self.deploy(&mut b, &replicas);
        let mut system = b.build(seed);
        probe.arm(&mut system);
        probe.close(span);

        let span = probe.open_run("converge", &system);
        let formed = system.wait_for_chain(rd, SERVICE, STAR_REPLICAS, SimTime::from_secs(3));
        probe.close_run(span, &system);
        assert!(formed, "chain failed to form");
        Rig {
            system,
            client,
            redirectors: vec![rd],
            replicas,
            sinks,
            replica_links,
        }
    }

    /// The pair rig is not converged here: as in the chaos soak, the client
    /// connects while the staggered registrations are still in flight.
    fn build_pair(&self, seed: u64, probe: &mut Probe) -> Rig {
        const RD_B: IpAddr = IpAddr::new(10, 9, 0, 2);
        const VIP: IpAddr = IpAddr::new(10, 9, 0, 9);
        let span = probe.open("build");
        let mut b = SystemBuilder::new(TcpConfig::default());
        b.set_probe_params(self.probe);
        let client = b.add_client("client", CLIENT);
        let (rd_a, rd_b) = b.add_redirector_pair("rdA", RD, "rdB", RD_B, VIP);
        b.route_via_pair(VIP, SERVICE.addr);
        let router_a = b.add_router("routerA");
        let router_b = b.add_router("routerB");
        let replicas: Vec<NodeId> = (0..PAIR_REPLICAS)
            .map(|i| b.add_host_server(&format!("hs{}", i + 1), replica_addr(i), VIP))
            .collect();
        let mut links = self.links(seed, 6 + PAIR_REPLICAS);
        let mut next_link = || links.next().expect("one per connection");
        b.link(client, router_a, next_link());
        b.link(router_a, rd_a, next_link());
        b.link(router_a, rd_b, next_link());
        b.link(rd_a, rd_b, next_link());
        b.link(rd_a, router_b, next_link());
        b.link(rd_b, router_b, next_link());
        for &r in &replicas {
            b.link(router_b, r, next_link());
        }
        let sinks = self.deploy(&mut b, &replicas);
        let mut system = b.build(seed);
        probe.arm(&mut system);
        probe.close(span);
        Rig {
            system,
            client,
            redirectors: vec![rd_a, rd_b],
            replicas,
            sinks,
            replica_links: Vec::new(),
        }
    }

    fn build(&self, class: FaultClass, seed: u64, probe: &mut Probe) -> Rig {
        if class == FaultClass::RedirectorFailover {
            self.build_pair(seed, probe)
        } else {
            self.build_star(seed, probe)
        }
    }

    /// One set-up, for `setup_s`: the run plan and payload generated, one
    /// star and one pair rig built (a rep pays this once per run).
    pub fn set_up(&self, seed: u64) {
        let inputs = self.prepare(seed);
        std::hint::black_box(&inputs);
        for class in [FaultClass::PrimaryCrash, FaultClass::RedirectorFailover] {
            std::hint::black_box(self.build(class, seed, &mut Probe::off()).system);
        }
    }

    pub fn run_rep(&self, inputs: &Inputs, probe: &mut Probe) -> SimOutcome {
        let mut out = SimOutcome::default();
        for run in &inputs.runs {
            self.run_one(run, &inputs.payload, probe, &mut out);
        }
        out.op_ns.sort_unstable();
        out.detect_ns.sort_unstable();
        out.rd_promote_ns.sort_unstable();
        out
    }

    fn run_one(&self, run: &Run, payload: &[u8], probe: &mut Probe, out: &mut SimOutcome) {
        let Rig {
            mut system,
            client,
            redirectors,
            replicas,
            sinks,
            replica_links,
        } = self.build(run.class, run.seed, probe);

        let state = shared(SenderState::default());
        let app = StreamSenderApp::new(payload.to_vec(), false, state.clone());
        let connected_at = system.sim.now();
        system.connect_client(client, SERVICE, Box::new(app));

        let t0 = connected_at.saturating_add(run.fault_after);
        let plan = match run.class {
            FaultClass::PrimaryCrash | FaultClass::TailCrash => {
                let victim = replicas[run.class.crashed_replica().expect("crash class")];
                FaultPlan::new().crash_for(victim, t0, self.downtime)
            }
            FaultClass::AckChannelBurst => FaultPlan::new().loss_burst(
                replica_links[1],
                0.3,
                t0,
                SimDuration::from_millis(250),
            ),
            FaultClass::RedirectorFailover => {
                FaultPlan::new().crash_for(redirectors[0], t0, self.downtime)
            }
        };
        plan.apply(&mut system);

        // Closed loop: step 20 ms at a time until the whole payload has
        // been echoed back. The span changes name when the fault lands.
        let echoed = |s: &Shared<SenderState>| s.borrow().replies.data.len() >= payload.len();
        let mut span = probe.open_run("transfer", &system);
        let mut faulted = false;
        let mut step = system.sim.now();
        while system.sim.now() < self.deadline && !echoed(&state) {
            if !faulted && system.sim.now() >= t0 {
                faulted = true;
                probe.close_run(span, &system);
                span = probe.open_run("fault_recovery", &system);
            }
            step = step.saturating_add(SimDuration::from_millis(20));
            system.sim.run_until(step);
            probe.pace();
        }
        probe.close_run(span, &system);
        out.counts.absorb_connections(&system);

        // Reconvergence, judged at whichever redirector is active now:
        // recovered replicas re-register, so the chain must be back to
        // full strength.
        let active = *redirectors
            .iter()
            .rev()
            .find(|&&rd| system.redirector(rd).controller().is_active())
            .unwrap_or(&redirectors[0]);
        let span = probe.open_run("reconverge", &system);
        let grace = system.sim.now().saturating_add(self.reconverge_grace);
        system.wait_for_chain(active, SERVICE, replicas.len(), grace);
        probe.close_run(span, &system);
        let chain_len = system
            .redirector(active)
            .controller()
            .chain(SERVICE)
            .map_or(0, <[IpAddr]>::len);

        out.counts.absorb_totals(&system);
        probe.retire(&system);

        let st = state.borrow();
        let crashed = run.class.crashed_replica();
        let mut why = Vec::new();
        if st.replies.data.len() < payload.len() {
            why.push(format!(
                "echoed {} of {} bytes",
                st.replies.data.len(),
                payload.len()
            ));
        } else if st.replies.data != payload {
            why.push("echo differs from what was sent".to_string());
        }
        // Replicas the plan never crashed must have consumed the whole
        // stream — a stuck deposit gate would leave one short.
        for (i, sink) in sinks.iter().enumerate() {
            if Some(i) != crashed && sink.borrow().data != payload {
                why.push(format!("surviving replica {i} did not consume the stream"));
            }
        }
        if chain_len != replicas.len() {
            why.push(format!(
                "chain reconverged to {chain_len} of {}",
                replicas.len()
            ));
        }
        out.attempted += 1;
        if !why.is_empty() {
            out.failed += 1;
            out.failures.push(format!(
                "{} seed {}: {}",
                run.class.name(),
                run.seed,
                why.join("; ")
            ));
        }

        let echoed = st.replies.data.len().min(payload.len()) as u64;
        out.payload_bytes += echoed;
        out.payload_bytes_all += echoed;
        if let Some(last) = st.replies.last_byte_at {
            out.sim_busy_ns += last.duration_since(connected_at).as_nanos();
        }
        let gap = st.replies.max_gap_duration().map(|d| d.as_nanos());

        if run.class == FaultClass::RedirectorFailover {
            // Fault → the standby's promotion, from the timeline.
            let promoted = system.obs().first_event_at(kinds::REDIRECTOR_PROMOTED);
            out.rd_promote_ns
                .extend(promoted.and_then(|at| at.checked_sub(t0.as_nanos())));
        } else {
            // The largest gap between reply bytes: the disruption the
            // client saw across the chain fault.
            out.op_ns.extend(gap);
            out.detect_ns.extend(system.detection_latency_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FailoverWorkload {
        FailoverWorkload {
            seeds_per_class: 1,
            payload: 60_000,
            ..FailoverWorkload::default()
        }
    }

    #[test]
    fn every_class_survives_its_fault() {
        let w = tiny();
        let out = w.run_rep(&w.prepare(7000), &mut Probe::off());
        assert_eq!(out.failures, Vec::<String>::new());
        assert_eq!((out.attempted, out.failed), (4, 0));
        assert_eq!(out.op_ns.len(), 3, "one recovery gap per chain fault");
        assert_eq!(out.rd_promote_ns.len(), 1, "the standby promoted itself");
        assert!(
            !out.detect_ns.is_empty(),
            "a crash must be detected and a replica promoted"
        );
        assert!(
            out.counts.promotions >= 2,
            "replica and redirector promotions"
        );
        assert!(out.counts.reconfigurations >= 2);
        // The crash classes stall the client for about an RTO back-off or
        // more; the loss burst barely does.
        assert!(out.op_ns[2] > 200_000_000, "gaps {:?}", out.op_ns);
    }

    #[test]
    fn runs_repeat_and_seeds_move_the_fault() {
        let w = tiny();
        let a = w.run_rep(&w.prepare(7000), &mut Probe::off());
        let again = w.run_rep(&w.prepare(7000), &mut Probe::off());
        let b = w.run_rep(&w.prepare(7001), &mut Probe::off());
        assert_eq!(a, again);
        assert_ne!(a.op_ns, b.op_ns);
    }
}
