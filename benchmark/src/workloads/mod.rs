//! The five workloads and what one rep of any of them reports.

pub mod failover;
pub mod fig4;
pub mod flows;

use hydranet_core::prelude::{FtServiceSpec, NodeId};

use crate::counts::Counts;
use crate::probe::Probe;

/// The spec that deploys chain member `i` on its own, registering when the
/// whole-chain spec `base` would have registered it. Deploying members one
/// by one lets each replica's application report into its own record.
pub fn member_spec(base: &FtServiceSpec, i: usize, replica: NodeId) -> FtServiceSpec {
    FtServiceSpec {
        chain: vec![replica],
        registration_start: base
            .registration_start
            .saturating_add(base.registration_stagger * i as u64),
        ..base.clone()
    }
}

/// Everything one rep measured in the simulated-time domain: simulated
/// durations and exact counts from a seeded deterministic run. Two reps of
/// one process must compare equal — a rep that does not is a wrong run, and
/// a simulator-speed change must leave every field as it was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    /// Operations (transfers, flows, fault runs) attempted and not
    /// completed correctly.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or violated invariant.
    pub failures: Vec<String>,
    /// Payload bytes delivered over the replicated path and the simulated
    /// nanoseconds that took: `sim_goodput_kBps` is their quotient.
    pub payload_bytes: u64,
    pub sim_busy_ns: u64,
    /// Payload bytes delivered by every transfer of the rep, the baseline
    /// Figure 4 series included: the denominator of events per payload kB.
    pub payload_bytes_all: u64,
    /// Per-operation latency samples, ascending.
    pub op_ns: Vec<u64>,
    /// Figure 4 only: receiver throughput and client retransmissions per
    /// series, and what replication costs against the clean series.
    pub series_kbps: Vec<(&'static str, f64)>,
    pub series_retransmits: Vec<(&'static str, u64)>,
    pub ft_overhead_pct: f64,
    /// Fail-over only: detector-suspects → replica-promoted, and
    /// fault → standby-redirector-promoted, ascending.
    pub detect_ns: Vec<u64>,
    pub rd_promote_ns: Vec<u64>,
    /// How late the open-loop generator opened its latest flow.
    pub lateness_ns: u64,
    pub counts: Counts,
}

/// Sizes the ladder rungs take from the workload they explain.
#[derive(Debug, Clone, Copy)]
pub struct LadderShape {
    /// TCP payload bytes per data packet.
    pub payload: usize,
    /// Flows a redirector sees concurrently.
    pub flows: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    Bulk1k,
    Tiny16,
    Flows3k,
    Flows20k,
    Failover,
}

pub const WORKLOADS: [WorkloadId; 5] = [
    WorkloadId::Bulk1k,
    WorkloadId::Tiny16,
    WorkloadId::Flows3k,
    WorkloadId::Flows20k,
    WorkloadId::Failover,
];

impl WorkloadId {
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Bulk1k => "bulk_1k",
            WorkloadId::Tiny16 => "tiny_16",
            WorkloadId::Flows3k => "flows_3k",
            WorkloadId::Flows20k => "flows_20k",
            WorkloadId::Failover => "failover",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set: what it stresses, what it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::Bulk1k => "closed-loop 8 MiB ttcp, 1 KiB writes, four Figure 4 configurations: per-byte cost, ack clocking and the timer path do the work; one always-hot flow bypasses flow-table work",
            WorkloadId::Tiny16 => "same rig, 16 B writes, 512 KiB: fixed per-packet cost dominates and primary+backup leaves the in-order fast lane; Figure 4's left end",
            WorkloadId::Flows3k => "open-loop Poisson, 4 cells x 2,800 Pareto-sized flows held open: set-up/teardown, demux, slab, timer wheel and redirector fan-out with a cache-resident working set",
            WorkloadId::Flows20k => "one cell x 20,000 flows, same code mix: live-flow state outgrows the cache and the redirector dominates; the control for working-set optimisations is flows_3k",
            WorkloadId::Failover => "4 fault classes x 100 seeds of a 90 KB echo: sparse timers, RTO/detector, mgmt probes and a system build per run, so a data-path gain bought at the failure path's expense shows",
        }
    }

    pub fn default_seed(self) -> u64 {
        match self {
            WorkloadId::Bulk1k | WorkloadId::Tiny16 => 11,
            WorkloadId::Flows3k | WorkloadId::Flows20k => 70_000,
            WorkloadId::Failover => 7_000,
        }
    }

    pub fn ladder_shape(self) -> LadderShape {
        match self {
            WorkloadId::Bulk1k => LadderShape {
                payload: 1024,
                flows: 1,
            },
            WorkloadId::Tiny16 => LadderShape {
                payload: 16,
                flows: 1,
            },
            // 1 KiB application writes under a 1460-byte MSS.
            WorkloadId::Flows3k => LadderShape {
                payload: 1024,
                flows: 2_800,
            },
            WorkloadId::Flows20k => LadderShape {
                payload: 1024,
                flows: 20_000,
            },
            WorkloadId::Failover => LadderShape {
                payload: 1460,
                flows: 1,
            },
        }
    }

    pub fn instantiate(self) -> Workload {
        match self {
            WorkloadId::Bulk1k => Workload::Fig4(fig4::Fig4Workload {
                write_size: 1024,
                total_bytes: 8 << 20,
                seeded_cables: true,
            }),
            WorkloadId::Tiny16 => Workload::Fig4(fig4::Fig4Workload {
                write_size: 16,
                total_bytes: 512 << 10,
                seeded_cables: true,
            }),
            WorkloadId::Flows3k => Workload::Flows(flows::FlowsWorkload::new(4, 2_800)),
            WorkloadId::Flows20k => Workload::Flows(flows::FlowsWorkload::new(1, 20_000)),
            WorkloadId::Failover => Workload::Failover(failover::FailoverWorkload::default()),
        }
    }
}

/// A configured workload driver.
#[derive(Debug)]
pub enum Workload {
    Fig4(fig4::Fig4Workload),
    Flows(flows::FlowsWorkload),
    Failover(failover::FailoverWorkload),
}

/// A workload's generated inputs, made once per process from the seed.
#[derive(Debug)]
pub enum Inputs {
    Fig4(fig4::Inputs),
    Flows(flows::Inputs),
    Failover(failover::Inputs),
}

impl Workload {
    /// Generates the inputs and builds and converges every topology a rep
    /// uses, then drops them: one sample of `setup_s`.
    pub fn set_up(&self, seed: u64) {
        match self {
            Workload::Fig4(w) => w.set_up(seed),
            Workload::Flows(w) => w.set_up(seed),
            Workload::Failover(w) => w.set_up(seed),
        }
    }

    pub fn prepare(&self, seed: u64) -> Inputs {
        match self {
            Workload::Fig4(w) => Inputs::Fig4(w.prepare(seed)),
            Workload::Flows(w) => Inputs::Flows(w.prepare(seed)),
            Workload::Failover(w) => Inputs::Failover(w.prepare(seed)),
        }
    }

    /// One rep of the workload's fixed work.
    pub fn run_rep(&self, inputs: &Inputs, probe: &mut Probe) -> SimOutcome {
        match (self, inputs) {
            (Workload::Fig4(w), Inputs::Fig4(i)) => w.run_rep(i, probe),
            (Workload::Flows(w), Inputs::Flows(i)) => w.run_rep(i, probe),
            (Workload::Failover(w), Inputs::Failover(i)) => w.run_rep(i, probe),
            _ => unreachable!("inputs come from this workload's prepare"),
        }
    }
}
