//! Declarative fault plans: scripted chaos for a built [`System`].
//!
//! A [`FaultPlan`] is an ordered list of timed [`FaultAction`]s — node
//! crashes and recoveries, link outages, and link impairments (loss,
//! reordering, duplication, corruption). [`FaultPlan::apply`] schedules the
//! whole script onto the system's simulator in one shot. The simulator
//! records each fault when it fires (`netsim.node.crashed`,
//! `netsim.link.down`, `netsim.link.impaired`, …), so every injected fault
//! sits on the telemetry timeline in time order, alongside the recovery it
//! provoked; the plan itself is the record of what was scripted.
//!
//! Plans are plain data: building one performs no side effects, so the same
//! plan can be applied to many seeds (the chaos soak does exactly that).
//!
//! # Examples
//!
//! Crash the primary for 200 ms and flap the client link, starting half a
//! second in:
//!
//! ```
//! use hydranet_core::faults::FaultPlan;
//! use hydranet_core::prelude::*;
//! use hydranet_netsim::link::LinkId;
//!
//! let plan = FaultPlan::new()
//!     .crash_for(NodeId::from_index(2), SimTime::from_millis(500), SimDuration::from_millis(200))
//!     .link_flap(LinkId::from_index(0), SimTime::from_millis(600), SimDuration::from_millis(50));
//! assert_eq!(plan.len(), 4);
//! ```

use hydranet_netsim::link::{Impairments, LinkId};
use hydranet_netsim::node::NodeId;
use hydranet_netsim::sim::Simulator;
use hydranet_netsim::time::{SimDuration, SimTime};

use crate::system::System;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Fail-stop crash of a node (client, host server, redirector, router).
    CrashNode(NodeId),
    /// Recovery of a previously crashed node.
    RecoverNode(NodeId),
    /// Takes a link down, dropping everything queued or in flight on it.
    LinkDown(LinkId),
    /// Brings a link back up.
    LinkUp(LinkId),
    /// Replaces a link's impairments (loss, reordering, duplication,
    /// corruption). Use [`Impairments::NONE`] to heal.
    SetImpairments {
        /// The link to impair.
        link: LinkId,
        /// The new impairment set.
        imp: Impairments,
    },
}

/// A [`FaultAction`] with its injection time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// An ordered, timed script of faults. See the module docs for an example.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds one action at `at`.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Crashes `node` at `at` (no recovery).
    pub fn crash(self, node: NodeId, at: SimTime) -> Self {
        self.at(at, FaultAction::CrashNode(node))
    }

    /// Recovers `node` at `at`.
    pub fn recover(self, node: NodeId, at: SimTime) -> Self {
        self.at(at, FaultAction::RecoverNode(node))
    }

    /// Crashes `node` at `at` and recovers it `downtime` later.
    pub fn crash_for(self, node: NodeId, at: SimTime, downtime: SimDuration) -> Self {
        self.crash(node, at)
            .recover(node, at.saturating_add(downtime))
    }

    /// Takes `link` down at `at` and restores it `downtime` later.
    pub fn link_flap(self, link: LinkId, at: SimTime, downtime: SimDuration) -> Self {
        self.at(at, FaultAction::LinkDown(link))
            .at(at.saturating_add(downtime), FaultAction::LinkUp(link))
    }

    /// Sets `link`'s impairments at `at`.
    pub fn impair(self, link: LinkId, imp: Impairments, at: SimTime) -> Self {
        self.at(at, FaultAction::SetImpairments { link, imp })
    }

    /// Sets `link`'s impairments at `at` and heals them (back to
    /// [`Impairments::NONE`]) `duration` later.
    pub fn impair_for(
        self,
        link: LinkId,
        imp: Impairments,
        at: SimTime,
        duration: SimDuration,
    ) -> Self {
        self.impair(link, imp, at).at(
            at.saturating_add(duration),
            FaultAction::SetImpairments {
                link,
                imp: Impairments::NONE,
            },
        )
    }

    /// A loss burst on `link`: each packet lost with probability `p` from
    /// `at` for `duration`, then clean again. Pointed at the links that
    /// carry the acknowledgement channel, this models the §4.3 "lossy ack
    /// channel" failure class.
    pub fn loss_burst(self, link: LinkId, p: f64, at: SimTime, duration: SimDuration) -> Self {
        self.impair_for(link, Impairments::NONE.with_loss(p), at, duration)
    }

    /// Partitions `group` from the rest of the topology at `at`, healing
    /// `heal_after` later: every link with exactly one endpoint inside
    /// `group` goes down, links internal to either side stay up.
    pub fn partition(
        self,
        sim: &Simulator,
        group: &[NodeId],
        at: SimTime,
        heal_after: SimDuration,
    ) -> Self {
        let links = partition_links(sim, group);
        links
            .into_iter()
            .fold(self, |plan, link| plan.link_flap(link, at, heal_after))
    }

    /// Schedules every action onto the system's simulator, which records
    /// each one on the timeline when it fires.
    pub fn apply(&self, system: &mut System) {
        for FaultEvent { at, action } in &self.events {
            match action {
                FaultAction::CrashNode(node) => system.sim.schedule_crash(*node, *at),
                FaultAction::RecoverNode(node) => system.sim.schedule_recover(*node, *at),
                FaultAction::LinkDown(link) => system.sim.schedule_link_down(*link, *at),
                FaultAction::LinkUp(link) => system.sim.schedule_link_up(*link, *at),
                FaultAction::SetImpairments { link, imp } => {
                    system.sim.schedule_impairments(*link, imp.clone(), *at);
                }
            }
        }
    }
}

/// The links with exactly one endpoint in `group` — the cut set a
/// group-based partition must sever.
pub fn partition_links(sim: &Simulator, group: &[NodeId]) -> Vec<LinkId> {
    let inside = |n: NodeId| group.contains(&n);
    (0..sim.link_count())
        .map(LinkId::from_index)
        .filter(|&l| {
            let [a, b] = sim.link_endpoints(l);
            inside(a) != inside(b)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_in_order() {
        let n = NodeId::from_index(3);
        let l = LinkId::from_index(1);
        let plan = FaultPlan::new()
            .crash_for(n, SimTime::from_millis(10), SimDuration::from_millis(5))
            .link_flap(l, SimTime::from_millis(20), SimDuration::from_millis(2))
            .loss_burst(
                l,
                0.5,
                SimTime::from_millis(30),
                SimDuration::from_millis(1),
            );
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.events()[0].action, FaultAction::CrashNode(n));
        assert_eq!(plan.events()[1].at, SimTime::from_millis(15));
        assert_eq!(plan.events()[1].action, FaultAction::RecoverNode(n));
        assert_eq!(plan.events()[2].action, FaultAction::LinkDown(l));
        assert_eq!(plan.events()[3].action, FaultAction::LinkUp(l));
        assert!(matches!(
            plan.events()[4].action,
            FaultAction::SetImpairments { .. }
        ));
        assert_eq!(
            plan.events()[5].action,
            FaultAction::SetImpairments {
                link: l,
                imp: Impairments::NONE
            }
        );
    }
}
