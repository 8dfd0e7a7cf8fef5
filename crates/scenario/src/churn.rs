//! Dynamic worlds: scheduled mid-run world mutations.
//!
//! A static scenario fixes its host set and traffic for the whole run; a
//! *dynamic* one churns — attack hosts retire, fresh zombies join in
//! waves, legitimate clients arrive while the attack is underway. A
//! [`ChurnSpec`] is the declarative layer for exactly that: an ordered
//! list of [`EventSpec`]s, each a virtual-time instant plus a
//! [`ChurnAction`], compiled onto the runtime attach/detach/activate
//! hooks of `aitf-core`/`aitf-netsim`
//! ([`aitf_core::World::detach_host`], [`aitf_core::World::attach_host`],
//! [`aitf_core::World::activate_app`]).
//!
//! Determinism: events fire at fixed virtual times in declaration order,
//! between event-loop segments, so a churning scenario is exactly as
//! bit-deterministic as a static one — the engine's thread-invariance
//! suite pins this on the E15 experiment.
//!
//! ```
//! use aitf_core::HostPolicy;
//! use aitf_netsim::SimDuration;
//! use aitf_scenario::{
//!     ChurnAction, HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec,
//! };
//!
//! // Two zombies flood from t = 0; both retire at t = 2 s and two fresh
//! // ones (declared idle, detached at t = 0) join in their place.
//! let outcome = Scenario::new(TopologySpec::star(4, 1, HostPolicy::Malicious, 10_000_000))
//!     .duration(SimDuration::from_secs(4))
//!     .traffic(TrafficSpec::flood(
//!         HostSel::RoleSlice(Role::Attacker, 0, 2),
//!         TargetSel::Victim,
//!         200,
//!         500,
//!     ))
//!     .event(
//!         SimDuration::ZERO,
//!         ChurnAction::Detach(HostSel::RoleSlice(Role::Attacker, 2, 2)),
//!     )
//!     .event(
//!         SimDuration::from_secs(2),
//!         ChurnAction::Detach(HostSel::RoleSlice(Role::Attacker, 0, 2)),
//!     )
//!     .event(
//!         SimDuration::from_secs(2),
//!         ChurnAction::Attach(HostSel::RoleSlice(Role::Attacker, 2, 2)),
//!     )
//!     .event(
//!         SimDuration::from_secs(2),
//!         ChurnAction::StartTraffic(TrafficSpec::flood(
//!             HostSel::RoleSlice(Role::Attacker, 2, 2),
//!             TargetSel::Victim,
//!             200,
//!             500,
//!         )),
//!     )
//!     .probes(ProbeSet::new().leak_ratio("leak_r"))
//!     .run(7);
//! assert!(outcome.events > 0);
//! ```

use aitf_core::RouterPolicy;
use aitf_netsim::SimDuration;

use crate::topology::{BuiltWorld, NetSel};
use crate::workload::{HostSel, TrafficSpec};

/// One scheduled world mutation.
#[derive(Debug)]
pub enum ChurnAction {
    /// Retire hosts: tail circuits blocked both ways, traffic apps go
    /// quiet. At `t = 0` this declares hosts that have not joined yet.
    Detach(HostSel),
    /// (Re)join hosts: tail circuits unblocked; any installed apps restart
    /// (their `starting_after` windows count from this instant).
    Attach(HostSel),
    /// Flip networks' router policy mid-run — providers joining or
    /// leaving AITF mid-attack. Compiles onto
    /// [`aitf_core::World::set_router_policy`], which also records the
    /// participation change in the world's one deployment view, so
    /// escalation immediately re-routes around (or back through) the
    /// flipped provider.
    SetRouterPolicy(NetSel, RouterPolicy),
    /// Compile a traffic entry onto the (already running) world — army
    /// growth waves, legitimate arrivals. The entry's `starting_after` /
    /// `stagger` windows are relative to the event time.
    StartTraffic(TrafficSpec),
}

impl ChurnAction {
    /// Applies the mutation to a built world. Selection-based actions
    /// resolve against host *declaration* order, like workloads do.
    ///
    /// # Panics
    ///
    /// Panics if a selection resolves to no hosts — a silently empty churn
    /// event would masquerade as a world that never changed.
    pub fn apply(self, world: &mut BuiltWorld) {
        match self {
            ChurnAction::Detach(sel) => {
                for host in resolve_nonempty(&sel, world, "Detach") {
                    world.world.detach_host(host);
                }
            }
            ChurnAction::Attach(sel) => {
                for host in resolve_nonempty(&sel, world, "Attach") {
                    world.world.attach_host(host);
                }
            }
            ChurnAction::SetRouterPolicy(sel, policy) => {
                let nets = sel.resolve(world);
                assert!(
                    !nets.is_empty(),
                    "churn SetRouterPolicy event selects no networks"
                );
                for net in nets {
                    world.world.set_router_policy(net, policy);
                }
            }
            ChurnAction::StartTraffic(spec) => spec.install(world),
        }
    }
}

fn resolve_nonempty(sel: &HostSel, world: &BuiltWorld, what: &str) -> Vec<aitf_core::HostId> {
    let hosts = sel.resolve(world);
    assert!(!hosts.is_empty(), "churn {what} event selects no hosts");
    hosts
}

/// One instant on the churn timeline.
#[derive(Debug)]
pub struct EventSpec {
    /// When the mutation fires, relative to the scenario start. Must be
    /// strictly before the scenario duration (an event at the horizon
    /// could never take effect).
    pub at: SimDuration,
    /// What changes.
    pub action: ChurnAction,
}

/// The scheduled mutations of one scenario, applied in `(time,
/// declaration)` order. Events at `t = 0` apply before the simulation
/// starts (hosts detached at zero begin the run offline).
#[derive(Debug, Default)]
pub struct ChurnSpec {
    /// The events, in declaration order.
    pub events: Vec<EventSpec>,
}

impl ChurnSpec {
    /// An empty (static) timeline.
    pub fn new() -> Self {
        ChurnSpec::default()
    }

    /// Builder-style append.
    pub fn at(mut self, at: SimDuration, action: ChurnAction) -> Self {
        self.push(at, action);
        self
    }

    /// Appends an event.
    pub fn push(&mut self, at: SimDuration, action: ChurnAction) {
        self.events.push(EventSpec { at, action });
    }

    /// Returns `true` if no mutations are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events sorted into firing order: by time, declaration order
    /// breaking ties (a stable sort, so same-instant events apply exactly
    /// as declared).
    pub fn into_schedule(mut self) -> Vec<EventSpec> {
        self.events.sort_by_key(|e| e.at);
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Role, TopologySpec};

    #[test]
    fn schedule_sorts_by_time_stably() {
        let spec = ChurnSpec::new()
            .at(
                SimDuration::from_secs(2),
                ChurnAction::Detach(HostSel::Index(0)),
            )
            .at(
                SimDuration::from_secs(1),
                ChurnAction::Detach(HostSel::Index(1)),
            )
            .at(
                SimDuration::from_secs(1),
                ChurnAction::Attach(HostSel::Index(2)),
            );
        let schedule = spec.into_schedule();
        assert_eq!(schedule[0].at, SimDuration::from_secs(1));
        assert!(matches!(schedule[0].action, ChurnAction::Detach(_)));
        assert!(matches!(schedule[1].action, ChurnAction::Attach(_)));
        assert_eq!(schedule[2].at, SimDuration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "selects no hosts")]
    fn empty_selection_fails_loudly() {
        let topo = TopologySpec::star(2, 1, aitf_core::HostPolicy::Malicious, 10_000_000);
        let mut world = crate::Scenario::new(topo).build(1);
        ChurnAction::Detach(HostSel::Role(Role::Legit)).apply(&mut world);
    }
}
