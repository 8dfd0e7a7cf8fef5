//! E18 — scale: a 100k-host provider tree under a zombie army.
//!
//! The paper argues AITF's costs track the *attacker's own provider*, not
//! the size of the Internet (§III-C). E10 shows the per-provider load
//! staying flat as the world grows; E18 pushes the world itself to
//! Internet-shaped size — a two-level provider tree with **105,800
//! end-hosts** across 529 leaf networks — and runs a staggered zombie army
//! through the full protocol. The experiment doubles as the harness's
//! scale benchmark: it is the row that exercises the sharded
//! conservative-lookahead event loop (`Scenario::shards`) on a topology
//! large enough for partitioning to matter; its event count is pinned per
//! row by `tests/equivalence.rs`, and its wall is carried by the
//! benchmark's `megatree_sharded` workload (`setup_s`, `run_s`,
//! `events_per_sec` over `run_s`, `netsim.shard_speedup`).
//!
//! Paper expectation at this scale: nothing new — every flow is blocked at
//! its own leaf provider, the hub/core holds zero filters, and the leak
//! ratio collapses — which is exactly the point: AITF at 100× the usual
//! world size behaves like AITF at E10's size.

use aitf_core::{AitfConfig, Contract, HostPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    HostSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec, TrafficSpec,
};

use crate::harness::run_scenario;

/// Branching factor of the two-level tree: 23 mid providers × 23 leaf
/// networks × 200 hosts = 105,800 end-hosts in 529 leaf networks.
const BRANCHING: usize = 23;
/// Hosts per leaf network.
const HOSTS_PER_LEAF: usize = 200;

fn config() -> AitfConfig {
    AitfConfig {
        t_long: SimDuration::from_secs(30),
        detection_delay: SimDuration::from_millis(10),
        // Disconnection churn is E1/E8 material; here the filters do the
        // work and the grace period keeps every zombie connected.
        grace: SimDuration::from_secs(3600),
        // Room for the whole army at the victim's gateway.
        filter_capacity: 4096,
        // Contracts provisioned for an Internet-sized army: the default
        // R1 = 100 req/s would throttle the victim's gateway below the
        // army size and push filtering onto the hub — E3/E4 territory,
        // not the scale question this row asks.
        client_contract: Contract::new(1000.0, 1000),
        peer_contract: Contract::new(100.0, 500),
        ..AitfConfig::default()
    }
}

/// The declarative E18 scenario: the 105,800-host tree with the first
/// `zombies` attacker hosts flooding the victim at 50 pps each, starting
/// 1 ms apart.
pub fn scenario(zombies: usize, duration: SimDuration) -> Scenario {
    Scenario::new(TopologySpec::tree(
        2,
        BRANCHING,
        HOSTS_PER_LEAF,
        HostPolicy::Malicious,
        10_000_000,
    ))
    .config(config())
    .duration(duration)
    .traffic(
        TrafficSpec::flood(
            HostSel::RoleFirst(Role::Attacker, zombies),
            TargetSel::Victim,
            50,
            500,
        )
        .staggered(SimDuration::from_millis(1)),
    )
    .probes(
        ProbeSet::new()
            .end(|w, m| {
                m.set("hosts", w.world.host_count() as u64);
                let mut leaf_filters = 0u64;
                for net in w.nets_on(Side::Attacker) {
                    leaf_filters += w.world.router(net).counters().filters_installed;
                }
                m.set("leaf_filters", leaf_filters);
                m.set(
                    "hub_filters",
                    w.world.router(w.net("hub")).filters().stats().installs,
                );
            })
            .peak_filters("victim_gw_peak", "victim_net")
            .leak_ratio("leak_r"),
    )
}

/// The E18 scenario spec: one Internet-sized point (quick keeps the army
/// and the clock CI-sized; the world is full-sized either way).
pub fn spec(quick: bool) -> ScenarioSpec {
    let (zombies, duration_s): (u64, u64) = if quick { (500, 2) } else { (2000, 5) };
    ScenarioSpec::new(
        "e18_megatree",
        "E18 (§III-C at scale): 105,800-host tree — AITF behaves like at E10 size",
        "§III-C",
    )
    .expectation(
        "every flow is blocked at its own leaf provider, the hub holds \
         zero filters and the leak collapses — the same picture as E10, \
         on a world 100× larger.",
    )
    .point(
        Params::new()
            .with("zombies", zombies)
            .with("duration_s", duration_s),
    )
    .runner(run_scenario(|p| {
        scenario(
            p.usize("zombies"),
            SimDuration::from_secs(p.u64("duration_s")),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitf_engine::Outcome;

    /// A shrunken stand-in (same generator, branching 4 × 10 hosts) so the
    /// unit suite checks the probes and the sharded path without paying
    /// for the full 105k-host build.
    fn small(zombies: usize, seed: u64, shards: usize) -> Outcome {
        Scenario::new(TopologySpec::tree(
            2,
            4,
            10,
            HostPolicy::Malicious,
            10_000_000,
        ))
        .config(config())
        .duration(SimDuration::from_secs(2))
        .traffic(
            TrafficSpec::flood(
                HostSel::RoleFirst(Role::Attacker, zombies),
                TargetSel::Victim,
                50,
                500,
            )
            .staggered(SimDuration::from_millis(1)),
        )
        .probes(
            ProbeSet::new()
                .end(|w, m| {
                    let mut leaf_filters = 0u64;
                    for net in w.nets_on(Side::Attacker) {
                        leaf_filters += w.world.router(net).counters().filters_installed;
                    }
                    m.set("leaf_filters", leaf_filters);
                    m.set(
                        "hub_filters",
                        w.world.router(w.net("hub")).filters().stats().installs,
                    );
                })
                .leak_ratio("leak_r"),
        )
        .shards(shards)
        .run(seed)
    }

    #[test]
    fn army_is_blocked_at_the_leaves_hub_stays_clean() {
        let o = small(20, 7, 1);
        assert!(o.metrics.u64("leaf_filters") >= 20, "{o:?}");
        assert_eq!(o.metrics.u64("hub_filters"), 0, "{o:?}");
        assert!(o.metrics.f64("leak_r") < 0.25, "{o:?}");
    }

    #[test]
    fn sharded_run_is_bit_identical() {
        let single = small(20, 7, 1);
        for shards in [2, 4] {
            let sharded = small(20, 7, shards);
            assert_eq!(single.metrics, sharded.metrics, "shards = {shards}");
            assert_eq!(single.events, sharded.events, "shards = {shards}");
        }
    }

    #[test]
    fn spec_points_are_ci_sized_in_quick_mode() {
        assert!(spec(true).points[0].u64("zombies") <= 500);
        assert!(spec(false).points[0].u64("zombies") > 500);
    }
}
