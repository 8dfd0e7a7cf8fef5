//! E12 — mixed legitimate/attack workloads over a provider tree.
//!
//! The paper's sweeps keep legitimate and attack traffic in separate
//! experiments; real deployments see both at once. E12 is the first
//! experiment written *purely* against the declarative `aitf-scenario`
//! API: a two-level provider [`TopologySpec::tree`] whose leaf hosts are
//! split between zombies and legitimate clients by a swept ratio, with
//! the **aggregate** attack rate held constant (the engine splits it
//! per-host), so the sweep isolates how the attacker's dispersion across
//! sources — not the offered load — changes the outcome.
//!
//! Expectations: AITF blocks every zombie regardless of the split, the
//! leak stays small, time-to-block stays flat (per-source detection works
//! per flow), and once the zombies are quenched the victim's tail circuit
//! belongs to the legitimate pool — absolute legitimate goodput grows
//! with the client count until the tail itself saturates (at which point
//! the *fraction* delivered dips below 1 for capacity, not attack,
//! reasons).

use aitf_core::HostPolicy;
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    HostSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec, TrafficSpec,
};

use crate::harness::run_scenario;

/// Tree shape: 2 levels, 3-way branching, 2 hosts per leaf → 9 leaf
/// networks, 18 hosts behind 3 intermediate providers.
const LEVELS: usize = 2;
const BRANCHING: usize = 3;
const HOSTS_PER_LEAF: usize = 2;

/// Total attack load offered, split across however many zombies the
/// ratio yields: 6400 pps × 500 B = 25.6 Mbit/s against the victim's
/// 10 Mbit/s tail circuit.
const ATTACK_TOTAL_PPS: u64 = 6400;

/// The declarative E12 scenario: `attack_hosts` of the tree's leaf hosts
/// flood (sharing `ATTACK_TOTAL_PPS`), the rest run legitimate clients.
pub fn scenario(attack_hosts: usize, duration: SimDuration) -> Scenario {
    let mut topo = TopologySpec::tree(
        LEVELS,
        BRANCHING,
        HOSTS_PER_LEAF,
        HostPolicy::Malicious,
        10_000_000,
    );
    // Split the leaf hosts: the first `attack_hosts` stay zombies, the
    // rest become compliant legitimate clients. (Host 0 is the victim.)
    let leaf_hosts: Vec<usize> = (0..topo.hosts.len())
        .filter(|&i| topo.hosts[i].role == Role::Attacker)
        .collect();
    assert!(
        (1..leaf_hosts.len()).contains(&attack_hosts),
        "the mix needs at least one attacker and one legitimate host"
    );
    for &i in &leaf_hosts[attack_hosts..] {
        topo.hosts[i].policy = HostPolicy::Compliant;
        topo.hosts[i].role = Role::Legit;
    }
    let bin = SimDuration::from_millis(100);
    Scenario::new(topo)
        .duration(duration)
        .traffic(
            // Legitimate pool: 100 pps × 1000 B ≈ 0.8 Mbit/s per client.
            TrafficSpec::legit(HostSel::Role(Role::Legit), TargetSel::Victim, 100, 1000),
        )
        .traffic(
            TrafficSpec::flood_aggregate(
                HostSel::Role(Role::Attacker),
                TargetSel::Victim,
                ATTACK_TOTAL_PPS,
                500,
            )
            .staggered(SimDuration::from_millis(10)),
        )
        .probes(
            ProbeSet::new()
                .leak_ratio("leak_r")
                .legit_delivery("legit_frac")
                .filters_installed_on("blocked_flows", Side::Attacker)
                .bin(bin)
                .sampled_filter_occupancy("_tb_filters", "victim_net", false)
                .time_to_block("time_to_block_s", "_tb_filters", 0.0),
        )
}

/// The E12 scenario spec: attack:legit host-ratio sweep at constant
/// aggregate attack load.
pub fn spec(quick: bool) -> ScenarioSpec {
    let total_hosts = BRANCHING.pow(LEVELS as u32) * HOSTS_PER_LEAF;
    let duration_s: u64 = if quick { 5 } else { 10 };
    let fractions: &[f64] = if quick {
        &[0.25, 0.75]
    } else {
        &[0.125, 0.25, 0.5, 0.75]
    };
    ScenarioSpec::new(
        "e12_mixed_workload",
        "E12 (mixed workload): attack:legit host ratio at constant attack load",
        "§I threat model, mixed",
    )
    .expectation(
        "every zombie flow is blocked at its own provider regardless of \
         the split (blocked_flows = attack_hosts), leak stays small and \
         time-to-block flat; absolute legitimate goodput grows with the \
         client count until the victim's tail circuit saturates.",
    )
    .points(fractions.iter().map(move |&frac| {
        let attack_hosts = ((total_hosts as f64) * frac).round().max(1.0) as u64;
        Params::new()
            .with("attack_hosts", attack_hosts)
            .with("legit_hosts", total_hosts as u64 - attack_hosts)
            .with("attack_frac", frac)
            .with("duration_s", duration_s)
    }))
    .runner(run_scenario(|p| {
        scenario(
            p.usize("attack_hosts"),
            SimDuration::from_secs(p.u64("duration_s")),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_zombie_is_blocked_at_any_mix() {
        for attack_hosts in [4usize, 13] {
            let o = scenario(attack_hosts, SimDuration::from_secs(5)).run(7);
            assert_eq!(
                o.metrics.u64("blocked_flows"),
                attack_hosts as u64,
                "mix {attack_hosts}: {o:?}"
            );
            assert!(o.metrics.f64("leak_r") < 0.2, "{o:?}");
            assert!(o.metrics.f64("time_to_block_s") >= 0.0, "{o:?}");
        }
    }

    #[test]
    fn legit_goodput_scales_with_the_client_pool() {
        // 13 attackers -> 5 clients (4 Mbit/s offered, under the tail);
        // 4 attackers -> 14 clients (11.2 Mbit/s, tail-saturating).
        let many_attackers = scenario(13, SimDuration::from_secs(5)).run(8);
        let few_attackers = scenario(4, SimDuration::from_secs(5)).run(8);
        // Under-subscribed pool: nearly everything arrives.
        assert!(
            many_attackers.metrics.f64("legit_frac") > 0.9,
            "{many_attackers:?}"
        );
        // Over-subscribed pool: the fraction dips (tail capacity, not the
        // attack), but absolute goodput — fraction × client count — must
        // still beat the small pool's.
        assert!(
            few_attackers.metrics.f64("legit_frac") > 0.7,
            "{few_attackers:?}"
        );
        let abs_few = few_attackers.metrics.f64("legit_frac") * 14.0;
        let abs_many = many_attackers.metrics.f64("legit_frac") * 5.0;
        assert!(
            abs_few > abs_many * 1.5,
            "more clients must mean more delivered bytes: {abs_few} vs {abs_many}"
        );
    }

    #[test]
    fn aggregate_attack_rate_is_independent_of_the_split() {
        // Offered attack bytes should match ATTACK_TOTAL_PPS × size ×
        // duration regardless of how many hosts share the rate.
        let o4 = scenario(4, SimDuration::from_secs(3)).build(9);
        let o13 = scenario(13, SimDuration::from_secs(3)).build(9);
        for (mut w, label) in [(o4, "4 hosts"), (o13, "13 hosts")] {
            w.world.sim.run_for(SimDuration::from_secs(3));
            let offered: u64 = w
                .hosts_with(Role::Attacker)
                .iter()
                .map(|&h| w.world.host(h).counters().tx_pkts)
                .sum();
            let expected = ATTACK_TOTAL_PPS * 3;
            let tolerance = expected / 10;
            assert!(
                offered.abs_diff(expected) <= tolerance,
                "{label}: offered {offered} pkts, expected ≈ {expected}"
            );
        }
    }
}
