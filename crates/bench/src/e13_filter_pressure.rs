//! E13 — filter-table pressure: leak ratio vs per-router capacity.
//!
//! The paper sizes the victim gateway's wire-speed table at `nv = R1·Ttmp`
//! (§IV-B) precisely so that it never runs out during an attack's onset.
//! E13 probes what happens when it *does*: a star of `ARMY` zombie
//! networks floods simultaneously, so the victim's gateway needs `ARMY`
//! concurrent temporary filters for the first `Ttmp`, and we sweep the
//! per-router `filter_capacity` (shadow capacity scaled alongside) from
//! far below that demand to above it, under both full-table policies:
//!
//! - **reject** ([`EvictionPolicy::Reject`]) — over-demand requests are
//!   refused at the gateway and the victim must retry after the damping
//!   cooldown, so blocking the army takes ~`ARMY/capacity` retry rounds;
//! - **evict** ([`EvictionPolicy::EvictSoonestExpiring`]) — requests
//!   always land, at the price of early-evicted filters leaking until the
//!   attacker-side long filter takes over.
//!
//! Either way the victim eats extra `(Td + Tr)`-shaped leak windows per
//! retry round — the same quantity the `r ≈ n(Td+Tr)/T` formula charges
//! per non-cooperating node — so the leak ratio must degrade
//! monotonically once capacity drops below the army size, and flatten at
//! or above it.

use aitf_core::{AitfConfig, EvictionPolicy, HostPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    HostSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec, TrafficSpec,
};

use crate::harness::run_scenario;

/// Zombie networks (one host each) — the victim gateway's concurrent
/// temporary-filter demand during the onset.
pub const ARMY: usize = 12;

/// Shadow capacity rides the sweep at this multiple of the filter
/// capacity (the shadow is DRAM: §IV-B sizes it `T/Ttmp` times larger).
pub const SHADOW_FACTOR: usize = 4;

/// The declarative E13 scenario: every zombie floods from `t = 0` (no
/// stagger — simultaneous onset maximises concurrent filter demand).
pub fn scenario(capacity: usize, policy: EvictionPolicy, duration: SimDuration) -> Scenario {
    let cfg = AitfConfig {
        // Disconnection would mask the capacity effect (a disconnected
        // zombie stops leaking no matter how small the table is).
        grace: SimDuration::from_secs(3600),
        filter_capacity: capacity,
        shadow_capacity: capacity * SHADOW_FACTOR,
        eviction: policy,
        ..AitfConfig::default()
    };
    Scenario::new(TopologySpec::star(
        ARMY,
        1,
        HostPolicy::Malicious,
        10_000_000,
    ))
    .config(cfg)
    .duration(duration)
    .traffic(TrafficSpec::flood(
        HostSel::Role(Role::Attacker),
        TargetSel::Victim,
        400,
        500,
    ))
    .probes(
        ProbeSet::new()
            .leak_ratio("leak_r")
            .end(|w, m| {
                let vgw = w.world.router(w.net("victim_net"));
                m.set("vgw_rejections", vgw.counters().requests_unsatisfiable);
                m.set("vgw_evictions", vgw.filters().stats().evictions);
            })
            .peak_filters("vgw_peak", "victim_net")
            .filters_installed_on("blocked_flows", Side::Attacker),
    )
}

/// The E13 scenario spec: capacity × full-table-policy grid. Rows pair a
/// seed group per capacity so the reject/evict comparison is free of RNG
/// noise.
pub fn spec(quick: bool) -> ScenarioSpec {
    let capacities: &[u64] = if quick {
        &[2, 6, 24]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let duration_s: u64 = if quick { 6 } else { 10 };
    let mut points = Vec::new();
    for (group, &cap) in capacities.iter().enumerate() {
        for policy in ["reject", "evict"] {
            points.push(
                Params::new()
                    .with("filter_cap", cap)
                    .with("shadow_cap", cap * SHADOW_FACTOR as u64)
                    .with("policy", policy)
                    .with("demand_filters", ARMY as u64)
                    .with("duration_s", duration_s)
                    .with("_seed_group", group as u64),
            );
        }
    }
    ScenarioSpec::new(
        "e13_filter_pressure",
        "E13 (filter pressure): leak ratio + evictions vs per-router capacity",
        "§IV-B sizing, stressed",
    )
    .expectation(
        "leak_r degrades monotonically once filter_cap drops below the \
         army's concurrent demand (12 flows) and flattens at or above it; \
         the reject policy shows gateway rejections, the evict policy \
         shows evictions instead; every flow is eventually blocked at \
         capacities >= 1.",
    )
    .points(points)
    .runner(run_scenario(|p| {
        let policy = match p.str("policy") {
            "reject" => EvictionPolicy::Reject,
            "evict" => EvictionPolicy::EvictSoonestExpiring,
            other => panic!("unknown policy {other:?}"),
        };
        scenario(
            p.usize("filter_cap"),
            policy,
            SimDuration::from_secs(p.u64("duration_s")),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak(cap: usize, policy: EvictionPolicy, seed: u64) -> f64 {
        scenario(cap, policy, SimDuration::from_secs(6))
            .run(seed)
            .metrics
            .f64("leak_r")
    }

    #[test]
    fn leak_degrades_monotonically_below_demand_and_flattens_above() {
        // Same seed across capacities: the only variable is the table.
        let l2 = leak(2, EvictionPolicy::Reject, 31);
        let l6 = leak(6, EvictionPolicy::Reject, 31);
        let l12 = leak(ARMY, EvictionPolicy::Reject, 31);
        let l24 = leak(2 * ARMY, EvictionPolicy::Reject, 31);
        assert!(
            l2 > l6 && l6 > l12,
            "leak must degrade as capacity drops below demand: {l2} / {l6} / {l12}"
        );
        // At or above the army size the table never fills: flat.
        assert!(
            (l12 - l24).abs() < 0.1 * l12.max(1e-9),
            "leak must flatten above demand: {l12} vs {l24}"
        );
    }

    #[test]
    fn starved_gateway_rejects_and_eviction_policy_evicts_instead() {
        let rejecting = scenario(2, EvictionPolicy::Reject, SimDuration::from_secs(6)).run(32);
        assert!(rejecting.metrics.u64("vgw_rejections") > 0, "{rejecting:?}");
        assert_eq!(rejecting.metrics.u64("vgw_evictions"), 0, "{rejecting:?}");
        let evicting = scenario(
            2,
            EvictionPolicy::EvictSoonestExpiring,
            SimDuration::from_secs(6),
        )
        .run(32);
        assert!(evicting.metrics.u64("vgw_evictions") > 0, "{evicting:?}");
        // Peak occupancy never exceeds the configured capacity.
        assert!(evicting.metrics.u64("vgw_peak") <= 2, "{evicting:?}");
    }

    #[test]
    fn every_flow_is_blocked_even_at_tiny_capacity() {
        // Attacker-side gateways see one flow each: even a starved victim
        // gateway eventually pushes every request through via retries.
        let o = scenario(2, EvictionPolicy::Reject, SimDuration::from_secs(6)).run(33);
        assert_eq!(o.metrics.u64("blocked_flows"), ARMY as u64, "{o:?}");
    }
}
