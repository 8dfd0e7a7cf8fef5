//! E16 — §III: the partial-deployment incentive, swept.
//!
//! The paper's deployment argument is that AITF pays off *before* everyone
//! runs it: the victim's provider adopts first and immediately protects
//! its client, and every additional adopting provider moves filtering
//! closer to the attackers — off the victim gateway's scarce wire-speed
//! table and onto the attacker-side edges. E9 showed the §III-A incentive
//! for a single router; E16 generalizes it to the whole deployment axis.
//!
//! Setup: the two-level provider tree (E12/E15's shape — 18 zombies
//! behind 9 leaf networks and 3 intermediate providers). The victim's
//! network always runs AITF; a seed-derived, **nested** fraction of the
//! remaining 13 networks joins it ([`aitf_scenario::DeploymentSpec::fraction`] — for a
//! fixed seed, the deployed set at a lower fraction is a subset of the
//! deployed set at any higher one, so the sweep isolates the deployment
//! axis). The victim gateway's filter table is deliberately small (6
//! entries against 18 attack flows): at low deployment it must hold every
//! long-term filter itself and overflows; as deployment grows, round-1
//! requests land on the zombies' own providers and the victim side only
//! ever needs its short-lived temporary filters (§IV-B's `nv = R1·Ttmp`
//! sizing argument, made visible as a deployment incentive).
//!
//! Expectation: leak ratio and attack bandwidth at the victim improve
//! monotonically with the deployment fraction, and — because escalation
//! is deployment-aware — no filtering request is ever wasted on a legacy
//! provider (`requests_ignored = 0` at every fraction).

use aitf_core::{AitfConfig, HostPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// Tree shape (E12/E15's): 2 levels, 3-way branching, 2 hosts per leaf.
const LEVELS: usize = 2;
const BRANCHING: usize = 3;
const HOSTS_PER_LEAF: usize = 2;

/// Per-router wire-speed filter capacity: well below the 18-flow army, so
/// a victim gateway forced to hold every long filter itself overflows.
const FILTER_CAPACITY: usize = 6;

/// Per-host flood rate (packets/second) and packet size: 18 × 200 pps ×
/// 500 B = 14.4 Mbit/s against the victim's 10 Mbit/s tail.
const FLOOD_PPS: u64 = 200;
const FLOOD_SIZE: u32 = 500;

/// Zombies open fire one after another. The stagger keeps the victim
/// gateway's *temporary*-filter churn within its table (≈ `Ttmp` /
/// stagger ≈ 5 concurrent temp filters against 6 slots — the §IV-B
/// `nv = R1·Ttmp` regime), so what the capacity squeeze exposes is
/// exactly the *long-term* demand that deployment migrates off the
/// victim's gateway.
const STAGGER: SimDuration = SimDuration::from_millis(200);

/// The declarative E16 scenario at one deployment fraction.
pub fn scenario(aitf_fraction: f64, duration: SimDuration) -> Scenario {
    let cfg = AitfConfig {
        // As in E10/E13/E15: disconnection would conflate "the flow was
        // filtered" with "the client was unplugged"; keep the axis pure.
        grace: SimDuration::from_secs(3600),
        filter_capacity: FILTER_CAPACITY,
        ..AitfConfig::default()
    };
    Scenario::new(TopologySpec::tree(
        LEVELS,
        BRANCHING,
        HOSTS_PER_LEAF,
        HostPolicy::Malicious,
        10_000_000,
    ))
    .config(cfg)
    .aitf_fraction(aitf_fraction)
    .duration(duration)
    .traffic(
        TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            FLOOD_PPS,
            FLOOD_SIZE,
        )
        .staggered(STAGGER),
    )
    .probes(
        ProbeSet::new()
            .end(|w, m| {
                let aitf_nets = (0..w.world.net_count())
                    .filter(|&i| w.world.router_policy(aitf_core::NetId(i)).aitf_enabled)
                    .count();
                m.set("aitf_nets", aitf_nets as u64);
            })
            .leak_ratio("leak_r")
            .end(move |w, m| {
                let bytes = w.world.host(w.victim()).counters().rx_attack_bytes;
                let secs = w.world.sim.now().as_secs_f64();
                m.set("victim_attack_mbps", bytes as f64 * 8.0 / secs / 1e6);
            })
            .end(|w, m| {
                // Deployment-aware escalation never knocks on legacy
                // doors: requests wasted on non-participants, summed over
                // the whole world.
                let ignored: u64 = (0..w.world.net_count())
                    .map(|i| {
                        w.world
                            .router(aitf_core::NetId(i))
                            .counters()
                            .requests_ignored
                    })
                    .sum();
                m.set("requests_ignored", ignored);
                let vgw = w.world.router(w.net("victim_net")).counters();
                m.set("vgw_unsatisfiable", vgw.requests_unsatisfiable);
                m.set("vgw_local_fallbacks", vgw.local_filter_fallbacks);
            }),
    )
}

/// The E16 scenario spec: the deployment fraction swept, all points on a
/// shared seed so the nested assignment makes the sweep monotone by
/// construction.
pub fn spec(quick: bool) -> ScenarioSpec {
    let fractions: &[f64] = if quick {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };
    let duration_s: u64 = if quick { 6 } else { 12 };
    ScenarioSpec::new(
        "e16_deployment_incentive",
        "E16 (§III): every additional AITF provider pays off for the victim",
        "§III, §IV-B",
    )
    .expectation(
        "leak_r and victim_attack_mbps fall monotonically as the AITF \
         deployment fraction grows (nested seed-derived assignment): at \
         low deployment the victim's undersized gateway table overflows \
         (vgw_unsatisfiable > 0) and flows leak; at full deployment every \
         flow is blocked at its own provider. Deployment-aware escalation \
         wastes nothing on legacy hops: requests_ignored = 0 throughout.",
    )
    .points(fractions.iter().map(|&f| {
        Params::new()
            .with("aitf_fraction", f)
            .with("duration_s", duration_s)
            // Shared seed group: the monotone claim compares fractions on
            // one nested deployment assignment.
            .with("_seed_group", 0u64)
    }))
    .runner(run_scenario(|p| {
        scenario(
            p.f64("aitf_fraction"),
            SimDuration::from_secs(p.u64("duration_s")),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leak_improves_monotonically_with_deployment() {
        let d = SimDuration::from_secs(6);
        let outcomes: Vec<_> = [0.0, 0.5, 1.0]
            .iter()
            .map(|&f| scenario(f, d).run(42))
            .collect();
        for pair in outcomes.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            assert!(
                hi.metrics.f64("leak_r") <= lo.metrics.f64("leak_r") + 1e-9,
                "leak must not worsen with more deployment: {lo:?} -> {hi:?}"
            );
            assert!(
                hi.metrics.f64("victim_attack_mbps") <= lo.metrics.f64("victim_attack_mbps") + 1e-9,
                "victim bandwidth must not worsen with more deployment: {lo:?} -> {hi:?}"
            );
        }
        // The axis must actually matter: zero deployment leaks badly
        // (the undersized victim gateway cannot hold 18 long filters),
        // full deployment blocks nearly everything.
        let zero = &outcomes[0];
        let full = &outcomes[outcomes.len() - 1];
        assert!(zero.metrics.f64("leak_r") > 0.3, "{zero:?}");
        assert!(zero.metrics.u64("vgw_unsatisfiable") > 0, "{zero:?}");
        assert!(zero.metrics.u64("vgw_local_fallbacks") > 0, "{zero:?}");
        assert!(full.metrics.f64("leak_r") < 0.1, "{full:?}");
    }

    #[test]
    fn no_request_is_ever_wasted_on_a_legacy_provider() {
        for f in [0.0, 0.5] {
            let o = scenario(f, SimDuration::from_secs(6)).run(42);
            assert_eq!(
                o.metrics.u64("requests_ignored"),
                0,
                "deployment-aware escalation must skip legacy hops: {o:?}"
            );
        }
    }

    #[test]
    fn aitf_net_count_tracks_the_fraction() {
        let d = SimDuration::from_secs(6);
        // 14 nets total, victim_net always deployed, 13 eligible.
        assert_eq!(scenario(0.0, d).run(42).metrics.u64("aitf_nets"), 1);
        assert_eq!(scenario(1.0, d).run(42).metrics.u64("aitf_nets"), 14);
    }
}
