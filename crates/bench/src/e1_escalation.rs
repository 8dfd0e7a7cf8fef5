//! E1 — Figure 1 / Section II-D: the escalation rounds.
//!
//! Reproduces the worked example of the paper: `B_host` floods `G_host`
//! across two three-level provider hierarchies. We sweep how many
//! attacker-side gateways refuse to cooperate (0–3) and report where the
//! filtering ends up:
//!
//! - 0 rogue gateways → round 1, blocked at `B_gw1` (the attacker's
//!   gateway), attacker disconnected if it will not stop;
//! - 1 rogue → round 2, blocked at `B_gw2`, which disconnects `B_net`;
//! - 2 rogues → round 3, blocked at `B_gw3`, which disconnects `B_isp`;
//! - 3 rogues → the worst case: `G_gw3` disconnects from `B_gw3`.

use aitf_core::{HostPolicy, RouterPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    HostSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec, TrafficSpec,
};

use crate::harness::run_scenario;

/// The attacker-side gateways, leaf first, with their display labels.
const B_SIDE: [(&str, &str); 3] = [
    ("B_gw1 (B_net)", "B_net"),
    ("B_gw2 (B_isp)", "B_isp"),
    ("B_gw3 (B_wan)", "B_wan"),
];

/// The declarative E1 scenario: Figure 1 with `rogues` non-cooperating
/// attacker-side gateways and a 1000 pps flood.
pub fn scenario(rogues: usize, duration: SimDuration) -> Scenario {
    let mut topo = TopologySpec::fig1(HostPolicy::Malicious);
    for (_, net) in B_SIDE.iter().take(rogues) {
        topo.set_net_policy(net, RouterPolicy::non_cooperating());
    }
    Scenario::new(topo)
        .duration(duration)
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            1000,
            500,
        ))
        .probes(
            ProbeSet::new()
                .end(|w, m| {
                    // Find the attacker-side network holding a long filter.
                    let mut blocker = "none (peer disconnected)".to_string();
                    for (label, net) in B_SIDE {
                        if w.world.router(w.net(net)).counters().filters_installed > 0 {
                            blocker = label.to_string();
                            break;
                        }
                    }
                    m.set("blocker", blocker);
                    let client_disconnects: u64 = w
                        .nets_on(Side::Attacker)
                        .iter()
                        .map(|&n| w.world.router(n).counters().disconnects_client)
                        .sum();
                    m.set("client_disconnects", client_disconnects);
                    m.set(
                        "peer_disconnects",
                        w.world.router(w.net("G_wan")).counters().disconnects_peer,
                    );
                })
                .leak_ratio("victim_leak_r"),
        )
}

/// The E1 scenario spec: rogue-gateway count 0–3.
pub fn spec(quick: bool) -> ScenarioSpec {
    let duration_s: u64 = if quick { 10 } else { 30 };
    ScenarioSpec::new(
        "e1_escalation",
        "E1 (Fig.1, §II-D): escalation pushes filtering to the attacker side",
        "Fig. 1, §II-D",
    )
    .expectation(
        "blocker walks B_gw1 -> B_gw2 -> B_gw3 -> peer disconnect as rogue \
         count grows; leak stays tiny throughout.",
    )
    .points((0..=3u64).map(|rogues| {
        Params::new()
            .with("rogue_gws", rogues)
            .with("duration_s", duration_s)
    }))
    .runner(run_scenario(|p| {
        scenario(
            p.usize("rogue_gws"),
            SimDuration::from_secs(p.u64("duration_s")),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_walks_up_the_attacker_side() {
        let d = SimDuration::from_secs(10);
        let o0 = scenario(0, d).run(42);
        assert!(o0.metrics.str("blocker").contains("B_gw1"), "{o0:?}");
        let o1 = scenario(1, d).run(43);
        assert!(o1.metrics.str("blocker").contains("B_gw2"), "{o1:?}");
        let o2 = scenario(2, d).run(44);
        assert!(o2.metrics.str("blocker").contains("B_gw3"), "{o2:?}");
        let o3 = scenario(3, d).run(45);
        assert_eq!(o3.metrics.u64("peer_disconnects"), 1, "{o3:?}");
        // Every scenario keeps the leak small.
        for o in [o0, o1, o2, o3] {
            assert!(
                o.metrics.f64("victim_leak_r") < 0.12,
                "leak too high: {o:?}"
            );
        }
    }
}
