//! E9 — Section III-A: the ingress-filtering incentive.
//!
//! *"If a provider pro-actively prevents spoofed flows from exiting its
//! network, it lowers the probability of an attack being launched from its
//! own network, thus reducing the number of expected filtering requests it
//! will later have to satisfy."*
//!
//! A zombie spoofs sources from outside its network's prefix. With ingress
//! filtering at its gateway the flood dies at the first hop; without it,
//! the spoofed flows reach the victim, generate filtering requests, and
//! come back as work (filters, handshakes, notices) for that same
//! provider.

use aitf_core::{AitfConfig, Contract, HostPolicy, RouterPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// The declarative E9 scenario: one spoofing zombie, ingress filtering on
/// or off for the whole deployment.
pub fn scenario(ingress_filtering: bool) -> Scenario {
    let cfg = AitfConfig {
        peer_contract: Contract::new(100.0, 100),
        detection_delay: SimDuration::from_millis(10),
        grace: SimDuration::from_secs(3600),
        ..AitfConfig::default()
    };
    let mut topo = TopologySpec::new();
    let wan = topo.net("wan", "10.100.0.0/16", None);
    let v_net = topo.net("v_net", "10.1.0.0/16", Some(wan));
    let b_net = topo.net("b_net", "10.9.0.0/16", Some(wan));
    // Ingress filtering is a deployment decision: when it is off, it is
    // off for the zombie's whole provider chain (otherwise the provider
    // one level up catches the spoofs instead).
    topo.set_all_net_policies(RouterPolicy {
        ingress_filtering,
        ..RouterPolicy::default()
    });
    topo.host(v_net, Role::Victim);
    topo.host_with(
        b_net,
        Role::Attacker,
        HostPolicy::Malicious,
        aitf_core::WorldBuilder::default_host_link(),
    );
    // Spoof pool OUTSIDE b_net's prefix — exactly what ingress filtering
    // is meant to stop.
    let pool: aitf_packet::Prefix = "172.16.0.0/24".parse().expect("valid prefix");
    Scenario::new(topo)
        .config(cfg)
        .duration(SimDuration::from_secs(10))
        .traffic(TrafficSpec::spoof(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            200,
            200,
            pool,
            64,
        ))
        .probes(ProbeSet::new().end(|w, m| {
            let gw = w.world.router(w.net("b_net")).counters();
            m.set("spoofs_dropped", gw.spoofed_dropped);
            m.set(
                "victim_attack_pkts",
                w.world.host(w.victim()).counters().rx_attack_pkts,
            );
            m.set("provider_requests", gw.requests_received);
            m.set("provider_filters", gw.filters_installed);
        }))
}

/// The E9 scenario spec: ingress filtering on / off.
pub fn spec(_quick: bool) -> ScenarioSpec {
    ScenarioSpec::new(
        "e9_ingress_incentive",
        "E9 (§III-A): ingress filtering pays for itself",
        "§III-A",
    )
    .expectation(
        "with ingress filtering the provider drops the spoofs at its own \
         edge and processes ~0 filtering requests; without it, the same \
         provider ends up servicing every request for flows it let out — \
         the §III-A economic incentive.",
    )
    .points([true, false].into_iter().map(|ingress| {
        Params::new()
            .with(
                "mode",
                if ingress {
                    "ingress filtering ON"
                } else {
                    "ingress filtering OFF"
                },
            )
            .with("ingress_filtering", ingress)
            // Shared seed group: the expectation contrasts the provider's
            // request load across the on/off pair.
            .with("_seed_group", 0u64)
    }))
    .runner(run_scenario(|p| scenario(p.bool("ingress_filtering"))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingress_on_stops_spoofs_at_the_edge() {
        let o = scenario(true).run(2);
        assert!(o.metrics.u64("spoofs_dropped") > 1000, "{o:?}");
        assert_eq!(o.metrics.u64("victim_attack_pkts"), 0, "{o:?}");
        assert_eq!(o.metrics.u64("provider_requests"), 0, "{o:?}");
    }

    #[test]
    fn ingress_off_turns_into_filtering_work() {
        let o = scenario(false).run(2);
        assert_eq!(o.metrics.u64("spoofs_dropped"), 0, "{o:?}");
        assert!(o.metrics.u64("victim_attack_pkts") > 0, "{o:?}");
        assert!(o.metrics.u64("provider_requests") > 10, "{o:?}");
        assert!(o.metrics.u64("provider_filters") > 10, "{o:?}");
    }
}
