//! E6 — Sections II-E / III-B: the 3-way verification handshake.
//!
//! Three scenarios over a legitimate flow A→V:
//!
//! 1. **off-path forger** — a node that is not on the A→V path forges
//!    "block A→V". The victim denies the verification query, the filter is
//!    never installed, the flow survives. (The paper's security claim.)
//! 2. **on-path compromised router** — a compromised router that *routes*
//!    the A→V traffic snoops the nonce and forges a confirming reply; the
//!    filter goes in. The paper's caveat: such a node "can disrupt A-V
//!    communication anyway, by simply dropping the corresponding packets".
//! 3. **verification disabled** (ablation) — the off-path forgery
//!    succeeds, demonstrating why the handshake exists.

use aitf_core::{AitfConfig, RequestForger, RouterPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_packet::FlowLabel;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// The declarative E6 scenario. Topology:
/// `A — a_net — wan — mid — v_net — V`, forger M in `m_net` off the A→V
/// path; `mid` is the on-path router that may be compromised.
pub fn scenario(verification: bool, compromised_mid: bool) -> Scenario {
    let cfg = AitfConfig {
        verification,
        ..AitfConfig::default()
    };
    let mut topo = TopologySpec::new();
    let wan = topo.net("wan", "10.100.0.0/16", None);
    let a_net = topo.net("a_net", "10.1.0.0/16", Some(wan));
    let mid = topo.net("mid", "10.50.0.0/16", Some(wan));
    let v_net = topo.net("v_net", "10.2.0.0/16", Some(mid));
    let m_net = topo.net("m_net", "10.3.0.0/16", Some(wan));
    if compromised_mid {
        topo.set_net_policy("mid", RouterPolicy::compromised());
    }
    topo.host(a_net, Role::Legit);
    topo.host(v_net, Role::Victim);
    topo.host(m_net, Role::Attacker);
    Scenario::new(topo)
        .config(cfg)
        .duration(SimDuration::from_secs(5))
        .traffic(TrafficSpec::legit(
            HostSel::Role(Role::Legit),
            TargetSel::Victim,
            100,
            500,
        ))
        .traffic(TrafficSpec::custom(
            HostSel::Role(Role::Attacker),
            |w, _| {
                // Forge "block A→V" towards A's gateway.
                let a = w.first_with(Role::Legit);
                let flow = FlowLabel::src_dst(w.world.host_addr(a), w.world.host_addr(w.victim()));
                let a_gw = w.world.router_addr(w.net("a_net"));
                Box::new(RequestForger::new(a_gw, flow, SimDuration::from_secs(1)))
            },
        ))
        .probes(ProbeSet::new().end(move |w, m| {
            let a_router = w.world.router(w.net("a_net")).counters();
            m.set("filter_installed", a_router.filters_installed > 0);
            m.set("denied", a_router.handshakes_denied);
            let forged = if compromised_mid {
                w.world.router(w.net("mid")).counters().handshakes_forged
            } else {
                0
            };
            m.set("forged_replies", forged);
            m.set(
                "legit_pkts_delivered",
                w.world.host(w.victim()).counters().rx_legit_pkts,
            );
        }))
}

/// The E6 scenario spec: the three forgery scenarios.
pub fn spec(_quick: bool) -> ScenarioSpec {
    let scenarios: [(&'static str, bool, bool); 3] = [
        ("off-path forger, handshake ON", true, false),
        ("ON-path compromised router", true, true),
        ("off-path forger, handshake OFF", false, false),
    ];
    ScenarioSpec::new(
        "e6_handshake_security",
        "E6 (§II-E, §III-B): 3-way handshake vs forged filtering requests",
        "§II-E, §III-B",
    )
    .expectation(
        "row 1 — forgery dies (victim denies); row 2 — an on-path \
         compromised router CAN forge the handshake, but it routes the flow \
         and could drop it anyway (§III-B); row 3 — without the handshake, \
         forgery cuts the legitimate flow.",
    )
    .points(scenarios.iter().map(|&(name, verification, compromised)| {
        Params::new()
            .with("scenario", name)
            .with("verification", verification)
            .with("compromised", compromised)
            // One seed group: the expectation compares legit delivery
            // across the three rows, so they must share a world.
            .with("_seed_group", 0u64)
    }))
    .runner(run_scenario(|p| {
        scenario(p.bool("verification"), p.bool("compromised"))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_path_forgery_fails_with_handshake() {
        let o = scenario(true, false).run(77);
        assert!(!o.metrics.bool("filter_installed"), "{o:?}");
        assert_eq!(o.metrics.u64("denied"), 1, "{o:?}");
        assert!(o.metrics.u64("legit_pkts_delivered") > 400, "{o:?}");
    }

    #[test]
    fn on_path_compromised_router_defeats_handshake() {
        let o = scenario(true, true).run(77);
        assert!(o.metrics.bool("filter_installed"), "{o:?}");
        assert!(o.metrics.u64("forged_replies") >= 1, "{o:?}");
        // The legit flow was cut early.
        assert!(o.metrics.u64("legit_pkts_delivered") < 150, "{o:?}");
    }

    #[test]
    fn disabling_verification_lets_forgery_through() {
        let o = scenario(false, false).run(77);
        assert!(o.metrics.bool("filter_installed"), "{o:?}");
        assert!(o.metrics.u64("legit_pkts_delivered") < 150, "{o:?}");
    }
}
