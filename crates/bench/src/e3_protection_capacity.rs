//! E3 — Section IV-A.2: protection capacity `Nv = R1·T`.
//!
//! *"If a client is allowed to send R1 filtering requests per time unit to
//! the provider, then the client is protected against `Nv = R1·T`
//! simultaneous undesired flows."* (Paper example: R1 = 100/s, T = 1 min →
//! Nv = 6000.)
//!
//! We throw `F` simultaneous zombie flows at one victim and sweep `F`
//! across the `Nv` boundary. Below `Nv` every flow gets blocked; above it
//! the victim's own contract bucket (and the gateway's policing) caps how
//! many requests exist at once, so the excess flows keep leaking.

use aitf_core::{AitfConfig, Contract, HostPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    HostSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec, TrafficSpec,
};

use crate::harness::run_scenario;

/// The declarative E3 scenario: a star of zombie networks (50 hosts each)
/// with exactly `flows` zombies armed, contract `r1` req/s, horizon `t`.
pub fn scenario(flows: usize, r1: f64, t: SimDuration) -> Scenario {
    let cfg = AitfConfig {
        t_long: t,
        client_contract: Contract::new(r1, (r1 as u32).max(1)),
        // The attacker side must not be the bottleneck being measured:
        // give the zombies' gateways ample request contracts.
        peer_contract: Contract::new(1000.0, 1000),
        // Measure the filter economy, not disconnection.
        grace: t * 100,
        detection_delay: SimDuration::from_millis(10),
        ..AitfConfig::default()
    };
    let hosts_per_net = 50;
    let nets = flows.div_ceil(hosts_per_net);
    Scenario::new(TopologySpec::star(
        nets,
        hosts_per_net,
        HostPolicy::Malicious,
        100_000_000,
    ))
    .config(cfg)
    .duration(t)
    .traffic(TrafficSpec::flood(
        HostSel::RoleFirst(Role::Attacker, flows),
        TargetSel::Victim,
        50,
        200,
    ))
    .probes(
        ProbeSet::new()
            .end(|w, m| {
                let vc = w.world.host(w.victim()).counters();
                m.set("requests", vc.requests_sent);
                m.set("self_limited", vc.requests_self_limited);
            })
            .filters_installed_on("blocked_flows", Side::Attacker)
            .leak_ratio("leak_r"),
    )
}

/// The E3 scenario spec: offered-flow count swept across the `Nv`
/// boundary. Scaled-down contract so the capacity boundary is reachable
/// in simulation time: R1 = 10/s, T = 10 s → Nv = 100 flows.
pub fn spec(quick: bool) -> ScenarioSpec {
    let nv = 100u64;
    let fractions: &[f64] = if quick {
        &[0.5, 1.5]
    } else {
        &[0.25, 0.5, 1.0, 1.5, 2.0]
    };
    ScenarioSpec::new(
        "e3_protection_capacity",
        "E3 (§IV-A.2): protection capacity Nv = R1*T (R1=10/s, T=10s, Nv=100)",
        "§IV-A.2",
    )
    .expectation(
        "below Nv all flows get blocked; above Nv the request budget \
         saturates near R1*T = 100 and excess flows leak. Paper example at \
         full scale: R1 = 100/s, T = 60 s -> Nv = 6000 flows.",
    )
    .points(fractions.iter().map(|&frac| {
        Params::new()
            .with("flows", ((nv as f64) * frac) as u64)
            .with("f_over_nv", frac)
            .with("_r1", 10.0)
            .with("_t_s", 10u64)
    }))
    .runner(run_scenario(|p| {
        scenario(
            p.usize("flows"),
            p.f64("_r1"),
            SimDuration::from_secs(p.u64("_t_s")),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_capacity_every_flow_is_blocked() {
        let o = scenario(40, 10.0, SimDuration::from_secs(10)).run(5);
        assert_eq!(o.metrics.u64("blocked_flows"), 40, "{o:?}");
        assert!(o.metrics.f64("leak_r") < 0.2, "{o:?}");
    }

    #[test]
    fn above_capacity_requests_saturate() {
        let o = scenario(150, 10.0, SimDuration::from_secs(10)).run(6);
        // The victim cannot have emitted meaningfully more than R1*T + burst.
        let nv = 10.0 * 10.0;
        assert!(
            o.metrics.u64("requests") as f64 <= nv + 10.0 + 1.0,
            "requests beyond contract: {o:?}"
        );
        assert!(
            o.metrics.u64("self_limited") > 0,
            "the bucket must have withheld some: {o:?}"
        );
        // Not all flows can be blocked within T.
        assert!(o.metrics.u64("blocked_flows") < 150, "{o:?}");
    }
}
