//! E5 — Sections IV-C/D: filtering close to the attacker.
//!
//! *"If a service provider is allowed to send R2 filtering requests per
//! time unit to a client, then the provider needs `na = R2·T` filters in
//! order to ensure that the client satisfies all the requests"* — and the
//! *client* needs the same `na` filters to comply (Section IV-D). Paper
//! example: R2 = 1/s, T = 1 min → na = 60 filters.
//!
//! One attacker network hosts many zombies, each flooding a distinct
//! victim. Victim requests converge on the zombies' gateway through its
//! provider link, policed at R2. We record the gateway's peak filter
//! occupancy and the zombies' aggregate self-filter occupancy against
//! `na = R2·T`.

use aitf_core::{AitfConfig, Contract};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// The declarative E5 scenario: `zombies` compliant zombies in one
/// network, each flooding its own victim, measured over `2·T`.
pub fn scenario(r2: f64, t: SimDuration, zombies: usize) -> Scenario {
    let cfg = AitfConfig {
        t_long: t,
        peer_contract: Contract::new(r2, (r2.ceil() as u32).max(1)),
        client_contract: Contract::new(1000.0, 1000),
        detection_delay: SimDuration::from_millis(10),
        grace: t * 100,
        ..AitfConfig::default()
    };
    let mut topo = TopologySpec::new();
    let wan = topo.net("wan", "10.100.0.0/16", None);
    let v_net = topo.net("v_net", "10.1.0.0/16", Some(wan));
    let b_net = topo.net("b_net", "10.9.0.0/16", Some(wan));
    for _ in 0..zombies {
        topo.host(v_net, Role::Victim);
    }
    // Compliant zombies: they stop when asked, exercising §IV-D's client-
    // side na bound as well.
    for _ in 0..zombies {
        topo.host(b_net, Role::Attacker);
    }
    let na_formula = r2 * t.as_secs_f64();
    Scenario::new(topo)
        .config(cfg)
        .duration(t * 2)
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Paired(Role::Victim),
            50,
            200,
        ))
        .probes(
            ProbeSet::new()
                .end(move |_, m| m.set("na_formula", na_formula))
                .peak_filters("gw_peak", "b_net")
                .end(|w, m| {
                    let clients_peak: usize = w
                        .hosts_with(Role::Attacker)
                        .iter()
                        .filter_map(|&z| w.world.host(z).self_filters())
                        .map(|t| t.stats().peak_occupancy)
                        .sum();
                    m.set("clients_peak", clients_peak);
                    m.set(
                        "policed",
                        w.world.router(w.net("b_net")).counters().requests_policed,
                    );
                }),
        )
}

/// The E5 scenario spec: the `(R2, T, zombies)` grid.
pub fn spec(quick: bool) -> ScenarioSpec {
    let points: &[(f64, u64, u64)] = if quick {
        &[(1.0, 10, 30), (2.0, 10, 50)]
    } else {
        &[
            (0.5, 20, 30),
            (1.0, 10, 30),
            (1.0, 30, 60),
            (2.0, 10, 50),
            (2.0, 30, 120),
        ]
    };
    ScenarioSpec::new(
        "e5_attacker_gw_resources",
        "E5 (§IV-C/D): attacker-side filters na = R2*T",
        "§IV-C/D",
    )
    .expectation(
        "the gateway never holds more than ~R2*T filters no matter how many \
         flows are offered (the excess is policed); the compliant clients \
         collectively hold the same bound. Paper example: R2 = 1/s, \
         T = 60 s -> na = 60.",
    )
    .points(points.iter().map(|&(r2, t, zombies)| {
        Params::new()
            .with("r2_per_s", r2)
            .with("t_s", t)
            .with("zombies", zombies)
    }))
    .runner(run_scenario(|p| {
        scenario(
            p.f64("r2_per_s"),
            SimDuration::from_secs(p.u64("t_s")),
            p.usize("zombies"),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_filters_bounded_by_r2_t() {
        // 30 offered flows, but R2·T = 10: the gateway must stay near 10.
        let o = scenario(1.0, SimDuration::from_secs(10), 30).run(2);
        let na = o.metrics.f64("na_formula");
        assert!(
            (o.metrics.u64("gw_peak") as f64) <= na + 1.0 + 2.0,
            "gateway exceeded na: {o:?}"
        );
        assert!(
            o.metrics.u64("policed") > 0,
            "excess requests must be policed: {o:?}"
        );
    }

    #[test]
    fn clients_hold_at_most_the_same_bound() {
        let o = scenario(1.0, SimDuration::from_secs(10), 30).run(3);
        let na = o.metrics.f64("na_formula");
        assert!(
            (o.metrics.u64("clients_peak") as f64) <= na + 1.0 + 2.0,
            "clients exceeded na: {o:?}"
        );
    }

    #[test]
    fn higher_r2_admits_more_filters() {
        let lo = scenario(1.0, SimDuration::from_secs(10), 50).run(4);
        let hi = scenario(4.0, SimDuration::from_secs(10), 50).run(4);
        assert!(
            hi.metrics.u64("gw_peak") > lo.metrics.u64("gw_peak"),
            "R2 should scale filter admission: {lo:?} vs {hi:?}"
        );
    }
}
