//! E4 — Section IV-B: filtering close to the victim.
//!
//! *"If a client is allowed to send R1 filtering requests per time unit to
//! the provider, the provider needs `nv = R1·Ttmp` filters and a DRAM
//! cache that can fit `mv = R1·T` filtering requests."* (Paper example:
//! R1 = 100/s, handshake-sized Ttmp → nv = 60 filters protect against
//! Nv = 6000 flows.)
//!
//! A spoofing zombie generates a continuous stream of *new* undesired
//! flows; the victim requests blocks at its full contract rate. We record
//! the victim-gateway's **peak filter occupancy** (should track `R1·Ttmp`)
//! and **peak shadow occupancy** (should track `R1·T`) across a sweep of
//! `(R1, Ttmp, T)`.

use aitf_core::{AitfConfig, Contract, HostPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// The declarative E4 scenario: one spoofing zombie against one victim
/// behind a shared `wan`, measured over `2·T`.
pub fn scenario(r1: f64, t_tmp: SimDuration, t: SimDuration) -> Scenario {
    let cfg = AitfConfig {
        t_long: t,
        t_tmp,
        client_contract: Contract::new(r1, (r1 / 10.0).ceil().max(1.0) as u32),
        // Attacker side absorbs everything so the victim side is measured.
        peer_contract: Contract::new(10_000.0, 10_000),
        detection_delay: SimDuration::from_millis(1),
        grace: t * 100,
        ..AitfConfig::default()
    };
    let mut topo = TopologySpec::new();
    let wan = topo.net("wan", "10.100.0.0/16", None);
    let g_net = topo.net("g_net", "10.1.0.0/16", Some(wan));
    let b_net = topo.net("b_net", "10.9.0.0/16", Some(wan));
    topo.host(g_net, Role::Victim);
    // The zombie's gateway does not ingress-filter intra-prefix spoofs, so
    // they stream out as an endless supply of fresh undesired flows.
    topo.host_with(
        b_net,
        Role::Attacker,
        HostPolicy::Malicious,
        aitf_core::WorldBuilder::default_host_link(),
    );
    // New flows appear at 2×R1 so the victim's bucket, not the supply, is
    // the limit; the pool is large enough never to repeat within T.
    let pool: aitf_packet::Prefix = "10.9.128.0/17".parse().expect("valid prefix");
    let pps = (2.0 * r1).max(10.0) as u64;
    let (nv_formula, mv_formula) = (r1 * t_tmp.as_secs_f64(), r1 * t.as_secs_f64());
    Scenario::new(topo)
        .config(cfg)
        .duration(t * 2)
        .traffic(TrafficSpec::spoof(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            pps,
            100,
            pool,
            30_000,
        ))
        .probes(
            ProbeSet::new()
                .end(move |_, m| m.set("nv_formula", nv_formula))
                .peak_filters("nv_peak", "g_net")
                .end(move |_, m| m.set("mv_formula", mv_formula))
                .peak_shadows("mv_peak", "g_net"),
        )
}

/// The E4 scenario spec: the `(R1, Ttmp, T)` grid.
pub fn spec(quick: bool) -> ScenarioSpec {
    let points: &[(f64, u64, u64)] = if quick {
        &[(20.0, 1, 10), (50.0, 1, 10)]
    } else {
        &[
            (20.0, 1, 10),
            (50.0, 1, 10),
            (50.0, 2, 20),
            (100.0, 1, 30),
            (100.0, 2, 30),
        ]
    };
    ScenarioSpec::new(
        "e4_victim_gw_resources",
        "E4 (§IV-B): victim-gateway resources nv = R1*Ttmp, mv = R1*T",
        "§IV-B",
    )
    .expectation(
        "peak filters track R1*Ttmp (temporary filters recycle), peak \
         shadows track R1*T; nv << mv, which is the whole DRAM-vs-filters \
         economy. Paper example: 60 filters vs 6000 shadows.",
    )
    .points(points.iter().map(|&(r1, ttmp, t)| {
        Params::new()
            .with("r1_per_s", r1)
            .with("ttmp_s", ttmp)
            .with("t_s", t)
    }))
    .runner(run_scenario(|p| {
        scenario(
            p.f64("r1_per_s"),
            SimDuration::from_secs(p.u64("ttmp_s")),
            SimDuration::from_secs(p.u64("t_s")),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitf_engine::Outcome;

    fn peaks(o: &Outcome) -> (f64, f64, f64, f64) {
        (
            o.metrics.f64("nv_formula"),
            o.metrics.u64("nv_peak") as f64,
            o.metrics.f64("mv_formula"),
            o.metrics.u64("mv_peak") as f64,
        )
    }

    #[test]
    fn filter_peak_tracks_r1_ttmp() {
        let o = scenario(20.0, SimDuration::from_secs(1), SimDuration::from_secs(10)).run(3);
        let (nv_formula, nv_peak, ..) = peaks(&o);
        // Peak occupancy within a factor ~2 of the formula and far below mv.
        assert!(nv_peak <= nv_formula * 2.5 + 5.0, "nv peak too high: {o:?}");
        assert!(
            nv_peak >= nv_formula * 0.3,
            "nv peak suspiciously low: {o:?}"
        );
    }

    #[test]
    fn shadow_peak_tracks_r1_t() {
        let o = scenario(20.0, SimDuration::from_secs(1), SimDuration::from_secs(10)).run(4);
        let (.., mv_formula, mv_peak) = peaks(&o);
        assert!(
            mv_peak <= mv_formula * 1.5 + 10.0,
            "mv peak too high: {o:?}"
        );
        assert!(
            mv_peak >= mv_formula * 0.4,
            "mv peak suspiciously low: {o:?}"
        );
    }

    /// At the full sweep's busiest point the victim sees more than 4,096
    /// senders, and still every request it sends names the attack path:
    /// each one its gateway accepts reaches the zombie's gateway.
    #[test]
    fn every_accepted_request_reaches_the_attacker_gateway() {
        let t = SimDuration::from_secs(30);
        let mut built = scenario(100.0, SimDuration::from_secs(1), t).build(42);
        built.world.sim.run_for(t * 2);
        // Stop the flood and let the requests still in flight land.
        let zombie = built.hosts_with(Role::Attacker)[0];
        built.world.detach_host(zombie);
        built.world.sim.run_for(SimDuration::from_secs(1));
        let g_net = built.world.router(built.net("g_net")).counters();
        let b_net = built.world.router(built.net("b_net")).counters();
        assert_eq!(g_net.requests_invalid, 0, "{g_net:?}");
        assert!(g_net.requests_accepted > 4096, "{g_net:?}");
        assert_eq!(b_net.requests_received, g_net.requests_accepted);
    }

    #[test]
    fn filters_are_a_small_fraction_of_shadows() {
        let o = scenario(50.0, SimDuration::from_secs(1), SimDuration::from_secs(20)).run(5);
        assert!(
            o.metrics.u64("nv_peak") * 4 < o.metrics.u64("mv_peak"),
            "nv must be << mv: {o:?}"
        );
    }
}
