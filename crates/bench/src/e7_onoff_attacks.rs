//! E7 — Section II-B footnote 2 / Section IV-A.1: on-off attacks and the
//! shadow cache.
//!
//! When the attacker's gateway does not cooperate, an attacker can play
//! "on-off games": stop long enough for the victim's gateway to drop its
//! temporary filter, then resume. The DRAM shadow (kept for the full `T`)
//! is the paper's answer: a reappearing logged flow is recognised at the
//! first packet, the filter reinstalls and the request escalates.
//!
//! We pit an on-off attacker (off-period tuned past `Ttmp`) against a
//! non-cooperating attacker gateway, with the shadow assist on and off
//! (ablation, footnote 3: keeping real filters for `T` instead "would
//! defeat the whole purpose").

use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// The declarative E7 scenario. `shadow_assist` toggles
/// [`AitfConfig::fast_reblock`]: packet-triggered reactivation and fast
/// re-detection together.
pub fn scenario(shadow_assist: bool) -> Scenario {
    let t_tmp = SimDuration::from_secs(1);
    let cfg = AitfConfig {
        t_long: SimDuration::from_secs(30),
        t_tmp,
        fast_reblock: shadow_assist,
        detection_delay: SimDuration::from_millis(50),
        grace: SimDuration::from_secs(3600),
        ..AitfConfig::default()
    };
    let mut topo = TopologySpec::fig1(HostPolicy::Malicious);
    // The attacker's own gateway plays dumb, so the on-off game is worth
    // playing at all.
    topo.set_net_policy("B_net", RouterPolicy::non_cooperating());
    Scenario::new(topo)
        .config(cfg)
        .duration(SimDuration::from_secs(30))
        // On for 200 ms at 1000 pps, then silent for 1.5 × Ttmp.
        .traffic(TrafficSpec::onoff(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            1000,
            500,
            SimDuration::from_millis(200),
            SimDuration::from_millis(1500),
        ))
        .probes(ProbeSet::new().leak_ratio("leak_r").end(|w, m| {
            let gw = w.world.router(w.net("G_net"));
            m.set("reactivations", gw.counters().reactivations);
            let attacker = w.first_with(Role::Attacker);
            let flow = aitf_packet::FlowLabel::src_dst(
                w.world.host_addr(attacker),
                w.world.host_addr(w.victim()),
            );
            m.set("max_round", gw.shadow().get(&flow).map_or(0, |e| e.round));
            m.set(
                "escalated_block",
                w.world.router(w.net("B_isp")).counters().filters_installed > 0,
            );
        }))
}

/// The E7 scenario spec: shadow assist on / off.
pub fn spec(_quick: bool) -> ScenarioSpec {
    ScenarioSpec::new(
        "e7_onoff_attacks",
        "E7 (§II-B fn.2): on-off attacker vs the DRAM shadow cache",
        "§II-B fn.2",
    )
    .expectation(
        "with the shadow the reappearing flow is caught at the gateway \
         (reactivations > 0), escalates past the rogue gateway and leaks \
         less than without the assist.",
    )
    .points([true, false].into_iter().map(|assist| {
        Params::new()
            .with(
                "mode",
                if assist {
                    "shadow assist ON"
                } else {
                    "shadow assist OFF"
                },
            )
            .with("shadow_assist", assist)
            // Shared seed group: the expectation compares leak across the
            // on/off pair, so both must run the same world.
            .with("_seed_group", 0u64)
    }))
    .runner(run_scenario(|p| scenario(p.bool("shadow_assist"))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_catches_onoff_and_escalates() {
        let o = scenario(true).run(3);
        assert!(o.metrics.u64("reactivations") > 0, "{o:?}");
        assert!(o.metrics.u64("max_round") >= 2, "{o:?}");
        assert!(o.metrics.bool("escalated_block"), "{o:?}");
    }

    #[test]
    fn shadow_assist_reduces_leak() {
        let with = scenario(true).run(4);
        let without = scenario(false).run(4);
        assert!(
            with.metrics.f64("leak_r") <= without.metrics.f64("leak_r"),
            "shadow must not make things worse: {with:?} vs {without:?}"
        );
    }
}
