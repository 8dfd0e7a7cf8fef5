//! Figure-style time series.
//!
//! Where the E-experiments print tables, this module regenerates the
//! *shapes* a systems paper plots: legitimate goodput collapsing under the
//! flood and recovering once AITF kicks in, the victim's effective attack
//! bandwidth over time, and filter occupancy at the two gateways.
//!
//! The runs live on the engine like every other experiment: [`spec`]
//! registers a `figures` sweep whose records carry the per-bin series as
//! `_series_*` JSON fields (`Value::F64List`), so
//! `all_experiments --filter figures --json DIR` emits machine-readable
//! plot data in `BENCH_figures.json` — the one output path for series.

use aitf_core::{HostPolicy, RouterPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// The declarative timeline scenario: an 8×2 zombie star whose last spoke
/// host is a legitimate client, zombies joining staggered from `t = 2 s`.
/// With `defended = false` every router is a legacy (non-AITF) router and
/// the collapse is permanent.
pub fn scenario(defended: bool) -> Scenario {
    let mut topo = TopologySpec::star(8, 2, HostPolicy::Malicious, 10_000_000);
    if !defended {
        topo.set_all_net_policies(RouterPolicy::legacy());
    }
    // The last zombie slot becomes the legitimate client.
    let last = topo.hosts.len() - 1;
    topo.hosts[last].policy = HostPolicy::Compliant;
    topo.hosts[last].role = Role::Legit;

    let bin = SimDuration::from_millis(250);
    Scenario::new(topo)
        .duration(SimDuration::from_secs(12))
        .traffic(TrafficSpec::legit(
            HostSel::Role(Role::Legit),
            TargetSel::Victim,
            800,
            1000,
        ))
        .traffic(
            TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 400, 500)
                .starting_after(SimDuration::from_secs(2))
                .staggered(SimDuration::from_millis(30)),
        )
        .probes(
            ProbeSet::new()
                .bin(bin)
                .summarize(|s, m| {
                    // Empty-window means are `None`; -1 is the repo's "no
                    // data" metric sentinel (cf. time_to_block).
                    let mean = |name, from, to| s.window_mean(name, from, to).unwrap_or(-1.0);
                    m.set(
                        "goodput_before_mbps",
                        mean("_series_goodput_mbps", 0.5, 2.0),
                    );
                    m.set(
                        "goodput_during_mbps",
                        mean("_series_goodput_mbps", 2.3, 3.0),
                    );
                    m.set(
                        "goodput_after_mbps",
                        mean("_series_goodput_mbps", 6.0, 12.0),
                    );
                    m.set(
                        "attack_bw_after_mbps",
                        mean("_series_attack_bw_mbps", 6.0, 12.0),
                    );
                })
                .sampled_victim_mbps("_series_goodput_mbps", true, |w| {
                    w.world.host(w.victim()).counters().rx_legit_bytes
                })
                .sampled_victim_mbps("_series_attack_bw_mbps", true, |w| {
                    w.world.host(w.victim()).counters().rx_attack_bytes
                })
                .sampled_filter_occupancy("_series_victim_gw_filters", "victim_net", true),
        )
}

/// The engine spec for the timeline pair: one defended run, one
/// undefended, sharing a seed (`_seed_group`) so the only difference
/// between the rows is AITF itself. Summary means make the table; the
/// full per-bin series travel as `_series_*` JSON arrays.
pub fn spec(_quick: bool) -> ScenarioSpec {
    ScenarioSpec::new(
        "figures",
        "figure series: flood collapse and AITF recovery",
        "§II-D / Fig. 1",
    )
    .expectation(
        "goodput collapses at t=2s in both runs; with AITF it recovers \
         within ~1 s while the undefended run stays on the floor; attack \
         bandwidth under AITF returns to ~0. Full per-bin series ride in \
         the _series_* JSON fields.",
    )
    .points([true, false].into_iter().map(|defended| {
        Params::new()
            .with("defended", defended)
            .with("_seed_group", 0u64)
    }))
    .runner(run_scenario(|params| scenario(params.bool("defended"))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aitf_timeline_shows_dip_and_recovery() {
        let o = scenario(true).run(3);
        let before = o.metrics.f64("goodput_before_mbps");
        let during = o.metrics.f64("goodput_during_mbps");
        let after = o.metrics.f64("goodput_after_mbps");
        assert!(before > 5.0, "healthy goodput before the attack: {before}");
        // AITF responds within ~Td per zombie, so the dip is brief and
        // partial — but it must be visible.
        assert!(during < before * 0.97, "dip visible: {before} -> {during}");
        assert!(
            after > before * 0.9,
            "recovery under AITF: before {before}, after {after}"
        );
    }

    #[test]
    fn undefended_timeline_never_recovers() {
        let defended = scenario(true).run(3);
        let o = scenario(false).run(3);
        let before = o.metrics.f64("goodput_before_mbps");
        let after = o.metrics.f64("goodput_after_mbps");
        // Persistent loss (drop-tail is not proportionally fair, so the
        // collapse is partial; what matters is that it never recovers).
        assert!(
            after < before * 0.85,
            "no defense, no recovery: before {before}, after {after}"
        );
        // The flood keeps occupying the circuit forever...
        let attack_after = o.metrics.f64("attack_bw_after_mbps");
        assert!(
            attack_after > 3.0,
            "flood occupies the circuit: {attack_after}"
        );
        // ...while AITF returns it to (almost) zero.
        let attack_defended = defended.metrics.f64("attack_bw_after_mbps");
        assert!(
            attack_defended < attack_after * 0.05,
            "AITF must clear the circuit: {attack_defended} vs {attack_after}"
        );
        // And the defended goodput clearly beats the undefended one.
        let after_defended = defended.metrics.f64("goodput_after_mbps");
        assert!(
            after_defended > after + 1.0,
            "defended {after_defended} vs undefended {after}"
        );
    }
}
