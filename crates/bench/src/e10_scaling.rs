//! E10 — Section III-C: AITF scales with Internet size.
//!
//! *"AITF pushes filtering of undesired traffic to the provider(s) of the
//! attacker(s). Thus, the amount of filtering requests a provider is asked
//! to satisfy grows proportionally to the number of the provider's
//! (misbehaving) clients"* — not with the size of the Internet.
//!
//! We grow a star of attacker networks (one zombie each) around a hub and
//! measure, per attacker-side provider, the requests it satisfies: the
//! per-provider load must stay flat at ~1 while the total number of
//! networks grows, and the hub (the "core") must hold **zero** filters —
//! unlike pushback, where the hub absorbs a filter per flow whenever the
//! edge chain stalls.

use aitf_core::{AitfConfig, DefensePolicy, HostPolicy, RoutingMode};
use aitf_engine::{Outcome, Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    HostSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec, TrafficSpec,
};

use crate::harness::checked;

fn config() -> AitfConfig {
    AitfConfig {
        t_long: SimDuration::from_secs(30),
        detection_delay: SimDuration::from_millis(10),
        grace: SimDuration::from_secs(3600),
        ..AitfConfig::default()
    }
}

/// The shared shape of both backends' runs: an `n_nets`-spoke star (one
/// zombie per network) with a staggered 100 pps flood army.
///
/// Historical scales (≤ 256 spokes) keep their exact shape: all-pairs
/// routing and a 20 ms stagger, bit-identical to every recorded run.
/// The internet-scale points switch to [`RoutingMode::Hierarchical`]
/// (all-pairs tables are O(n²); 4096-spoke tables would dominate the
/// build) and split a fixed 2 s ramp across the army so the last zombie
/// still starts well inside the 10 s horizon.
fn base_scenario(n_nets: usize, cfg: AitfConfig) -> Scenario {
    let mut topo = TopologySpec::star(n_nets, 1, HostPolicy::Malicious, 10_000_000);
    if n_nets > 256 {
        topo.routing = RoutingMode::Hierarchical;
    }
    let stagger = if n_nets <= 256 {
        SimDuration::from_millis(20)
    } else {
        SimDuration::from_micros(2_000_000 / n_nets as u64)
    };
    Scenario::new(topo)
        .config(cfg)
        .duration(SimDuration::from_secs(10))
        .traffic(
            TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 100, 300)
                .staggered(stagger),
        )
}

/// One scale point under AITF; metrics `filters_per_provider`,
/// `max_provider`, `hub_filters_aitf`, `victim_gw_peak`.
pub fn scenario(n_nets: usize) -> Scenario {
    base_scenario(n_nets, config()).probes(
        ProbeSet::new()
            .end(move |w, m| {
                let mut total = 0u64;
                let mut max = 0u64;
                for net in w.nets_on(Side::Attacker) {
                    let f = w.world.router(net).counters().filters_installed;
                    total += f;
                    max = max.max(f);
                }
                m.set("filters_per_provider", total as f64 / n_nets as f64);
                m.set("max_provider", max);
                m.set(
                    "hub_filters_aitf",
                    w.world.router(w.net("hub")).filters().stats().installs as usize,
                );
            })
            .peak_filters("victim_gw_peak", "victim_net"),
    )
}

/// Hub filter load under pushback at the same scale (for contrast);
/// returns `(hub_filters, simulator_events)`.
pub fn hub_filters_pushback(n_nets: usize, seed: u64, shards: usize) -> (u64, u64) {
    let cfg = AitfConfig {
        t_long: SimDuration::from_secs(30),
        detection_delay: SimDuration::from_millis(10),
        defense: DefensePolicy::Pushback,
        ..AitfConfig::default()
    };
    let scenario = base_scenario(n_nets, cfg)
        .shards(shards)
        .probes(ProbeSet::new().end(|w, m| {
            let hub = w.world.router(w.net("hub")).counters().filters_installed;
            m.set("hub_filters", hub);
        }));
    let outcome = checked(scenario).run(seed);
    (outcome.metrics.u64("hub_filters"), outcome.events)
}

/// The E10 scenario spec: attacker-network count swept upward. Full mode
/// runs past the historical 256-net ceiling to 4096 networks — the
/// checked [`aitf_scenario::PrefixAlloc`] and hierarchical routing make
/// armies at that scale routine to build.
pub fn spec(quick: bool) -> ScenarioSpec {
    let scales: &[u64] = if quick {
        &[8, 16]
    } else {
        &[8, 16, 32, 64, 128, 256, 1024, 4096]
    };
    ScenarioSpec::new(
        "e10_scaling",
        "E10 (§III-C): per-provider load stays flat as the world grows",
        "§III-C",
    )
    .expectation(
        "each attacker-side provider satisfies ~1 request (its own one \
         misbehaving client) no matter how many networks exist; the AITF \
         hub/core carries zero filters while the pushback hub's filter load \
         grows with the attack size — the §I 'filtering bottleneck'.",
    )
    .points(
        scales
            .iter()
            .map(|&n| Params::new().with("attacker_nets", n)),
    )
    .runner(|p, ctx| {
        let n = p.usize("attacker_nets");
        let o = checked(scenario(n).shards(ctx.shards)).run(ctx.seed);
        // The pushback contrast world's events stay out of the record, as
        // they always have: the telemetry tracks the AITF run.
        let (hub_pb, _pb_events) = hub_filters_pushback(n, ctx.seed, ctx.shards);
        let mut out = Outcome::new(
            Params::new()
                .with(
                    "filters_per_provider",
                    o.metrics.f64("filters_per_provider"),
                )
                .with("max_provider", o.metrics.u64("max_provider"))
                .with("hub_filters_aitf", o.metrics.u64("hub_filters_aitf"))
                .with("hub_filters_pushback", hub_pb)
                .with("victim_gw_peak", o.metrics.u64("victim_gw_peak")),
        )
        .with_events(o.events);
        // Keep the AITF run's trace payload too (pushback contrast stays
        // out, matching the event accounting above).
        out.trace = o.trace;
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_provider_load_is_flat() {
        let small = scenario(8).run(1);
        let large = scenario(24).shards(4).run(1);
        for o in [&small, &large] {
            assert!(
                (o.metrics.f64("filters_per_provider") - 1.0).abs() < 0.5,
                "{o:?}"
            );
            assert_eq!(o.metrics.u64("hub_filters_aitf"), 0, "{o:?}");
        }
    }

    #[test]
    fn pushback_hub_load_grows_with_attack_size() {
        let (small, _) = hub_filters_pushback(8, 2, 1);
        let (large, _) = hub_filters_pushback(24, 2, 2);
        assert!(large > small, "hub pushback filters: {small} -> {large}");
        assert!(large >= 20, "hub must carry ~one filter per flow: {large}");
    }

    #[test]
    fn full_mode_sweeps_past_256_nets_to_4096() {
        let full = spec(false);
        let scales: Vec<u64> = full.points.iter().map(|p| p.u64("attacker_nets")).collect();
        assert!(
            scales.contains(&1024) && scales.contains(&4096),
            "{scales:?}"
        );
        // Quick mode stays CI-sized.
        assert!(spec(true)
            .points
            .iter()
            .all(|p| p.u64("attacker_nets") <= 16));
    }

    #[test]
    fn star_world_at_4096_nets_builds_hierarchically() {
        // The full sweep's largest point, as a build-only regression test:
        // 4096 spoke networks + hub + victim net, prefixes drawn from the
        // checked PrefixAlloc, hierarchical routing from the O(n) provider
        // tree (an all-pairs next-hop matrix would be 16M entries).
        use aitf_core::AitfConfig;
        use aitf_scenario::TopologySpec;
        let mut topo = TopologySpec::star(4096, 1, HostPolicy::Malicious, 10_000_000);
        topo.routing = RoutingMode::Hierarchical;
        let b = topo.build(3, AitfConfig::default());
        assert_eq!(b.world.net_count(), 4098);
        assert_eq!(b.world.host_count(), 4097);
    }

    #[test]
    fn internet_scale_point_keeps_per_provider_load_flat() {
        // One shrunken internet-scale point through the real runner path
        // (hierarchical routing + ramp-split stagger): 300 spokes, the
        // smallest n past the historical shape's threshold.
        let o = scenario(300).shards(4).run(1);
        assert!(
            (o.metrics.f64("filters_per_provider") - 1.0).abs() < 0.5,
            "{o:?}"
        );
        assert_eq!(o.metrics.u64("hub_filters_aitf"), 0, "{o:?}");
    }
}
