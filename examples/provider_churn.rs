//! Partial deployment and provider churn in a few declarative lines.
//!
//! A two-level provider tree starts at *partial* AITF deployment — the
//! leaf providers of one subtree are declared legacy
//! ([`TopologySpec::set_net_policy`]) — and then the deployment itself
//! churns mid-attack: at `t = 3 s` a second subtree's leaves drop out of
//! AITF ([`ChurnAction::SetRouterPolicy`], which compiles onto
//! `World::set_router_policy`), instantly re-opening their
//! zombies' already-blocked flows, and at `t = 6 s` they rejoin (their
//! dormant wire-speed filters resume matching on the spot).
//!
//! Because every policy flip is recorded in the deployment view all
//! routers read, escalation never knocks on a legacy door: flows
//! from never-deployed leaves are blocked at their mid-tree provider in
//! round 1 (the leaf simply is not on the route record), and flows
//! re-opened by the mid-attack dropout are *re*-escalated around the
//! dropped-out leaf to the same mid-tree provider. The E16/E17
//! experiments sweep exactly these two axes.
//!
//! Run with `cargo run --release --example provider_churn`.

use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    ChurnAction, HostSel, NetSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec,
};

fn main() {
    let flip = SimDuration::from_secs(3);
    let rejoin = SimDuration::from_secs(6);
    // ad_1's leaves (zombie_net_3..5) drop out at t = 3 s and rejoin at 6 s.
    let churners = NetSel::Names(vec![
        "zombie_net_3".into(),
        "zombie_net_4".into(),
        "zombie_net_5".into(),
    ]);

    let mut tree = TopologySpec::tree(2, 3, 2, HostPolicy::Malicious, 10_000_000);
    // ad_2's leaves never deployed AITF in the first place.
    for leaf in ["zombie_net_6", "zombie_net_7", "zombie_net_8"] {
        tree.set_net_policy(leaf, RouterPolicy::legacy());
    }

    let outcome = Scenario::new(tree)
        .config(AitfConfig {
            grace: SimDuration::from_secs(3600),
            // The conservative detection model (see E17): with the shadow
            // fast paths on, a re-opened flow is re-blocked within a single
            // packet and the t=3s spike would be invisible on any plot.
            fast_reblock: false,
            ..AitfConfig::default()
        })
        .duration(SimDuration::from_secs(9))
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            300,
            500,
        ))
        .event(
            flip,
            ChurnAction::SetRouterPolicy(churners.clone(), RouterPolicy::legacy()),
        )
        .event(
            rejoin,
            ChurnAction::SetRouterPolicy(churners, RouterPolicy::default()),
        )
        .probes(
            ProbeSet::new()
                .leak_ratio("leak_r")
                .end(|w, m| {
                    let at = |name: &str| w.world.router(w.net(name)).counters().filters_installed;
                    m.set(
                        "leaf_filters_ad0",
                        (0..3).map(|i| at(&format!("zombie_net_{i}"))).sum::<u64>(),
                    );
                    m.set("mid_filters_ad1", at("ad_1"));
                    m.set("mid_filters_ad2", at("ad_2"));
                    let mut ignored = 0u64;
                    for i in 0..w.world.net_count() {
                        ignored += w
                            .world
                            .router(aitf_core::NetId(i))
                            .counters()
                            .requests_ignored;
                    }
                    // Only §II-D accountability notices land on legacy nets
                    // (telling a dropped-out client to stop); escalations and
                    // round-k requests never do.
                    m.set("notices_ignored_by_legacy", ignored);
                })
                .bin(SimDuration::from_millis(250))
                .sampled_victim_mbps("_series_attack_mbps", true, |w| {
                    w.world.host(w.victim()).counters().rx_attack_bytes
                }),
        )
        .run(42);

    println!("=== provider churn: one subtree never deployed, one flips out and back ===\n");
    for (name, value) in outcome.metrics.entries() {
        if !name.starts_with("_series") {
            println!("  {name:>26}  {value}");
        }
    }
    let t = outcome.metrics.f64_list("_series_time_s");
    let mbps = outcome.metrics.f64_list("_series_attack_mbps");
    println!("\n  attack bandwidth at the victim (Mbit/s):");
    for (t, v) in t.iter().zip(mbps) {
        println!(
            "    t={t:>5.2}s  {:<40} {v:.2}",
            "#".repeat((v * 3.0) as usize)
        );
    }
    println!(
        "\nThe never-deployed subtree is handled in round 1 by its mid-tree\n\
         provider (the legacy leaves are not on the route record). The flipped\n\
         subtree spikes at t=3s and is re-blocked one level up within a fraction\n\
         of a second — escalation skipped the dropped-out leaves because the\n\
         policy change was recorded in the deployment view every router reads."
    );
}
