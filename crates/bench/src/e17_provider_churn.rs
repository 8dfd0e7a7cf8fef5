//! E17 — network churn: providers joining/leaving AITF mid-attack.
//!
//! E15 churned the *hosts*; E17 churns the *networks*. Over the two-level
//! provider tree, all 18 zombies flood from `t = 0` and are blocked at
//! their own leaf providers in round 1. Then the deployment itself starts
//! moving: at each wave boundary one subtree's leaf providers drop out of
//! AITF ([`ChurnAction::SetRouterPolicy`] → legacy), which instantly
//! reopens their zombies' flows — the leaves' wire-speed filters go
//! dormant with the protocol. The victim gateway's shadow catches each
//! reappearing flow, and because the policy flip is recorded in the
//! deployment view every router reads, the round-2 re-escalation routes
//! *around* the now-legacy leaf to the nearest participating node — the
//! mid-tree provider — which re-blocks the flow. At the next boundary the
//! dropped-out providers rejoin (their dormant filters resume matching)
//! while a different subtree drops out.
//!
//! Expectation: the victim's attack bandwidth spikes at every wave
//! boundary and collapses again within the wave (`wN_settled_mbps <<
//! wN_spike_mbps`), with a re-escalation latency (`wN_reblock_s`) of a
//! few control-plane round trips; re-escalations are never wasted on the
//! dropped-out providers themselves (`escalations_dropped = 0`, and the
//! round-2 filters land on the mid-tree providers).

use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    ChurnAction, HostSel, NetSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec,
    TrafficSpec,
};

use crate::harness::run_scenario;

/// Tree shape (E12/E15/E16's): 2 levels, 3-way branching, 2 hosts per
/// leaf → 9 leaf networks under 3 mid-tree providers.
const LEVELS: usize = 2;
const BRANCHING: usize = 3;
const HOSTS_PER_LEAF: usize = 2;

/// Waves: the initial full-deployment block-down, then one provider
/// subtree dropping out per boundary.
pub const WAVES: usize = 3;

/// Per-host flood rate (packets/second) and packet size.
const FLOOD_PPS: u64 = 200;
const FLOOD_SIZE: u32 = 500;

/// The attack bandwidth (Mbit/s) under which a wave counts as re-blocked.
const RECOVERED_MBPS: f64 = 0.5;

/// The leaf networks of mid-tree provider `subtree` (0-based).
fn subtree_leaves(subtree: usize) -> NetSel {
    NetSel::Names(
        (0..BRANCHING)
            .map(|i| format!("zombie_net_{}", subtree * BRANCHING + i))
            .collect(),
    )
}

/// The declarative E17 scenario: one provider subtree leaves AITF at each
/// wave boundary while the previous one rejoins.
pub fn scenario(wave: SimDuration) -> Scenario {
    let cfg = AitfConfig {
        // As in E15/E16: keep the churn dynamics pure of disconnections.
        grace: SimDuration::from_secs(3600),
        // The conservative detection model (E2/E7's formula regime): no
        // shadow-assisted reactivation, no instant re-detection. With the
        // fast paths on, a reappearing flow is re-blocked within one
        // packet and the provider-churn spike is a single packet per
        // flow — measurable but invisible at any plotting resolution.
        // Conservatively, every wave costs a fresh `Td + Tr`, which is
        // exactly the per-wave price the experiment quantifies.
        fast_reblock: false,
        ..AitfConfig::default()
    };
    let mut s = Scenario::new(TopologySpec::tree(
        LEVELS,
        BRANCHING,
        HOSTS_PER_LEAF,
        HostPolicy::Malicious,
        10_000_000,
    ))
    .config(cfg)
    .duration(wave * WAVES as u64)
    .traffic(TrafficSpec::flood(
        HostSel::Role(Role::Attacker),
        TargetSel::Victim,
        FLOOD_PPS,
        FLOOD_SIZE,
    ));
    for k in 1..WAVES {
        let at = wave * k as u64;
        if k >= 2 {
            // The previously dropped-out subtree rejoins AITF; its
            // dormant wire-speed filters resume matching instantly.
            s = s.event(
                at,
                ChurnAction::SetRouterPolicy(subtree_leaves(k - 2), RouterPolicy::default()),
            );
        }
        s = s.event(
            at,
            ChurnAction::SetRouterPolicy(subtree_leaves(k - 1), RouterPolicy::legacy()),
        );
    }
    let wave_s = wave.as_secs_f64();
    s.probes(
        ProbeSet::new()
            .leak_ratio("leak_r")
            .filters_installed_on("leaf_blocks", Side::Attacker)
            .end(|w, m| {
                let mid_reblocks: u64 = (0..BRANCHING)
                    .map(|i| {
                        w.world
                            .router(w.net(&format!("ad_{i}")))
                            .counters()
                            .filters_installed
                    })
                    .sum();
                m.set("mid_reblocks", mid_reblocks);
                let mut ignored = 0u64;
                let mut dropped = 0u64;
                for i in 0..w.world.net_count() {
                    let c = w.world.router(aitf_core::NetId(i)).counters();
                    ignored += c.requests_ignored;
                    dropped += c.escalations_dropped;
                }
                m.set("requests_ignored", ignored);
                m.set("escalations_dropped", dropped);
            })
            .bin(SimDuration::from_millis(100))
            .sampled_victim_mbps("_series_attack_mbps", true, |w| {
                w.world.host(w.victim()).counters().rx_attack_bytes
            })
            .summarize(move |store, m| {
                // Per wave: the spike (peak bin over the wave's first
                // 40%) vs the settled mean (last 40%), plus the re-block
                // latency — time from the wave boundary until the spike
                // falls back under RECOVERED_MBPS (−1 when it never
                // does, or never spiked).
                for (k, &(spike_name, settled_name, reblock_name)) in
                    WAVE_METRICS.iter().enumerate()
                {
                    let start = k as f64 * wave_s;
                    let end = start + wave_s;
                    let series = store.series("_series_attack_mbps");
                    let spike = store
                        .time_s
                        .iter()
                        .zip(series)
                        .filter(|&(&t, _)| t > start && t < start + 0.4 * wave_s)
                        .map(|(_, &v)| v)
                        .fold(0.0f64, f64::max);
                    m.set(spike_name, spike);
                    // An empty window → -1, the "no data" sentinel.
                    let settled = store.window_mean("_series_attack_mbps", end - 0.4 * wave_s, end);
                    m.set(settled_name, settled.unwrap_or(-1.0));
                    let mut spiked = false;
                    let mut reblock = -1.0;
                    for (&t, &v) in store.time_s.iter().zip(series) {
                        if t <= start || t > end {
                            continue;
                        }
                        if v > RECOVERED_MBPS {
                            spiked = true;
                        } else if spiked {
                            reblock = t - start;
                            break;
                        }
                    }
                    m.set(reblock_name, reblock);
                }
            }),
    )
}

/// Metric names per wave (static, because metric keys are `&'static`).
const WAVE_METRICS: [(&str, &str, &str); WAVES] = [
    ("w1_spike_mbps", "w1_settled_mbps", "w1_reblock_s"),
    ("w2_spike_mbps", "w2_settled_mbps", "w2_reblock_s"),
    ("w3_spike_mbps", "w3_settled_mbps", "w3_reblock_s"),
];

/// The E17 scenario spec: the provider-churn period swept.
pub fn spec(quick: bool) -> ScenarioSpec {
    let wave_ms: &[u64] = if quick { &[2000] } else { &[2000, 4000] };
    ScenarioSpec::new(
        "e17_provider_churn",
        "E17 (network churn): leak recovery as providers leave/rejoin AITF mid-attack",
        "§III under network churn",
    )
    .expectation(
        "attack bandwidth spikes when a provider subtree drops out of \
         AITF (its filters go dormant) and collapses again within the \
         wave: the deployment-view broadcast routes the round-2 \
         re-escalation around the legacy leaves to their mid-tree \
         provider (mid_reblocks > 0, escalations_dropped = 0), so \
         wN_settled_mbps << wN_spike_mbps and wN_reblock_s stays a few \
         control-plane round trips.",
    )
    .points(wave_ms.iter().map(|&w| {
        Params::new()
            .with("wave_ms", w)
            .with("waves", WAVES as u64)
            .with("leaves_per_wave", BRANCHING as u64)
    }))
    .runner(run_scenario(|p| {
        scenario(SimDuration::from_millis(p.u64("wave_ms")))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_provider_wave_recovers() {
        let o = scenario(SimDuration::from_secs(2)).run(61);
        for (spike_name, settled_name, reblock_name) in WAVE_METRICS {
            let spike = o.metrics.f64(spike_name);
            let settled = o.metrics.f64(settled_name);
            let reblock = o.metrics.f64(reblock_name);
            assert!(
                spike > 1.0,
                "each wave must actually hit the victim: {spike_name} = {spike} ({o:?})"
            );
            assert!(
                settled < spike * 0.5,
                "each wave must recover: {settled_name} = {settled} vs {spike_name} = {spike}"
            );
            assert!(
                (0.0..1.0).contains(&reblock),
                "re-escalation must land within a second: {reblock_name} = {reblock} ({o:?})"
            );
        }
    }

    #[test]
    fn reescalation_lands_on_the_mid_tree_providers() {
        let o = scenario(SimDuration::from_secs(2)).run(62);
        // Round 1 blocks all 18 flows at their leaves; each dropped-out
        // subtree's 6 flows re-block at its mid-tree provider.
        assert!(o.metrics.u64("leaf_blocks") >= 18, "{o:?}");
        assert!(o.metrics.u64("mid_reblocks") >= 12, "{o:?}");
        assert_eq!(o.metrics.u64("escalations_dropped"), 0, "{o:?}");
        assert!(o.metrics.f64("leak_r") < 0.25, "{o:?}");
    }
}
