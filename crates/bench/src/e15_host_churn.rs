//! E15 — host churn mid-attack: leak-ratio recovery across waves.
//!
//! The paper's sweeps hold the zombie army fixed for the whole run; a
//! real botnet churns — machines are cleaned up, fresh ones are
//! recruited, and each *new* host is a brand-new set of undesired flows
//! the victim must pay a fresh `Td + Tr` for. E15 is the first dynamic-
//! world experiment: over the two-level provider tree (E12's shape), the
//! 18 leaf zombies are split into three waves of six. Wave 1 floods from
//! `t = 0`; at each wave boundary the active wave retires
//! ([`ChurnAction::Detach`]) and the next one joins
//! ([`ChurnAction::Attach`] + [`ChurnAction::StartTraffic`]) — an army
//! whose *identity* rotates while its offered load stays constant.
//!
//! Expectation: the victim's attack bandwidth spikes at every wave
//! boundary (new flows, fresh detections) and collapses again within the
//! wave as AITF blocks each new flow at its own provider — leak-ratio
//! *recovery* after every churn event. Every one of the 18 zombies ends
//! the run blocked at its own leaf gateway, and per-provider load stays
//! proportional to that provider's own misbehaving clients (§III-C),
//! churn or no churn.

use aitf_core::{AitfConfig, HostPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    ChurnAction, HostSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec, TrafficSpec,
};

use crate::harness::run_scenario;

/// Tree shape (E12's): 2 levels, 3-way branching, 2 hosts per leaf →
/// 18 zombie hosts behind 9 leaf networks and 3 intermediate providers.
const LEVELS: usize = 2;
const BRANCHING: usize = 3;
const HOSTS_PER_LEAF: usize = 2;

/// Waves of churn; the host pool divides evenly across them.
pub const WAVES: usize = 3;

/// Hosts per wave.
pub const WAVE_HOSTS: usize = BRANCHING.pow(LEVELS as u32) * HOSTS_PER_LEAF / WAVES;

/// Per-host flood rate (packets/second) and packet size: each wave offers
/// 6 × 400 pps × 500 B = 9.6 Mbit/s against the victim's 10 Mbit/s tail.
const FLOOD_PPS: u64 = 400;
const FLOOD_SIZE: u32 = 500;

fn wave_sel(wave: usize) -> HostSel {
    HostSel::RoleSlice(Role::Attacker, wave * WAVE_HOSTS, WAVE_HOSTS)
}

fn wave_flood(wave: usize) -> TrafficSpec {
    TrafficSpec::flood(wave_sel(wave), TargetSel::Victim, FLOOD_PPS, FLOOD_SIZE)
}

/// The declarative E15 scenario: three equal waves over a `wave` period
/// each, rotating which third of the army is attached and flooding.
pub fn scenario(wave: SimDuration) -> Scenario {
    let cfg = AitfConfig {
        // As in E10/E13: disconnection would conflate "the flow stopped"
        // with "the churned host stopped"; keep the dynamics pure.
        grace: SimDuration::from_secs(3600),
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
    // Wave 1 is the declarative workload; waves 2 and 3 join at runtime.
    .traffic(wave_flood(0))
    .event(SimDuration::ZERO, ChurnAction::Detach(wave_sel(1)))
    .event(SimDuration::ZERO, ChurnAction::Detach(wave_sel(2)));
    for k in 1..WAVES {
        let at = wave * k as u64;
        s = s
            .event(at, ChurnAction::Detach(wave_sel(k - 1)))
            .event(at, ChurnAction::Attach(wave_sel(k)))
            .event(at, ChurnAction::StartTraffic(wave_flood(k)));
    }
    let wave_s = wave.as_secs_f64();
    s.probes(
        ProbeSet::new()
            .leak_ratio("leak_r")
            .filters_installed_on("blocked_flows", Side::Attacker)
            .bin(SimDuration::from_millis(100))
            .sampled_victim_mbps("_series_attack_mbps", true, |w| {
                w.world.host(w.victim()).counters().rx_attack_bytes
            })
            .summarize(move |store, m| {
                // Per wave: mean attack bandwidth over the onset (first
                // 40% of the wave, covering the churn spike) vs settled
                // (last 40%) windows — recovery means settled << onset.
                for (k, &(onset_name, settled_name)) in WAVE_METRICS.iter().enumerate() {
                    let start = k as f64 * wave_s;
                    let end = start + wave_s;
                    // An empty window → -1, the "no data" sentinel.
                    let mean = |from, to| {
                        (store.window_mean("_series_attack_mbps", from, to)).unwrap_or(-1.0)
                    };
                    m.set(onset_name, mean(start, start + 0.4 * wave_s));
                    m.set(settled_name, mean(end - 0.4 * wave_s, end));
                }
            }),
    )
}

/// Metric names per wave (static, because metric keys are `&'static`).
const WAVE_METRICS: [(&str, &str); WAVES] = [
    ("w1_onset_mbps", "w1_settled_mbps"),
    ("w2_onset_mbps", "w2_settled_mbps"),
    ("w3_onset_mbps", "w3_settled_mbps"),
];

/// The E15 scenario spec: the churn period swept.
pub fn spec(quick: bool) -> ScenarioSpec {
    let wave_ms: &[u64] = if quick { &[2000] } else { &[2000, 4000] };
    ScenarioSpec::new(
        "e15_host_churn",
        "E15 (dynamic worlds): leak recovery as attack hosts churn mid-attack",
        "§III-C under churn",
    )
    .expectation(
        "attack bandwidth at the victim spikes at each wave boundary (new \
         hosts = new flows = fresh Td) and collapses within the wave \
         (wN_settled_mbps << wN_onset_mbps for every wave); all 18 \
         churned zombies end the run blocked at their own providers.",
    )
    .points(wave_ms.iter().map(|&w| {
        Params::new()
            .with("wave_ms", w)
            .with("waves", WAVES as u64)
            .with("wave_hosts", WAVE_HOSTS as u64)
    }))
    .runner(run_scenario(|p| {
        scenario(SimDuration::from_millis(p.u64("wave_ms")))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_wave_recovers() {
        let o = scenario(SimDuration::from_secs(2)).run(51);
        for (onset_name, settled_name) in WAVE_METRICS {
            let onset = o.metrics.f64(onset_name);
            let settled = o.metrics.f64(settled_name);
            assert!(
                onset > 1.0,
                "each wave must actually hit the victim: {onset_name} = {onset} ({o:?})"
            );
            assert!(
                settled < onset * 0.5,
                "each wave must recover: {settled_name} = {settled} vs {onset_name} = {onset}"
            );
        }
    }

    #[test]
    fn all_churned_zombies_end_up_blocked() {
        let o = scenario(SimDuration::from_secs(2)).run(52);
        assert_eq!(
            o.metrics.u64("blocked_flows"),
            (WAVES * WAVE_HOSTS) as u64,
            "{o:?}"
        );
        assert!(o.metrics.f64("leak_r") < 0.25, "{o:?}");
    }
}
