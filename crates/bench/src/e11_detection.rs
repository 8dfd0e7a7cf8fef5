//! E11 — detection ablation: oracle vs rate-threshold detection.
//!
//! The paper deliberately "starts from the point where the node has
//! identified the undesired flow(s)" (Section V) and carries detection
//! time as the free parameter `Td`. This experiment closes the loop with a
//! real detector: a per-source EWMA rate threshold at the victim. We
//! measure the *emergent* detection latency (the oracle's `Td` analogue),
//! confirm that a flood is caught and blocked end-to-end, and that a
//! legitimate client below the threshold is never flagged.

use aitf_core::{AitfConfig, DetectionMode};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// The declarative E11 scenario: a 4 Mbit/s flood plus a 0.4 Mbit/s
/// legitimate stream from a *different* host in the same attacker
/// network — per-source detection must separate the two.
pub fn scenario(mode: DetectionMode) -> Scenario {
    let cfg = AitfConfig {
        detection: mode,
        ..AitfConfig::default()
    };
    let mut topo = TopologySpec::new();
    let wan = topo.net("wan", "10.100.0.0/16", None);
    let g_net = topo.net("g_net", "10.1.0.0/16", Some(wan));
    let b_net = topo.net("b_net", "10.9.0.0/16", Some(wan));
    topo.host(g_net, Role::Victim);
    // A *compliant* flooder: the experiment measures detection, not
    // disconnection games.
    topo.host(b_net, Role::Attacker);
    topo.host(b_net, Role::Legit);
    Scenario::new(topo)
        .config(cfg)
        .duration(SimDuration::from_secs(10))
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            1000,
            500,
        ))
        .traffic(TrafficSpec::legit(
            HostSel::Role(Role::Legit),
            TargetSel::Victim,
            100,
            500,
        ))
        .probes(ProbeSet::new().end(|w, m| {
            let v = w.world.host(w.victim()).counters();
            m.set("leak_pkts", v.rx_attack_pkts);
            m.set("detections", v.detections);
            m.set(
                "blocked",
                w.world.router(w.net("b_net")).counters().filters_installed > 0,
            );
            m.set("legit_pkts_delivered", v.rx_legit_pkts);
        }))
}

/// The rate detector used by the sweep and tests: flood is 500 kB/s,
/// legit stream 50 kB/s — the threshold sits in between.
pub fn rate_detector() -> DetectionMode {
    DetectionMode::RateThreshold {
        bytes_per_sec: 150_000.0,
        window: SimDuration::from_millis(100),
    }
}

/// The E11 scenario spec: oracle vs EWMA rate-threshold detection.
pub fn spec(_quick: bool) -> ScenarioSpec {
    ScenarioSpec::new(
        "e11_detection",
        "E11 (ablation): oracle vs rate-threshold detection",
        "§V (detection boundary)",
    )
    .expectation(
        "the rate detector reaches the same block with a latency comparable \
         to the assumed Td, and never flags the below-threshold legitimate \
         stream (its packets keep flowing).",
    )
    .points([false, true].into_iter().map(|rate| {
        Params::new()
            .with(
                "mode",
                if rate {
                    "EWMA rate threshold"
                } else {
                    "oracle (Td = 100 ms)"
                },
            )
            .with("rate_detector", rate)
            // Shared seed group: the expectation compares the two
            // detectors on the same world.
            .with("_seed_group", 0u64)
    }))
    .runner(run_scenario(|p| {
        let mode = if p.bool("rate_detector") {
            rate_detector()
        } else {
            DetectionMode::Oracle
        };
        scenario(mode)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_detector_blocks_the_flood_end_to_end() {
        let o = scenario(rate_detector()).run(3);
        assert!(o.metrics.bool("blocked"), "{o:?}");
        assert!(o.metrics.u64("detections") >= 1, "{o:?}");
        // Emergent latency within ~5x the oracle's assumed window.
        assert!(o.metrics.u64("leak_pkts") < 1000, "{o:?}");
    }

    #[test]
    fn legit_stream_below_threshold_is_never_cut() {
        let o = scenario(rate_detector()).run(4);
        // ~100 pps * 10 s offered; nearly all must arrive.
        assert!(
            o.metrics.u64("legit_pkts_delivered") > 800,
            "false positive cut the legit flow: {o:?}"
        );
    }

    #[test]
    fn both_modes_agree_on_the_outcome() {
        let a = scenario(DetectionMode::Oracle).run(5);
        let b = scenario(rate_detector()).run(5);
        assert!(a.metrics.bool("blocked") && b.metrics.bool("blocked"));
    }
}
