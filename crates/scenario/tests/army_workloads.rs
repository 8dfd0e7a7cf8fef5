//! End-to-end workload behaviour on star topologies: flood armies congest
//! the victim's tail circuit, AITF rescues it, and staggered starts spread
//! the detections.

use aitf_core::HostPolicy;
use aitf_netsim::SimDuration;
use aitf_scenario::{
    HostSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec, TrafficSpec,
};

#[test]
fn army_floods_congest_then_aitf_rescues() {
    // 8 nets × 2 zombies × 500 pps × 500 B = 32 Mbit/s against a
    // 10 Mbit/s victim tail circuit.
    let scenario = Scenario::new(TopologySpec::star(8, 2, HostPolicy::Malicious, 10_000_000))
        .duration(SimDuration::from_secs(5))
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            500,
            500,
        ));
    let mut w = scenario.build(11);
    w.world.sim.run_for(SimDuration::from_secs(5));
    // Every zombie flow must have been detected and requested.
    let detections = w.world.host(w.victim()).counters().detections;
    assert!(
        detections >= 16,
        "all 16 zombie flows should be detected, got {detections}"
    );
    // The zombie gateways hold long filters (or disconnected clients).
    let mut filters = 0u64;
    let mut disconnects = 0u64;
    for net in w.nets_on(Side::Attacker) {
        let c = w.world.router(net).counters();
        filters += c.filters_installed;
        disconnects += c.disconnects_client;
    }
    assert!(
        filters >= 16,
        "attacker gateways must hold the filters: {filters}"
    );
    assert_eq!(disconnects, 16, "malicious zombies get disconnected");
    // The attack is dead: no new attack bytes arrive late in the run.
    let before = w.world.host(w.victim()).counters().rx_attack_bytes;
    w.world.sim.run_for(SimDuration::from_secs(2));
    let after = w.world.host(w.victim()).counters().rx_attack_bytes;
    assert_eq!(before, after, "flood must stay quenched");
}

#[test]
fn staggered_start_spreads_requests() {
    let scenario = Scenario::new(TopologySpec::star(4, 1, HostPolicy::Malicious, 10_000_000))
        .traffic(
            TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 200, 500)
                .staggered(SimDuration::from_millis(500)),
        );
    let mut w = scenario.build(12);
    // After 0.7 s only the first two zombies have fired.
    w.world.sim.run_for(SimDuration::from_millis(700));
    let d = w.world.host(w.victim()).counters().detections;
    assert!(d <= 2, "detections too early: {d}");
    w.world.sim.run_for(SimDuration::from_secs(3));
    assert_eq!(w.world.host(w.victim()).counters().detections, 4);
}

#[test]
fn probes_summarise_the_rescue() {
    // The same scenario through the declarative run path: standard probes
    // quantify what the imperative assertions above check by hand.
    let outcome = Scenario::new(TopologySpec::star(4, 2, HostPolicy::Malicious, 10_000_000))
        .duration(SimDuration::from_secs(5))
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            500,
            500,
        ))
        .probes(
            ProbeSet::new()
                .leak_ratio("leak_r")
                .filters_installed_on("blocked", Side::Attacker),
        )
        .run(11);
    assert!(outcome.metrics.f64("leak_r") < 0.25);
    assert!(outcome.metrics.u64("blocked") >= 8);
    assert!(outcome.events > 0);
}
