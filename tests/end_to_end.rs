//! Cross-crate integration: the full stack (packet → netsim → filter →
//! traceback → core → attack) driven through the umbrella crate.

use aitf::core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf::netsim::SimDuration;
use aitf::scenario::{HostSel, Role, TargetSel, TopologySpec, TrafficSpec};

/// A flood from every attacker-role host at the victim.
fn flood(pps: u64, size: u32) -> TrafficSpec {
    TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, pps, size)
}

#[test]
fn cooperative_world_bounds_the_leak_by_detection_time() {
    // The victim may see attack traffic only during Td + Tr + handshake;
    // afterwards nothing.
    let cfg = AitfConfig::default();
    let td = cfg.detection_delay;
    let mut f = TopologySpec::fig1(HostPolicy::Compliant).build(1, cfg);
    flood(2000, 400).install(&mut f);
    f.world.sim.run_for(SimDuration::from_secs(8));
    let v = f.world.host(f.victim()).counters();
    // Upper bound: 2000 pps * (Td + 100 ms of propagation slack).
    let bound = 2000.0 * (td.as_secs_f64() + 0.1);
    assert!(
        (v.rx_attack_pkts as f64) < bound,
        "leak {} exceeds detection-window bound {}",
        v.rx_attack_pkts,
        bound
    );
}

#[test]
fn legit_traffic_is_never_collateral_damage() {
    // An attack against the victim must not cut an unrelated legit flow to
    // the same victim.
    let cfg = AitfConfig::default();
    let mut topo = TopologySpec::star(4, 1, HostPolicy::Malicious, 50_000_000);
    // One zombie becomes an honest client instead.
    let last = topo.hosts.len() - 1;
    topo.hosts[last].policy = HostPolicy::Compliant;
    topo.hosts[last].role = Role::Legit;
    let mut s = topo.build(2, cfg);
    TrafficSpec::legit(HostSel::Role(Role::Legit), TargetSel::Victim, 100, 500).install(&mut s);
    flood(400, 500).install(&mut s);
    s.world.sim.run_for(SimDuration::from_secs(10));
    let v = s.world.host(s.victim()).counters();
    // ~1000 legit packets offered; virtually all must arrive once the
    // attack is quenched (allow the congested start).
    assert!(
        v.rx_legit_pkts > 800,
        "legit flow was harmed: {} packets",
        v.rx_legit_pkts
    );
}

#[test]
fn deep_chains_still_converge() {
    for depth in [2usize, 4, 6] {
        let mut c = TopologySpec::chain_pair(depth, HostPolicy::Malicious)
            .build(depth as u64, AitfConfig::default());
        flood(1000, 500).install(&mut c);
        c.world.sim.run_for(SimDuration::from_secs(8));
        // Level 1 is the leaf: `B_1` is the attacker's gateway.
        let blocked = c.world.router(c.net("B_1")).counters().filters_installed;
        assert_eq!(blocked, 1, "depth {depth}: attacker's gateway must block");
        let before = c.world.host(c.victim()).counters().rx_attack_pkts;
        c.world.sim.run_for(SimDuration::from_secs(2));
        let after = c.world.host(c.victim()).counters().rx_attack_pkts;
        assert_eq!(before, after, "depth {depth}: flood must stay quenched");
    }
}

#[test]
fn onoff_attacker_is_caught_even_with_rogue_gateway() {
    let cfg = AitfConfig {
        t_long: SimDuration::from_secs(20),
        ..AitfConfig::default()
    };
    let mut f = TopologySpec::fig1(HostPolicy::Malicious).build(5, cfg);
    let b_net = f.net("B_net");
    f.world
        .set_router_policy(b_net, RouterPolicy::non_cooperating());
    TrafficSpec::onoff(
        HostSel::Role(Role::Attacker),
        TargetSel::Victim,
        1000,
        400,
        SimDuration::from_millis(150),
        SimDuration::from_millis(1400),
    )
    .install(&mut f);
    f.world.sim.run_for(SimDuration::from_secs(20));
    let gw = f.world.router(f.net("G_net")).counters();
    assert!(gw.reactivations > 0, "shadow must catch the on-off bursts");
    // The escalation found a cooperating gateway upstream of the rogue.
    assert!(
        f.world.router(f.net("B_isp")).counters().filters_installed > 0,
        "B_isp must end up holding the long filter"
    );
}

#[test]
fn full_stack_determinism() {
    let run = |seed: u64| {
        let mut s = TopologySpec::star(6, 2, HostPolicy::Malicious, 10_000_000)
            .build(seed, AitfConfig::default());
        flood(300, 500)
            .staggered(SimDuration::from_millis(100))
            .install(&mut s);
        s.world.sim.run_for(SimDuration::from_secs(6));
        let v = s.world.host(s.victim()).counters();
        (
            v.rx_attack_pkts,
            v.rx_attack_bytes,
            v.rx_legit_pkts,
            v.requests_sent,
            s.world.sim.dispatched_events(),
        )
    };
    assert_eq!(run(424242), run(424242), "same seed must be bit-identical");
}

#[test]
fn filter_tables_never_exceed_capacity_anywhere() {
    // Slam a world with far more flows than any table can hold and verify
    // every router's occupancy bound held.
    let cfg = AitfConfig {
        filter_capacity: 32,
        t_long: SimDuration::from_secs(10),
        detection_delay: SimDuration::from_millis(5),
        ..AitfConfig::default()
    };
    let mut s = TopologySpec::star(10, 8, HostPolicy::Malicious, 10_000_000).build(9, cfg);
    flood(100, 300).install(&mut s);
    s.world.sim.run_for(SimDuration::from_secs(8));
    for i in 0..s.world.net_count() {
        let r = s.world.router(aitf::core::NetId(i));
        assert!(
            r.filters().stats().peak_occupancy <= 32,
            "router {i} exceeded its filter capacity: {}",
            r.filters().stats().peak_occupancy
        );
    }
}
