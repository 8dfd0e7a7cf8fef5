//! Cross-crate integration: the full stack (packet → netsim → filter →
//! traceback → core → attack) driven through the umbrella crate.

use aitf::attack::army::{arm_floods, ZombieArmySpec};
use aitf::attack::{FloodSource, LegitClient, OnOffSource};
use aitf::core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf::netsim::SimDuration;
use aitf::scenario::{chain_pair, fig1, star};

#[test]
fn cooperative_world_bounds_the_leak_by_detection_time() {
    // The victim may see attack traffic only during Td + Tr + handshake;
    // afterwards nothing.
    let cfg = AitfConfig::default();
    let td = cfg.detection_delay;
    let mut f = fig1(cfg, 1, HostPolicy::Compliant);
    let target = f.world.host_addr(f.victim);
    f.world
        .add_app(f.attacker, Box::new(FloodSource::new(target, 2000, 400)));
    f.world.sim.run_for(SimDuration::from_secs(8));
    let v = f.world.host(f.victim).counters();
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
    let mut s = star(cfg, 2, 4, 1, HostPolicy::Malicious, 50_000_000);
    let target = s.world.host_addr(s.victim);
    // One zombie becomes an honest client instead.
    let client = s.zombies.pop().expect("zombie");
    s.world.host_mut(client).set_policy(HostPolicy::Compliant);
    s.world
        .add_app(client, Box::new(LegitClient::new(target, 100, 500)));
    let spec = ZombieArmySpec {
        pps: 400,
        size: 500,
        stagger: SimDuration::ZERO,
    };
    arm_floods(&mut s.world, &s.zombies.clone(), target, &spec);
    s.world.sim.run_for(SimDuration::from_secs(10));
    let v = s.world.host(s.victim).counters();
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
        let mut c = chain_pair(
            AitfConfig::default(),
            depth as u64,
            depth,
            HostPolicy::Malicious,
        );
        let target = c.world.host_addr(c.victim);
        c.world
            .add_app(c.attacker, Box::new(FloodSource::new(target, 1000, 500)));
        c.world.sim.run_for(SimDuration::from_secs(8));
        let blocked = c.world.router(c.b_chain[0]).counters().filters_installed;
        assert_eq!(blocked, 1, "depth {depth}: attacker's gateway must block");
        let before = c.world.host(c.victim).counters().rx_attack_pkts;
        c.world.sim.run_for(SimDuration::from_secs(2));
        let after = c.world.host(c.victim).counters().rx_attack_pkts;
        assert_eq!(before, after, "depth {depth}: flood must stay quenched");
    }
}

#[test]
fn onoff_attacker_is_caught_even_with_rogue_gateway() {
    let cfg = AitfConfig {
        t_long: SimDuration::from_secs(20),
        ..AitfConfig::default()
    };
    let mut f = fig1(cfg, 5, HostPolicy::Malicious);
    f.world
        .router_mut(f.b_net)
        .set_policy(RouterPolicy::non_cooperating());
    let target = f.world.host_addr(f.victim);
    f.world.add_app(
        f.attacker,
        Box::new(OnOffSource::new(
            target,
            1000,
            400,
            SimDuration::from_millis(150),
            SimDuration::from_millis(1400),
        )),
    );
    f.world.sim.run_for(SimDuration::from_secs(20));
    let gw = f.world.router(f.g_net).counters();
    assert!(gw.reactivations > 0, "shadow must catch the on-off bursts");
    // The escalation found a cooperating gateway upstream of the rogue.
    assert!(
        f.world.router(f.b_isp).counters().filters_installed > 0,
        "B_isp must end up holding the long filter"
    );
}

#[test]
fn full_stack_determinism() {
    let run = |seed: u64| {
        let mut s = star(
            AitfConfig::default(),
            seed,
            6,
            2,
            HostPolicy::Malicious,
            10_000_000,
        );
        let target = s.world.host_addr(s.victim);
        let spec = ZombieArmySpec {
            pps: 300,
            size: 500,
            stagger: SimDuration::from_millis(100),
        };
        arm_floods(&mut s.world, &s.zombies.clone(), target, &spec);
        s.world.sim.run_for(SimDuration::from_secs(6));
        let v = s.world.host(s.victim).counters();
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
    let mut s = star(cfg, 9, 10, 8, HostPolicy::Malicious, 10_000_000);
    let target = s.world.host_addr(s.victim);
    let spec = ZombieArmySpec {
        pps: 100,
        size: 300,
        stagger: SimDuration::ZERO,
    };
    arm_floods(&mut s.world, &s.zombies.clone(), target, &spec);
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
