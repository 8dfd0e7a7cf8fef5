//! A router or host no event reaches is never built: the world's maker
//! makes it, in its owning shard, on its first event. These tests hold the
//! views `World::router` / `World::host` hand out for such a node to what
//! the node itself would answer, and hold reading them to building nothing.

use aitf_core::{
    AitfConfig, HostId, HostPolicy, HostView, NetId, RouterPolicy, RouterView, Source, World,
    WorldBuilder,
};
use aitf_netsim::{LinkParams, SimDuration};
use aitf_packet::alloc_probe::CountingAlloc;
use aitf_packet::Addr;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every read a router view answers, in one comparable line.
fn router_reads(r: RouterView<'_>) -> String {
    let (filters, shadow, limiter) = (r.filters(), r.shadow(), r.limiter());
    format!(
        "{:?} {:?} {:?} | filters {} / {} {:?} | shadow {} / {} {:?} | limiter {} {} | {:?} {:?} {:?} {} {:?}",
        r.addr(),
        r.uplink(),
        r.counters(),
        filters.len(),
        filters.capacity(),
        filters.stats(),
        shadow.len(),
        shadow.capacity(),
        shadow.stats(),
        limiter.len(),
        limiter.is_empty(),
        r.defense(),
        r.chains(),
        r.pushback(),
        r.defense_footprint(),
        r.policy(),
    )
}

/// Every read a host view answers, in one comparable line.
fn host_reads(h: HostView<'_>) -> String {
    let self_filters = h.self_filters().map(|f| (f.len(), f.capacity(), f.stats()));
    format!(
        "{:?} {:?} {:?} tap {} apps {} attached {}",
        h.addr(),
        h.counters(),
        self_filters,
        h.rx_tap().is_some(),
        h.app_count(),
        h.is_attached(),
    )
}

/// A wan with a peered second top, and below it a plain, a legacy, a
/// non-cooperating and a compromised network, two hosts each (one of them
/// malicious); the host in `plain` floods the host in `compromised` from
/// 1 s on.
fn mixed_world() -> (World, HostId) {
    let mut b = WorldBuilder::new(5, AitfConfig::default());
    let wan = b.network("wan", "10.100.0.0/16", None);
    let far = b.network("far", "10.200.0.0/16", None);
    b.peer(wan, far, WorldBuilder::default_net_link());
    let link = WorldBuilder::default_net_link();
    let policies = [
        RouterPolicy::default(),
        RouterPolicy::legacy(),
        RouterPolicy::non_cooperating(),
        RouterPolicy::compromised(),
    ];
    let mut hosts = Vec::new();
    for (i, policy) in policies.into_iter().enumerate() {
        let prefix = format!("10.{}.0.0/16", i + 1).parse().expect("a prefix");
        let net = b.network_with(&format!("n{i}"), &prefix, Some(wan), policy, link);
        hosts.push(b.host(net));
        let tail = WorldBuilder::default_host_link();
        hosts.push(b.host_with(net, HostPolicy::Malicious, tail));
    }
    b.host(far);
    let mut world = b.build();
    let victim = world.host_addr(hosts[6]);
    let flood = Source::flood(victim, 200, 500).starting_after(SimDuration::from_secs(1));
    world.add_app(hosts[0], Box::new(flood));
    (world, hosts[6])
}

/// Every net's and every host's reads.
fn all_reads(w: &World) -> (Vec<String>, Vec<String>) {
    let nets = (0..w.net_count()).map(|i| router_reads(w.router(NetId(i))));
    let hosts = (0..w.host_count()).map(|h| host_reads(w.host(HostId(h))));
    (nets.collect(), hosts.collect())
}

#[test]
fn a_never_reached_node_reads_what_a_maker_built_one_does() {
    // One world keeps every node it can vacant; its twin has the maker
    // build every router and host up front.
    let (mut lazy, victim) = mixed_world();
    let (mut eager, _) = mixed_world();
    for i in 0..eager.net_count() {
        eager.router_mut(NetId(i));
    }
    for h in 0..eager.host_count() {
        eager.host_mut(HostId(h));
    }
    let made = |w: &World| w.sim.nodes_held().iter().sum::<usize>();
    assert_eq!(
        made(&lazy),
        1,
        "only the flooding host, which add_app wrote to"
    );
    assert_eq!(made(&eager), eager.net_count() + eager.host_count());
    assert_eq!(all_reads(&lazy), all_reads(&eager), "before the run");

    // Through the flood and its filtering: what the flood reached is made
    // in both, the rest stays vacant in one and idle in the other.
    for w in [&mut lazy, &mut eager] {
        w.sim.run_for(SimDuration::from_secs(4));
    }
    assert!(lazy.host(victim).counters().rx_attack_pkts > 0);
    assert_eq!(lazy.sim.dispatched_events(), eager.sim.dispatched_events());
    assert_eq!(all_reads(&lazy), all_reads(&eager), "after the run");
    let held = made(&lazy);
    assert!(1 < held && held < made(&eager), "{held} nodes made");
}

/// A power-law provider graph of `n` anonymous /24 networks grown by
/// preferential attachment, with one host in every tenth network.
fn power_law_world(n: usize) -> World {
    let mut b = WorldBuilder::new(11, AitfConfig::default());
    b.routing(aitf_core::RoutingMode::Hierarchical);
    let link = LinkParams::ethernet(1_000_000_000, SimDuration::from_millis(5));
    let mut ends = vec![0usize];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for i in 0..n {
        let prefix = aitf_packet::Prefix::new(Addr((10 << 24) | ((i as u32) << 8)), 24);
        let parent = (i > 0).then(|| NetId(ends[draw(ends.len())]));
        let net = b.network_with("", &prefix, parent, RouterPolicy::default(), link);
        if let Some(p) = parent {
            ends.extend([p.0, i]);
        }
        if i % 10 == 0 {
            b.host(net);
        }
    }
    b.build()
}

#[test]
fn reading_every_node_of_a_power_law_world_builds_and_allocates_nothing() {
    let world = power_law_world(10_000);
    assert_eq!(world.sim.nodes_held(), [0], "a built world holds no node");
    let (footprint, allocs) = CountingAlloc::count(|| {
        let mut sum = 0u64;
        for i in 0..world.net_count() {
            let r = world.router(NetId(i));
            let c = r.counters();
            sum += c.data_forwarded + c.requests_received;
            sum += (r.filters().len() + r.filters().capacity() + r.shadow().len()) as u64;
            sum += (r.limiter().len() + r.defense_footprint()) as u64;
            sum += u64::from(r.policy().aitf_enabled) + u64::from(r.addr().0);
            sum += r.uplink().map_or(0, |l| l.0 as u64) + r.pushback().pushback_received;
            sum += r.chains().ingress.len() as u64;
        }
        for h in 0..world.host_count() {
            let v = world.host(HostId(h));
            sum += v.counters().tx_pkts + u64::from(v.addr().0) + v.app_count() as u64;
            sum += u64::from(v.is_attached()) + u64::from(v.rx_tap().is_some());
            sum += v.self_filters().map_or(0, |f| f.len() as u64);
        }
        sum
    });
    assert!(footprint > 0);
    assert_eq!(allocs, 0, "reading every node allocated");
    assert_eq!(world.sim.nodes_held(), [0], "reading made a node");
}

/// A hub above four leaf networks of two hosts each: the first leaf's
/// first host floods the last leaf's first host from 1 s on.
fn leaves_world(shards: usize) -> (World, NetId, HostId) {
    let mut b = WorldBuilder::new(3, AitfConfig::default());
    let hub = b.network("hub", "10.100.0.0/16", None);
    let mut leaves = Vec::new();
    let mut hosts = Vec::new();
    for i in 0..4 {
        let leaf = b.network(
            &format!("leaf{i}"),
            &format!("10.{}.0.0/16", i + 1),
            Some(hub),
        );
        leaves.push(leaf);
        hosts.extend([b.host(leaf), b.host(leaf)]);
    }
    let mut world = b.build();
    let victim = hosts[6];
    let flood = Source::flood(world.host_addr(victim), 100, 500);
    let flood = flood.starting_after(SimDuration::from_secs(1));
    world.add_app(hosts[0], Box::new(flood));
    if shards > 1 {
        let spec = world.shard_hints();
        let part = world.sim.apply_shards(shards, &spec).expect("partition");
        assert_eq!(part.shards, shards);
    }
    (world, leaves[3], victim)
}

/// Per shard, the nodes it owns that are made, as read through the owning
/// shard.
fn made_by_owner(w: &World) -> Vec<usize> {
    let mut made = vec![0; w.sim.shard_count()];
    let routers = (0..w.net_count()).map(|i| {
        let node = w.router_node(NetId(i));
        (
            node,
            w.sim.node_ref::<aitf_core::BorderRouter>(node).is_some(),
        )
    });
    let hosts = (0..w.host_count()).map(|h| {
        let node = w.host_node(HostId(h));
        (node, w.sim.node_ref::<aitf_core::EndHost>(node).is_some())
    });
    for (node, is_made) in routers.chain(hosts) {
        made[w.sim.shard_of(node)] += usize::from(is_made);
    }
    made
}

#[test]
fn a_router_first_reached_mid_run_is_made_in_its_owning_shard() {
    let (mut single, _, victim) = leaves_world(1);
    single.sim.run_for(SimDuration::from_secs(3));
    let expected = (
        single.sim.dispatched_events(),
        single.host(victim).counters().rx_attack_pkts,
    );
    assert!(expected.1 > 0, "the flood must arrive");
    for shards in [2, 4] {
        let (mut w, leaf, victim) = leaves_world(shards);
        let gw = w.router_node(leaf);
        w.sim.run_for(SimDuration::from_millis(500));
        assert!(w.sim.node_ref::<aitf_core::BorderRouter>(gw).is_none());
        assert_eq!(w.sim.nodes_held(), made_by_owner(&w), "{shards} shards");
        assert_eq!(w.sim.nodes_held().iter().sum::<usize>(), 1, "the sender");
        w.sim.run_for(SimDuration::from_millis(2_500));
        // Made by the flood's first packet, in the shard that owns it: the
        // owning shard's slice holds it, and no other shard holds a node
        // it does not own.
        assert!(w.sim.node_ref::<aitf_core::BorderRouter>(gw).is_some());
        assert_eq!(w.sim.nodes_held(), made_by_owner(&w), "{shards} shards");
        let got = (
            w.sim.dispatched_events(),
            w.host(victim).counters().rx_attack_pkts,
        );
        assert_eq!(got, expected, "{shards} shards");
    }
}
