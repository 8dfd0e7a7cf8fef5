//! The footprint of an element nothing ever happened to: its wiring only,
//! and for a router or host not even an object — the world's maker builds
//! it on its first event. What elements write — counters, link queues,
//! filter and shadow storage, a router's control plane, a host's victim
//! agent, counters and self-filters — is made by the first event that
//! needs it, and what
//! routers read is the declared provider tree, stored once per world, so
//! the per-element sizes and the bytes a large world asks the allocator
//! for are what the paper's resource argument (Section IV) says they
//! should be: independent of the protocol's tables.

use aitf::core::{
    AitfConfig, BorderRouter, DefensePolicy, EndHost, HostPolicy, NetId, PolicyChains,
    RequestOutcome, Verdict, WorldBuilder,
};
use aitf::netsim::Link;
use aitf::packet::alloc_probe::CountingAlloc;
use aitf::packet::{FlowLabel, Packet, PrefixMap};
use aitf::scenario::{PowerLawSpec, TopologySpec};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// Exact sizes when these bounds were set: 64 / 72 / 88 bytes (592 /
// 1,376 / 912 with every table and queue laid out inline, a router 600
// with its counters and two empty tables inline, 192 while every router
// held its own copy of the deployment view, 144 while it kept spans of
// the world's forwarding and client arrays, 136 while it held a copy of
// its defense's stage chains and its uplink as an `Option<LinkId>`, and a
// host 296 with its counters and self-filter table inline).
const _: () = {
    assert!(std::mem::size_of::<Link>() <= 64);
    assert!(std::mem::size_of::<BorderRouter>() <= 72);
    assert!(std::mem::size_of::<EndHost>() <= 96);
};

// What a hop moves: a packet is written into the event queue's pool once
// and read out once (144 B, 72 of them the payload enum; 160 and 88 while
// a flow label held prefixes, protocol and ports), and while it waits in a
// link's ring the ring holds a handle and a size (8 B). The heap entry's
// own pin (56 B) sits beside its definition in `netsim/src/event.rs`.
const _: () = {
    assert!(std::mem::size_of::<Packet>() <= 144);
    assert!(Link::QUEUE_ENTRY_BYTES <= 8);
};

// What a stage hands the chain runner per packet it stops: a tag and a
// drop reason or request outcome, returned by value (2 B).
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Verdict>();
    copy::<RequestOutcome>();
    assert!(std::mem::size_of::<Verdict>() <= 2);
};

// A flow label is a host pair (8 B; 28 with prefix, protocol and port
// patterns): every control message, filter slot and shadow slot holds one.
const _: () = assert!(std::mem::size_of::<FlowLabel>() <= 8);

/// The world the power-law pins build: 10,000 power-law networks and one
/// host.
fn power_law_spec() -> TopologySpec {
    TopologySpec::power_law(&PowerLawSpec {
        n_nets: 10_000,
        ..PowerLawSpec::default()
    })
}

#[test]
fn a_power_law_world_is_built_within_its_per_network_byte_budget() {
    let spec = power_law_spec();
    let (built, bytes) = CountingAlloc::count_bytes(|| spec.build(7, AitfConfig::default()));
    let nets = built.world.net_count();
    assert_eq!(nets, spec.nets.len());
    let per_net = bytes / nets as u64;
    // Every byte requested while building, transient ones included:
    // 321 B per network when the bound was set, since no router is built
    // until an event reaches it (382 B while every network's 80-byte
    // router box was made up front, since the build reads the spec's own
    // records in place; 689 B while `WorldBuilder` replayed
    // them into copies of its own beside a handle map, since a router
    // holds no copy of its stage chains, the provider tree and node ids
    // are 4-byte words or no array at all, and overlaps are found by the
    // address map; 876 B while the prefixes were also sorted into a
    // checking list and the tree held 16-byte `Option`s, 884 B while the
    // address map was the sorted prefixes beside their network numbers,
    // 883 since routers route from the provider tree; 1,219 B with every
    // forwarding table, cone and ancestor chain in per-world arrays,
    // 1,869 B with a forwarding table, ingress sets and counters per
    // router, 2,125 B with one `Vec` per node, provider and name copy, and
    // 3,435 B with tables, control plane and link queues laid out up
    // front).
    assert!(
        per_net <= 385,
        "building a {nets}-net world requested {per_net} B per network"
    );
}

#[test]
fn a_power_law_world_is_built_in_seven_allocations_per_thousand_networks() {
    let spec = power_law_spec();
    let (built, allocs) = CountingAlloc::count(|| spec.build(7, AitfConfig::default()));
    let nets = built.world.net_count() as u64;
    // 0.0055 per network when the bound was set: all of it per world, a
    // fixed number of arrays, the address map and provider tree the
    // routers read among them, since no router is built until an event
    // reaches it (1.008 per network while every router was boxed up
    // front, also since the address map is a direct index, two
    // allocations as its two sorted arrays were; 1.01 while routers read
    // per-world forwarding, ingress and ancestor arrays, 2.01 while every
    // network carried a formatted name, 4.52 when each router had its own
    // table, link map, ingress sets and chain).
    assert!(
        1000 * allocs <= 7 * nets,
        "building a {nets}-net world made {allocs} allocations"
    );
}

#[test]
fn a_power_law_worlds_address_map_costs_a_kib_per_split_slash16() {
    let spec = power_law_spec();
    let routes = spec.nets.iter().map(|n| n.prefix).zip(0..);
    let count = || CountingAlloc::count_bytes(|| PrefixMap::new(routes.clone()));
    let ((_, bytes), allocs) = CountingAlloc::count(count);
    // 41,120 B in 2 allocations when the bound was set: the 10,000 /24s
    // split 40 /16s, a 1 KiB block each, under a root of 40 entries (the
    // sorted prefixes and their network numbers it replaced took 120 KB).
    assert!(
        bytes <= 44 * 1024 && allocs <= 3,
        "the address map took {bytes} B in {allocs} allocations"
    );
}

#[test]
fn a_power_law_spec_is_generated_in_a_fixed_number_of_allocations() {
    let (spec, allocs) = CountingAlloc::count(power_law_spec);
    // 13 when the bound was set, for 10,002 networks: the generated ones
    // are anonymous and typed, so none of them allocates (39,071 while each
    // carried a formatted name and a prefix string).
    assert_eq!(spec.nets.len(), 10_002);
    assert!(
        allocs <= 128,
        "generating the spec made {allocs} allocations"
    );
}

/// The world the per-host pins build: a two-level tree of 100 leaf
/// networks with 100 hosts each, and the victim.
fn tree_spec() -> TopologySpec {
    TopologySpec::tree(2, 10, 100, HostPolicy::Malicious, 10_000_000)
}

#[test]
fn a_tree_world_is_built_within_its_per_host_budget() {
    let spec = tree_spec();
    let build = || CountingAlloc::count_bytes(|| spec.build(7, AitfConfig::default()));
    let ((built, bytes), allocs) = CountingAlloc::count(build);
    let hosts = built.world.host_count() as u64;
    assert_eq!(hosts, 10_001);
    // Every byte and allocation requested while building, transient ones
    // included: 284 B and 0.018 allocations per host when the bounds were
    // set, since no host or router is built until an event reaches it
    // (527 B and 1.03 while every host's wiring was boxed up front; 805 B
    // and 1.12 while every host held its counters and self-filter table
    // inline and next hops came from a heap-based Dijkstra pass per
    // router).
    let per_host = bytes / hosts;
    assert!(
        per_host <= 327,
        "building a {hosts}-host tree requested {per_host} B per host"
    );
    assert!(
        1000 * allocs <= 21 * hosts,
        "building a {hosts}-host tree made {allocs} allocations"
    );
}

#[test]
fn every_router_runs_its_worlds_defense_chains_without_holding_them() {
    for policy in DefensePolicy::BAKEOFF {
        let cfg = AitfConfig {
            defense: policy,
            ..AitfConfig::default()
        };
        let mut b = WorldBuilder::new(7, cfg);
        let wan = b.network("wan", "10.100.0.0/16", None);
        let net = b.network("net", "10.1.0.0/16", Some(wan));
        b.host(net);
        let world = b.build();
        let Ok(chains) = PolicyChains::build(policy);
        for i in 0..world.net_count() {
            let router = world.router(NetId(i));
            assert_eq!(router.defense(), policy);
            assert_eq!(router.chains(), chains, "{policy:?} router {i}");
        }
    }
}
