//! The footprint of an element nothing ever happened to: its wiring only.
//! What elements write — counters, link queues, filter and shadow storage,
//! a router's control plane, a host's victim agent, counters and
//! self-filters — is made by the first event that needs it, and what
//! routers read is the declared provider tree, stored once per world, so
//! the per-element sizes and the bytes a large world asks the allocator
//! for are what the paper's resource argument (Section IV) says they
//! should be: independent of the protocol's tables.

use aitf::core::{AitfConfig, BorderRouter, EndHost, HostPolicy};
use aitf::netsim::Link;
use aitf::packet::alloc_probe::CountingAlloc;
use aitf::packet::{FlowLabel, Packet, Prefix, PrefixMap};
use aitf::scenario::{PowerLawSpec, TopologySpec};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// Exact sizes when these bounds were set: 64 / 136 / 88 bytes (592 /
// 1,376 / 912 with every table and queue laid out inline, a router 600
// with its counters and two empty tables inline, 192 while every router
// held its own copy of the deployment view, 144 while it kept spans of
// the world's forwarding and client arrays, and a host 296 with its
// counters and self-filter table inline).
const _: () = {
    assert!(std::mem::size_of::<Link>() <= 64);
    assert!(std::mem::size_of::<BorderRouter>() <= 136);
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
    // 876 B per network since the address map is a direct index (884 B
    // while it was the sorted prefixes beside their network numbers, 883
    // when the bound was set, since routers route from the provider tree;
    // 1,219 B with every forwarding table, cone and ancestor chain in
    // per-world arrays, 1,869 B with a forwarding table, ingress sets and
    // counters per router, 2,125 B with one `Vec` per node, provider and
    // name copy, and 3,435 B with tables, control plane and link queues
    // laid out up front).
    assert!(
        per_net <= 1_060,
        "building a {nets}-net world requested {per_net} B per network"
    );
}

#[test]
fn a_power_law_world_is_built_in_one_and_a_quarter_allocations_per_network() {
    let spec = power_law_spec();
    let (built, allocs) = CountingAlloc::count(|| spec.build(7, AitfConfig::default()));
    let nets = built.world.net_count() as u64;
    // 1.008 per network, its router, when the bound was set and again
    // since the address map is a direct index (two allocations, as its two
    // sorted arrays were). What is per world is a fixed number of arrays,
    // the address map and provider tree the routers read among them (1.01
    // also while they read per-world forwarding, ingress and ancestor
    // arrays, 2.01 while every network carried a formatted name, 4.52 when
    // each router had its own table, link map, ingress sets and chain).
    assert!(
        4 * allocs <= 5 * nets,
        "building a {nets}-net world made {allocs} allocations"
    );
}

#[test]
fn a_power_law_worlds_address_map_costs_a_kib_per_split_slash16() {
    let spec = power_law_spec();
    let routes: Vec<(Prefix, u32)> = spec.nets.iter().map(|n| n.prefix).zip(0..).collect();
    let count = || CountingAlloc::count_bytes(|| PrefixMap::new(&routes));
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
    // included: 527 B and 1.03 allocations per host when the bounds were
    // set, one box of the host's wiring each (805 B and 1.12 while every
    // host held its counters and self-filter table inline and next hops
    // came from a heap-based Dijkstra pass per router).
    let per_host = bytes / hosts;
    assert!(
        per_host <= 605,
        "building a {hosts}-host tree requested {per_host} B per host"
    );
    assert!(
        100 * allocs <= 119 * hosts,
        "building a {hosts}-host tree made {allocs} allocations"
    );
}
