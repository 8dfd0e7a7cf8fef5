//! The footprint of an element nothing ever happened to: wiring and
//! counters only. Protocol state — link queues, filter and shadow storage,
//! a router's control plane, a host's victim agent — is made by the first
//! event that needs it, so the per-element sizes and the bytes a large
//! world asks the allocator for are what the paper's resource argument
//! (Section IV) says they should be: independent of the protocol's tables.

use aitf::core::{AitfConfig, BorderRouter, EndHost};
use aitf::netsim::Link;
use aitf::packet::alloc_probe::CountingAlloc;
use aitf::scenario::{PowerLawSpec, TopologySpec};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// Exact sizes when these bounds were set: 64 / 600 / 296 bytes (592 /
// 1,376 / 912 with every table and queue laid out inline).
const _: () = {
    assert!(std::mem::size_of::<Link>() <= 64);
    assert!(std::mem::size_of::<BorderRouter>() <= 640);
    assert!(std::mem::size_of::<EndHost>() <= 320);
};

#[test]
fn a_power_law_world_is_built_within_its_per_network_byte_budget() {
    let nets = 10_000;
    let spec = TopologySpec::power_law(&PowerLawSpec {
        n_nets: nets,
        ..PowerLawSpec::default()
    });
    let (built, bytes) = CountingAlloc::count_bytes(|| spec.build(7, AitfConfig::default()));
    assert_eq!(built.world.net_count(), nets + 2);
    let per_net = bytes / built.world.net_count() as u64;
    // Every byte requested while building, transient ones included:
    // 2,125 B per network when the bound was set (measured + 10 %), against
    // 3,435 B with tables, control plane and link queues laid out up front.
    assert!(
        per_net <= 2_340,
        "building a {nets}-net world requested {per_net} B per network"
    );
}
