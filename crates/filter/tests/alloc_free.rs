//! Allocation audit for reading the DRAM shadow: an entry logs its
//! request's attack path as a route record and a read builds the entry
//! from the index slot, so a reactivation hit and a repeat request's
//! lookup copy a realistic path inline.

use aitf_filter::ShadowCache;
use aitf_netsim::{SimDuration, SimTime};
use aitf_packet::alloc_probe::CountingAlloc;
use aitf_packet::{Addr, FlowLabel, Header, RouteRecord};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_reactivation_hit_and_a_lookup_of_a_five_hop_entry_are_allocation_free() {
    let (attacker, victim) = (Addr::new(10, 9, 0, 7), Addr::new(10, 1, 0, 1));
    let flow = FlowLabel::src_dst(attacker, victim);
    let path = RouteRecord::from_hops((0..5).map(|i| Addr::new(10, i, 0, 254)));
    let mut cache = ShadowCache::new(16);
    cache.insert_with_path(flow, 1, SimTime::ZERO, SimDuration::from_secs(60), 1, path);
    let header = Header::udp(attacker, victim, 1, 2);
    let (hit, check) = CountingAlloc::count(|| cache.check_reactivation(&header, SimTime(1)));
    let (entry, get) = CountingAlloc::count(|| cache.get(&flow));
    assert_eq!((check, get), (0, 0), "reading a shadow entry allocated");
    assert_eq!(hit.map(|e| (e.reactivations, e.path.len())), Some((1, 5)));
    assert_eq!(entry.map(|e| e.path.len()), Some(5));
}
