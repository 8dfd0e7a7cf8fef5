//! Allocation audit for the victim's traceback cache: a cached attack path
//! is the packet's own route record, so once a host pair is known, a better
//! record replaces its path, and a filtering request reads it, by copying
//! at most [`INLINE_ROUTE_RECORD`] hops inline.

use aitf_packet::alloc_probe::CountingAlloc;
use aitf_packet::INLINE_ROUTE_RECORD;
use aitf_packet::{Addr, FlowLabel, Header, Packet, RouteRecord, TrafficClass};
use aitf_traceback::{RouteRecordTraceback, Traceback};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn attack_packet(hops: usize) -> Packet {
    let header = Header::udp(Addr::new(10, 9, 0, 7), Addr::new(10, 1, 0, 1), 1, 2);
    let mut p = Packet::data(0, header, TrafficClass::Attack, 100);
    p.route_record = RouteRecord::from_hops((0..hops).map(|i| Addr::new(10, i as u8, 0, 254)));
    p
}

#[test]
fn a_cached_pair_takes_a_longer_path_and_hands_it_out_without_allocating() {
    let mut tb = RouteRecordTraceback::new(16);
    tb.observe(&attack_packet(2));
    let longer = attack_packet(INLINE_ROUTE_RECORD);
    let ((), observe) = CountingAlloc::count(|| tb.observe(&longer));
    let flow = FlowLabel::src_dst(longer.header.src, longer.header.dst);
    let (path, query) = CountingAlloc::count(|| tb.attack_path(&flow));
    assert_eq!((observe, query), (0, 0), "a cached path went to the heap");
    assert_eq!(path, Some(longer.route_record));
}
