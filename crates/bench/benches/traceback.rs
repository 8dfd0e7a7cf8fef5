//! Microbenchmark: the route-record traceback provider.
//!
//! Observation happens per received packet at every victim; the path query
//! happens per filtering request. Both must stay out of the way of the data
//! path.

use aitf_packet::{Addr, FlowLabel, Header, Packet, RouteRecord, TrafficClass};
use aitf_traceback::{RouteRecordTraceback, Traceback};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn attack_packet() -> Packet {
    let mut p = Packet::data(
        1,
        Header::udp(Addr::new(10, 9, 0, 7), Addr::new(10, 1, 0, 1), 1, 2),
        TrafficClass::Attack,
        100,
    );
    p.route_record = RouteRecord::from_hops([
        Addr::new(10, 9, 0, 254),
        Addr::new(10, 8, 0, 254),
        Addr::new(10, 1, 0, 254),
    ]);
    p
}

fn bench_observe(c: &mut Criterion) {
    let pkt = attack_packet();
    c.bench_function("traceback_observe/route_record", |b| {
        let mut tb = RouteRecordTraceback::new(4096);
        b.iter(|| tb.observe(black_box(&pkt)));
    });
}

fn bench_path_query(c: &mut Criterion) {
    let pkt = attack_packet();
    let flow = FlowLabel::src_dst(Addr::new(10, 9, 0, 7), Addr::new(10, 1, 0, 1));
    let mut rr = RouteRecordTraceback::new(4096);
    rr.observe(&pkt);
    c.bench_function("traceback_attack_path_rr", |b| {
        b.iter(|| black_box(rr.attack_path(black_box(&flow))));
    });
}

fn quick_config() -> Criterion {
    // Short, stable runs: the suite has many benchmarks and CI time is
    // better spent on breadth than on sub-nanosecond precision.
    Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(name = benches; config = quick_config(); targets = bench_observe, bench_path_query);
criterion_main!(benches);
