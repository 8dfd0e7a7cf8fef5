//! Zero-cost guarantee for the tracing facade with the feature **off**.
//!
//! The instrumented call sites (router spans, subsystem classification,
//! loop wall buckets) are compiled against no-op stubs in default builds.
//! This test pins the strong half of that claim on a forwarding chain
//! and on a star under every bake-off policy: **zero heap allocations per
//! dispatched event** in steady state, and bit-identical event counts run
//! to run. The throughput half (events/sec of the untraced build) is the
//! benchmark's `flood_bakeoff` workload — `run_s`, `events_per_sec` and
//! `netsim.slice_ns_per_event_p50`, compared with `benchmark/run.sh
//! compare`.
//!
//! Compiled out under `--features trace` — with recording on, spans do
//! allocate by design.

#![cfg(not(feature = "trace"))]

use aitf_netsim::{Context, LinkId, LinkParams, NetworkBuilder, Node, SimDuration, Simulator};
use aitf_packet::alloc_probe::CountingAlloc;
use aitf_packet::{Addr, Header, Packet, TrafficClass};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady packet source, re-armed by timer (the suite's traffic shape).
struct Source {
    dst: Addr,
    gap: SimDuration,
}

impl Node for Source {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.gap, 0);
    }

    fn on_packet(&mut self, _p: Packet, _l: LinkId, _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        let id = ctx.next_packet_id();
        let h = Header::udp(Addr::new(10, 0, 0, 1), self.dst, 7, 9);
        let link = ctx.my_links()[0];
        ctx.send(link, Packet::data(id, h, TrafficClass::Attack, 600));
        ctx.set_timer(self.gap, 0);
    }
}

/// Forwards every arrival out of its other link, stamping the route
/// record like a border router's data plane.
struct Relay {
    addr: Addr,
}

impl Node for Relay {
    fn on_packet(&mut self, mut packet: Packet, link: LinkId, ctx: &mut Context<'_>) {
        packet.header.ttl = match packet.header.ttl.checked_sub(1) {
            Some(t) if t > 0 => t,
            _ => return,
        };
        let _ = packet.route_record.push(self.addr);
        for i in 0..ctx.my_links().len() {
            let l = ctx.my_links()[i];
            if l != link {
                ctx.send(l, packet);
                return;
            }
        }
    }
}

struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _p: Packet, _l: LinkId, _ctx: &mut Context<'_>) {}
}

/// Source → relay × `hops` → sink over finite links, as in the bench.
fn chain(hops: usize) -> Simulator {
    let mut b = NetworkBuilder::new(0xD15);
    let src = b.add_node();
    let relays: Vec<_> = (0..hops).map(|_| b.add_node()).collect();
    let sink = b.add_node();
    let params = LinkParams::ethernet(100_000_000, SimDuration::from_micros(50));
    let mut prev = src;
    for &r in &relays {
        b.connect(prev, r, params);
        prev = r;
    }
    b.connect(prev, sink, params);
    let mut sim = b.build();
    sim.install(
        src,
        Box::new(Source {
            dst: Addr::new(10, 0, 0, 99),
            gap: SimDuration::from_micros(100),
        }),
    );
    for (i, &r) in relays.iter().enumerate() {
        sim.install(
            r,
            Box::new(Relay {
                addr: Addr::new(10, 1, i as u8, 254),
            }),
        );
    }
    sim.install(sink, Box::new(Sink));
    sim
}

// ----------------------------------------------------------------------
// The same guarantee over the real router, once per defense policy: after
// the blocking phase settles, every hook chain's steady state — wire
// drops, prefix policing, stamp checks, control-plane vetoes — must
// dispatch without touching the heap.
// ----------------------------------------------------------------------

use aitf_core::{AitfConfig, DefensePolicy, HostPolicy, WorldBuilder};

/// A two-zombie star flooding one victim, every router running `policy`:
/// each zombie runs the workloads' own [`aitf_core::Source`], 10,000
/// packets/s of 500 B with the first one period in.
/// Long timers keep installs/expiries/disconnections out of the probe
/// window: after warm-up the defense is pure per-packet work.
fn policy_world(policy: DefensePolicy) -> aitf_core::World {
    let cfg = AitfConfig {
        defense: policy,
        t_long: SimDuration::from_secs(600),
        grace: SimDuration::from_secs(3600),
        ..AitfConfig::default()
    };
    let mut b = WorldBuilder::new(0xE19, cfg);
    let wan = b.network("wan", "10.100.0.0/16", None);
    let g = b.network("g", "10.1.0.0/16", Some(wan));
    let z0 = b.network("z0", "10.2.0.0/16", Some(wan));
    let z1 = b.network("z1", "10.3.0.0/16", Some(wan));
    let v = b.host(g);
    let a0 = b.host_with(z0, HostPolicy::Malicious, WorldBuilder::default_host_link());
    let a1 = b.host_with(z1, HostPolicy::Malicious, WorldBuilder::default_host_link());
    let mut w = b.build();
    let target = w.host_addr(v);
    for a in [a0, a1] {
        let flood = aitf_core::Source::flood(target, 10_000, 500)
            .starting_after(SimDuration::from_micros(100));
        w.add_app(a, Box::new(flood));
    }
    w
}

#[test]
fn every_defense_policy_dispatches_alloc_free_in_steady_state() {
    for policy in DefensePolicy::BAKEOFF {
        let mut w = policy_world(policy);
        // Warm-up: detection, escalation/propagation and filter installs
        // all complete; maps and queues reach high-water capacity.
        w.sim.run_for(SimDuration::from_secs(4));
        let ev0 = w.sim.dispatched_events();
        let ((), allocs) = CountingAlloc::count(|| w.sim.run_for(SimDuration::from_secs(15)));
        let events = w.sim.dispatched_events() - ev0;
        assert!(
            events >= 300_000,
            "{}: the probe window must be non-trivial ({events} events)",
            policy.name()
        );
        assert_eq!(
            allocs,
            0,
            "{}: steady-state dispatch allocated ({allocs} allocs over {events} events)",
            policy.name()
        );
    }
}

#[test]
fn disabled_tracing_dispatches_with_zero_allocations_per_event() {
    let mut sim = chain(8);
    // Warm-up: link rings, packet pool and heap reach their high-water capacity.
    sim.run_for(SimDuration::from_secs(2));
    let ev0 = sim.dispatched_events();
    let ((), allocs) = CountingAlloc::count(|| sim.run_for(SimDuration::from_secs(8)));
    let events = sim.dispatched_events() - ev0;
    assert!(events > 100_000, "the probe window must be non-trivial");
    assert_eq!(
        allocs, 0,
        "steady-state dispatch allocated with tracing compiled out \
         ({allocs} allocs over {events} events)"
    );
    // And the profile accessor confirms nothing was recorded.
    assert_eq!(sim.subsystem_profile().total_events(), 0);
    assert_eq!(sim.subsystem_profile().loop_nanos(), 0);
}

#[test]
fn disabled_tracing_leaves_dispatch_deterministic() {
    let run = || {
        let mut sim = chain(8);
        sim.run_for(SimDuration::from_secs(3));
        sim.dispatched_events()
    };
    assert_eq!(run(), run(), "event counts must be bit-stable run to run");
}
