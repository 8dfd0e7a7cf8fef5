//! Per-layer kernels: one public operation of one layer, timed alone at the
//! sizes the traced pass just observed.
//!
//! Kernel ns × the matching count predicts a share of `run_s`
//! (`harness.run_explained_frac`); a layer optimisation should move its own
//! kernel, and through it the end-to-end metric named in the README's
//! layer table.

use std::hint::black_box;
use std::time::Instant;

use aitf_core::{DefensePolicy, EvictionPolicy, PolicyChains};
use aitf_filter::{FilterTable, RateLimiterBank, ShadowCache};
use aitf_netsim::{
    EventKind, EventQueue, Link, LinkDirection, LinkId, LinkParams, NodeId, SimDuration, SimTime,
};
use aitf_packet::{
    Addr, FlowLabel, Header, LpmTable, Packet, RouteRecord, TrafficClass, MAX_ROUTE_RECORD,
};
use aitf_scenario::PrefixAlloc;
use aitf_traceback::{RouteRecordTraceback, Traceback};

use crate::stats::median;
use crate::workloads::splitmix;

/// The sizes a workload's kernels run at.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Event backlog (`netsim.peak_pending_events`).
    pub backlog: usize,
    /// Networks in the world: prefixes in the LPM table.
    pub nets: usize,
    /// Border routers on the attack path.
    pub path_len: usize,
    /// Peak filter-table occupancy over all routers.
    pub filter_occupancy: usize,
    /// Shadow-cache entries (inserts, capped by the configured capacity).
    pub shadow_occupancy: usize,
    pub eviction: EvictionPolicy,
}

/// How long one kernel measures.
#[derive(Clone, Copy)]
pub struct Budget {
    pub batches: usize,
    pub batch_ns: u64,
}

impl Budget {
    pub const FULL: Budget = Budget {
        batches: 15,
        batch_ns: 10_000_000,
    };
    pub const SMOKE: Budget = Budget {
        batches: 3,
        batch_ns: 1_000_000,
    };
}

/// Median nanoseconds per call of `op` over `budget.batches` batches, each
/// sized (from a calibration batch) to last about `budget.batch_ns`.
fn ns_per_op(budget: Budget, mut op: impl FnMut()) -> f64 {
    let mut time_batch = |n: u64| {
        let t = Instant::now();
        for _ in 0..n {
            op();
        }
        t.elapsed().as_nanos() as f64
    };
    let calibrate = 1000;
    let per_op = (time_batch(calibrate) / calibrate as f64).max(0.1);
    let n = ((budget.batch_ns as f64 / per_op) as u64).clamp(100, 50_000_000);
    let samples: Vec<f64> = (0..budget.batches)
        .map(|_| time_batch(n) / n as f64)
        .collect();
    median(&samples)
}

const VICTIM: Addr = Addr::new(10, 250, 0, 1);

/// The `i`-th distinct source flooding the one victim.
fn source(i: usize) -> Addr {
    Addr::new(
        10,
        (i / 62_500) as u8 + 1,
        (i / 250 % 250) as u8,
        (i % 250) as u8 + 1,
    )
}

fn label(i: usize) -> FlowLabel {
    FlowLabel::src_dst(source(i), VICTIM)
}

fn header_of(i: usize) -> Header {
    Header::udp(source(i), VICTIM, 1, 2)
}

const LONG: SimDuration = SimDuration::from_secs(3600);

fn filled_table(n: usize, capacity: usize, policy: EvictionPolicy) -> FilterTable {
    let mut t = FilterTable::with_policy(capacity, policy);
    for i in 0..n {
        // Staggered expiries, so eviction has a real minimum to find.
        t.install(
            label(i),
            SimTime::ZERO,
            LONG + SimDuration::from_millis(i as u64),
        )
        .expect("capacity");
    }
    t
}

/// `EventQueue::schedule` + `pop` with `backlog` events pending.
pub fn queue_cycle_ns(b: Budget, backlog: usize) -> f64 {
    let mut q = EventQueue::new();
    let timer = |token| EventKind::Timer {
        node: NodeId(0),
        token,
    };
    for i in 0..backlog as u64 {
        q.schedule(SimTime(1_000_000_000 + i * 997), timer(i));
    }
    let mut rng = 1u64;
    let mut now = 0u64;
    ns_per_op(b, || {
        // A new event lands somewhere inside the backlog's time range, as
        // a packet's next hop does; the earliest pending one fires.
        now += 997;
        rng = splitmix(rng);
        let at = now + rng % (backlog as u64 * 997 + 1);
        q.schedule(SimTime(1_000_000_000 + at), timer(0));
        black_box(q.pop());
    })
}

/// One saturated-link event: `on_tx_done` + a fresh `enqueue`, or the
/// delivery it scheduled.
pub fn link_cycle_ns(b: Budget) -> f64 {
    let params = LinkParams::ethernet(1_000_000_000, SimDuration::from_micros(10));
    let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), params);
    let mut q = EventQueue::new();
    let pkt = |id| {
        let h = Header::udp(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), 1, 2);
        Packet::data(id, h, TrafficClass::Attack, 500)
    };
    for i in 0..=16 {
        link.enqueue(SimTime(0), LinkDirection::AToB, pkt(i), &mut q);
    }
    let mut id = 17;
    ns_per_op(b, || {
        let ev = q.pop().expect("saturated link always has events");
        match ev.kind {
            EventKind::LinkTxDone { dir, .. } => {
                link.on_tx_done(ev.time, dir, &mut q);
                link.enqueue(ev.time, LinkDirection::AToB, pkt(id), &mut q);
                id += 1;
            }
            EventKind::Deliver { packet, .. } => {
                black_box(packet.id);
            }
            EventKind::Timer { .. } => unreachable!("no timers armed"),
        }
    })
}

/// `LpmTable::lookup` over a table of `nets` prefixes, seeded addresses.
pub fn lpm_lookup_ns(b: Budget, nets: usize) -> f64 {
    let mut alloc = PrefixAlloc::new();
    let slash24 = nets > PrefixAlloc::CAPACITY as usize;
    let mut table = LpmTable::new();
    let mut prefixes = Vec::with_capacity(nets);
    for i in 0..nets {
        let p = if slash24 {
            alloc.next_slash24()
        } else {
            alloc.next_slash16()
        };
        table.insert(p, i as u32);
        prefixes.push(p);
    }
    let mut rng = 7u64;
    let addrs: Vec<Addr> = (0..4096)
        .map(|_| {
            rng = splitmix(rng);
            prefixes[(rng % nets as u64) as usize].host_at((rng >> 32) as u32 % 200 + 1)
        })
        .collect();
    let mut i = 0;
    ns_per_op(b, || {
        i = (i + 1) % addrs.len();
        black_box(table.lookup(black_box(addrs[i])));
    })
}

/// Pushing `path_len` hops onto a fresh route record, then one clone.
pub fn route_record_push_ns(b: Budget, path_len: usize) -> f64 {
    let hops = path_len.min(MAX_ROUTE_RECORD);
    ns_per_op(b, || {
        let mut rr = RouteRecord::new();
        for i in 0..hops {
            let _ = rr.push(Addr::new(10, 0, i as u8, 254));
        }
        black_box(black_box(&rr).clone());
    })
}

/// `FilterTable::matches` on a flow that is / is not filtered.
pub fn filter_lookup_ns(b: Budget, occupancy: usize, hit: bool) -> f64 {
    let mut table = filled_table(occupancy, occupancy + 1, EvictionPolicy::Reject);
    let header = if hit {
        header_of(occupancy / 2)
    } else {
        Header::udp(Addr::new(11, 9, 0, 7), Addr::new(10, 251, 0, 1), 1, 2)
    };
    ns_per_op(b, || {
        black_box(table.matches(black_box(&header), SimTime(1)));
    })
}

/// `FilterTable::install` at the workload's peak occupancy: into a full
/// table (one eviction per install) under an evicting policy, or install +
/// remove with one free slot under `Reject`.
pub fn filter_install_ns(b: Budget, occupancy: usize, policy: EvictionPolicy) -> f64 {
    if policy == EvictionPolicy::Reject {
        let mut table = filled_table(occupancy, occupancy + 1, policy);
        let fresh = label(occupancy);
        return ns_per_op(b, || {
            table
                .install(black_box(fresh), SimTime::ZERO, LONG)
                .expect("one free slot");
            table.remove(&fresh);
        });
    }
    let mut table = filled_table(occupancy, occupancy, policy);
    let mut next = occupancy;
    ns_per_op(b, || {
        next += 1;
        table
            .install(black_box(label(next)), SimTime::ZERO, LONG + LONG)
            .expect("evicting policies always make room");
    })
}

/// `FilterTable::purge_expired` with nothing expired: the scan alone.
pub fn filter_purge_ns(b: Budget, occupancy: usize) -> f64 {
    let mut table = filled_table(occupancy, occupancy + 1, EvictionPolicy::Reject);
    ns_per_op(b, || table.purge_expired(black_box(SimTime(1))))
}

/// `ShadowCache::check_reactivation` on a flow that is not shadowed — what
/// every unfiltered packet pays.
pub fn shadow_check_ns(b: Budget, occupancy: usize) -> f64 {
    let mut cache = ShadowCache::new(occupancy + 1);
    for i in 0..occupancy {
        cache.insert(label(i), i as u64, SimTime::ZERO, LONG, 1);
    }
    let miss = Header::udp(Addr::new(11, 9, 0, 7), Addr::new(10, 251, 0, 1), 1, 2);
    ns_per_op(b, || {
        black_box(cache.check_reactivation(black_box(&miss), SimTime(1)));
    })
}

/// `RateLimiterBank::try_acquire` across 16 contracts.
pub fn token_bucket_ns(b: Budget) -> f64 {
    let mut bank = RateLimiterBank::new(100.0, 100);
    for k in 0..16 {
        bank.set_contract(k, 100.0, 100);
    }
    let (mut now, mut key) = (0u64, 0u64);
    ns_per_op(b, || {
        now += 1_000_000;
        key = (key + 1) % 16;
        black_box(bank.try_acquire(key, SimTime(now)));
    })
}

fn attack_packet(path_len: usize) -> Packet {
    let mut p = Packet::data(1, header_of(0), TrafficClass::Attack, 500);
    p.route_record = RouteRecord::from_hops(
        (0..path_len.min(MAX_ROUTE_RECORD)).map(|i| Addr::new(10, 0, i as u8, 254)),
    );
    p
}

/// `Traceback::observe` / `attack_path` on the route-record provider,
/// through the trait object the router holds.
pub fn traceback_ns(b: Budget, path_len: usize) -> (f64, f64) {
    let pkt = attack_packet(path_len);
    let mut tb: Box<dyn Traceback> = Box::new(RouteRecordTraceback::new(4096));
    let observe = ns_per_op(b, || tb.observe(black_box(&pkt)));
    let flow = label(0);
    let path = ns_per_op(b, || {
        black_box(tb.attack_path(black_box(&flow)));
    });
    (observe, path)
}

/// Mean `PolicyChains::build` time over the workload's policies, µs.
pub fn chain_build_us(b: Budget, policies: &[DefensePolicy]) -> f64 {
    let total: f64 = policies
        .iter()
        .map(|&p| {
            ns_per_op(b, || {
                black_box(PolicyChains::build(black_box(p)).expect("static chains resolve"));
            })
        })
        .sum();
    total / policies.len() as f64 / 1000.0
}

/// Every kernel at `sizes`, as `(metric name, value)`.
pub fn run_all(b: Budget, s: Sizes, policies: &[DefensePolicy]) -> Vec<(&'static str, f64)> {
    let occupancy = s.filter_occupancy.max(1);
    let (observe, path) = traceback_ns(b, s.path_len);
    vec![
        ("netsim.queue_cycle_ns", queue_cycle_ns(b, s.backlog)),
        ("netsim.link_cycle_ns", link_cycle_ns(b)),
        ("packet.lpm_lookup_ns", lpm_lookup_ns(b, s.nets)),
        (
            "packet.route_record_push_ns",
            route_record_push_ns(b, s.path_len),
        ),
        ("filter.lookup_hit_ns", filter_lookup_ns(b, occupancy, true)),
        (
            "filter.lookup_miss_ns",
            filter_lookup_ns(b, occupancy, false),
        ),
        (
            "filter.install_ns",
            filter_install_ns(b, occupancy, s.eviction),
        ),
        ("filter.purge_expired_ns", filter_purge_ns(b, occupancy)),
        (
            "filter.shadow_check_ns",
            shadow_check_ns(b, s.shadow_occupancy.max(1)),
        ),
        ("filter.token_bucket_ns", token_bucket_ns(b)),
        ("traceback.observe_ns", observe),
        ("traceback.attack_path_ns", path),
        ("defense.chain_build_us", chain_build_us(b, policies)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_and_reports_a_positive_time() {
        let sizes = Sizes {
            backlog: 300,
            nets: 50,
            path_len: 3,
            filter_occupancy: 64,
            shadow_occupancy: 256,
            eviction: EvictionPolicy::EvictSoonestExpiring,
        };
        for (name, v) in run_all(Budget::SMOKE, sizes, &DefensePolicy::BAKEOFF) {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
        // The Reject install path and the /24 LPM path.
        assert!(filter_install_ns(Budget::SMOKE, 8, EvictionPolicy::Reject) > 0.0);
        assert!(lpm_lookup_ns(Budget::SMOKE, PrefixAlloc::CAPACITY as usize + 10) > 0.0);
    }
}
