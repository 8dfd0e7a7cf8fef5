//! Route-record traceback: the deterministic in-packet provider.
//!
//! Border routers append their address to every forwarded packet (the AITF
//! shim layer). The victim side simply remembers, per flow, the most
//! complete record it has seen — one attack packet is enough, so
//! "traceback time is 0" exactly as the paper's Section IV-B example
//! assumes.

use std::collections::BTreeMap;

use aitf_packet::{Addr, FlowLabel, Packet, RouteRecord};

use crate::Traceback;

/// Per-source-host cache of observed attack paths.
///
/// Keyed by `(src, dst)` host pair — the granularity AITF requests use.
/// When `capacity` pairs are held, new pairs are not recorded. A cached
/// path is the packet's own [`RouteRecord`], so a path of up to
/// [`aitf_packet::INLINE_ROUTE_RECORD`] hops is stored, replaced and
/// handed out without touching the heap.
#[derive(Debug)]
pub struct RouteRecordTraceback {
    capacity: usize,
    /// Cached path per `(src, dst)` host pair.
    paths: BTreeMap<(Addr, Addr), RouteRecord>,
}

impl RouteRecordTraceback {
    /// Creates a provider remembering at most `capacity` host pairs.
    ///
    /// The one caller in the simulator passes `usize::MAX`; the parameter
    /// stays only because the frozen benchmark crate
    /// (`benchmark/src/kernels.rs`) calls `new(4096)`.
    pub fn new(capacity: usize) -> Self {
        RouteRecordTraceback {
            capacity,
            paths: BTreeMap::new(),
        }
    }
}

impl Traceback for RouteRecordTraceback {
    fn observe(&mut self, packet: &Packet) {
        let record = &packet.route_record;
        if record.is_empty() {
            return;
        }
        let key = (packet.header.src, packet.header.dst);
        match self.paths.get_mut(&key) {
            Some(existing) => {
                // Keep the longest record seen (a packet that crossed more
                // border routers carries strictly more information); among
                // equal-length records the lexicographically smallest. The
                // cached path is thus a pure function of the *set* of
                // observed records, never of arrival order — spoofing
                // zombies sharing a pool produce many same-length records
                // per flow key, and a sharded run interleaves their
                // same-timestamp packets differently.
                let (new, old) = (record.hops(), existing.hops());
                if new.len() > old.len() || (new.len() == old.len() && new < old) {
                    // detlint::allow(hot-alloc): an inline record is copied in place; only one spilled past the inline cap allocates, and only when it replaces the cached path
                    *existing = record.clone();
                }
            }
            None => {
                if self.paths.len() >= self.capacity {
                    return;
                }
                // detlint::allow(hot-alloc): amortized — one map slot per distinct sender, bounded by the workload rather than a capacity; the record itself is inline up to the inline cap
                self.paths.insert(key, record.clone());
            }
        }
    }

    fn attack_path(&self, flow: &FlowLabel) -> Option<RouteRecord> {
        self.paths.get(&(flow.src, flow.dst)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitf_packet::{Header, TrafficClass};

    fn attack_packet(src: Addr, dst: Addr, hops: &[Addr]) -> Packet {
        let mut p = Packet::data(0, Header::udp(src, dst, 1, 2), TrafficClass::Attack, 100);
        p.route_record = record(hops);
        p
    }

    fn record(hops: &[Addr]) -> RouteRecord {
        RouteRecord::from_hops(hops.iter().copied())
    }

    const A: Addr = Addr::new(10, 9, 0, 7);
    const V: Addr = Addr::new(10, 1, 0, 1);

    fn gw(i: u8) -> Addr {
        Addr::new(10, i, 0, 254)
    }

    #[test]
    fn one_packet_gives_full_path() {
        let mut tb = RouteRecordTraceback::new(16);
        tb.observe(&attack_packet(A, V, &[gw(9), gw(8), gw(1)]));
        let flow = FlowLabel::src_dst(A, V);
        assert_eq!(tb.attack_path(&flow), Some(record(&[gw(9), gw(8), gw(1)])));
    }

    #[test]
    fn longest_record_wins() {
        let mut tb = RouteRecordTraceback::new(16);
        tb.observe(&attack_packet(A, V, &[gw(8), gw(1)]));
        tb.observe(&attack_packet(A, V, &[gw(9), gw(8), gw(1)]));
        tb.observe(&attack_packet(A, V, &[gw(1)]));
        let flow = FlowLabel::src_dst(A, V);
        assert_eq!(tb.attack_path(&flow).unwrap().len(), 3);
    }

    #[test]
    fn equal_length_tie_break_is_arrival_order_independent() {
        // Two zombies behind different gateways spoof the same source:
        // whichever packet arrives first, the cached path must be the
        // same (the lexicographically smallest record), or a sharded
        // run's interleaving would pick different revocation targets.
        let flow = FlowLabel::src_dst(A, V);
        let mut forward = RouteRecordTraceback::new(16);
        forward.observe(&attack_packet(A, V, &[gw(9), gw(1)]));
        forward.observe(&attack_packet(A, V, &[gw(8), gw(1)]));
        let mut reverse = RouteRecordTraceback::new(16);
        reverse.observe(&attack_packet(A, V, &[gw(8), gw(1)]));
        reverse.observe(&attack_packet(A, V, &[gw(9), gw(1)]));
        assert_eq!(forward.attack_path(&flow), reverse.attack_path(&flow));
        assert_eq!(forward.attack_path(&flow), Some(record(&[gw(8), gw(1)])));
    }

    #[test]
    fn empty_records_are_ignored() {
        let mut tb = RouteRecordTraceback::new(16);
        tb.observe(&attack_packet(A, V, &[]));
        assert!(
            tb.attack_path(&FlowLabel::src_dst(A, V)).is_none(),
            "nothing is cached"
        );
    }

    #[test]
    fn unknown_flow_has_no_path() {
        let mut tb = RouteRecordTraceback::new(16);
        tb.observe(&attack_packet(A, V, &[gw(9)]));
        let other = FlowLabel::src_dst(Addr::new(9, 9, 9, 9), V);
        assert!(tb.attack_path(&other).is_none());
    }

    #[test]
    fn capacity_bound_holds() {
        let mut tb = RouteRecordTraceback::new(2);
        let flows = (0..5u8).map(|i| FlowLabel::src_dst(Addr::new(10, 9, 0, i), V));
        for f in flows.clone() {
            tb.observe(&attack_packet(f.src, V, &[gw(9)]));
        }
        let cached = flows.map(|f| tb.attack_path(&f).is_some());
        assert!(cached.eq([true, true, false, false, false]));
    }
}
