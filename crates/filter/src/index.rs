//! The one label index behind [`FilterTable`](crate::FilterTable) and
//! [`ShadowCache`](crate::ShadowCache).
//!
//! The paper treats both tables as constant-time label lookups (Section I's
//! wire-speed filters, Section II-B's DRAM shadow). [`LabelIndex`] is that
//! lookup, stated once: a slab of `(label, expiry, payload)` slots with a
//! free list, keyed exactly by the host pair packed as `src << 32 | dst`,
//! so a lookup is one probe however many filters share a destination.
//!
//! Four behaviours are load-bearing for the fixtures and goldens:
//!
//! 1. **One probe.** A header is matched by one label only, its own host
//!    pair, so [`LabelIndex::first_match`] is the probe of that key. The
//!    owner updates that entry's payload and no other.
//! 2. **Expiry is lazy.** [`LabelIndex::find`] sees an expired entry until
//!    [`LabelIndex::purge`] removes it, and owners purge only on their own
//!    install / insert / explicit purge calls; [`LabelIndex::first_match`]
//!    never returns an expired entry.
//! 3. **Slot reuse.** `purge` frees slots in ascending order and the free
//!    list is LIFO, so slot numbers — which break eviction ties — are a pure
//!    function of the operation sequence.
//! 4. **Storage order.** Every entry carries the sequence number of its
//!    insertion; refreshing an entry in place keeps it, so the shadow's
//!    FIFO eviction follows original insertion.
//!
//! `purge` with nothing expired is O(1): `earliest` is a lower bound on
//! every live expiry, lowered on insert and recomputed by each full sweep.

use std::collections::HashMap;

use aitf_netsim::SimTime;
use aitf_packet::{Addr, FlowLabel, Header};

/// One stored record. The index owns the key fields; owners mutate only
/// `value` (and raise `expires` through [`LabelIndex::extend`]).
#[derive(Debug)]
pub(crate) struct Slot<V> {
    pub(crate) label: FlowLabel,
    pub(crate) expires: SimTime,
    /// Insertion sequence number: storage order.
    pub(crate) seq: u64,
    pub(crate) value: V,
}

/// The index proper: empty until the first [`LabelIndex::insert`], so a
/// table that never stored anything — almost every router's at internet
/// scale — is one null pointer beside its owner's capacity and counters.
#[derive(Debug)]
pub(crate) struct LabelIndex<V> {
    store: Option<Box<Store<V>>>,
}

#[derive(Debug)]
struct Store<V> {
    /// Slab of entries; `None` slots are on the free list.
    slots: Vec<Option<Slot<V>>>,
    free: Vec<usize>,
    /// Packed `(src, dst)` → slot.
    pairs: HashMap<u64, usize>,
    next_seq: u64,
    /// Lower bound on the expiry of every live entry.
    earliest: SimTime,
}

fn pack(src: Addr, dst: Addr) -> u64 {
    u64::from(src.0) << 32 | u64::from(dst.0)
}

fn key(label: &FlowLabel) -> u64 {
    pack(label.src, label.dst)
}

impl<V> Store<V> {
    fn slot(&self, i: usize) -> &Slot<V> {
        self.slots[i].as_ref().expect("slot is live")
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot<V> {
        self.slots[i].as_mut().expect("slot is live")
    }

    fn remove(&mut self, i: usize) {
        let slot = self.slots[i].take().expect("removing a live slot");
        self.pairs.remove(&key(&slot.label));
        self.free.push(i);
    }
}

impl<V> LabelIndex<V> {
    pub(crate) fn new() -> Self {
        LabelIndex { store: None }
    }

    /// The store of an index some slot number was read from.
    fn live(&self) -> &Store<V> {
        self.store.as_deref().expect("a slot implies a store")
    }

    fn live_mut(&mut self) -> &mut Store<V> {
        self.store.as_deref_mut().expect("a slot implies a store")
    }

    /// Stored entries, expired-but-unpurged ones included.
    pub(crate) fn len(&self) -> usize {
        self.store
            .as_deref()
            .map_or(0, |s| s.slots.len() - s.free.len())
    }

    pub(crate) fn slot(&self, i: usize) -> &Slot<V> {
        self.live().slot(i)
    }

    pub(crate) fn value_mut(&mut self, i: usize) -> &mut V {
        &mut self.live_mut().slot_mut(i).value
    }

    /// Keeps the later of the entry's expiry and `expires`.
    pub(crate) fn extend(&mut self, i: usize, expires: SimTime) {
        let slot = self.live_mut().slot_mut(i);
        slot.expires = slot.expires.max(expires);
    }

    /// Live slots in ascending slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &Slot<V>)> {
        let slots = self.store.as_deref().map_or(&[][..], |s| &s.slots);
        slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_ref()?)))
    }

    /// The slot holding `label`, expired or not.
    pub(crate) fn find(&self, label: &FlowLabel) -> Option<usize> {
        self.store.as_deref()?.pairs.get(&key(label)).copied()
    }

    /// The live entry for `header`'s host pair.
    pub(crate) fn first_match(&self, header: &Header, now: SimTime) -> Option<usize> {
        let s = self.store.as_deref()?;
        let i = *s.pairs.get(&pack(header.src, header.dst))?;
        (s.slot(i).expires > now).then_some(i)
    }

    /// Stores a label the index does not hold yet.
    pub(crate) fn insert(&mut self, label: FlowLabel, expires: SimTime, value: V) {
        debug_assert!(self.find(&label).is_none(), "label already stored");
        let s = self.store.get_or_insert_with(|| {
            Box::new(Store {
                slots: Vec::new(),
                free: Vec::new(),
                pairs: HashMap::new(),
                next_seq: 0,
                earliest: SimTime::MAX,
            })
        });
        let i = s.free.pop().unwrap_or_else(|| {
            s.slots.push(None);
            s.slots.len() - 1
        });
        s.slots[i] = Some(Slot {
            label,
            expires,
            seq: s.next_seq,
            value,
        });
        s.next_seq += 1;
        s.pairs.insert(key(&label), i);
        s.earliest = s.earliest.min(expires);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.live_mut().remove(i);
    }

    /// Removes every entry expired at or before `now`; returns how many.
    pub(crate) fn purge(&mut self, now: SimTime) -> u64 {
        let Some(s) = self.store.as_deref_mut() else {
            return 0;
        };
        if now < s.earliest {
            return 0;
        }
        let mut purged = 0;
        s.earliest = SimTime::MAX;
        for i in 0..s.slots.len() {
            match &s.slots[i] {
                Some(e) if e.expires <= now => {
                    s.remove(i);
                    purged += 1;
                }
                Some(e) => s.earliest = s.earliest.min(e.expires),
                None => {}
            }
        }
        purged
    }
}

/// The behaviour of both tables, stated once as a naive model and checked
/// against the real ones after every step of random operation sequences.
#[cfg(test)]
mod spec {
    use super::*;
    use crate::{EvictionPolicy, FilterStats, FilterTable, ShadowCache, ShadowEntry, ShadowStats};
    use aitf_netsim::SimDuration;
    use aitf_packet::RouteRecord;
    use proptest::prelude::*;

    /// One stored row: a whole shadow entry — its label and expiry are
    /// the key both tables share — and the filter's last hit.
    struct Row {
        e: ShadowEntry,
        last_hit: Option<SimTime>,
    }

    /// An entry for `label` until `expires`, stored at `now`, that logs
    /// nothing else.
    fn entry(label: FlowLabel, expires: SimTime, now: SimTime) -> ShadowEntry {
        let (request_id, round, reactivations, path) = (0, 0, 0, RouteRecord::new());
        ShadowEntry {
            label,
            request_id,
            expires,
            round,
            reactivations,
            path,
            last_action: now,
        }
    }

    /// The spec: rows in storage order, every question a linear scan.
    #[derive(Default)]
    struct Naive(Vec<Row>);

    impl Naive {
        fn find(&mut self, label: &FlowLabel) -> Option<&mut Row> {
            self.0.iter_mut().find(|r| r.e.label == *label)
        }
        fn first_match(&mut self, h: &Header, now: SimTime) -> Option<&mut Row> {
            self.0
                .iter_mut()
                .find(|r| r.e.expires > now && r.e.label.matches(h))
        }
        fn purge(&mut self, now: SimTime) -> u64 {
            let stored = self.0.len();
            self.0.retain(|r| r.e.expires > now);
            (stored - self.0.len()) as u64
        }
        fn push(&mut self, e: ShadowEntry) {
            self.0.push(Row { e, last_hit: None });
        }
    }

    /// `FilterTable::install`, naively. The test keeps every expiry unique,
    /// so eviction has no tie to break here: ties go to the lowest slot,
    /// pinned by `eviction_ties_break_on_reused_slots` in `table.rs`.
    fn install(
        (m, stats): (&mut Naive, &mut FilterStats),
        (cap, evict): (usize, bool),
        label: FlowLabel,
        now: SimTime,
        until: SimTime,
    ) {
        stats.expirations += m.purge(now);
        if let Some(r) = m.find(&label) {
            r.e.expires = r.e.expires.max(until);
            stats.refreshes += 1;
            return;
        }
        if m.0.len() >= cap {
            let soonest = (0..m.0.len()).min_by_key(|&i| m.0[i].e.expires);
            let Some(victim) = soonest.filter(|_| evict) else {
                stats.rejections += 1;
                return;
            };
            m.0.remove(victim);
            stats.evictions += 1;
        }
        m.push(entry(label, until, now));
        stats.installs += 1;
        stats.peak_occupancy = stats.peak_occupancy.max(m.0.len());
    }

    /// `ShadowCache::insert_with_path` of `new`, stored at its
    /// `last_action`, naively.
    fn shadow((m, stats): (&mut Naive, &mut ShadowStats), cap: usize, new: ShadowEntry) {
        stats.expirations += m.purge(new.last_action);
        if let Some(Row { e, .. }) = m.find(&new.label) {
            e.expires = e.expires.max(new.expires);
            e.round = e.round.max(new.round);
            e.request_id = new.request_id;
            if new.path.len() > e.path.len() {
                e.path = new.path;
            }
            stats.refreshes += 1;
            return;
        }
        if m.0.len() >= cap {
            if cap == 0 {
                return;
            }
            m.0.remove(0);
            stats.evictions += 1;
        }
        m.push(new);
        stats.inserts += 1;
        stats.peak_occupancy = stats.peak_occupancy.max(m.0.len());
    }

    const VICTIMS: [Addr; 2] = [Addr::new(10, 1, 0, 1), Addr::new(10, 1, 0, 2)];

    fn source(i: u8) -> Addr {
        Addr::new(10, 9, 0, i)
    }

    /// Host pairs from four sources to each of two victims.
    fn pool() -> Vec<FlowLabel> {
        let pairs = VICTIMS.iter().flat_map(|&v| (0..4).map(move |i| (i, v)));
        pairs
            .map(|(i, v)| FlowLabel::src_dst(source(i), v))
            .collect()
    }

    /// A path of `hops` border routers, one of two per length, so a
    /// refresh can log a longer, shorter or equally long but different
    /// path than the stored one, spilled or inline.
    fn path(hops: usize, id: u64) -> RouteRecord {
        let side = 200 + (id % 2) as u8;
        RouteRecord::from_hops((0..hops).map(|i| Addr::new(10, side, i as u8, 254)))
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Install / insert pool label `.0` for `.1` seconds at round `.2`,
        /// the shadow logging a path of `.3` hops.
        Store(usize, u64, u8, usize),
        Remove(usize),
        Advance(u64),
        Purge,
        Probe(Header),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let probe = (0u8..5, 0usize..3, 2u16..4, any::<bool>()).prop_map(|(s, d, port, udp)| {
            // The fifth source and the third destination are in no label.
            let dst = [VICTIMS[0], VICTIMS[1], Addr::new(10, 1, 7, 7)][d];
            let header = if udp { Header::udp } else { Header::tcp };
            Op::Probe(header(source(s), dst, 1, port))
        });
        prop_oneof![
            (0usize..8, 0u64..90, 1u8..4, 0usize..11)
                .prop_map(|(l, d, r, hops)| Op::Store(l, d, r, hops)),
            (0usize..8).prop_map(Op::Remove),
            (0u64..30).prop_map(Op::Advance),
            Just(Op::Purge),
            probe,
        ]
    }

    #[test]
    fn only_an_insert_makes_the_store() {
        let mut index = LabelIndex::<u8>::new();
        let label = pool()[0];
        let probe = Header::udp(source(0), VICTIMS[0], 1, 2);
        assert_eq!((index.len(), index.iter().count()), (0, 0));
        assert_eq!(index.find(&label), None);
        assert_eq!(index.first_match(&probe, SimTime::ZERO), None);
        assert_eq!(index.purge(SimTime::MAX), 0);
        assert!(index.store.is_none(), "a read or a purge made the store");
        index.insert(label, SimTime::MAX, 7);
        assert_eq!(index.first_match(&probe, SimTime::ZERO), Some(0));
        // Emptied again, the store stays: first use is one-off.
        index.remove(0);
        assert!(index.len() == 0 && index.store.is_some());
    }

    proptest! {
        #[test]
        fn tables_agree_with_the_naive_model(
            ops in proptest::collection::vec(arb_op(), 1..200),
            cap in 0usize..7,
            evict in any::<bool>(),
        ) {
            let pool = pool();
            let policy = [EvictionPolicy::Reject, EvictionPolicy::EvictSoonestExpiring];
            let mut table = FilterTable::with_policy(cap, policy[usize::from(evict)]);
            let (mut tm, mut ts) = (Naive::default(), FilterStats::default());
            let mut cache = ShadowCache::new(cap);
            let (mut cm, mut cs) = (Naive::default(), ShadowStats::default());
            let mut now = SimTime::ZERO;
            for (id, op) in (0u64..).zip(ops) {
                match op {
                    Op::Store(l, secs, round, hops) => {
                        // No two filters share an expiry (see `install`).
                        let mut dur = SimDuration::from_secs(secs);
                        while tm.0.iter().any(|r| r.e.expires == now + dur) {
                            dur = dur + SimDuration::from_secs(1);
                        }
                        let _ = table.install(pool[l], now, dur);
                        install((&mut tm, &mut ts), (cap, evict), pool[l], now, now + dur);
                        cache.insert_with_path(pool[l], id, now, dur, round, path(hops, id));
                        let new = entry(pool[l], now + dur, now);
                        let (request_id, path) = (id, path(hops, id));
                        let new = ShadowEntry { request_id, round, path, ..new };
                        shadow((&mut cm, &mut cs), cap, new);
                    }
                    Op::Remove(l) => {
                        let stored = tm.0.len();
                        tm.0.retain(|r| r.e.label != pool[l]);
                        prop_assert_eq!(table.remove(&pool[l]), tm.0.len() < stored);
                    }
                    Op::Advance(secs) => now += SimDuration::from_secs(secs),
                    Op::Purge => {
                        table.purge_expired(now);
                        ts.expirations += tm.purge(now);
                        cache.purge_expired(now);
                        cs.expirations += cm.purge(now);
                    }
                    Op::Probe(h) => {
                        let hit = tm.first_match(&h, now).map(|r| r.last_hit = Some(now));
                        ts.hits += u64::from(hit.is_some());
                        ts.misses += u64::from(hit.is_none());
                        prop_assert_eq!(table.matches(&h, now), hit.is_some());
                        let hit = cm.first_match(&h, now).map(|r| {
                            r.e.reactivations += 1;
                            r.e.clone()
                        });
                        cs.reactivation_hits += u64::from(hit.is_some());
                        prop_assert_eq!(cache.check_reactivation(&h, now), hit);
                    }
                }
                prop_assert!(table.len() <= cap && cache.len() <= cap);
                prop_assert_eq!((table.len(), table.stats()), (tm.0.len(), ts));
                prop_assert_eq!((cache.len(), cache.stats()), (cm.0.len(), cs));
                for l in &pool {
                    let want = tm.find(l).map(|r| (r.e.expires, r.last_hit));
                    let got = table.expiry_of(l).map(|e| (e, table.last_hit_of(l)));
                    prop_assert_eq!(got, want, "table: {}", l);
                    let want = cm.find(l).map(|r| r.e.clone());
                    prop_assert_eq!(cache.get(l), want, "shadow: {}", l);
                }
            }
        }
    }
}
