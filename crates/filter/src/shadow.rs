//! The DRAM shadow cache.
//!
//! Section II-B: the victim's gateway *"installs a filter for `Ttmp ≪ T`
//! time units, but keeps a 'shadow' of the filter in DRAM for `T` time
//! units"*. The shadow exists to defeat "on-off" attackers (footnote 2):
//! when a logged flow reappears after its temporary filter expired, the
//! gateway knows immediately that the attacker's gateway never took over
//! and can reinstall the filter and escalate, rather than re-running the
//! whole detection pipeline.
//!
//! DRAM is cheap, so the cache is large (`mv = R1·T` entries are enough to
//! honour a contract, Section IV-B) but still bounded; beyond capacity the
//! oldest entry is evicted FIFO.
//!
//! This file is the policy layer only — capacity, FIFO eviction, statistics
//! and what an entry logs beyond its key. Storage, lookup and lazy expiry
//! live in the label index the filter table shares (`index.rs`), whose
//! slot owns the label and the `T` expiry; a [`ShadowEntry`] is built from
//! the slot and its payload when read.

use aitf_netsim::{SimDuration, SimTime};
use aitf_packet::{FlowLabel, Header, RouteRecord};

use crate::index::{LabelIndex, Slot};

/// A logged filtering request, as a reader sees it: the index slot's key
/// fields beside what the cache logged for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShadowEntry {
    /// The blocked flow.
    pub label: FlowLabel,
    /// The originating request id.
    pub request_id: u64,
    /// When the shadow stops being relevant (the `T` horizon).
    pub expires: SimTime,
    /// The escalation round the request had reached when last seen.
    pub round: u8,
    /// How many times the flow reappeared while shadowed (on-off count).
    pub reactivations: u32,
    /// The attack path carried by the logged request (border routers,
    /// attacker side first). Escalation reads rounds off this path.
    pub path: RouteRecord,
    /// Last time the logging router acted on this entry (propagated or
    /// escalated the request) — used to damp duplicate escalations.
    pub last_action: SimTime,
}

/// What a shadow slot stores beside its label and expiry: the fields of
/// [`ShadowEntry`] the index does not own.
#[derive(Debug)]
struct Logged {
    request_id: u64,
    round: u8,
    reactivations: u32,
    path: RouteRecord,
    last_action: SimTime,
}

impl Logged {
    fn entry(slot: &Slot<Logged>) -> ShadowEntry {
        let v = &slot.value;
        ShadowEntry {
            label: slot.label,
            request_id: v.request_id,
            expires: slot.expires,
            round: v.round,
            reactivations: v.reactivations,
            path: v.path.clone(),
            last_action: v.last_action,
        }
    }
}

/// Statistics for the shadow cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShadowStats {
    /// Entries inserted.
    pub inserts: u64,
    /// Entries refreshed in place.
    pub refreshes: u64,
    /// Entries evicted FIFO because the cache was full.
    pub evictions: u64,
    /// Entries that aged out.
    pub expirations: u64,
    /// Packet checks that found a live shadow (on-off detections).
    pub reactivation_hits: u64,
    /// Highest simultaneous occupancy observed.
    pub peak_occupancy: usize,
}

/// The DRAM log of recent filtering requests.
///
/// # Examples
///
/// ```
/// use aitf_filter::ShadowCache;
/// use aitf_netsim::{SimDuration, SimTime};
/// use aitf_packet::{Addr, FlowLabel, Header};
///
/// let mut cache = ShadowCache::new(1000);
/// let label = FlowLabel::src_dst(Addr::new(10, 9, 0, 7), Addr::new(10, 1, 0, 1));
/// cache.insert(label, 42, SimTime::ZERO, SimDuration::from_secs(60), 1);
///
/// // The flow reappears 30 s later: the cache recognises it instantly.
/// let hdr = Header::udp(Addr::new(10, 9, 0, 7), Addr::new(10, 1, 0, 1), 1, 2);
/// let t = SimTime::ZERO + SimDuration::from_secs(30);
/// assert!(cache.check_reactivation(&hdr, t).is_some());
/// ```
#[derive(Debug)]
pub struct ShadowCache {
    capacity: usize,
    index: LabelIndex<Logged>,
    stats: ShadowStats,
}

impl ShadowCache {
    /// Creates a cache holding at most `capacity` shadows.
    pub fn new(capacity: usize) -> Self {
        ShadowCache {
            capacity,
            index: LabelIndex::new(),
            stats: ShadowStats::default(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entry count as of the last operation.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ShadowStats {
        self.stats
    }

    /// Logs a filtering request for `ttl`; refreshes in place if the exact
    /// label is already shadowed (keeping the later expiry and the higher
    /// round).
    pub fn insert(
        &mut self,
        label: FlowLabel,
        request_id: u64,
        now: SimTime,
        ttl: SimDuration,
        round: u8,
    ) {
        self.insert_with_path(label, request_id, now, ttl, round, RouteRecord::new());
    }

    /// Like [`ShadowCache::insert`], also logging the request's attack path.
    /// A longer path replaces a shorter one on refresh.
    pub fn insert_with_path(
        &mut self,
        label: FlowLabel,
        request_id: u64,
        now: SimTime,
        ttl: SimDuration,
        round: u8,
        path: RouteRecord,
    ) {
        self.purge_expired(now);
        let expires = now.saturating_add(ttl);
        if let Some(i) = self.index.find(&label) {
            self.index.extend(i, expires);
            let e = self.index.value_mut(i);
            e.round = e.round.max(round);
            e.request_id = request_id;
            if path.len() > e.path.len() {
                e.path = path;
            }
            self.stats.refreshes += 1;
            return;
        }
        if self.index.len() >= self.capacity {
            // FIFO: the earliest-stored entry goes. A full cache with
            // nothing to evict has capacity 0 and stores nothing.
            let oldest = self.index.iter().min_by_key(|(_, s)| s.seq);
            let Some((oldest, _)) = oldest else { return };
            self.index.remove(oldest);
            self.stats.evictions += 1;
        }
        let logged = Logged {
            request_id,
            round,
            reactivations: 0,
            path,
            last_action: now,
        };
        self.index.insert(label, expires, logged);
        self.stats.inserts += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.index.len());
    }

    /// Checks whether `header` belongs to a shadowed (recently blocked)
    /// flow. On a hit, bumps the entry's reactivation count and returns a
    /// copy — the caller reinstalls a temporary filter and escalates.
    pub fn check_reactivation(&mut self, header: &Header, now: SimTime) -> Option<ShadowEntry> {
        let i = self.index.first_match(header, now)?;
        self.index.value_mut(i).reactivations += 1;
        self.stats.reactivation_hits += 1;
        Some(Logged::entry(self.index.slot(i)))
    }

    /// Looks up the shadow for `label` without touching statistics.
    pub fn get(&self, label: &FlowLabel) -> Option<ShadowEntry> {
        Some(Logged::entry(self.index.slot(self.index.find(label)?)))
    }

    /// Records that the request for `label` has escalated to `round`.
    pub fn note_round(&mut self, label: &FlowLabel, round: u8) {
        if let Some(i) = self.index.find(label) {
            let e = self.index.value_mut(i);
            e.round = e.round.max(round);
        }
    }

    /// Records that the logging router acted on `label` at `now`.
    pub fn touch_action(&mut self, label: &FlowLabel, now: SimTime) {
        if let Some(i) = self.index.find(label) {
            self.index.value_mut(i).last_action = now;
        }
    }

    /// Drops entries expired at or before `now`.
    pub fn purge_expired(&mut self, now: SimTime) {
        self.stats.expirations += self.index.purge(now);
    }
}

#[cfg(test)]
mod tests {
    //! Fixed cases for the policy layer. The random-operation comparison
    //! against a naive model, whole entry by whole entry, is
    //! `index::spec::tables_agree_with_the_naive_model`.

    use super::*;
    use aitf_packet::Addr;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn label(i: u8) -> FlowLabel {
        FlowLabel::src_dst(Addr::new(10, 9, 0, i), Addr::new(10, 1, 0, 1))
    }

    fn header(i: u8) -> Header {
        Header::udp(Addr::new(10, 9, 0, i), Addr::new(10, 1, 0, 1), 1, 2)
    }

    #[test]
    fn insert_and_reactivate() {
        let mut c = ShadowCache::new(100);
        c.insert(label(1), 7, t(0), SimDuration::from_secs(60), 1);
        let hit = c
            .check_reactivation(&header(1), t(30))
            .expect("shadow live");
        assert_eq!(hit.request_id, 7);
        assert_eq!(hit.reactivations, 1);
        let hit2 = c.check_reactivation(&header(1), t(40)).expect("still live");
        assert_eq!(hit2.reactivations, 2);
        assert!(c.check_reactivation(&header(2), t(30)).is_none());
    }

    #[test]
    fn shadow_expires_at_t_horizon() {
        let mut c = ShadowCache::new(100);
        c.insert(label(1), 7, t(0), SimDuration::from_secs(60), 1);
        assert!(c.check_reactivation(&header(1), t(61)).is_none());
        c.purge_expired(t(61));
        assert!(c.is_empty());
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn refresh_keeps_later_expiry_and_higher_round() {
        let mut c = ShadowCache::new(100);
        c.insert(label(1), 7, t(0), SimDuration::from_secs(60), 2);
        c.insert(label(1), 8, t(10), SimDuration::from_secs(10), 1);
        let e = c.get(&label(1)).unwrap();
        assert_eq!(e.expires, t(60));
        assert_eq!(e.round, 2);
        assert_eq!(e.request_id, 8);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().refreshes, 1);
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut c = ShadowCache::new(3);
        for i in 0..3 {
            c.insert(
                label(i),
                i as u64,
                t(i as u64),
                SimDuration::from_secs(600),
                1,
            );
        }
        c.insert(label(9), 9, t(3), SimDuration::from_secs(600), 1);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 1);
        // The oldest (label 0) is gone; the newest present.
        assert!(c.get(&label(0)).is_none());
        assert!(c.get(&label(9)).is_some());
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = ShadowCache::new(0);
        c.insert(label(1), 1, t(0), SimDuration::from_secs(60), 1);
        assert_eq!(c.len(), 0);
        assert!(c.get(&label(1)).is_none());
        assert_eq!(c.stats().inserts, 0);
    }

    #[test]
    fn peak_occupancy_tracks_highwater() {
        let mut c = ShadowCache::new(100);
        for i in 0..10 {
            c.insert(label(i), i as u64, t(0), SimDuration::from_secs(60), 1);
        }
        c.purge_expired(t(61));
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().peak_occupancy, 10);
    }

    #[test]
    fn note_round_monotonic() {
        let mut c = ShadowCache::new(10);
        c.insert(label(1), 1, t(0), SimDuration::from_secs(60), 1);
        c.note_round(&label(1), 3);
        assert_eq!(c.get(&label(1)).unwrap().round, 3);
        c.note_round(&label(1), 2);
        assert_eq!(c.get(&label(1)).unwrap().round, 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aitf_packet::Addr;
    use proptest::prelude::*;

    proptest! {
        /// The cache never exceeds capacity, and an entry can only be hit
        /// within its TTL window.
        #[test]
        fn capacity_and_ttl_invariants(
            ops in proptest::collection::vec((any::<u8>(), 1u64..100, 1u64..30), 1..200),
            cap in 1usize..12,
        ) {
            let mut c = ShadowCache::new(cap);
            let mut now = SimTime::ZERO;
            // Refreshes keep the *later* expiry, so track ground truth.
            let mut truth: std::collections::HashMap<u8, SimTime> = Default::default();
            for (i, ttl, advance) in ops {
                let lab = FlowLabel::src_dst(Addr::new(10, 9, 0, i), Addr::new(10, 1, 0, 1));
                c.insert(lab, i as u64, now, SimDuration::from_secs(ttl), 1);
                let exp = now + SimDuration::from_secs(ttl);
                let entry = truth.entry(i).or_insert(exp);
                *entry = (*entry).max(exp);
                prop_assert!(c.len() <= cap);
                now += SimDuration::from_secs(advance);
                let hdr = Header::udp(Addr::new(10, 9, 0, i), Addr::new(10, 1, 0, 1), 1, 2);
                if truth[&i] <= now {
                    prop_assert!(
                        c.check_reactivation(&hdr, now).is_none(),
                        "hit after TTL"
                    );
                }
                c.purge_expired(now);
                prop_assert!(c.len() <= cap);
            }
        }
    }
}
