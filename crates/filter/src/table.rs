//! The bounded wire-speed filter table.
//!
//! A hardware router has "a fixed maximum number of wire-speed filters that
//! can block traffic with no degradation in router performance ... typically
//! limited to several thousand" (Section I). [`FilterTable`] enforces that
//! bound: installation beyond capacity either fails or evicts according to
//! the configured [`EvictionPolicy`], and the table tracks occupancy
//! statistics that the benchmark harness compares against the paper's
//! `nv = R1·Ttmp` and `na = R2·T` formulas.
//!
//! This file is the policy layer only — capacity, eviction, statistics and
//! the `last_hit` payload. Storage, lookup and lazy expiry live in the
//! label index the shadow cache shares (`index.rs`).

use aitf_netsim::SimTime;
use aitf_packet::{FlowLabel, Header};

use crate::index::LabelIndex;

/// What to do when installing into a full table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EvictionPolicy {
    /// Refuse the new filter; the caller must escalate or drop the request.
    /// This is the conservative behaviour the paper's contracts are sized
    /// to make unnecessary.
    #[default]
    Reject,
    /// Evict the entry closest to expiry to make room. Trades a short
    /// window of unfiltered traffic for accepting the new request.
    EvictSoonestExpiring,
}

/// Why an installation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstallError {
    /// The table is full and the policy is [`EvictionPolicy::Reject`], or
    /// its capacity is zero.
    TableFull,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::TableFull => write!(f, "filter table full"),
        }
    }
}

impl std::error::Error for InstallError {}

/// How an installation was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstallOutcome {
    /// A new entry was created.
    Installed,
    /// The label was already installed; its expiry was extended.
    Refreshed,
    /// A new entry was created after evicting another (policy-dependent).
    InstalledWithEviction,
}

/// Occupancy and traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Successful new installations (including with eviction).
    pub installs: u64,
    /// Refreshes of an already installed label.
    pub refreshes: u64,
    /// Installations rejected because the table was full.
    pub rejections: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries that aged out.
    pub expirations: u64,
    /// Packets dropped by a matching filter.
    pub hits: u64,
    /// Packets checked that matched nothing.
    pub misses: u64,
    /// Highest simultaneous occupancy ever observed.
    pub peak_occupancy: usize,
}

/// A bounded table of blocking filters.
///
/// # Examples
///
/// ```
/// use aitf_filter::FilterTable;
/// use aitf_netsim::{SimDuration, SimTime};
/// use aitf_packet::{Addr, FlowLabel, Header};
///
/// let mut table = FilterTable::new(100);
/// let attacker = Addr::new(10, 9, 0, 7);
/// let victim = Addr::new(10, 1, 0, 1);
/// let t0 = SimTime::ZERO;
///
/// table.install(FlowLabel::src_dst(attacker, victim), t0, SimDuration::from_secs(60)).unwrap();
/// assert!(table.matches(&Header::udp(attacker, victim, 1, 2), t0));
/// // After expiry the filter stops matching.
/// let later = t0 + SimDuration::from_secs(61);
/// assert!(!table.matches(&Header::udp(attacker, victim, 1, 2), later));
/// ```
#[derive(Debug)]
pub struct FilterTable {
    capacity: usize,
    policy: EvictionPolicy,
    /// Label → last time a packet hit the filter (`None` until the first).
    index: LabelIndex<Option<SimTime>>,
    stats: FilterStats,
}

impl FilterTable {
    /// Creates a table holding at most `capacity` filters with the default
    /// ([`EvictionPolicy::Reject`]) policy.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, EvictionPolicy::default())
    }

    /// Creates a table with an explicit eviction policy.
    pub fn with_policy(capacity: usize, policy: EvictionPolicy) -> Self {
        FilterTable {
            capacity,
            policy,
            index: LabelIndex::new(),
            stats: FilterStats::default(),
        }
    }

    /// The hard capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live (non-expired as of the last operation) entry count.
    ///
    /// Expired entries are purged lazily; call [`FilterTable::purge_expired`]
    /// first for an exact figure at a given instant.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no filters are installed.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Installs (or refreshes) a filter blocking `label` until
    /// `now + duration`.
    ///
    /// Behaviour on a full table depends on the [`EvictionPolicy`].
    pub fn install(
        &mut self,
        label: FlowLabel,
        now: SimTime,
        duration: aitf_netsim::SimDuration,
    ) -> Result<InstallOutcome, InstallError> {
        let expires = now.saturating_add(duration);
        self.purge_expired(now);

        // Refresh the label in place.
        if let Some(i) = self.index.find(&label) {
            self.index.extend(i, expires);
            self.stats.refreshes += 1;
            return Ok(InstallOutcome::Refreshed);
        }

        let mut evicted = false;
        if self.index.len() >= self.capacity {
            // A full table with nothing to evict has capacity 0.
            let victim = match self.policy {
                EvictionPolicy::Reject => None,
                EvictionPolicy::EvictSoonestExpiring => self
                    .index
                    .iter()
                    .min_by_key(|&(i, s)| (s.expires, i))
                    .map(|(i, _)| i),
            };
            let Some(victim) = victim else {
                self.stats.rejections += 1;
                return Err(InstallError::TableFull);
            };
            self.index.remove(victim);
            self.stats.evictions += 1;
            evicted = true;
        }

        self.index.insert(label, expires, None);
        self.stats.installs += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.index.len());
        Ok(if evicted {
            InstallOutcome::InstalledWithEviction
        } else {
            InstallOutcome::Installed
        })
    }

    /// Removes the filter with exactly this label. Returns `true` if found.
    pub fn remove(&mut self, label: &FlowLabel) -> bool {
        let found = self.index.find(label);
        found.map(|i| self.index.remove(i)).is_some()
    }

    /// Returns `true` if a live filter matches `header` — i.e. the packet
    /// must be dropped. Updates hit/miss statistics and the matching
    /// entry's last-hit time (used for grace-period checks).
    pub fn matches(&mut self, header: &Header, now: SimTime) -> bool {
        match self.index.first_match(header, now) {
            Some(i) => {
                self.stats.hits += 1;
                *self.index.value_mut(i) = Some(now);
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Last time a packet hit the filter with exactly this label.
    pub fn last_hit_of(&self, label: &FlowLabel) -> Option<SimTime> {
        self.index
            .find(label)
            .and_then(|i| self.index.slot(i).value)
    }

    /// Like [`FilterTable::matches`] but returns the matching label and does
    /// not update statistics or last-hit times.
    pub fn lookup(&self, header: &Header, now: SimTime) -> Option<FlowLabel> {
        self.index
            .first_match(header, now)
            .map(|i| self.index.slot(i).label)
    }

    /// Returns the expiry of the filter with exactly this label, if live.
    pub fn expiry_of(&self, label: &FlowLabel) -> Option<SimTime> {
        self.index.find(label).map(|i| self.index.slot(i).expires)
    }

    /// Drops every entry whose expiry is at or before `now`.
    pub fn purge_expired(&mut self, now: SimTime) {
        self.stats.expirations += self.index.purge(now);
    }

    /// All live labels with their expiry times, in no particular order.
    pub fn entries(&self) -> Vec<(FlowLabel, SimTime)> {
        self.index
            .iter()
            .map(|(_, s)| (s.label, s.expires))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitf_netsim::SimDuration;
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
    fn install_then_match_then_expire() {
        let mut tbl = FilterTable::new(10);
        assert_eq!(
            tbl.install(label(1), t(0), SimDuration::from_secs(60)),
            Ok(InstallOutcome::Installed)
        );
        assert!(tbl.matches(&header(1), t(30)));
        assert!(!tbl.matches(&header(2), t(30)));
        assert!(!tbl.matches(&header(1), t(61)));
        tbl.purge_expired(t(61));
        assert!(tbl.is_empty());
        assert_eq!(tbl.stats().expirations, 1);
    }

    #[test]
    fn capacity_bound_is_hard_with_reject_policy() {
        let mut tbl = FilterTable::new(3);
        for i in 0..3 {
            tbl.install(label(i), t(0), SimDuration::from_secs(60))
                .unwrap();
        }
        assert_eq!(
            tbl.install(label(9), t(0), SimDuration::from_secs(60)),
            Err(InstallError::TableFull)
        );
        assert_eq!(tbl.len(), 3);
        assert_eq!(tbl.stats().rejections, 1);
        assert_eq!(tbl.stats().peak_occupancy, 3);
    }

    #[test]
    fn expired_entries_free_capacity() {
        let mut tbl = FilterTable::new(1);
        tbl.install(label(1), t(0), SimDuration::from_secs(10))
            .unwrap();
        assert!(tbl
            .install(label(2), t(5), SimDuration::from_secs(10))
            .is_err());
        // After the first expires, the slot is reusable.
        assert_eq!(
            tbl.install(label(2), t(11), SimDuration::from_secs(10)),
            Ok(InstallOutcome::Installed)
        );
        assert_eq!(tbl.len(), 1);
    }

    #[test]
    fn refresh_extends_expiry() {
        let mut tbl = FilterTable::new(10);
        tbl.install(label(1), t(0), SimDuration::from_secs(10))
            .unwrap();
        assert_eq!(
            tbl.install(label(1), t(5), SimDuration::from_secs(10)),
            Ok(InstallOutcome::Refreshed)
        );
        assert_eq!(tbl.expiry_of(&label(1)), Some(t(15)));
        assert_eq!(tbl.len(), 1);
        // A shorter refresh must not shorten the expiry.
        tbl.install(label(1), t(6), SimDuration::from_secs(1))
            .unwrap();
        assert_eq!(tbl.expiry_of(&label(1)), Some(t(15)));
    }

    #[test]
    fn zero_capacity_rejects_under_every_policy() {
        for policy in [EvictionPolicy::Reject, EvictionPolicy::EvictSoonestExpiring] {
            let mut tbl = FilterTable::with_policy(0, policy);
            assert_eq!(
                tbl.install(label(1), t(0), SimDuration::from_secs(60)),
                Err(InstallError::TableFull)
            );
            assert!(tbl.is_empty());
            assert_eq!(tbl.stats().rejections, 1);
        }
    }

    #[test]
    fn many_filters_to_one_victim_stay_exact() {
        let src = |i: u32| Addr(Addr::new(10, 9, 0, 0).0 + i);
        let victim = Addr::new(10, 1, 0, 1);
        let mut tbl = FilterTable::new(4096);
        for i in 0..4096 {
            tbl.install(
                FlowLabel::src_dst(src(i), victim),
                t(0),
                SimDuration::from_secs(60),
            )
            .unwrap();
        }
        assert!(!tbl.matches(&Header::udp(src(4096), victim, 1, 2), t(1)));
        assert!(tbl.matches(&Header::udp(src(2048), victim, 1, 2), t(1)));
        for i in 0..4096 {
            let hit = tbl.last_hit_of(&FlowLabel::src_dst(src(i), victim));
            assert_eq!(hit, (i == 2048).then(|| t(1)), "filter {i}");
        }
    }

    #[test]
    fn evict_soonest_expiring_makes_room() {
        let mut tbl = FilterTable::with_policy(2, EvictionPolicy::EvictSoonestExpiring);
        tbl.install(label(1), t(0), SimDuration::from_secs(10))
            .unwrap();
        tbl.install(label(2), t(0), SimDuration::from_secs(60))
            .unwrap();
        assert_eq!(
            tbl.install(label(3), t(1), SimDuration::from_secs(60)),
            Ok(InstallOutcome::InstalledWithEviction)
        );
        // label(1) (soonest expiry) was evicted.
        assert!(!tbl.matches(&header(1), t(2)));
        assert!(tbl.matches(&header(2), t(2)));
        assert!(tbl.matches(&header(3), t(2)));
        assert_eq!(tbl.stats().evictions, 1);
    }

    /// Slot numbers break eviction ties, and they follow the index's reuse
    /// rule: a purge frees slots in ascending order, reuse is LIFO.
    #[test]
    fn eviction_ties_break_on_reused_slots() {
        let secs = SimDuration::from_secs;
        let mut tbl = FilterTable::with_policy(3, EvictionPolicy::EvictSoonestExpiring);
        tbl.install(label(1), t(0), secs(10)).unwrap(); // slot 0
        tbl.install(label(2), t(0), secs(10)).unwrap(); // slot 1
        tbl.install(label(3), t(0), secs(20)).unwrap(); // slot 2

        // The purge at t = 10 frees slots 0 then 1: label 4 takes slot 1
        // and label 5 slot 0.
        tbl.install(label(4), t(10), secs(10)).unwrap();
        tbl.install(label(5), t(10), secs(10)).unwrap();
        // All three expire at t = 20; the lowest slot — the newest — goes.
        tbl.install(label(6), t(11), secs(60)).unwrap();
        assert!(!tbl.matches(&header(5), t(12)));
        assert!(tbl.matches(&header(3), t(12)) && tbl.matches(&header(4), t(12)));
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut tbl = FilterTable::new(1);
        tbl.install(label(1), t(0), SimDuration::from_secs(60))
            .unwrap();
        assert!(tbl.remove(&label(1)));
        assert!(!tbl.remove(&label(1)));
        assert!(tbl.is_empty());
        assert!(tbl
            .install(label(2), t(0), SimDuration::from_secs(60))
            .is_ok());
    }

    #[test]
    fn hit_miss_accounting() {
        let mut tbl = FilterTable::new(10);
        tbl.install(label(1), t(0), SimDuration::from_secs(60))
            .unwrap();
        tbl.matches(&header(1), t(1));
        tbl.matches(&header(1), t(2));
        tbl.matches(&header(2), t(3));
        let s = tbl.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn entries_lists_live_filters() {
        let mut tbl = FilterTable::new(10);
        tbl.install(label(1), t(0), SimDuration::from_secs(10))
            .unwrap();
        tbl.install(label(2), t(0), SimDuration::from_secs(20))
            .unwrap();
        let mut entries = tbl.entries();
        entries.sort_by_key(|&(_, e)| e);
        assert_eq!(entries, vec![(label(1), t(10)), (label(2), t(20))]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aitf_netsim::SimDuration;
    use aitf_packet::Addr;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Install(u8, u64),
        Remove(u8),
        Advance(u64),
        Match(u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), 1u64..120).prop_map(|(i, d)| Op::Install(i, d)),
            any::<u8>().prop_map(Op::Remove),
            (1u64..30).prop_map(Op::Advance),
            any::<u8>().prop_map(Op::Match),
        ]
    }

    proptest! {
        /// Under any operation sequence: occupancy never exceeds capacity,
        /// and no expired entry ever matches a packet.
        #[test]
        fn capacity_and_expiry_invariants(
            ops in proptest::collection::vec(arb_op(), 1..200),
            cap in 1usize..16,
        ) {
            let mut tbl = FilterTable::with_policy(cap, EvictionPolicy::EvictSoonestExpiring);
            let mut now = SimTime::ZERO;
            // Track ground truth expiries for exact labels.
            let mut truth: std::collections::HashMap<u8, SimTime> = Default::default();
            for op in ops {
                match op {
                    Op::Install(i, d) => {
                        let lab = FlowLabel::src_dst(
                            Addr::new(10, 9, 0, i),
                            Addr::new(10, 1, 0, 1),
                        );
                        let dur = SimDuration::from_secs(d);
                        if tbl.install(lab, now, dur).is_ok() {
                            let exp = tbl.expiry_of(&lab);
                            if let Some(e) = exp {
                                truth.insert(i, e);
                            }
                        }
                    }
                    Op::Remove(i) => {
                        let lab = FlowLabel::src_dst(
                            Addr::new(10, 9, 0, i),
                            Addr::new(10, 1, 0, 1),
                        );
                        tbl.remove(&lab);
                        truth.remove(&i);
                    }
                    Op::Advance(s) => {
                        now += SimDuration::from_secs(s);
                    }
                    Op::Match(i) => {
                        let hdr = Header::udp(
                            Addr::new(10, 9, 0, i),
                            Addr::new(10, 1, 0, 1),
                            1,
                            2,
                        );
                        let hit = tbl.matches(&hdr, now);
                        // If ground truth says expired (or absent), the table
                        // must agree that nothing live matches; evictions can
                        // only make the table match *less*, never more.
                        match truth.get(&i) {
                            Some(&exp) if exp > now => {}
                            _ => prop_assert!(!hit, "expired/absent filter matched"),
                        }
                    }
                }
                tbl.purge_expired(now);
                prop_assert!(tbl.len() <= cap, "occupancy exceeded capacity");
            }
        }
    }

    #[derive(Debug, Clone)]
    enum TinyOp {
        Install(u8, u64),
        Remove(u8),
        Advance(u64),
        Lookup(u8),
    }

    fn arb_tiny_op() -> impl Strategy<Value = TinyOp> {
        prop_oneof![
            (0u8..6, 1u64..90).prop_map(|(i, d)| TinyOp::Install(i, d)),
            (0u8..6).prop_map(TinyOp::Remove),
            (1u64..30).prop_map(TinyOp::Advance),
            (0u8..6).prop_map(TinyOp::Lookup),
        ]
    }

    fn pair_label(i: u8) -> FlowLabel {
        FlowLabel::src_dst(Addr::new(10, 9, 0, i), Addr::new(10, 1, 0, 1))
    }

    proptest! {
        /// Tiny-capacity hammering, every install past the first few
        /// evicting. Invariants after every operation:
        ///
        /// - occupancy never exceeds the capacity;
        /// - `lookup` agrees with a plain scan of `entries()` — a dropped
        ///   index entry would silently stop matching a live filter;
        /// - the `installs = live + evictions + expirations + removes`
        ///   lifecycle identity holds.
        #[test]
        fn tiny_capacity_eviction_invariants(
            ops in proptest::collection::vec(arb_tiny_op(), 1..120),
            cap in 1usize..5,
        ) {
            let mut tbl = FilterTable::with_policy(cap, EvictionPolicy::EvictSoonestExpiring);
            let mut now = SimTime::ZERO;
            let mut removes = 0u64;
            for op in ops {
                match op {
                    TinyOp::Install(i, d) => {
                        let _ = tbl.install(pair_label(i), now, SimDuration::from_secs(d));
                    }
                    TinyOp::Remove(i) => {
                        if tbl.remove(&pair_label(i)) {
                            removes += 1;
                        }
                    }
                    TinyOp::Advance(s) => {
                        now += SimDuration::from_secs(s);
                        tbl.purge_expired(now);
                    }
                    TinyOp::Lookup(i) => {
                        let hdr = Header::udp(Addr::new(10, 9, 0, i), Addr::new(10, 1, 0, 1), 1, 2);
                        let via_index = tbl.lookup(&hdr, now);
                        let via_scan = tbl
                            .entries()
                            .into_iter()
                            .find(|(label, exp)| *exp > now && label.matches(&hdr));
                        prop_assert_eq!(
                            via_index.is_some(),
                            via_scan.is_some(),
                            "index lookup and slab scan disagree for {:?}",
                            hdr
                        );
                        let _ = tbl.matches(&hdr, now);
                    }
                }
                prop_assert!(tbl.len() <= cap, "occupancy {} > cap {cap}", tbl.len());
                let s = tbl.stats();
                prop_assert!(s.peak_occupancy <= cap, "peak beyond capacity");
                prop_assert_eq!(
                    s.installs,
                    tbl.len() as u64 + s.evictions + s.expirations + removes,
                    "lifecycle identity broken: {:?} (removes = {})", s, removes
                );
            }
        }
    }
}
