//! Longest-prefix-match tables and the address map of disjoint prefixes.
//!
//! - [`LpmTable`] maps prefixes, nested as they please, to values and
//!   answers an address with the value of the *longest* stored prefix
//!   containing it. It is a flat array in `(addr, len)` order probed with
//!   one binary search, so a lookup costs `O(log n)` however deep the
//!   prefixes nest. In that order a prefix sorts after every prefix
//!   covering it and before everything nested inside it, so the last entry
//!   starting at or before the address is either the answer or nested
//!   inside the answer; each entry carries the index of its longest stored
//!   cover, and the lookup climbs that chain — zero steps on tables of
//!   disjoint prefixes, one to reach a default route.
//! - Where the prefixes are pairwise disjoint no chain is needed:
//!   [`PrefixMap`] indexes them directly by address, 16, 8 and 8 bits at a
//!   time, so a lookup costs at most three loads however many prefixes it
//!   holds. A world's declared networks are such a set.

use crate::addr::{Addr, Prefix};

/// `cover` of an entry no stored prefix covers; past the end of any table.
const NO_COVER: u32 = u32::MAX;

/// One route of a table.
#[derive(Debug, Clone)]
struct Entry<T> {
    prefix: Prefix,
    /// Index of the longest stored prefix strictly covering `prefix`.
    cover: u32,
    value: T,
}

impl<T> Entry<T> {
    fn new(prefix: Prefix, value: T) -> Self {
        Entry {
            prefix,
            cover: NO_COVER,
            value,
        }
    }
}

/// The first entry satisfying `hit` on the cover chain from entry `i`
/// (itself included) outwards; `NO_COVER` ends the climb by indexing past
/// the end.
///
/// This finds the longest stored prefix around an address or a prefix when
/// `i` is the last entry starting at or before it: that entry is the one
/// sought or starts inside it (and ends too early), so the one sought is
/// among its covers, longest first.
fn climb<T>(table: &[Entry<T>], mut i: usize, hit: impl Fn(Prefix) -> bool) -> Option<usize> {
    loop {
        let entry = table.get(i)?;
        if hit(entry.prefix) {
            return Some(i);
        }
        i = entry.cover as usize;
    }
}

/// The longest stored strict cover of entry `i`, given the covers of the
/// entries before it.
fn cover_of<T>(table: &[Entry<T>], i: usize) -> u32 {
    let prefix = table[i].prefix;
    let before = i.checked_sub(1);
    match before.and_then(|j| climb(table, j, |p| p.covers(prefix))) {
        Some(j) => {
            assert!(j < NO_COVER as usize, "LPM table too large");
            j as u32
        }
        None => NO_COVER,
    }
}

/// Re-derives every cover index, front to back. Each climb starts where the
/// previous one ended, so the whole pass is `O(n)`.
fn reindex<T>(table: &mut [Entry<T>]) {
    for i in 0..table.len() {
        table[i].cover = cover_of(table, i);
    }
}

/// A longest-prefix-match map from [`Prefix`] to `T`.
///
/// Collecting an iterator of `(prefix, value)` pairs builds the table in
/// one pass if they come ascending, one sort otherwise (a later duplicate
/// prefix replaces an earlier one, as repeated [`LpmTable::insert`]s
/// would); `insert` in ascending prefix order appends in `O(log n)`. Any
/// other `insert`, and every `remove`, shifts the array and re-derives the
/// cover chain in `O(n)`.
///
/// No router routes with it: a world's routers read its declared networks
/// from one [`PrefixMap`]. Its one caller is the benchmark's
/// `packet.lpm_lookup_ns` kernel, which therefore does not time the
/// simulator's lookup.
///
/// # Examples
///
/// ```
/// use aitf_packet::{Addr, Prefix};
/// use aitf_packet::lpm::LpmTable;
///
/// let mut t = LpmTable::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// t.insert("10.1.0.0/16".parse().unwrap(), "fine");
///
/// assert_eq!(t.lookup(Addr::new(10, 1, 2, 3)), Some(&"fine"));
/// assert_eq!(t.lookup(Addr::new(10, 9, 0, 1)), Some(&"coarse"));
/// assert_eq!(t.lookup(Addr::new(11, 0, 0, 1)), None);
/// ```
#[derive(Debug, Clone)]
pub struct LpmTable<T> {
    /// Ascending by prefix, one entry per prefix, covers derived.
    entries: Vec<Entry<T>>,
}

impl<T> Default for LpmTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LpmTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        LpmTable {
            entries: Vec::new(),
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts (or replaces) the value for a prefix. Returns the previous
    /// value if the exact prefix was present.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        match self.entries.binary_search_by_key(&prefix, |e| e.prefix) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].value, value)),
            Err(i) => {
                self.entries.insert(i, Entry::new(prefix, value));
                if i + 1 == self.entries.len() {
                    // Appended: no index moved and nothing sorts after the
                    // new prefix, so only its own cover is unknown.
                    self.entries[i].cover = cover_of(&self.entries, i);
                } else {
                    reindex(&mut self.entries);
                }
                None
            }
        }
    }

    /// Removes the value for an exact prefix.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let i = self
            .entries
            .binary_search_by_key(&prefix, |e| e.prefix)
            .ok()?;
        let entry = self.entries.remove(i);
        reindex(&mut self.entries);
        Some(entry.value)
    }

    /// The value of the longest prefix containing `addr`, if any.
    pub fn lookup(&self, addr: Addr) -> Option<&T> {
        let table = &self.entries;
        let after = table.partition_point(|e| e.prefix.addr() <= addr);
        let hit = climb(table, after.checked_sub(1)?, |p| p.contains(addr))?;
        Some(&table[hit].value)
    }

    /// Returns `true` if any stored prefix contains `addr`.
    pub fn contains(&self, addr: Addr) -> bool {
        self.lookup(addr).is_some()
    }
}

impl<T> FromIterator<(Prefix, T)> for LpmTable<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let routes = iter.into_iter();
        let mut entries: Vec<Entry<T>> = routes.map(|(p, value)| Entry::new(p, value)).collect();
        if entries.windows(2).any(|w| w[0].prefix > w[1].prefix) {
            // Stable, so equal prefixes stay in arrival order.
            entries.sort_by_key(|e| e.prefix);
        }
        // Compact in place: each prefix's last entry moves into the slot of
        // its first, and what is left past `kept` is the replaced ones.
        let mut kept = 0;
        for i in 0..entries.len() {
            if kept > 0 && entries[kept - 1].prefix == entries[i].prefix {
                entries.swap(kept - 1, i);
            } else {
                entries.swap(kept, i);
                kept += 1;
            }
        }
        entries.truncate(kept);
        reindex(&mut entries);
        LpmTable { entries }
    }
}

/// A [`PrefixMap`] entry that holds nothing.
const EMPTY: u32 = 0;
/// The tag of a [`PrefixMap`] entry that names a child block; any other
/// non-empty entry is its value plus one.
const CHILD: u32 = 1 << 31;
/// Entries in a child block, one per value of the next 8 address bits.
const BLOCK: usize = 256;

/// Where the child block an entry names starts in [`PrefixMap::blocks`].
#[inline]
fn child(entry: u32) -> usize {
    (entry & !CHILD) as usize * BLOCK
}

/// An owned map from pairwise-disjoint prefixes to `u32` values, indexed
/// directly by address in strides of 16, 8 and 8 bits, after DIR-24-8
/// (Gupta, Lin & McKeown, INFOCOM 1998): a lookup is at most three
/// dependent loads and compares no prefixes, however many the map holds.
/// A world's declared networks are such a set, and every router answers
/// its routing and ingress questions from that one per-world map.
///
/// The root has one entry per /16 from the first one a prefix touches to
/// the last. Each entry is empty, a value (the whole /16 lies in one
/// prefix), or the index of a 256-entry child block indexed by the next 8
/// bits, for a /16 that a longer prefix splits; a block's entries work the
/// same way one level down, for /24s split by prefixes longer than /24.
/// All child blocks sit in one flat array, so the root is at most 256 KiB,
/// each split /16 or /24 adds 1 KiB, and a build makes at most three
/// allocations.
///
/// # Examples
///
/// ```
/// use aitf_packet::{Addr, Prefix};
/// use aitf_packet::lpm::PrefixMap;
///
/// let map = PrefixMap::new([
///     ("10.0.0.0/8".parse().unwrap(), 1),
///     ("11.1.2.0/24".parse().unwrap(), 2),
///     ("11.1.3.128/25".parse().unwrap(), 3),
/// ])
/// .unwrap();
///
/// assert_eq!(map.get(Addr::new(10, 9, 9, 9)), Some(1));
/// assert_eq!(map.get(Addr::new(11, 1, 2, 3)), Some(2));
/// assert_eq!(map.get(Addr::new(11, 1, 3, 200)), Some(3));
/// assert_eq!(map.get(Addr::new(11, 1, 3, 1)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PrefixMap {
    /// The /16 that `root[0]` stands for.
    base: u32,
    /// One entry per /16 from `base` on.
    root: Vec<u32>,
    /// The child blocks, [`BLOCK`] entries each: those of split /16s first,
    /// then those of split /24s.
    blocks: Vec<u32>,
}

/// Two prefixes given to [`PrefixMap::new`] that overlap, named by their
/// values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overlap {
    /// The value of the one listed first.
    pub earlier: u32,
    /// The value of the one listed later.
    pub later: u32,
}

impl PrefixMap {
    /// The largest value a map holds.
    pub const MAX_VALUE: u32 = CHILD - 2;

    /// Maps each prefix of `routes`, in any order, to its value, or names
    /// two of them that overlap. `routes` is walked a few times and never
    /// collected, so a caller lists its prefixes without a copy.
    ///
    /// # Panics
    ///
    /// Panics if a value exceeds [`PrefixMap::MAX_VALUE`].
    pub fn new<I>(routes: I) -> Result<Self, Overlap>
    where
        I: IntoIterator<Item = (Prefix, u32)>,
        I::IntoIter: Clone,
    {
        let routes = routes.into_iter();
        let last = |p: Prefix| p.addr().raw() + (p.size() - 1) as u32;
        let span = routes
            .clone()
            .map(|(p, _)| (p.addr().raw() >> 16, last(p) >> 16));
        let Some((lo, hi)) = span.reduce(|(a, b), (c, d)| (a.min(c), b.max(d))) else {
            return Ok(PrefixMap::default());
        };
        let mut map = PrefixMap {
            base: lo,
            root: vec![EMPTY; (hi - lo) as usize + 1],
            blocks: Vec::new(),
        };
        // Number a block for every /16 a prefix longer than /16 lies in,
        // then for every /24 a prefix longer than /24 lies in, and size the
        // flat array once per level.
        let mut blocks = 0;
        for depth in [16, 24] {
            for (p, _) in routes.clone().filter(|r| r.0.len() > depth) {
                let entry = map.above(p, depth);
                if *entry == EMPTY {
                    *entry = CHILD | blocks;
                    blocks += 1;
                }
            }
            let more = blocks as usize * BLOCK - map.blocks.len();
            map.blocks.reserve_exact(more);
            map.blocks.resize(blocks as usize * BLOCK, EMPTY);
        }
        for (at, (p, value)) in routes.clone().enumerate() {
            assert!(
                value <= Self::MAX_VALUE,
                "prefix map value {value} too large"
            );
            let (first, last) = (p.addr().raw(), last(p));
            let run = if p.len() <= 16 {
                let at = |a: u32| ((a >> 16) - lo) as usize;
                &mut map.root[at(first)..=at(last)]
            } else {
                let shift = if p.len() <= 24 { 8 } else { 0 };
                let block = child(*map.above(p, p.len() - 1));
                let at = |a: u32| block + (a >> shift & 0xff) as usize;
                &mut map.blocks[at(first)..=at(last)]
            };
            // A value there is an earlier prefix around `p`'s addresses,
            // and a child block one inside them.
            if run.iter().any(|&entry| entry != EMPTY) {
                return Err(overlap(routes, at, p, value));
            }
            run.fill(value + 1);
        }
        Ok(map)
    }

    /// The entry for the /16 (`depth` 16 to 23) or the /24 (`depth` 24 and
    /// more) that `p` lies in; a /24's entry is in its /16's block, which
    /// must be numbered already.
    fn above(&mut self, p: Prefix, depth: u8) -> &mut u32 {
        let a = p.addr().raw();
        let entry = &mut self.root[((a >> 16) - self.base) as usize];
        if depth < 24 {
            return entry;
        }
        &mut self.blocks[child(*entry) + (a >> 8 & 0xff) as usize]
    }

    /// The value of the prefix holding `addr`, if any.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<u32> {
        let a = addr.raw();
        let mut entry = *self.root.get((a >> 16).wrapping_sub(self.base) as usize)?;
        if entry & CHILD != 0 {
            entry = self.blocks[child(entry) + (a >> 8 & 0xff) as usize];
            if entry & CHILD != 0 {
                entry = self.blocks[child(entry) + (a & 0xff) as usize];
            }
        }
        entry.checked_sub(1)
    }
}

/// The overlap [`PrefixMap::new`] met at the `at`-th route, `(p, value)`:
/// that route and the first other one around or inside it.
#[cold]
fn overlap(
    routes: impl Iterator<Item = (Prefix, u32)>,
    at: usize,
    p: Prefix,
    value: u32,
) -> Overlap {
    let mut others = routes.enumerate().filter(|&(k, _)| k != at);
    let (k, (_, other)) = others
        .find(|(_, (q, _))| q.overlaps(p))
        .expect("an occupied entry is another route's");
    let (earlier, later) = if k < at {
        (other, value)
    } else {
        (value, other)
    };
    Overlap { earlier, later }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().expect("valid prefix")
    }

    #[test]
    fn longest_match_wins() {
        let mut t = LpmTable::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        assert_eq!(t.lookup(Addr::new(10, 1, 2, 3)), Some(&24));
        assert_eq!(t.lookup(Addr::new(10, 1, 9, 3)), Some(&16));
        assert_eq!(t.lookup(Addr::new(10, 9, 9, 9)), Some(&8));
        assert_eq!(t.lookup(Addr::new(12, 0, 0, 1)), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = LpmTable::new();
        t.insert(Prefix::ANY, 0);
        assert_eq!(t.lookup(Addr::new(1, 2, 3, 4)), Some(&0));
        t.insert(p("9.0.0.0/8"), 9);
        assert_eq!(t.lookup(Addr::new(9, 1, 1, 1)), Some(&9));
    }

    #[test]
    fn host_routes_are_most_specific() {
        let mut t = LpmTable::new();
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(Prefix::host(Addr::new(10, 1, 0, 254)), 32);
        assert_eq!(t.lookup(Addr::new(10, 1, 0, 254)), Some(&32));
        assert_eq!(t.lookup(Addr::new(10, 1, 0, 253)), Some(&16));
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut t = LpmTable::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(Addr::new(10, 0, 0, 1)), Some(&2));
    }

    #[test]
    fn remove_exact_only() {
        let mut t = LpmTable::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        assert_eq!(t.remove(p("10.1.0.0/16")), Some(2));
        assert_eq!(t.remove(p("10.1.0.0/16")), None);
        assert_eq!(t.len(), 1);
        // The covering /8 still matches.
        assert_eq!(t.lookup(Addr::new(10, 1, 0, 1)), Some(&1));
    }

    #[test]
    fn from_iter_builds_table() {
        let t: LpmTable<u32> = [(p("10.0.0.0/8"), 1), (p("11.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
        assert!(t.contains(Addr::new(11, 1, 1, 1)));
    }

    #[test]
    fn an_empty_prefix_map_holds_nothing() {
        let map = PrefixMap::new([]).unwrap();
        assert_eq!(map.get(Addr::ZERO), None);
        assert_eq!(map.get(Addr(u32::MAX)), None);
    }

    #[test]
    fn a_prefix_around_a_longer_one_is_refused() {
        let map = PrefixMap::new([(p("10.1.2.128/25"), 1), (p("10.0.0.0/8"), 2)]);
        let overlap = Overlap {
            earlier: 1,
            later: 2,
        };
        assert_eq!(map.unwrap_err(), overlap);
        // Found at the /8, before the /25's value is written.
        let map = PrefixMap::new([(p("10.0.0.0/8"), 1), (p("10.1.2.128/25"), 2)]);
        assert_eq!(map.unwrap_err(), overlap);
    }

    /// The longest match among `routes` (distinct prefixes), by brute force.
    fn scan(routes: &[(Prefix, u32)], addr: Addr) -> Option<u32> {
        let hits = routes.iter().filter(|(p, _)| p.contains(addr));
        hits.max_by_key(|(p, _)| p.len()).map(|&(_, v)| v)
    }

    #[test]
    fn provider_sized_table_agrees_with_linear_scan() {
        use rand::{Rng, SeedableRng};
        // A provider's table: a default route, 60,000 disjoint /24s and a
        // /32 inside every tenth of the first 55,350 — 65,536 routes,
        // three deep.
        let slash24 = |i: u32| Prefix::new(Addr((10 << 24) | (i << 8)), 24);
        let mut routes = vec![(Prefix::ANY, 0)];
        routes.extend((0..60_000).map(|i| (slash24(i), i + 1)));
        let hosts = (0..55_350).step_by(10);
        routes.extend(hosts.map(|i| (Prefix::host(slash24(i).host_at(9)), i + 100_000)));
        assert_eq!(routes.len(), 65_536);
        // Built from a scrambled list: 40,503 is coprime to 65,536.
        let scrambled = (0..routes.len()).map(|k| routes[k * 40_503 % routes.len()]);
        let table: LpmTable<u32> = scrambled.collect();
        assert_eq!(table.len(), routes.len());

        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        for probe in 0..1_000 {
            // One of the /24s, or one of 10,000 more just past the last.
            let i = rng.gen_range(0..70_000u32);
            let addr = match probe % 4 {
                // Anywhere, mostly outside 10/8: the default route.
                0 => Addr(rng.gen_range(0..=u32::MAX)),
                // A /32 route or its next-door neighbour.
                1 => slash24(i - i % 10).host_at(rng.gen_range(9..=10u32)),
                _ => slash24(i).host_at(rng.gen_range(0..256u32)),
            };
            assert_eq!(table.lookup(addr).copied(), scan(&routes, addr), "{addr}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(Addr(a), l))
    }

    /// Prefixes crowded into a corner of the address space, so that lists
    /// of them nest several deep, repeat, and sit next to each other —
    /// with `/0` and `/32` among them.
    fn crowded_prefix() -> impl Strategy<Value = Prefix> {
        let len = prop_oneof![Just(0u8), 1u8..=2, 22u8..=24, 30u8..=32, 0u8..=32];
        (0u32..4, 0u32..8, 0u32..4, len)
            .prop_map(|(hi, mid, lo, len)| Prefix::new(Addr((hi << 30) | (mid << 8) | lo), len))
    }

    /// Prefixes of every length, most of them within a few /16s of each
    /// other: shorter than /16 and spanning several root entries, /16 to
    /// /24 sharing a /16's block, or longer than /24 sharing a /24's. One
    /// in five is shorter than /16, since it overlaps most of the others.
    fn map_prefix() -> impl Strategy<Value = Prefix> {
        let len = prop_oneof![0u8..16, 16u8..=24, 16u8..=24, 25u8..=32, 25u8..=32];
        let near = (0u32..4, 0u32..4, any::<u8>());
        let near = near.prop_map(|(b, c, d)| (10 << 24) | (b << 16) | (c << 8) | u32::from(d));
        // One in four anywhere at all.
        let addr =
            (near, any::<u32>(), 0u8..4).prop_map(|(n, a, pick)| if pick == 0 { a } else { n });
        (addr, len).prop_map(|(a, len)| Prefix::new(Addr(a), len))
    }

    /// Each prefix's first and last address and the addresses just outside.
    fn edges(prefixes: &[Prefix]) -> impl Iterator<Item = Addr> + '_ {
        prefixes.iter().flat_map(|p| {
            let first = p.addr().raw();
            let last = first.wrapping_add((p.size() - 1) as u32);
            [first.wrapping_sub(1), first, last, last.wrapping_add(1)].map(Addr)
        })
    }

    proptest! {
        /// Over any pairwise-disjoint prefixes, of every length from /0 to
        /// /32 and in any order, the map holds the value of the one prefix
        /// around an address, on block boundaries and outside the root's
        /// span too.
        #[test]
        fn prefix_map_agrees_with_linear_scan(
            candidates in proptest::collection::vec((map_prefix(), 0..=PrefixMap::MAX_VALUE), 0..40),
            probes in proptest::collection::vec(any::<u32>(), 1..20),
        ) {
            // The candidates that overlap none kept before them.
            let mut routes: Vec<(Prefix, u32)> = Vec::new();
            for &(p, v) in &candidates {
                if routes.iter().all(|r| !r.0.overlaps(p)) {
                    routes.push((p, v));
                }
            }
            let map = PrefixMap::new(routes.iter().copied()).unwrap();
            let prefixes: Vec<Prefix> = candidates.iter().map(|c| c.0).collect();
            let boundaries = prefixes.iter().flat_map(|p| {
                let a = p.addr().raw();
                [a | 0xffff, a & !0xffff, a | 0xff, a & !0xff]
                    .map(|b| [b.wrapping_sub(1), b, b.wrapping_add(1)].map(Addr))
            });
            let ends = [Addr(0), Addr(u32::MAX)];
            for a in edges(&prefixes).chain(boundaries.flatten()).chain(ends).chain(probes.into_iter().map(Addr)) {
                let expected = routes.iter().find(|r| r.0.contains(a)).map(|r| r.1);
                prop_assert_eq!(map.get(a), expected, "{}", a);
            }
        }

        /// Over any prefixes, the map refuses exactly the lists in which
        /// two overlap, and names such a pair in list order.
        #[test]
        fn prefix_map_refuses_exactly_the_overlapping_lists(
            prefixes in proptest::collection::vec(map_prefix(), 0..40),
        ) {
            let overlap = |a: usize, b: usize| a < b && prefixes[a].overlaps(prefixes[b]);
            let n = prefixes.len();
            let any = (0..n).any(|a| (0..n).any(|b| overlap(a, b)));
            match PrefixMap::new(prefixes.iter().copied().zip(0..)) {
                Ok(_) => prop_assert!(!any),
                Err(o) => prop_assert!(overlap(o.earlier as usize, o.later as usize), "{:?}", o),
            }
        }

        /// The bulk constructor from any order and from address order,
        /// `insert` in either order, and `remove` all build the tables the
        /// scan describes; among equal prefixes the value given last wins.
        #[test]
        fn bulk_build_inserts_and_removes_agree_with_linear_scan(
            prefixes in proptest::collection::vec(crowded_prefix(), 1..60),
            probes in proptest::collection::vec(any::<u32>(), 1..20),
        ) {
            let bulk: LpmTable<usize> = prefixes.iter().copied().zip(0..).collect();
            // Stable, so equal prefixes keep their order: the one-pass path.
            let mut listed: Vec<(Prefix, usize)> = prefixes.iter().copied().zip(0..).collect();
            listed.sort_by_key(|r| r.0);
            let ascending: LpmTable<usize> = listed.into_iter().collect();
            let mut forwards = LpmTable::new();
            let mut backwards = LpmTable::new();
            for (i, &p) in prefixes.iter().enumerate() {
                forwards.insert(p, i);
            }
            for (i, &p) in prefixes.iter().enumerate().rev() {
                // Going backwards the value already there is the later one.
                if let Some(later) = backwards.insert(p, i) {
                    backwards.insert(p, later);
                }
            }
            // Taking out the odd-length prefixes leaves the even-length ones.
            let mut pruned = bulk.clone();
            for &p in prefixes.iter().filter(|p| p.len() % 2 == 1) {
                pruned.remove(p);
            }
            let probes: Vec<Addr> = edges(&prefixes).chain(probes.into_iter().map(Addr)).collect();
            let scan = |addr: Addr, keep: fn(&Prefix) -> bool| {
                let hits = (0..prefixes.len()).filter(|&i| keep(&prefixes[i]) && prefixes[i].contains(addr));
                hits.max_by_key(|&i| (prefixes[i].len(), i))
            };
            for &a in &probes {
                let expected = scan(a, |_| true);
                prop_assert_eq!(bulk.lookup(a).copied(), expected, "bulk {}", a);
                prop_assert_eq!(ascending.lookup(a).copied(), expected, "ascending {}", a);
                prop_assert_eq!(forwards.lookup(a).copied(), expected, "forwards {}", a);
                prop_assert_eq!(backwards.lookup(a).copied(), expected, "backwards {}", a);
                let even = scan(a, |p| p.len() % 2 == 0);
                prop_assert_eq!(pruned.lookup(a).copied(), even, "pruned {}", a);
            }
            prop_assert_eq!(bulk.len(), forwards.len());
            prop_assert_eq!(bulk.len(), backwards.len());
            prop_assert_eq!(bulk.len(), ascending.len());
        }

        /// LPM must agree with the brute-force scan over stored prefixes.
        #[test]
        fn lpm_agrees_with_linear_scan(
            prefixes in proptest::collection::vec(arb_prefix(), 1..60),
            probes in proptest::collection::vec(any::<u32>(), 1..60),
        ) {
            let mut table = LpmTable::new();
            for (i, &p) in prefixes.iter().enumerate() {
                table.insert(p, i);
            }
            for &a in &probes {
                let addr = Addr(a);
                // Brute force: longest matching prefix, latest insert wins
                // among equal prefixes.
                let expected = prefixes
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.contains(addr))
                    .max_by_key(|(i, p)| (p.len(), *i))
                    .map(|(i, _)| i);
                prop_assert_eq!(table.lookup(addr).copied(), expected);
            }
        }

        /// Insert-then-remove restores the previous lookup result.
        #[test]
        fn remove_undoes_insert(
            base in proptest::collection::vec(arb_prefix(), 0..20),
            extra in arb_prefix(),
            probe in any::<u32>(),
        ) {
            // Skip when `extra` collides with a base prefix (remove would
            // expose the base value, which is correct but not "undo").
            prop_assume!(!base.contains(&extra));
            let mut table = LpmTable::new();
            for (i, &p) in base.iter().enumerate() {
                table.insert(p, i as i64);
            }
            let before = table.lookup(Addr(probe)).copied();
            table.insert(extra, -1);
            table.remove(extra);
            prop_assert_eq!(table.lookup(Addr(probe)).copied(), before);
        }
    }
}
