//! Longest-prefix-match tables and the address map of disjoint prefixes.
//!
//! Both structures here are flat arrays in `(addr, len)` order, probed with
//! one binary search, so a lookup costs `O(log n)` however deep the
//! prefixes nest:
//!
//! - [`LpmTable`] maps prefixes, nested as they please, to values and
//!   answers an address with the value of the *longest* stored prefix
//!   containing it. In `(addr, len)` order a prefix sorts after every
//!   prefix covering it and before everything nested inside it, so the
//!   last entry starting at or before the address is either the answer or
//!   nested inside the answer; each entry carries the index of its longest
//!   stored cover, and the lookup climbs that chain — zero steps on tables
//!   of disjoint prefixes, one to reach a default route.
//! - Where the prefixes are pairwise disjoint no chain is needed:
//!   [`PrefixSlice`] borrows them ascending and says which one holds an
//!   address. A world's declared networks are such a list, and every
//!   router answers its routing and ingress questions from that one
//!   per-world map.

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

/// Ascending, pairwise-disjoint prefixes, borrowed: an address map in
/// which an address lies in at most one member. A world's declared
/// networks in address order are one; [`PrefixSlice::disjoint`] makes it.
#[derive(Debug, Clone, Copy)]
pub struct PrefixSlice<'a>(&'a [Prefix]);

impl<'a> PrefixSlice<'a> {
    /// Borrows `prefixes`, which must be ascending and pairwise disjoint;
    /// the answers for any other list are unspecified.
    pub fn disjoint(prefixes: &'a [Prefix]) -> Self {
        PrefixSlice(prefixes)
    }

    /// The index of the member containing `addr`, if any.
    #[inline]
    pub fn position(self, addr: Addr) -> Option<usize> {
        // Disjoint members: only the last one starting at or before `addr`
        // can hold it.
        let at = self
            .0
            .partition_point(|p| p.addr() <= addr)
            .checked_sub(1)?;
        self.0[at].contains(addr).then_some(at)
    }
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

    /// Each prefix's first and last address and the addresses just outside.
    fn edges(prefixes: &[Prefix]) -> impl Iterator<Item = Addr> + '_ {
        prefixes.iter().flat_map(|p| {
            let first = p.addr().raw();
            let last = first.wrapping_add((p.size() - 1) as u32);
            [first.wrapping_sub(1), first, last, last.wrapping_add(1)].map(Addr)
        })
    }

    proptest! {
        /// Over the outermost of any listed prefixes, found by brute force,
        /// the member holding an address is the one listed prefix around it
        /// that no other covers.
        #[test]
        fn prefix_slice_over_the_outermost_prefixes_agrees_with_linear_scan(
            prefixes in proptest::collection::vec(crowded_prefix(), 0..40),
            probes in proptest::collection::vec(any::<u32>(), 1..20),
        ) {
            let covered = |p: Prefix| prefixes.iter().any(|&q| q != p && q.covers(p));
            let mut outermost: Vec<Prefix> = prefixes.iter().copied().filter(|&p| !covered(p)).collect();
            outermost.sort_unstable();
            outermost.dedup();
            let slice = PrefixSlice::disjoint(&outermost);
            for a in edges(&prefixes).chain(probes.into_iter().map(Addr)) {
                let expected = outermost.iter().position(|p| p.contains(a));
                prop_assert_eq!(slice.position(a), expected, "{}", a);
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
