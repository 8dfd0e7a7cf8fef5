//! Longest-prefix-match table.
//!
//! Real routers forward on aggregated prefixes, not per-host entries; the
//! AITF world gives each network a prefix, so a border router's forwarding
//! table is a handful of prefix routes plus /32s for its own clients.
//! [`LpmTable`] is a binary trie over address bits: insertion is
//! `O(prefix length)`, lookup walks at most 32 nodes and returns the value
//! of the *longest* matching prefix.

use crate::addr::{Addr, Prefix};

#[derive(Debug, Clone)]
struct TrieNode<T> {
    value: Option<T>,
    children: [Option<Box<TrieNode<T>>>; 2],
}

impl<T> Default for TrieNode<T> {
    fn default() -> Self {
        TrieNode {
            value: None,
            children: [None, None],
        }
    }
}

/// A longest-prefix-match map from [`Prefix`] to `T`.
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
    root: TrieNode<T>,
    len: usize,
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
            root: TrieNode::default(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts (or replaces) the value for a prefix. Returns the previous
    /// value if the exact prefix was present.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let bit = (prefix.addr().raw() >> (31 - i)) & 1;
            node = node.children[bit as usize].get_or_insert_with(Default::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes the value for an exact prefix.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        // Simple non-compacting removal: the trie nodes stay, the value
        // goes. Tables in this workspace are built once and mutated rarely.
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let bit = (prefix.addr().raw() >> (31 - i)) & 1;
            node = node.children[bit as usize].as_deref_mut()?;
        }
        let old = node.value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value of the longest prefix containing `addr`, if any.
    pub fn lookup(&self, addr: Addr) -> Option<&T> {
        let mut node = &self.root;
        let mut best = node.value.as_ref();
        for i in 0..32 {
            let bit = (addr.raw() >> (31 - i)) & 1;
            match node.children[bit as usize].as_deref() {
                Some(child) => {
                    node = child;
                    if child.value.is_some() {
                        best = child.value.as_ref();
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Returns `true` if any stored prefix contains `addr`.
    pub fn contains(&self, addr: Addr) -> bool {
        self.lookup(addr).is_some()
    }
}

impl<T> FromIterator<(Prefix, T)> for LpmTable<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut t = LpmTable::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(Addr(a), l))
    }

    proptest! {
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
