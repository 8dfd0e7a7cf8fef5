//! Items grouped by a dense key, as one offsets array over one flat item
//! array.
//!
//! World construction groups things by node or network all the time — the
//! links of a node, the clients of a provider, the hosts of a network —
//! and at 100k networks one `Vec` per key is 100k allocations that mostly
//! hold one item each. [`Buckets`] is the same lookup from two
//! allocations, however many keys there are.

/// `T`s grouped by a key in `0..keys`.
///
/// # Examples
///
/// ```
/// use aitf_netsim::Buckets;
///
/// let by_parity = Buckets::group(2, [(1, 'a'), (0, 'b'), (1, 'c')].into_iter());
/// assert_eq!(by_parity.of(0), ['b']);
/// assert_eq!(by_parity.of(1), ['a', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct Buckets<T> {
    /// Bucket `k` is `items[start[k]..start[k + 1]]`.
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Buckets<T> {
    /// Groups `pairs` of `(key, item)` by counting sort: no comparisons,
    /// and every bucket lists its items in the order `pairs` yields them.
    ///
    /// # Panics
    ///
    /// Panics if a key is `keys` or more, or there are more than
    /// `u32::MAX` items.
    pub fn group(keys: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        let mut start = vec![0u32; keys + 1];
        for (key, _) in pairs.clone() {
            assert!(key < keys, "bucket key {key} out of range");
            start[key + 1] = start[key + 1].checked_add(1).expect("item count fits u32");
        }
        for k in 0..keys {
            start[k + 1] = start[k + 1]
                .checked_add(start[k])
                .expect("item count fits u32");
        }
        // Any item serves as the filler: every slot is overwritten below.
        let Some((_, filler)) = pairs.clone().next() else {
            return Buckets {
                start,
                items: Vec::new(),
            };
        };
        let mut items = vec![filler; start[keys] as usize];
        let mut next = start.clone();
        for (key, item) in pairs {
            items[next[key] as usize] = item;
            next[key] += 1;
        }
        Buckets { start, items }
    }

    /// The items of bucket `key`.
    pub fn of(&self, key: usize) -> &[T] {
        &self.items[self.start[key] as usize..self.start[key + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buckets_and_no_items_at_all() {
        let none: Buckets<u8> = Buckets::group(3, std::iter::empty());
        assert!((0..3).all(|k| none.of(k).is_empty()));
        let gaps = Buckets::group(4, [(3, 7u8), (1, 8), (3, 9)].into_iter());
        assert_eq!(gaps.of(0), []);
        assert_eq!(gaps.of(1), [8]);
        assert_eq!(gaps.of(2), []);
        assert_eq!(gaps.of(3), [7, 9]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_key_past_the_end_is_rejected() {
        let _ = Buckets::group(2, [(2, 0u8)].into_iter());
    }
}
