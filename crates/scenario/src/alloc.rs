//! Deterministic allocation of non-overlapping /16 network prefixes.
//!
//! Scenario generators hand every AD a fresh /16; the allocator's sequence
//! is part of a scenario's identity (addresses feed routing, flow labels
//! and therefore results), so it is fixed forever: allocation `i` is
//! `(10 + i/250).(i%250 + 1).0.0/16`, up to the checked
//! [`PrefixAlloc::CAPACITY`] (60,000 networks), which is what lets
//! star/tree scenarios grow zombie armies far past 64 nets.

use aitf_packet::{Addr, Prefix};

/// Deterministic allocator of non-overlapping /16 prefixes.
///
/// # Examples
///
/// ```
/// use aitf_scenario::PrefixAlloc;
///
/// let mut alloc = PrefixAlloc::new();
/// assert_eq!(alloc.next_slash16().to_string(), "10.1.0.0/16");
/// assert_eq!(alloc.next_slash16().to_string(), "10.2.0.0/16");
/// assert_eq!(alloc.remaining(), PrefixAlloc::CAPACITY - 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PrefixAlloc {
    next: u32,
    /// A partially-carved /16 (its sequence index) and the next /24 slot
    /// inside it — see [`PrefixAlloc::next_slash24`].
    carving: Option<(u32, u16)>,
}

impl PrefixAlloc {
    /// Total number of /16s the allocator can hand out: first octets
    /// 10..=249 with 250 second octets each. The address space is purely
    /// simulated, so reserved real-world ranges need no carve-outs.
    pub const CAPACITY: u32 = 240 * 250;

    /// Total number of /24s available when every /16 is carved:
    /// [`Self::CAPACITY`] × 256 ≈ 15.36M — the 1M-net regime's headroom.
    pub const CAPACITY_SLASH24: u64 = Self::CAPACITY as u64 * 256;

    /// Creates an allocator starting at `10.1.0.0/16`.
    pub fn new() -> Self {
        PrefixAlloc {
            next: 0,
            carving: None,
        }
    }

    /// Creates an allocator that has already skipped the first `offset`
    /// prefixes — for tests probing the capacity boundary and for sharded
    /// world construction.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds [`Self::CAPACITY`] — an offset past the
    /// end would silently hand out zero prefixes, which at 100k-net scale
    /// reads as a mysteriously empty world rather than the configuration
    /// bug it is.
    pub fn with_offset(offset: u32) -> Self {
        assert!(
            offset <= Self::CAPACITY,
            "PrefixAlloc::with_offset({offset}) past the end: only {} /16s exist",
            Self::CAPACITY
        );
        PrefixAlloc {
            next: offset,
            carving: None,
        }
    }

    /// Number of /16s still available.
    pub fn remaining(&self) -> u32 {
        Self::CAPACITY.saturating_sub(self.next)
    }

    /// Returns the next free /16, or `None` once [`Self::CAPACITY`] is
    /// exhausted.
    pub fn try_next_slash16(&mut self) -> Option<Prefix> {
        if self.next >= Self::CAPACITY {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let a = 10 + (i / 250) as u8;
        let b = (i % 250 + 1) as u8;
        Some(Prefix::new(Addr::new(a, b, 0, 0), 16))
    }

    /// Returns the next free /16.
    ///
    /// # Panics
    ///
    /// Panics once all [`Self::CAPACITY`] prefixes are spent.
    pub fn next_slash16(&mut self) -> Prefix {
        self.try_next_slash16().unwrap_or_else(|| {
            panic!(
                "prefix space exhausted: PrefixAlloc::CAPACITY = {} /16s",
                Self::CAPACITY
            )
        })
    }

    /// Number of /24s still available (256 per remaining /16, plus the
    /// tail of any partially-carved one).
    pub fn remaining_slash24(&self) -> u64 {
        let partial = self.carving.map_or(0, |(_, j)| 256 - j as u64);
        self.remaining() as u64 * 256 + partial
    }

    /// Returns the next free /24, or `None` when the space is exhausted.
    ///
    /// /24s are carved 256 at a time out of /16s drawn from the *same*
    /// counter as [`Self::next_slash16`], so interleaved /16 and /24
    /// requests can never overlap: carved /16 `i` yields
    /// `(10 + i/250).(i%250 + 1).j.0/24` for `j` in `0..256`. A /24 still
    /// holds the standard router slot (`.254`) plus 250 host slots, so
    /// host addressing is unchanged — the win is 256× more networks from
    /// the same fixed address plan.
    pub fn try_next_slash24(&mut self) -> Option<Prefix> {
        let (i, j) = match self.carving {
            Some(cur) => cur,
            None => {
                if self.next >= Self::CAPACITY {
                    return None;
                }
                let i = self.next;
                self.next += 1;
                (i, 0)
            }
        };
        self.carving = if j + 1 < 256 { Some((i, j + 1)) } else { None };
        let a = 10 + (i / 250) as u8;
        let b = (i % 250 + 1) as u8;
        Some(Prefix::new(Addr::new(a, b, j as u8, 0), 24))
    }

    /// Returns the next free /24.
    ///
    /// # Panics
    ///
    /// Panics on exhaustion, naming the total /24 capacity.
    pub fn next_slash24(&mut self) -> Prefix {
        self.try_next_slash24().unwrap_or_else(|| {
            panic!(
                "prefix space exhausted: PrefixAlloc::CAPACITY_SLASH24 = {} /24s",
                Self::CAPACITY_SLASH24
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_matches_the_historical_allocator() {
        // The first allocations: 10.1, 10.2, ..., 10.250, 11.1, ...
        let mut alloc = PrefixAlloc::new();
        assert_eq!(alloc.next_slash16().to_string(), "10.1.0.0/16");
        for _ in 1..249 {
            alloc.next_slash16();
        }
        assert_eq!(alloc.next_slash16().to_string(), "10.250.0.0/16");
        assert_eq!(alloc.next_slash16().to_string(), "11.1.0.0/16");
    }

    #[test]
    fn never_overlaps_across_a_large_run() {
        let mut alloc = PrefixAlloc::new();
        let mut seen = Vec::new();
        // Far past the old ~12k ceiling's first octet rollover points.
        for _ in 0..600 {
            let p = alloc.next_slash16();
            for q in &seen {
                assert!(!p.overlaps(*q), "{p} overlaps {q}");
            }
            seen.push(p);
        }
    }

    #[test]
    fn capacity_boundary_is_checked() {
        let mut alloc = PrefixAlloc::with_offset(PrefixAlloc::CAPACITY - 1);
        assert_eq!(alloc.remaining(), 1);
        let last = alloc.try_next_slash16().expect("one prefix left");
        assert_eq!(last.to_string(), "249.250.0.0/16");
        assert_eq!(alloc.remaining(), 0);
        assert!(alloc.try_next_slash16().is_none());
    }

    #[test]
    #[should_panic(expected = "prefix space exhausted")]
    fn exhaustion_panics_with_the_documented_capacity() {
        let mut alloc = PrefixAlloc::with_offset(PrefixAlloc::CAPACITY);
        let _ = alloc.next_slash16();
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn offsets_past_capacity_are_rejected() {
        let _ = PrefixAlloc::with_offset(PrefixAlloc::CAPACITY + 1);
    }

    #[test]
    fn slash24s_carve_in_sequence_and_never_overlap_slash16s() {
        let mut alloc = PrefixAlloc::new();
        // Interleave: one /16, then /24s — the /24s must come from the
        // *next* counter slot, never out of the handed-out /16.
        let whole = alloc.next_slash16();
        assert_eq!(whole.to_string(), "10.1.0.0/16");
        let first = alloc.next_slash24();
        assert_eq!(first.to_string(), "10.2.0.0/24");
        assert_eq!(alloc.next_slash24().to_string(), "10.2.1.0/24");
        assert!(!whole.overlaps(first), "carved /24 inside a handed-out /16");
        // Finish the carve: slot 255 is the last, then a fresh /16 starts.
        for _ in 2..256 {
            alloc.next_slash24();
        }
        assert_eq!(alloc.next_slash24().to_string(), "10.3.0.0/24");
        // A /16 drawn mid-carve skips the partially-carved block entirely.
        let next16 = alloc.next_slash16();
        assert_eq!(next16.to_string(), "10.4.0.0/16");
        assert!(!next16.overlaps(Prefix::new(Addr::new(10, 3, 0, 0), 24)));
    }

    #[test]
    fn slash24_capacity_is_counted() {
        let mut alloc = PrefixAlloc::with_offset(PrefixAlloc::CAPACITY - 1);
        assert_eq!(alloc.remaining_slash24(), 256);
        for _ in 0..256 {
            alloc.next_slash24();
        }
        assert_eq!(alloc.remaining_slash24(), 0);
        assert!(alloc.try_next_slash24().is_none());
        assert!(alloc.try_next_slash16().is_none());
    }

    #[test]
    #[should_panic(expected = "/24s")]
    fn slash24_exhaustion_names_the_capacity() {
        let mut alloc = PrefixAlloc::with_offset(PrefixAlloc::CAPACITY);
        let _ = alloc.next_slash24();
    }
}
