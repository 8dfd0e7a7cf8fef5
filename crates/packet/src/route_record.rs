//! The AITF route-record shim.
//!
//! Section II-F assumes "an efficient traceback technique" so the victim's
//! gateway can identify the attacker's gateway and the next AITF node on the
//! attack path. Following the paper's own suggestion (Section IV-B) we model
//! an architecture like TRIAD \[CG00\] "where traceback is automatically
//! provided inside each packet": every AITF **border router** that forwards
//! a packet appends its address to a shim list.
//!
//! The record therefore enumerates, in order from the attacker outwards, the
//! border routers the packet crossed — exactly the *attack path* of Section
//! II-A. Its first entry is the attacker's gateway; entry `k` is the AITF
//! node tried at escalation round `k + 1`.
//!
//! # Memory layout
//!
//! Route records sit on the simulator's forwarding hot path: every border
//! router pushes one hop, and every queued copy of a packet carries the
//! record along. Real AS-level paths are short (mean length under 5), so
//! the first [`INLINE_ROUTE_RECORD`] hops live **inline** in the record —
//! pushing and cloning them never touches the heap. Only a record that
//! grows past the inline cap spills to a single heap allocation (sized for
//! the hard cap up front, so a spilled record never reallocates either).
//! The two representations are observationally identical; the property
//! tests at the bottom of this file pin the equivalence against a plain
//! `Vec` model, including the spill boundary.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::addr::Addr;

/// Maximum number of recorded border routers.
///
/// Real AS-level paths are short (the mean AS path length is under 5); the
/// bound keeps packet size finite and guards against a malicious source
/// pre-filling the record to exhaust memory.
pub const MAX_ROUTE_RECORD: usize = 16;

/// Hops stored inline (no heap allocation). Chosen to cover essentially
/// every real path — the paper's escalation walks AS-level paths whose mean
/// length is under 5 — while keeping the in-packet record one cache line.
pub const INLINE_ROUTE_RECORD: usize = 8;

const _: () = assert!(INLINE_ROUTE_RECORD <= MAX_ROUTE_RECORD);

/// Error returned by [`RouteRecord::push`] when the shim already holds
/// [`MAX_ROUTE_RECORD`] hops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteRecordFull;

impl std::fmt::Display for RouteRecordFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "route record full ({MAX_ROUTE_RECORD} hops)")
    }
}

impl std::error::Error for RouteRecordFull {}

/// Storage: inline up to [`INLINE_ROUTE_RECORD`] hops, spilled to one
/// heap allocation beyond that. A record never shrinks, so the variant is
/// a pure function of the length: `len <= INLINE_ROUTE_RECORD` is always
/// `Inline`, anything longer is always `Spilled`.
#[derive(Debug)]
enum Hops {
    Inline {
        len: u8,
        buf: [Addr; INLINE_ROUTE_RECORD],
    },
    Spilled(Vec<Addr>),
}

impl Clone for Hops {
    fn clone(&self) -> Self {
        match self {
            Hops::Inline { len, buf } => Hops::Inline {
                len: *len,
                buf: *buf,
            },
            // Not the derived `Vec::clone` (capacity == len): the clone
            // must keep the never-reallocates invariant under later pushes.
            Hops::Spilled(v) => {
                let mut c = Vec::with_capacity(MAX_ROUTE_RECORD);
                c.extend_from_slice(v);
                Hops::Spilled(c)
            }
        }
    }
}

/// The in-packet list of AITF border routers crossed, attacker side first.
#[derive(Clone, Debug)]
pub struct RouteRecord {
    hops: Hops,
}

impl Default for RouteRecord {
    fn default() -> Self {
        RouteRecord::new()
    }
}

impl PartialEq for RouteRecord {
    fn eq(&self, other: &Self) -> bool {
        self.hops() == other.hops()
    }
}

impl Eq for RouteRecord {}

impl Hash for RouteRecord {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hops().hash(state);
    }
}

impl RouteRecord {
    /// Creates an empty record.
    pub fn new() -> Self {
        RouteRecord {
            hops: Hops::Inline {
                len: 0,
                buf: [Addr::ZERO; INLINE_ROUTE_RECORD],
            },
        }
    }

    /// Creates a record from an explicit hop list, truncating to
    /// [`MAX_ROUTE_RECORD`].
    pub fn from_hops(hops: impl IntoIterator<Item = Addr>) -> Self {
        let mut rr = RouteRecord::new();
        for hop in hops {
            if rr.push(hop).is_err() {
                break;
            }
        }
        rr
    }

    /// Appends a border-router address.
    ///
    /// Returns [`RouteRecordFull`] if the record is full; callers forward
    /// the packet anyway (an overlong path degrades traceback, it must not
    /// break forwarding).
    pub fn push(&mut self, addr: Addr) -> Result<(), RouteRecordFull> {
        match &mut self.hops {
            Hops::Inline { len, buf } => {
                let l = *len as usize;
                // Enforce the hard cap here too, so the bound holds even if
                // INLINE_ROUTE_RECORD is ever tuned up to MAX_ROUTE_RECORD.
                if l >= MAX_ROUTE_RECORD {
                    return Err(RouteRecordFull);
                }
                if l < INLINE_ROUTE_RECORD {
                    buf[l] = addr;
                    *len += 1;
                } else {
                    // Spill once, sized for the hard cap: a spilled record
                    // never reallocates.
                    let mut v = Vec::with_capacity(MAX_ROUTE_RECORD);
                    v.extend_from_slice(&buf[..l]);
                    v.push(addr);
                    self.hops = Hops::Spilled(v);
                }
                Ok(())
            }
            Hops::Spilled(v) => {
                if v.len() >= MAX_ROUTE_RECORD {
                    return Err(RouteRecordFull);
                }
                v.push(addr);
                Ok(())
            }
        }
    }

    /// The recorded hops, first entry closest to the packet's origin.
    pub fn hops(&self) -> &[Addr] {
        match &self.hops {
            Hops::Inline { len, buf } => &buf[..*len as usize],
            Hops::Spilled(v) => v,
        }
    }

    /// Number of recorded hops.
    pub fn len(&self) -> usize {
        match &self.hops {
            Hops::Inline { len, .. } => *len as usize,
            Hops::Spilled(v) => v.len(),
        }
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the record has spilled past the inline capacity
    /// (diagnostics and allocation tests; semantics never depend on this).
    pub fn is_spilled(&self) -> bool {
        matches!(self.hops, Hops::Spilled(_))
    }

    /// Returns `true` if `addr` appears anywhere on the recorded path.
    pub fn contains(&self, addr: Addr) -> bool {
        self.hops().contains(&addr)
    }

    /// Position of `addr` on the path (0 = attacker's gateway).
    pub fn position(&self, addr: Addr) -> Option<usize> {
        self.hops().iter().position(|&h| h == addr)
    }
}

impl fmt::Display for RouteRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, hop) in self.hops().iter().enumerate() {
            if i > 0 {
                write!(f, " > ")?;
            }
            write!(f, "{hop}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u8) -> Addr {
        Addr::new(10, i, 0, 1)
    }

    #[test]
    fn push_records_in_order() {
        let mut rr = RouteRecord::new();
        assert!(rr.is_empty());
        rr.push(addr(1)).unwrap();
        rr.push(addr(2)).unwrap();
        rr.push(addr(3)).unwrap();
        assert_eq!(rr.hops(), &[addr(1), addr(2), addr(3)]);
        assert_eq!(rr.len(), 3);
    }

    #[test]
    fn gateways_are_path_ends() {
        let rr = RouteRecord::from_hops([addr(1), addr(2), addr(3), addr(4)]);
        assert_eq!(rr.hops().first(), Some(&addr(1)));
        assert_eq!(rr.hops().last(), Some(&addr(4)));
    }

    #[test]
    fn empty_record_has_no_gateways() {
        let rr = RouteRecord::new();
        assert_eq!(rr.hops().first(), None);
        assert_eq!(rr.hops().last(), None);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut rr = RouteRecord::new();
        for i in 0..MAX_ROUTE_RECORD {
            rr.push(addr(i as u8)).unwrap();
        }
        assert!(rr.push(addr(200)).is_err());
        assert_eq!(rr.len(), MAX_ROUTE_RECORD);
    }

    #[test]
    fn from_hops_truncates() {
        let rr = RouteRecord::from_hops((0..40).map(|i| addr(i as u8)));
        assert_eq!(rr.len(), MAX_ROUTE_RECORD);
    }

    #[test]
    fn contains_and_position() {
        let rr = RouteRecord::from_hops([addr(1), addr(2)]);
        assert!(rr.contains(addr(2)));
        assert!(!rr.contains(addr(9)));
        assert_eq!(rr.position(addr(2)), Some(1));
        assert_eq!(rr.position(addr(9)), None);
    }

    #[test]
    fn display_renders_path() {
        let rr = RouteRecord::from_hops([addr(1), addr(2)]);
        assert_eq!(rr.to_string(), "[10.1.0.1 > 10.2.0.1]");
    }

    #[test]
    fn spill_happens_exactly_past_the_inline_cap() {
        let mut rr = RouteRecord::new();
        for i in 0..INLINE_ROUTE_RECORD {
            rr.push(addr(i as u8)).unwrap();
            assert!(!rr.is_spilled(), "inline up to the cap ({i})");
        }
        rr.push(addr(100)).unwrap();
        assert!(rr.is_spilled(), "one past the cap spills");
        assert_eq!(rr.len(), INLINE_ROUTE_RECORD + 1);
        assert_eq!(rr.hops().last(), Some(&addr(100)));
    }

    #[test]
    fn equality_and_hash_ignore_representation() {
        use std::collections::hash_map::DefaultHasher;

        // Build two equal-content records; since records only spill by
        // growing, equal lengths share a representation — but equality must
        // be defined over content regardless, so exercise both paths.
        let a = RouteRecord::from_hops((0..5).map(addr));
        let b = RouteRecord::from_hops((0..5).map(addr));
        assert_eq!(a, b);
        let hash = |rr: &RouteRecord| {
            let mut h = DefaultHasher::new();
            rr.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));

        let long_a = RouteRecord::from_hops((0..12).map(addr));
        let long_b = RouteRecord::from_hops((0..12).map(addr));
        assert!(long_a.is_spilled());
        assert_eq!(long_a, long_b);
        assert_eq!(hash(&long_a), hash(&long_b));
        assert_ne!(a, long_a);
    }
}

#[cfg(test)]
mod proptests {
    //! Inline-vs-`Vec` equivalence: a plain `Vec<Addr>` capped at
    //! [`MAX_ROUTE_RECORD`] is the reference model; the record must agree
    //! with it on every observation across push/contains/iteration, for
    //! lengths straddling the spill boundary.

    use super::*;
    use proptest::prelude::*;

    /// Lengths concentrated around the interesting boundaries: empty, the
    /// inline cap, one past it, and the hard cap (plus overflow attempts).
    fn arb_hop_list() -> impl Strategy<Value = Vec<Addr>> {
        proptest::collection::vec(any::<u32>().prop_map(Addr), 0..=MAX_ROUTE_RECORD + 4)
    }

    proptest! {
        #[test]
        fn record_matches_vec_model(hops in arb_hop_list()) {
            let mut model: Vec<Addr> = Vec::new();
            let mut rr = RouteRecord::new();
            for &hop in &hops {
                let accepted = rr.push(hop);
                if model.len() < MAX_ROUTE_RECORD {
                    prop_assert!(accepted.is_ok());
                    model.push(hop);
                } else {
                    prop_assert_eq!(accepted, Err(RouteRecordFull));
                }
            }
            prop_assert_eq!(rr.hops(), model.as_slice());
            prop_assert_eq!(rr.len(), model.len());
            prop_assert_eq!(rr.is_empty(), model.is_empty());
            prop_assert_eq!(rr.is_spilled(), model.len() > INLINE_ROUTE_RECORD);
            // Membership and position agree for present and absent hops.
            for &hop in &model {
                prop_assert!(rr.contains(hop));
                prop_assert_eq!(rr.position(hop), model.iter().position(|&h| h == hop));
            }
            // Iteration order is the model's order.
            let collected: Vec<Addr> = rr.hops().to_vec();
            prop_assert_eq!(collected, model.clone());
            // from_hops over the same input builds the same record.
            prop_assert_eq!(RouteRecord::from_hops(hops.iter().copied()), rr);
        }
    }
}
