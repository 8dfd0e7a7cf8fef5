//! Flow labels.
//!
//! Section II-A of the paper: *"A flow label is a set of values that
//! captures the common characteristics of a traffic flow — e.g., 'all
//! packets with IP source address S and IP destination address D'."*
//!
//! A [`FlowLabel`] is the predicate carried inside filtering requests and
//! installed into filter tables: one source host and one destination host.
//! That pair is the unit every resource bound of the paper counts
//! (`Nv = R1·T`, `nv`, `mv`, `na`), and the only label the protocol builds.

use std::fmt;

use crate::addr::Addr;
use crate::packet::Header;

/// The flow from one source host to one destination host: the predicate
/// inside every filtering request.
///
/// # Examples
///
/// ```
/// use aitf_packet::{Addr, FlowLabel, Header};
///
/// let attacker = Addr::new(10, 9, 0, 7);
/// let victim = Addr::new(10, 1, 0, 1);
/// let label = FlowLabel::src_dst(attacker, victim);
///
/// let pkt = Header::udp(attacker, victim, 4000, 53);
/// assert!(label.matches(&pkt));
///
/// let other = Header::udp(Addr::new(10, 9, 0, 8), victim, 4000, 53);
/// assert!(!label.matches(&other));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowLabel {
    /// Source host.
    pub src: Addr,
    /// Destination host.
    pub dst: Addr,
}

impl FlowLabel {
    /// The label of every packet from `src` to `dst`, whatever its
    /// protocol and ports.
    pub const fn src_dst(src: Addr, dst: Addr) -> Self {
        FlowLabel { src, dst }
    }

    /// Returns `true` if the packet header matches this label.
    pub fn matches(&self, header: &Header) -> bool {
        header.src == self.src && header.dst == self.dst
    }
}

impl fmt::Display for FlowLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn src_dst_matches_only_that_pair() {
        let a = Addr::new(10, 9, 0, 7);
        let v = Addr::new(10, 1, 0, 1);
        let label = FlowLabel::src_dst(a, v);
        assert!(label.matches(&Header::udp(a, v, 1000, 80)));
        assert!(label.matches(&Header::tcp(a, v, 999, 53)));
        assert!(!label.matches(&Header::udp(v, a, 1000, 80)));
        assert!(!label.matches(&Header::udp(Addr::new(10, 9, 0, 8), v, 1000, 80)));
        assert!(!label.matches(&Header::udp(a, Addr::new(10, 1, 0, 2), 1000, 80)));
    }

    #[test]
    fn display_is_readable() {
        let label = FlowLabel::src_dst(Addr::new(10, 9, 0, 7), Addr::new(10, 1, 0, 1));
        assert_eq!(label.to_string(), "10.9.0.7 -> 10.1.0.1");
    }
}
