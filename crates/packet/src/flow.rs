//! Wildcarded flow labels.
//!
//! Section II-A of the paper: *"A flow label is a set of values that
//! captures the common characteristics of a traffic flow — e.g., 'all
//! packets with IP source address S and IP destination address D'."*
//!
//! A [`FlowLabel`] is the predicate carried inside filtering requests and
//! installed into filter tables. Every field is a pattern that may be fully
//! wildcarded, so one label can describe anything from a single TCP
//! connection to "everything from network 10.1.0.0/16".

use std::fmt;

use crate::addr::{Addr, Prefix};
use crate::packet::{Header, Protocol};

/// Pattern over the 8-bit protocol field: a specific protocol or any.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ProtoPattern {
    /// Matches every protocol.
    #[default]
    Any,
    /// Matches exactly one protocol.
    Exactly(Protocol),
}

impl ProtoPattern {
    /// Returns `true` if the pattern matches `proto`.
    pub fn matches(self, proto: Protocol) -> bool {
        match self {
            ProtoPattern::Any => true,
            ProtoPattern::Exactly(p) => p == proto,
        }
    }

    /// Returns `true` if every protocol matched by `other` is matched by `self`.
    pub fn covers(self, other: ProtoPattern) -> bool {
        match (self, other) {
            (ProtoPattern::Any, _) => true,
            (ProtoPattern::Exactly(a), ProtoPattern::Exactly(b)) => a == b,
            (ProtoPattern::Exactly(_), ProtoPattern::Any) => false,
        }
    }
}

/// Pattern over a 16-bit port field: a specific port or any.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PortPattern {
    /// Matches every port.
    #[default]
    Any,
    /// Matches exactly one port.
    Exactly(u16),
}

impl PortPattern {
    /// Returns `true` if the pattern matches `port`.
    pub fn matches(self, port: u16) -> bool {
        match self {
            PortPattern::Any => true,
            PortPattern::Exactly(p) => p == port,
        }
    }

    /// Returns `true` if every port matched by `other` is matched by `self`.
    pub fn covers(self, other: PortPattern) -> bool {
        match (self, other) {
            (PortPattern::Any, _) => true,
            (PortPattern::Exactly(a), PortPattern::Exactly(b)) => a == b,
            (PortPattern::Exactly(_), PortPattern::Any) => false,
        }
    }
}

/// A wildcarded flow label: the predicate inside every filtering request.
///
/// Source and destination addresses are matched by prefix; protocol and
/// ports by exact value or wildcard. The common case in the paper is a
/// `(source host, destination host)` pair with everything else wildcarded —
/// [`FlowLabel::src_dst`] builds exactly that.
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
    /// Source address pattern (prefix containment).
    pub src: Prefix,
    /// Destination address pattern (prefix containment).
    pub dst: Prefix,
    /// Protocol pattern.
    pub proto: ProtoPattern,
    /// Source port pattern.
    pub src_port: PortPattern,
    /// Destination port pattern.
    pub dst_port: PortPattern,
}

impl FlowLabel {
    /// The label that matches every packet.
    pub const ANY: FlowLabel = FlowLabel {
        src: Prefix::ANY,
        dst: Prefix::ANY,
        proto: ProtoPattern::Any,
        src_port: PortPattern::Any,
        dst_port: PortPattern::Any,
    };

    /// Builds the classic AITF label: one source host to one destination
    /// host, all protocols and ports.
    pub fn src_dst(src: Addr, dst: Addr) -> Self {
        FlowLabel {
            src: Prefix::host(src),
            dst: Prefix::host(dst),
            ..FlowLabel::ANY
        }
    }

    /// Builds a label matching everything from `src` (a network prefix) to a
    /// destination host — the shape used when blocking a whole misbehaving
    /// network after disconnection.
    pub fn net_to_host(src: Prefix, dst: Addr) -> Self {
        FlowLabel {
            src,
            dst: Prefix::host(dst),
            ..FlowLabel::ANY
        }
    }

    /// Builds a label matching everything addressed to `dst`, regardless of
    /// source — the shape a victim uses against spoofed floods it cannot
    /// attribute.
    pub fn to_host(dst: Addr) -> Self {
        FlowLabel {
            dst: Prefix::host(dst),
            ..FlowLabel::ANY
        }
    }

    /// Restricts the label to one protocol, returning the narrowed label.
    pub fn with_proto(mut self, proto: Protocol) -> Self {
        self.proto = ProtoPattern::Exactly(proto);
        self
    }

    /// Restricts the label to one destination port, returning the narrowed
    /// label.
    pub fn with_dst_port(mut self, port: u16) -> Self {
        self.dst_port = PortPattern::Exactly(port);
        self
    }

    /// Returns `true` if the packet header matches this label.
    pub fn matches(&self, header: &Header) -> bool {
        self.src.contains(header.src)
            && self.dst.contains(header.dst)
            && self.proto.matches(header.proto)
            && self.src_port.matches(header.src_port)
            && self.dst_port.matches(header.dst_port)
    }

    /// Returns `true` if every packet matched by `other` is also matched by
    /// `self` (i.e. `self` is at least as general).
    pub fn covers(&self, other: &FlowLabel) -> bool {
        self.src.covers(other.src)
            && self.dst.covers(other.dst)
            && self.proto.covers(other.proto)
            && self.src_port.covers(other.src_port)
            && self.dst_port.covers(other.dst_port)
    }

    /// Returns the single destination host if the destination pattern is a
    /// /32, which is the common case for filtering requests.
    pub fn dst_host(&self) -> Option<Addr> {
        (self.dst.len() == 32).then(|| self.dst.addr())
    }

    /// Returns the single source host if the source pattern is a /32.
    pub fn src_host(&self) -> Option<Addr> {
        (self.src.len() == 32).then(|| self.src.addr())
    }
}

impl fmt::Display for FlowLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)?;
        if let ProtoPattern::Exactly(p) = self.proto {
            write!(f, " proto={p:?}")?;
        }
        if let PortPattern::Exactly(p) = self.src_port {
            write!(f, " sport={p}")?;
        }
        if let PortPattern::Exactly(p) = self.dst_port {
            write!(f, " dport={p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Header;

    fn h(src: Addr, dst: Addr) -> Header {
        Header::udp(src, dst, 1000, 80)
    }

    #[test]
    fn any_matches_everything() {
        let hdr = h(Addr::new(1, 2, 3, 4), Addr::new(5, 6, 7, 8));
        assert!(FlowLabel::ANY.matches(&hdr));
    }

    #[test]
    fn src_dst_matches_only_that_pair() {
        let a = Addr::new(10, 9, 0, 7);
        let v = Addr::new(10, 1, 0, 1);
        let label = FlowLabel::src_dst(a, v);
        assert!(label.matches(&h(a, v)));
        assert!(!label.matches(&h(v, a)));
        assert!(!label.matches(&h(Addr::new(10, 9, 0, 8), v)));
        assert!(!label.matches(&h(a, Addr::new(10, 1, 0, 2))));
    }

    #[test]
    fn proto_and_port_narrowing() {
        let a = Addr::new(10, 9, 0, 7);
        let v = Addr::new(10, 1, 0, 1);
        let label = FlowLabel::src_dst(a, v)
            .with_proto(Protocol::Udp)
            .with_dst_port(53);
        assert!(label.matches(&Header::udp(a, v, 999, 53)));
        assert!(!label.matches(&Header::udp(a, v, 999, 80)));
        assert!(!label.matches(&Header::tcp(a, v, 999, 53)));
    }

    #[test]
    fn net_to_host_matches_whole_prefix() {
        let net: Prefix = "10.9.0.0/16".parse().unwrap();
        let v = Addr::new(10, 1, 0, 1);
        let label = FlowLabel::net_to_host(net, v);
        assert!(label.matches(&h(Addr::new(10, 9, 200, 3), v)));
        assert!(!label.matches(&h(Addr::new(10, 8, 0, 3), v)));
    }

    #[test]
    fn covers_is_reflexive_and_ordered_by_generality() {
        let a = Addr::new(10, 9, 0, 7);
        let v = Addr::new(10, 1, 0, 1);
        let narrow = FlowLabel::src_dst(a, v).with_proto(Protocol::Udp);
        let wide = FlowLabel::to_host(v);
        assert!(narrow.covers(&narrow));
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(FlowLabel::ANY.covers(&wide));
    }

    #[test]
    fn dst_host_extraction() {
        let v = Addr::new(10, 1, 0, 1);
        assert_eq!(FlowLabel::to_host(v).dst_host(), Some(v));
        let label = FlowLabel::net_to_host("10.0.0.0/8".parse().unwrap(), v);
        assert_eq!(label.src_host(), None);
        assert_eq!(label.dst_host(), Some(v));
    }

    #[test]
    fn display_is_readable() {
        let a = Addr::new(10, 9, 0, 7);
        let v = Addr::new(10, 1, 0, 1);
        let s = FlowLabel::src_dst(a, v).with_dst_port(53).to_string();
        assert!(s.contains("10.9.0.7/32"));
        assert!(s.contains("dport=53"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::packet::Header;
    use proptest::prelude::*;

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 8u8..=32).prop_map(|(a, l)| Prefix::new(Addr(a), l))
    }

    fn arb_label() -> impl Strategy<Value = FlowLabel> {
        (arb_prefix(), arb_prefix(), any::<bool>(), any::<bool>()).prop_map(
            |(src, dst, udp, port)| {
                let mut l = FlowLabel {
                    src,
                    dst,
                    ..FlowLabel::ANY
                };
                if udp {
                    l = l.with_proto(Protocol::Udp);
                }
                if port {
                    l = l.with_dst_port(80);
                }
                l
            },
        )
    }

    fn arb_header() -> impl Strategy<Value = Header> {
        (any::<u32>(), any::<u32>(), any::<bool>(), any::<u16>()).prop_map(|(s, d, udp, port)| {
            if udp {
                Header::udp(Addr(s), Addr(d), 1, port)
            } else {
                Header::tcp(Addr(s), Addr(d), 1, port)
            }
        })
    }

    proptest! {
        /// `covers` and `matches` are consistent: if A covers B, every
        /// packet matching B matches A.
        #[test]
        fn covers_implies_matching_superset(
            a in arb_label(),
            b in arb_label(),
            h in arb_header(),
        ) {
            if a.covers(&b) && b.matches(&h) {
                prop_assert!(a.matches(&h));
            }
        }
    }
}
