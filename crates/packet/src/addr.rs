//! IPv4-like addresses and prefixes.
//!
//! The simulator does not need real IP semantics, only an address space that
//! supports prefix aggregation (each AITF network owns a prefix) and textual
//! dotted-quad rendering for readable experiment output.

use std::fmt;
use std::str::FromStr;

/// A 32-bit network address, rendered dotted-quad like IPv4.
///
/// # Examples
///
/// ```
/// use aitf_packet::Addr;
///
/// let a = Addr::new(10, 0, 0, 1);
/// assert_eq!(a.to_string(), "10.0.0.1");
/// assert_eq!(a, "10.0.0.1".parse().unwrap());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u32);

impl Addr {
    /// The all-zero address, used as a placeholder for "unset".
    pub const ZERO: Addr = Addr(0);

    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | (d as u32))
    }

    /// Returns the raw 32-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Returns the address with the low `32 - len` bits cleared.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub const fn masked(self, len: u8) -> Addr {
        assert!(len <= 32);
        if len == 0 {
            Addr(0)
        } else {
            Addr(self.0 & (u32::MAX << (32 - len)))
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Error returned when parsing an [`Addr`] or [`Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for Addr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or_else(|| AddrParseError(s.to_string()))?;
            *slot = part.parse().map_err(|_| AddrParseError(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Addr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// A CIDR-style address prefix: `addr/len`.
///
/// Prefixes are the unit of address ownership in the simulation — each AITF
/// network (Autonomous Domain) is assigned one, and border routers decide
/// whether a packet's source lies inside their own network by prefix
/// containment.
///
/// # Examples
///
/// ```
/// use aitf_packet::{Addr, Prefix};
///
/// let net: Prefix = "10.1.0.0/16".parse().unwrap();
/// assert!(net.contains(Addr::new(10, 1, 42, 7)));
/// assert!(!net.contains(Addr::new(10, 2, 0, 1)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    addr: Addr,
    len: u8,
}

impl Prefix {
    /// The zero-length prefix that contains every address.
    pub const ANY: Prefix = Prefix {
        addr: Addr(0),
        len: 0,
    };

    /// Builds a prefix, normalising the address by masking off host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub const fn new(addr: Addr, len: u8) -> Self {
        assert!(len <= 32);
        Prefix {
            addr: addr.masked(len),
            len,
        }
    }

    /// Builds the /32 prefix holding exactly `addr`.
    pub const fn host(addr: Addr) -> Self {
        Prefix { addr, len: 32 }
    }

    /// Returns the (masked) network address.
    pub const fn addr(self) -> Addr {
        self.addr
    }

    /// Returns the prefix length in bits.
    // A prefix length is not a container size; `is_empty` has no meaning.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Returns `true` if `addr` falls inside this prefix.
    pub const fn contains(self, addr: Addr) -> bool {
        addr.masked(self.len).0 == self.addr.0
    }

    /// Returns `true` if every address in `other` is also in `self`.
    pub const fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && other.addr.masked(self.len).0 == self.addr.0
    }

    /// Returns `true` if the two prefixes share at least one address.
    pub const fn overlaps(self, other: Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// Returns the `index`-th host address inside the prefix.
    ///
    /// Host number 0 is the network address itself; callers that want
    /// conventional host numbering should start at 1.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the prefix's host-bit space.
    pub fn host_at(self, index: u32) -> Addr {
        let host_bits = 32 - self.len;
        if host_bits < 32 {
            assert!(
                (index as u64) < (1u64 << host_bits),
                "host index {index} out of range for /{}",
                self.len
            );
        }
        Addr(self.addr.0 | index)
    }

    /// Returns the number of addresses covered by the prefix.
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Prefix {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = s
            .split_once('/')
            .ok_or_else(|| AddrParseError(s.to_string()))?;
        let addr: Addr = addr_part.parse()?;
        let len: u8 = len_part
            .parse()
            .map_err(|_| AddrParseError(s.to_string()))?;
        if len > 32 {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Prefix::new(addr, len))
    }
}

impl From<Addr> for Prefix {
    fn from(addr: Addr) -> Self {
        Prefix::host(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_roundtrips_through_text() {
        for s in ["0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.0.1"] {
            let a: Addr = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }

    #[test]
    fn addr_rejects_malformed_text() {
        for s in ["", "1.2.3", "1.2.3.4.5", "1.2.3.256", "a.b.c.d", "1..2.3"] {
            assert!(s.parse::<Addr>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn addr_octets_match_construction() {
        let a = Addr::new(1, 2, 3, 4);
        assert_eq!(a.octets(), [1, 2, 3, 4]);
        assert_eq!(a.raw(), 0x0102_0304);
    }

    #[test]
    fn masked_clears_host_bits() {
        let a = Addr::new(10, 1, 2, 3);
        assert_eq!(a.masked(8), Addr::new(10, 0, 0, 0));
        assert_eq!(a.masked(16), Addr::new(10, 1, 0, 0));
        assert_eq!(a.masked(32), a);
        assert_eq!(a.masked(0), Addr::ZERO);
    }

    #[test]
    fn prefix_contains_and_covers() {
        let p16: Prefix = "10.1.0.0/16".parse().unwrap();
        let p24: Prefix = "10.1.5.0/24".parse().unwrap();
        assert!(p16.contains(Addr::new(10, 1, 255, 255)));
        assert!(!p16.contains(Addr::new(10, 0, 0, 0)));
        assert!(p16.covers(p24));
        assert!(!p24.covers(p16));
        assert!(p16.overlaps(p24));
        assert!(p24.overlaps(p16));
        assert!(Prefix::ANY.covers(p16));
    }

    #[test]
    fn prefix_normalises_host_bits() {
        let p = Prefix::new(Addr::new(10, 1, 2, 3), 16);
        assert_eq!(p.addr(), Addr::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn prefix_host_at_produces_member_addresses() {
        let p: Prefix = "10.2.0.0/16".parse().unwrap();
        for i in [0u32, 1, 77, 65_535] {
            assert!(p.contains(p.host_at(i)));
        }
        assert_eq!(p.host_at(1), Addr::new(10, 2, 0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prefix_host_at_panics_out_of_range() {
        let p: Prefix = "10.2.0.0/24".parse().unwrap();
        let _ = p.host_at(256);
    }

    #[test]
    fn prefix_size() {
        assert_eq!(Prefix::host(Addr::ZERO).size(), 1);
        assert_eq!("10.0.0.0/24".parse::<Prefix>().unwrap().size(), 256);
        assert_eq!(Prefix::ANY.size(), 1u64 << 32);
    }

    #[test]
    fn disjoint_prefixes_do_not_overlap() {
        let a: Prefix = "10.1.0.0/16".parse().unwrap();
        let b: Prefix = "10.2.0.0/16".parse().unwrap();
        assert!(!a.overlaps(b));
        assert!(!a.contains(b.addr()));
    }

    #[test]
    fn prefix_parse_rejects_bad_input() {
        for s in ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/", "/8", "10.0.0/8"] {
            assert!(s.parse::<Prefix>().is_err(), "{s} should not parse");
        }
    }
}
