//! The simulated datagram.
//!
//! A [`Packet`] carries an IPv4-like [`Header`], the AITF route-record shim
//! (Section II-F: the traceback substrate, provided in-packet as in
//! \[CG00\]), and a payload that is either opaque data (attack or
//! legitimate traffic) or an AITF control message.

use std::fmt;

use crate::addr::Addr;
use crate::message::AitfMessage;
use crate::route_record::RouteRecord;

/// Transport protocol carried by a packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Protocol {
    /// UDP — the typical DoS flood protocol.
    #[default]
    Udp,
    /// TCP.
    Tcp,
    /// ICMP; ports are ignored for matching purposes but kept for shape.
    Icmp,
    /// The AITF control protocol itself.
    Aitf,
    /// Anything else, by IANA-style number — lets attack generators hop
    /// across protocols to evade narrow filters.
    Other(u8),
}

/// Classification of data traffic, carried for *accounting only*.
///
/// Routers never look at this — it exists so experiments can measure the
/// goodput of legitimate traffic and the effective bandwidth of undesired
/// flows without deep-packet magic. Victims detect attacks from observable
/// behaviour (rate), not from this tag, unless configured as an oracle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum TrafficClass {
    /// Legitimate foreground traffic.
    #[default]
    Legit,
    /// Undesired (attack) traffic.
    Attack,
}

/// The IPv4-like packet header, the input to flow-label matching.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Header {
    /// Source address (spoofable by attack generators).
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Transport protocol.
    pub proto: Protocol,
    /// Source port (0 when meaningless, e.g. ICMP).
    pub src_port: u16,
    /// Destination port (0 when meaningless).
    pub dst_port: u16,
    /// Remaining hop budget, decremented by routers; packets are discarded
    /// at zero, guarding the simulator against routing loops.
    pub ttl: u8,
}

impl Header {
    /// Default initial TTL for generated packets.
    pub const DEFAULT_TTL: u8 = 64;

    /// Builds a UDP header.
    pub fn udp(src: Addr, dst: Addr, src_port: u16, dst_port: u16) -> Self {
        Header {
            src,
            dst,
            proto: Protocol::Udp,
            src_port,
            dst_port,
            ttl: Self::DEFAULT_TTL,
        }
    }

    /// Builds a TCP header.
    pub fn tcp(src: Addr, dst: Addr, src_port: u16, dst_port: u16) -> Self {
        Header {
            src,
            dst,
            proto: Protocol::Tcp,
            src_port,
            dst_port,
            ttl: Self::DEFAULT_TTL,
        }
    }

    /// Builds an AITF control-plane header.
    pub fn aitf(src: Addr, dst: Addr) -> Self {
        Header {
            src,
            dst,
            proto: Protocol::Aitf,
            src_port: 0,
            dst_port: 0,
            ttl: Self::DEFAULT_TTL,
        }
    }
}

/// Packet payload: opaque data or an AITF control message.
///
/// The enum as a whole cannot be `Copy` (control messages own a route
/// record), but the `Data` arm — the one every forwarded data packet
/// clones — must stay built purely from `Copy` parts so cloning it is a
/// bytewise copy. The audit below breaks the build if that regresses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PayloadKind {
    /// Opaque application data with an accounting class.
    Data(TrafficClass),
    /// An AITF control message (filtering request, verification query or
    /// reply).
    Aitf(AitfMessage),
}

// Compile-time audit of the data-plane clone cost: everything a data packet
// carries besides the route record is `Copy`, and the route record itself
// is allocation-free up to `INLINE_ROUTE_RECORD` hops (see
// `tests/alloc_free.rs` for the dynamic check).
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Header>();
    assert_copy::<TrafficClass>();
    assert_copy::<Protocol>();
};

/// A simulated packet.
///
/// `size_bytes` is the on-wire size used for serialisation-time and queue
/// accounting; it includes the notional headers, so it is never zero.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Unique packet id assigned by the source, for tracing and debugging.
    pub id: u64,
    /// The network/transport header.
    pub header: Header,
    /// The AITF route-record shim, appended to by border routers.
    pub route_record: RouteRecord,
    /// The payload.
    pub payload: PayloadKind,
    /// On-wire size in bytes.
    pub size_bytes: u32,
}

/// Notional size of the fixed header, used as minimum packet size.
pub const MIN_PACKET_BYTES: u32 = 40;

/// Notional on-wire size of an AITF control message.
pub const CONTROL_PACKET_BYTES: u32 = 96;

impl Packet {
    /// Builds a data packet of `size_bytes` (clamped up to the header size).
    pub fn data(id: u64, header: Header, class: TrafficClass, size_bytes: u32) -> Self {
        Packet {
            id,
            header,
            route_record: RouteRecord::new(),
            payload: PayloadKind::Data(class),
            size_bytes: size_bytes.max(MIN_PACKET_BYTES),
        }
    }

    /// Builds an AITF control packet from `src` to `dst`.
    pub fn control(id: u64, src: Addr, dst: Addr, msg: AitfMessage) -> Self {
        Packet {
            id,
            header: Header::aitf(src, dst),
            route_record: RouteRecord::new(),
            payload: PayloadKind::Aitf(msg),
            size_bytes: CONTROL_PACKET_BYTES,
        }
    }

    /// Returns the AITF message if this is a control packet.
    pub fn aitf_message(&self) -> Option<&AitfMessage> {
        match &self.payload {
            PayloadKind::Aitf(m) => Some(m),
            PayloadKind::Data(_) => None,
        }
    }

    /// Returns `true` if this is any data packet (not control).
    pub fn is_data(&self) -> bool {
        matches!(self.payload, PayloadKind::Data(_))
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} -> {} ({:?}, {}B)",
            self.id, self.header.src, self.header.dst, self.header.proto, self.size_bytes
        )?;
        if let PayloadKind::Aitf(m) = &self.payload {
            write!(f, " [{m}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowLabel;
    use crate::message::{AitfMessage, Nonce, VerificationQuery};

    #[test]
    fn data_packet_clamps_size_to_header_minimum() {
        let h = Header::udp(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), 1, 2);
        let p = Packet::data(7, h, TrafficClass::Attack, 4);
        assert_eq!(p.size_bytes, MIN_PACKET_BYTES);
        let q = Packet::data(8, h, TrafficClass::Attack, 1500);
        assert_eq!(q.size_bytes, 1500);
    }

    #[test]
    fn control_packet_carries_message() {
        let a = Addr::new(1, 1, 1, 1);
        let v = Addr::new(2, 2, 2, 2);
        let msg = AitfMessage::VerificationQuery(VerificationQuery {
            request_id: 1,
            flow: FlowLabel::src_dst(a, v),
            nonce: Nonce(42),
        });
        let p = Packet::control(1, v, a, msg.clone());
        assert_eq!(p.header.proto, Protocol::Aitf);
        assert_eq!(p.aitf_message(), Some(&msg));
        assert!(!p.is_data());
    }

    #[test]
    fn class_accounting_helpers() {
        let h = Header::udp(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), 1, 2);
        let p = Packet::data(1, h, TrafficClass::Legit, 100);
        assert!(matches!(p.payload, PayloadKind::Data(TrafficClass::Legit)));
        assert!(p.is_data());
        assert!(p.aitf_message().is_none());
    }

    #[test]
    fn display_shows_endpoints() {
        let h = Header::udp(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), 1, 2);
        let p = Packet::data(42, h, TrafficClass::Legit, 100);
        let s = p.to_string();
        assert!(s.contains("#42"));
        assert!(s.contains("1.1.1.1"));
        assert!(s.contains("2.2.2.2"));
    }
}
