//! Packet formats and protocol messages for the AITF reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! - [`Addr`] and [`Prefix`] — IPv4-like addressing with longest-prefix
//!   semantics, used both for end hosts and for the address blocks owned by
//!   AITF networks (Autonomous Domains).
//! - [`FlowLabel`] — the source-host / destination-host pair carried by
//!   AITF filtering requests ("all packets with IP source address S and IP
//!   destination address D", Section II-A of the paper).
//! - [`Packet`] and [`Header`] — the simulated datagram, including the AITF
//!   *route record shim* appended by border routers (the traceback substrate
//!   assumed in Section II-F, provided in-packet as in the TRIAD
//!   architecture \[CG00\]).
//! - [`AitfMessage`] — the AITF control messages: the filtering request
//!   (Section II-C) and the verification query/reply pair of the 3-way
//!   handshake (Section II-E).
//!
//! The crate is deliberately dependency-free: it is pure data plus matching
//! logic, so the simulator, the filter substrate and the protocol engine can
//! all share it without cycles.

pub mod addr;
pub mod alloc_probe;
pub mod flow;
pub mod fold_hash;
pub mod lpm;
pub mod message;
pub mod packet;
pub mod route_record;

pub use addr::{Addr, AddrParseError, Prefix};
pub use flow::FlowLabel;
pub use fold_hash::FoldHash;
pub use lpm::{LpmTable, PrefixMap};
pub use message::{
    AitfMessage, FilteringRequest, Nonce, PushbackRequest, RequestDestination, VerificationQuery,
    VerificationReply,
};
pub use packet::{Header, Packet, PayloadKind, Protocol, TrafficClass};
pub use route_record::{RouteRecord, RouteRecordFull, INLINE_ROUTE_RECORD, MAX_ROUTE_RECORD};
