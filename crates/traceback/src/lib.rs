//! Traceback providers for AITF.
//!
//! Section II-F of the paper: *"AITF operation assumes that the victim's
//! gateway can determine (a) who is the attacker's gateway ... (b) who is
//! the next AITF node on the attack path ... These assumptions are met, if
//! an efficient traceback technique as those described in \[SWKA00\]
//! \[SPS+01\] is available."*
//!
//! The repo implements the one technique the paper's analysis uses:
//! [`RouteRecordTraceback`], the deterministic in-packet route-record shim
//! (Section IV-B cites an architecture "like \[CG00\], where traceback is
//! automatically provided inside each packet ... traceback time is 0").
//! One attack packet is enough to learn the full path.

pub mod route_record;

use aitf_packet::{FlowLabel, Packet, RouteRecord};

pub use route_record::RouteRecordTraceback;

/// A source of attack-path information for the victim side.
///
/// One implementor; the trait stays because the frozen benchmark crate
/// (`benchmark/src/kernels.rs`) imports it by name and calls through it,
/// and it holds exactly the two calls anything makes.
///
/// Implementations observe the data packets a node receives and answer path
/// queries for a given undesired flow. A path is a [`RouteRecord`], attacker
/// side first, the same value a packet carries and a filtering request
/// sends on.
pub trait Traceback {
    /// Feeds one received packet to the provider.
    fn observe(&mut self, packet: &Packet);

    /// Best-known attack path of `flow`, attacker side
    /// first; `None` until the provider has converged for that flow.
    fn attack_path(&self, flow: &FlowLabel) -> Option<RouteRecord>;
}
