//! Pushback baseline state: hop-by-hop aggregate blocking (\[MBF+01\]).
//!
//! Section V of the AITF paper contrasts AITF with Mahajan et al.'s
//! *pushback*: *"A pushback request is propagated hop by hop by the victim
//! towards the attacker. In contrast, the propagation of an AITF filtering
//! request involves only 4 nodes ... A pushback request does not force the
//! recipient router to rate-limit the problematic aggregate; it relies on
//! its good will."*
//!
//! Under [`crate::DefensePolicy::Pushback`] the border router runs
//! the pushback hook chains instead of AITF's; this module holds the
//! state those stages need — the per-aggregate arrival-link memory and the
//! pushback-specific counters. The shared machinery (filter table,
//! forwarding, TTL accounting, `data_*`/`requests_*`/`filters_installed`
//! counters) lives on the router itself, which is what keeps the protocols
//! comparable:
//!
//! - the victim's gateway turns a victim filtering request into a local
//!   block plus a [`aitf_packet::PushbackRequest`] to the adjacent
//!   *upstream* router the aggregate arrives from;
//! - each recipient blocks locally and recursively propagates upstream,
//!   one hop at a time, until the attacker's edge is reached;
//! - every router on the path therefore holds a filter (the "filtering
//!   bottleneck" of Section I), and one non-cooperating hop silently
//!   breaks the chain upstream of it — there is no disconnection lever.
//!
//! The rate limit is configured to 0 bps (drop) so effectiveness is
//! directly comparable with AITF's blocking.

use std::collections::HashMap;

use aitf_netsim::LinkId;
use aitf_packet::{Addr, FoldHash};

/// Maximum hops a pushback request travels (loop guard).
pub const MAX_PUSHBACK_DEPTH: u8 = 32;

/// Destination address of link-local (hop-by-hop) pushback packets.
pub const LINK_LOCAL: Addr = Addr::ZERO;

/// Counters specific to the pushback control plane. Data-plane drops and
/// filter installs land in the router's shared
/// [`crate::RouterCounters`] buckets.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushbackCounters {
    /// Pushback messages received from downstream.
    pub pushback_received: u64,
    /// Pushback messages propagated upstream.
    pub pushback_sent: u64,
    /// Pushback messages ignored (non-cooperating router).
    pub pushback_ignored: u64,
}

/// Per-router pushback state, live only under the pushback policy.
#[derive(Debug, Default)]
pub struct PushbackState {
    /// Which link packets of a given `(src, dst)` pair arrive on — the
    /// "contributing upstream neighbour" needed for propagation.
    flow_arrivals: HashMap<(Addr, Addr), LinkId, FoldHash>,
    /// Pushback-plane counters.
    pub counters: PushbackCounters,
}

impl PushbackState {
    /// Records which link the `(src, dst)` aggregate arrives on. Bounded:
    /// beyond 64k distinct pairs, stop learning new ones (old pairs keep
    /// being refreshed in place).
    pub fn note_arrival(&mut self, key: (Addr, Addr), arrival: LinkId) {
        if self.flow_arrivals.len() < 65_536 || self.flow_arrivals.contains_key(&key) {
            self.flow_arrivals.insert(key, arrival);
        }
    }

    /// The learned upstream link for an aggregate, if any.
    pub fn arrival_of(&self, key: (Addr, Addr)) -> Option<LinkId> {
        self.flow_arrivals.get(&key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_learning_is_bounded_but_refreshes_known_pairs() {
        let mut s = PushbackState::default();
        let a = Addr::new(10, 1, 0, 1);
        let b = Addr::new(10, 9, 0, 1);
        s.note_arrival((a, b), LinkId(3));
        assert_eq!(s.arrival_of((a, b)), Some(LinkId(3)));
        s.note_arrival((a, b), LinkId(4));
        assert_eq!(s.arrival_of((a, b)), Some(LinkId(4)));
        assert_eq!(s.flow_arrivals.len(), 1);
        assert_eq!(s.arrival_of((b, a)), None);
    }
}
