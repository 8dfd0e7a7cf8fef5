//! AITF control messages.
//!
//! Section II-C: *"The AITF protocol involves only one type of message: a
//! filtering request. A filtering request contains a flow label and a type
//! field"* — the type says whether the request is addressed to the victim's
//! gateway, the attacker's gateway or the attacker.
//!
//! Section II-E adds two more messages for request verification: a
//! *verification query* and a *verification reply*, each carrying a flow
//! label and a nonce, forming the 3-way handshake that stops off-path nodes
//! from forging requests.
//!
//! In this reproduction the request additionally carries the attack path
//! and the escalation round, so each recipient can locate the AITF node
//! being asked to filter without global state. The path is one
//! [`RouteRecord`] value end to end: the record of an attack packet the
//! victim actually received, kept as-is in its traceback cache, sent in the
//! request, and logged as-is in the gateway's shadow. Durations are
//! expressed in nanoseconds, the simulator's native unit.

use std::fmt;

use crate::flow::FlowLabel;
use crate::route_record::RouteRecord;

/// The `type` field of a filtering request: who the request is addressed to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RequestDestination {
    /// From the victim to its own gateway (or, during escalation, from a
    /// gateway playing the victim role to *its* gateway).
    VictimGateway,
    /// From the victim's gateway to the attacker's gateway (or to the round-k
    /// node on the attack path during escalation).
    AttackerGateway,
    /// From the attacker's gateway to the attacker itself.
    Attacker,
}

impl fmt::Display for RequestDestination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RequestDestination::VictimGateway => "to-victim-gw",
            RequestDestination::AttackerGateway => "to-attacker-gw",
            RequestDestination::Attacker => "to-attacker",
        };
        f.write_str(s)
    }
}

/// A request to block a flow for a period of time (Section II-A: *"a request
/// to block a flow of packets ... for the next T time units"*).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FilteringRequest {
    /// Correlation id, assigned by the original requestor and preserved
    /// across propagation and escalation.
    pub id: u64,
    /// The undesired flow.
    pub flow: FlowLabel,
    /// Who this copy of the request is addressed to.
    pub dest: RequestDestination,
    /// Requested blocking duration `T`, in nanoseconds.
    pub duration_ns: u64,
    /// The attack path: route record copied from a received attack packet.
    /// Empty when the requestor has no sample (e.g. a pre-emptive request).
    pub path: RouteRecord,
    /// Escalation round, 1-indexed: round 1 targets the attacker's gateway,
    /// round 2 the next AITF node on the attack path, and so on (Section
    /// II-B: *"the mechanism proceeds in rounds"*).
    pub round: u8,
}

impl fmt::Display for FilteringRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "req#{} {} round={} {} T={}ms",
            self.id,
            self.dest,
            self.round,
            self.flow,
            self.duration_ns / 1_000_000
        )
    }
}

/// A random nonce binding a verification reply to its query.
///
/// Nonces are generated from the simulator's seeded RNG; what matters for
/// the security argument is that an **off-path** node never observes them
/// (Section II-F assumes off-path traffic monitoring is impossible).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Nonce(pub u64);

impl fmt::Display for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// "Do you really not want this traffic flow?" — sent by the attacker's
/// gateway to the claimed victim (Section II-E, step ii).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerificationQuery {
    /// The request being verified.
    pub request_id: u64,
    /// The flow in question.
    pub flow: FlowLabel,
    /// Nonce that the reply must echo.
    pub nonce: Nonce,
}

/// The victim's answer to a [`VerificationQuery`] (Section II-E, step iii).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerificationReply {
    /// The request being verified.
    pub request_id: u64,
    /// Must equal the query's flow label.
    pub flow: FlowLabel,
    /// Must equal the query's nonce.
    pub nonce: Nonce,
    /// `true` if the victim confirms it wants the flow blocked.
    pub confirm: bool,
}

/// A hop-by-hop pushback request (the \[MBF+01\] baseline re-implemented
/// for comparison, Section V). A congested router asks its *adjacent
/// upstream* router to block an aggregate (AITF's blocking semantics, so
/// the comparison is fair); recipients recursively propagate further
/// upstream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PushbackRequest {
    /// Correlation id.
    pub id: u64,
    /// The aggregate to block.
    pub flow: FlowLabel,
    /// How long the block should stay, in nanoseconds.
    pub duration_ns: u64,
    /// Hops travelled from the congested router (loop/depth guard).
    pub depth: u8,
}

/// The AITF control-message set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AitfMessage {
    /// A filtering request (the protocol's single basic message).
    FilteringRequest(FilteringRequest),
    /// Handshake query from the attacker's gateway to the victim.
    VerificationQuery(VerificationQuery),
    /// Handshake reply from the victim.
    VerificationReply(VerificationReply),
    /// Hop-by-hop pushback (baseline protocol, not part of AITF proper).
    Pushback(PushbackRequest),
}

impl fmt::Display for AitfMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AitfMessage::FilteringRequest(r) => write!(f, "{r}"),
            AitfMessage::VerificationQuery(q) => {
                write!(
                    f,
                    "verify-query req#{} {} nonce={}",
                    q.request_id, q.flow, q.nonce
                )
            }
            AitfMessage::VerificationReply(r) => write!(
                f,
                "verify-reply req#{} {} nonce={} confirm={}",
                r.request_id, r.flow, r.nonce, r.confirm
            ),
            AitfMessage::Pushback(p) => write!(f, "pushback#{} {} depth={}", p.id, p.flow, p.depth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[test]
    fn display_includes_round_and_duration() {
        let r = FilteringRequest {
            id: 9,
            flow: FlowLabel::src_dst(Addr::new(10, 9, 0, 7), Addr::new(10, 1, 0, 1)),
            dest: RequestDestination::AttackerGateway,
            duration_ns: 60_000_000_000,
            path: RouteRecord::new(),
            round: 2,
        };
        let s = r.to_string();
        assert!(s.contains("req#9"));
        assert!(s.contains("round=2"));
        assert!(s.contains("T=60000ms"));
    }
}
