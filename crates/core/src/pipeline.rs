//! The border router's datapath, stated once: which defense stages run
//! where, for every [`DefensePolicy`].
//!
//! A border router has three decision points — **Ingress** (every packet
//! entering the forwarding path, before any routing decision),
//! **Escalate** (control packets addressed to the router itself) and
//! **Egress** (packets that passed ingress, just before the route lookup +
//! transmit, which is the datapath's one fixed step and not a stage). The
//! paper's router runs a fixed sequence at each; so does every baseline.
//! [`PolicyChains::build`] is that sequence as a literal table, one row
//! per policy — the hook map *is* the code. The stage bodies are inherent
//! methods on `BorderRouter` (`router/stages.rs`), reached through one
//! `match` on [`StageId`]: static dispatch, no allocation, whatever the
//! policy. A stage returns a [`Verdict`], a drop's [`Cause`] or a request's
//! [`RequestOutcome`], and the router counts it in one place.

use std::convert::Infallible;

use aitf_trace::Cause;

use crate::policy::DefensePolicy;

/// What a stage decided about the packet it was handed. A stage counts
/// nothing itself: `run_chain` hands every verdict but `Continue` to the
/// router's one counting site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Hand the packet to the next stage in the chain.
    Continue,
    /// Stop processing: the packet does not travel further, for this reason.
    Drop(Cause),
    /// Stop processing: the packet was a filtering request, and this became of it.
    Request(RequestOutcome),
}

/// What became of a filtering request a router received: exactly one of
/// these, each with its counter bucket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RequestOutcome {
    /// Dropped by contract policing (Section II-B).
    Policed,
    /// Not served: the router does not cooperate or has no escalation plane.
    Ignored,
    /// A request the client may not make (Section II-E), or one naming no path.
    Invalid,
    /// A damped duplicate whose filter was refreshed in place.
    Refreshed,
    /// The filter (or revocation) table was full.
    Unsatisfiable,
    /// Work committed: a filter installed or a handshake started.
    Accepted,
}

/// Every stage any policy can run; the router `match`es on these per
/// packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageId {
    // AITF ingress.
    /// Client anti-spoofing (Section III-A).
    AitfIngressFilter,
    /// Wire-speed flow filter check; must see only unspoofed traffic.
    AitfWireFilter,
    /// Shadow-cache reactivation trigger (on-off flows); only flows that
    /// passed the wire filter.
    AitfShadowReact,
    // AITF egress.
    /// Route-record traceback stamp, after TTL accounting.
    AitfStamp,
    // AITF escalate.
    /// Request admission: counting, enablement, contract policing.
    AitfAdmission,
    /// Role dispatch: victim gateway / attacker gateway / attacker.
    AitfDispatch,
    // Shared egress.
    /// TTL-exhaustion veto.
    TtlCheck,
    /// TTL decrement, strictly after the check.
    TtlDecrement,
    // Pushback.
    /// Aggregate-filter check (also refreshes the arrival record).
    PushbackWireFilter,
    /// Arrival-link learning for packets that survive the filter.
    PushbackArrival,
    /// Pushback / edge-trigger control handling.
    PushbackControl,
    // Ingress rate limiting.
    /// Per-source-prefix token-bucket policing on client links.
    PrefixPolice,
    /// Control sink: counts and ignores filtering requests.
    RatelimitControl,
    // Path stamping.
    /// Revoked-origin check against the packet's route record.
    PathStampCheck,
    /// Unconditional route-record stamp (the "capability"), after TTL
    /// accounting.
    PathStampMark,
    /// Origin revocation on a victim's filtering request.
    PathStampControl,
}

impl StageId {
    /// Stable snake-case name (diagnostics, docs and tests).
    pub fn name(self) -> &'static str {
        match self {
            StageId::AitfIngressFilter => "ingress_filter",
            StageId::AitfWireFilter => "wire_filter",
            StageId::AitfShadowReact => "shadow_react",
            StageId::AitfStamp => "traceback_stamp",
            StageId::AitfAdmission => "aitf_admission",
            StageId::AitfDispatch => "aitf_dispatch",
            StageId::TtlCheck => "ttl_check",
            StageId::TtlDecrement => "ttl_decrement",
            StageId::PushbackWireFilter => "pushback_wire_filter",
            StageId::PushbackArrival => "pushback_arrival",
            StageId::PushbackControl => "pushback_control",
            StageId::PrefixPolice => "prefix_police",
            StageId::RatelimitControl => "ratelimit_control",
            StageId::PathStampCheck => "path_stamp_check",
            StageId::PathStampMark => "path_stamp_mark",
            StageId::PathStampControl => "path_stamp_control",
        }
    }
}

/// One policy's three stage chains, in execution order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyChains {
    /// Runs on every packet entering the forwarding path.
    pub ingress: &'static [StageId],
    /// Runs on control packets addressed to this router.
    pub escalate: &'static [StageId],
    /// Runs just before the route lookup + transmit.
    pub egress: &'static [StageId],
}

impl PolicyChains {
    /// The chains `policy` runs. Every egress chain starts with the
    /// shared TTL accounting, check before decrement, and stamps only
    /// after it.
    // `Result` only because the frozen `benchmark/src/kernels.rs` calls `build(p).expect(..)`.
    pub const fn build(policy: DefensePolicy) -> Result<PolicyChains, Infallible> {
        use StageId::*;
        Ok(match policy {
            DefensePolicy::Aitf => PolicyChains {
                ingress: &[AitfIngressFilter, AitfWireFilter, AitfShadowReact],
                escalate: &[AitfAdmission, AitfDispatch],
                egress: &[TtlCheck, TtlDecrement, AitfStamp],
            },
            DefensePolicy::Pushback => PolicyChains {
                ingress: &[PushbackWireFilter, PushbackArrival],
                escalate: &[PushbackControl],
                egress: &[TtlCheck, TtlDecrement],
            },
            DefensePolicy::IngressRateLimit { .. } => PolicyChains {
                ingress: &[PrefixPolice],
                escalate: &[RatelimitControl],
                egress: &[TtlCheck, TtlDecrement],
            },
            DefensePolicy::PathStamp => PolicyChains {
                ingress: &[PathStampCheck],
                escalate: &[PathStampControl],
                egress: &[TtlCheck, TtlDecrement, PathStampMark],
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(chain: &[StageId]) -> String {
        chain.iter().map(|s| s.name()).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn every_policy_matches_the_hook_map() {
        // (policy, ingress, escalate, egress). The AITF row is the exact
        // pre-pipeline `forward_data` / `handle_control` sequence the
        // equivalence fixture pins bit for bit.
        let hook_map = [
            (
                DefensePolicy::Aitf,
                "ingress_filter wire_filter shadow_react",
                "aitf_admission aitf_dispatch",
                "ttl_check ttl_decrement traceback_stamp",
            ),
            (
                DefensePolicy::Pushback,
                "pushback_wire_filter pushback_arrival",
                "pushback_control",
                "ttl_check ttl_decrement",
            ),
            (
                DefensePolicy::ingress_ratelimit(),
                "prefix_police",
                "ratelimit_control",
                "ttl_check ttl_decrement",
            ),
            (
                DefensePolicy::PathStamp,
                "path_stamp_check",
                "path_stamp_control",
                "ttl_check ttl_decrement path_stamp_mark",
            ),
        ];
        assert_eq!(hook_map.map(|row| row.0), DefensePolicy::BAKEOFF);
        for (policy, ingress, escalate, egress) in hook_map {
            let c = PolicyChains::build(policy).unwrap();
            assert_eq!(names(c.ingress), ingress, "{policy:?} ingress");
            assert_eq!(names(c.escalate), escalate, "{policy:?} escalate");
            assert_eq!(names(c.egress), egress, "{policy:?} egress");
        }
    }

    #[test]
    fn every_stage_runs_somewhere_under_a_unique_name() {
        // The distinct stages over all twelve chains, by discriminant.
        let mut seen: Vec<StageId> = DefensePolicy::BAKEOFF
            .iter()
            .flat_map(|&p| {
                let c = PolicyChains::build(p).unwrap();
                [c.ingress, c.escalate, c.egress].concat()
            })
            .collect();
        seen.sort_by_key(|&id| id as usize);
        seen.dedup();
        // Dense from the first variant to the last: no variant (and so no
        // `run_stage` arm) is left out of every chain.
        let last = StageId::PathStampControl as usize;
        let discriminants: Vec<usize> = seen.iter().map(|&id| id as usize).collect();
        assert_eq!(discriminants, (0..=last).collect::<Vec<_>>());

        let mut unique: Vec<&str> = seen.iter().map(|id| id.name()).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seen.len(), "two stages share a name");
    }

    #[test]
    fn ttl_check_precedes_decrement_precedes_any_stamp() {
        for policy in DefensePolicy::BAKEOFF {
            let egress = PolicyChains::build(policy).unwrap().egress;
            let pos = |id| egress.iter().position(|&s| s == id);
            let check = pos(StageId::TtlCheck).expect("ttl_check in every egress chain");
            let dec = pos(StageId::TtlDecrement).expect("ttl_decrement in every egress chain");
            assert!(check < dec, "{policy:?}");
            for stamp in [StageId::AitfStamp, StageId::PathStampMark] {
                if let Some(at) = pos(stamp) {
                    assert!(dec < at, "{policy:?}: {stamp:?} before TTL accounting");
                }
            }
        }
    }
}
