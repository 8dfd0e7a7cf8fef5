//! # aitf-trace — zero-cost structured tracing and subsystem profiling
//!
//! The observability layer for the AITF reproduction. Two instruments:
//!
//! - **Spans with cause chains** ([`span`]): one span per escalation round
//!   (filter request → handshake → install/evict → expiry/refresh), each
//!   carrying `(flow, round, router, cause)`, so any leaked packet or
//!   dropped escalation can be attributed to the decision that caused it.
//!   Span clocks are **virtual time** — deterministic and testable.
//! - **Per-subsystem counters and timers** ([`profile`]): every dispatched
//!   simulator event is classified as netsim-queue / link / host-app /
//!   router-datapath / escalation / detector work and its **wall-clock**
//!   cost accumulated per bucket.
//!
//! The recording facade is [`Tracer`]. With the `trace` cargo feature off
//! (the default) it is a zero-sized type whose methods are empty `#[inline]`
//! stubs — every call compiles away, verified allocation-free by
//! `crates/bench/tests/trace_zero_cost.rs`. With it on, each router owns a
//! private append-only log and [`Tracer::replay`] merges the logs into the
//! span tree in virtual-time order — the same tree at any shard or thread
//! count. The *data* types (records,
//! profiles, reports) are feature-independent so reports can always be
//! rendered and JSON schemas never change shape.

pub mod profile;
pub mod span;
mod tracer;

pub use profile::{ShardLoad, Subsystem, SubsystemProfile};
pub use span::{Cause, SpanId, SpanKind, SpanRecord, SpanStore};
pub use tracer::Tracer;

/// Everything one run produced: the per-subsystem wall profile plus the
/// escalation span tree. Attached to engine outcomes when tracing is on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceReport {
    /// Wall-time-per-subsystem buckets (raw; render via
    /// [`SubsystemProfile::finalized`]).
    pub subsystems: SubsystemProfile,
    /// The recorded span tree, in start order.
    pub spans: Vec<SpanRecord>,
    /// How the event loop's work was spread over its shards.
    pub shard_load: ShardLoad,
}

impl TraceReport {
    /// Flamegraph-ready folded-stack lines (`path;to;frame weight`),
    /// aggregated over the span tree. See [`span::folded_stacks`].
    pub fn folded(&self) -> Vec<String> {
        span::folded_stacks(&self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_default_is_empty() {
        let r = TraceReport::default();
        assert!(r.spans.is_empty());
        assert_eq!(r.subsystems.finalized().total_events(), 0);
        assert!(r.folded().is_empty());
    }
}
