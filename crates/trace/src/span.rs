//! Escalation spans: virtual-time intervals with parent and cause chains.
//!
//! One [`SpanKind::Round`] span is opened per escalation round of a flow;
//! everything the protocol does for that round — temporary filter,
//! handshake, long filter, escalation forward, disconnect — is a child of
//! it, wherever in the topology it happens. Parenting is keyed by
//! `(flow, round)`, so the chain crosses routers: the handshake span at
//! the attacker's gateway hangs off the round span opened at the victim's
//! gateway. Clocks are **virtual** (simulated nanoseconds): span data is
//! bit-deterministic and safe to pin in tests.

use std::collections::HashMap;

/// Handle to a recorded span. [`SpanId::NONE`] when tracing is disabled or
/// the span was never recorded — ending it is a no-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The null span handle.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// What a span covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SpanKind {
    /// One escalation round of one flow — the parent of everything below.
    Round,
    /// Temporary (`Ttmp`) filter installed at the victim's gateway.
    TempFilter,
    /// The 3-way verification handshake at the attacker's gateway.
    Handshake,
    /// Long (`T`) filter installed on the attacker side.
    LongFilter,
    /// Damped duplicate: the temporary filter was refreshed in place.
    Refresh,
    /// The round was forwarded to an AITF-enabled ancestor.
    Escalate,
    /// Local-filter fallback: the escalation dead-ended at the router's
    /// own uplink and the flow stays filtered locally.
    LocalFilter,
    /// A peer or client link was administratively disconnected.
    Disconnect,
    /// The round was dropped — nothing left to try.
    Drop,
}

impl SpanKind {
    /// Stable machine-readable name (folded-stack frames, JSON).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::TempFilter => "temp_filter",
            SpanKind::Handshake => "handshake",
            SpanKind::LongFilter => "long_filter",
            SpanKind::Refresh => "refresh",
            SpanKind::Escalate => "escalate",
            SpanKind::LocalFilter => "local_filter",
            SpanKind::Disconnect => "disconnect",
            SpanKind::Drop => "drop",
        }
    }
}

/// Why a span exists, or why a router stopped a packet: the decision behind it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Cause {
    /// The victim detected the flow and asked its gateway.
    Detection,
    /// The temporary filter expired and the shadowed flow reappeared.
    TempFilterExpired,
    /// A previous round failed; this round is the escalation of it.
    Escalated,
    /// Damped duplicate request within the cooldown window.
    Duplicate,
    /// The victim confirmed the verification handshake.
    HandshakeConfirmed,
    /// The victim denied the verification handshake.
    HandshakeDenied,
    /// The verification handshake timed out.
    HandshakeTimeout,
    /// The wire-speed filter table was full.
    TableFull,
    /// No AITF-enabled ancestor left to escalate through.
    NoAncestor,
    /// No route towards the neighbour to disconnect.
    NoNeighbor,
    /// The grace period expired with the flow still arriving.
    GraceExpired,
    /// Plain protocol progress (no special trigger).
    Protocol,
    /// A client packet sourced outside the client's own addresses.
    Spoofed,
    /// A data packet a defense's filter or policer stopped.
    Filtered,
    /// A packet whose TTL would not survive the next hop.
    TtlExpired,
    /// A packet addressed to a router that has no handler for it.
    Misdelivered,
    /// A packet with no route towards its destination.
    NoRoute,
}

impl Cause {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Cause::Detection => "detection",
            Cause::TempFilterExpired => "temp_filter_expired",
            Cause::Escalated => "escalated",
            Cause::Duplicate => "duplicate",
            Cause::HandshakeConfirmed => "handshake_confirmed",
            Cause::HandshakeDenied => "handshake_denied",
            Cause::HandshakeTimeout => "handshake_timeout",
            Cause::TableFull => "table_full",
            Cause::NoAncestor => "no_ancestor",
            Cause::NoNeighbor => "no_neighbor",
            Cause::GraceExpired => "grace_expired",
            Cause::Protocol => "protocol",
            Cause::Spoofed => "spoofed",
            Cause::Filtered => "filtered",
            Cause::TtlExpired => "ttl_expired",
            Cause::Misdelivered => "misdelivered",
            Cause::NoRoute => "no_route",
        }
    }
}

/// End time of a span that is still open.
pub const OPEN: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// This span's id (its index in the store).
    pub id: u32,
    /// Parent span id, or `None` for roots.
    pub parent: Option<u32>,
    /// What the span covers.
    pub kind: SpanKind,
    /// The decision that caused it.
    pub cause: Cause,
    /// Compact flow key: the label's `src << 32 | dst`.
    pub flow: u64,
    /// Escalation round the span belongs to.
    pub round: u8,
    /// Raw address of the router (or host gateway) that recorded it.
    pub router: u32,
    /// Virtual start time, nanoseconds.
    pub start_ns: u64,
    /// Virtual end time, nanoseconds ([`OPEN`] while unfinished).
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in virtual nanoseconds (0 while open).
    pub fn duration_ns(&self) -> u64 {
        if self.end_ns == OPEN {
            0
        } else {
            self.end_ns.saturating_sub(self.start_ns)
        }
    }

    /// Renders the record as one human-readable line — what the examples
    /// print per span: start time, kind, round, cause, `src > dst` of the
    /// flow key, and the virtual duration (`open` while unfinished).
    pub fn line(&self) -> String {
        // The key's halves are raw IPv4 addresses; `as` keeps the low 32 bits.
        let ip = |a: u64| std::net::Ipv4Addr::from(a as u32);
        let took = if self.end_ns == OPEN {
            "open".to_string()
        } else {
            format!("+{:.3}ms", self.duration_ns() as f64 / 1e6)
        };
        format!(
            "t={:.6}s  {:<12} round {}  {:<19} {} > {}  {took}",
            self.start_ns as f64 / 1e9,
            self.kind.name(),
            self.round,
            self.cause.name(),
            ip(self.flow >> 32),
            ip(self.flow),
        )
    }

    /// Renders the record as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"parent\":{},\"kind\":\"{}\",\"cause\":\"{}\",\"flow\":{},\"round\":{},\"router\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.id,
            match self.parent {
                Some(p) => p.to_string(),
                None => "null".into(),
            },
            self.kind.name(),
            self.cause.name(),
            self.flow,
            self.round,
            self.router,
            self.start_ns,
            if self.end_ns == OPEN { self.start_ns } else { self.end_ns },
        )
    }
}

/// The span recorder: an append-only list plus the open-round index that
/// parents children across routers.
#[derive(Debug, Default)]
pub struct SpanStore {
    spans: Vec<SpanRecord>,
    open_rounds: HashMap<(u64, u8), u32>,
}

impl SpanStore {
    /// An empty store.
    pub fn new() -> Self {
        SpanStore::default()
    }

    /// Starts a span. A [`SpanKind::Round`] span becomes the open round
    /// for `(flow, round)` — a previously open round span for the same key
    /// (an escalation handed to the next router) is ended where the new
    /// one begins. Any other kind is parented under the open round for
    /// `(flow, round)`, or recorded as a root when no round is open
    /// (e.g. verification-disabled edge cases).
    pub fn start(
        &mut self,
        kind: SpanKind,
        cause: Cause,
        flow: u64,
        round: u8,
        router: u32,
        now_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = if kind == SpanKind::Round {
            if let Some(old) = self.open_rounds.insert((flow, round), id) {
                self.end(SpanId(old), now_ns);
            }
            None
        } else {
            self.open_rounds.get(&(flow, round)).copied()
        };
        self.spans.push(SpanRecord {
            id,
            parent,
            kind,
            cause,
            flow,
            round,
            router,
            start_ns: now_ns,
            end_ns: OPEN,
        });
        SpanId(id)
    }

    /// Ends an open span (no-op for [`SpanId::NONE`] or already-ended).
    pub fn end(&mut self, id: SpanId, now_ns: u64) {
        if let Some(s) = self.spans.get_mut(id.0 as usize) {
            if s.end_ns == OPEN {
                s.end_ns = now_ns;
            }
        }
    }

    /// Ends and unregisters the open round span for `(flow, round)` — the
    /// round reached a terminal decision (long filter installed, dropped,
    /// disconnected, local fallback).
    pub fn close_round(&mut self, flow: u64, round: u8, now_ns: u64) {
        if let Some(id) = self.open_rounds.remove(&(flow, round)) {
            self.end(SpanId(id), now_ns);
        }
    }

    /// Closes every still-open span at `now_ns` (end of run).
    pub fn close_all(&mut self, now_ns: u64) {
        for s in &mut self.spans {
            if s.end_ns == OPEN {
                s.end_ns = now_ns;
            }
        }
    }

    /// Snapshot of every recorded span, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// Flamegraph-ready folded stacks: one `frame;frame;frame weight` line per
/// distinct root-to-span path, weighted by the span's *exclusive* virtual
/// time in microseconds (minimum 1, so instant decisions stay visible).
/// Feed the lines to any `flamegraph.pl`-compatible renderer.
pub fn folded_stacks(spans: &[SpanRecord]) -> Vec<String> {
    // Exclusive time: own duration minus time covered by children.
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    let frame = |s: &SpanRecord| -> String {
        if s.kind == SpanKind::Round {
            format!("round_{}:{}", s.round, s.cause.name())
        } else {
            format!("{}:{}", s.kind.name(), s.cause.name())
        }
    };
    let mut weights: Vec<(String, u64)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for s in spans {
        let exclusive = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let micros = (exclusive / 1_000).max(1);
        // Build the path by walking parents (chains are shallow: round →
        // action → sub-action).
        let mut path = vec![frame(s)];
        let mut cur = s.parent;
        while let Some(p) = cur {
            let ps = &spans[p as usize];
            path.push(frame(ps));
            cur = ps.parent;
        }
        path.reverse();
        let key = path.join(";");
        match index.get(&key) {
            Some(&i) => weights[i].1 += micros,
            None => {
                index.insert(key.clone(), weights.len());
                weights.push((key, micros));
            }
        }
    }
    weights
        .into_iter()
        .map(|(k, w)| format!("{k} {w}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_parent_under_the_open_round_across_routers() {
        let mut st = SpanStore::new();
        let round = st.start(SpanKind::Round, Cause::Detection, 7, 1, 100, 0);
        let tmp = st.start(SpanKind::TempFilter, Cause::Protocol, 7, 1, 100, 10);
        st.end(tmp, 10);
        // Different router, same (flow, round): still a child of `round`.
        let hs = st.start(SpanKind::Handshake, Cause::Protocol, 7, 1, 200, 20);
        st.end(hs, 50);
        st.end(round, 60);
        let spans = st.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].router, 200);
        assert_eq!(spans[2].duration_ns(), 30);
    }

    #[test]
    fn rounds_key_independently_per_flow_and_round() {
        let mut st = SpanStore::new();
        st.start(SpanKind::Round, Cause::Detection, 1, 1, 9, 0);
        st.start(SpanKind::Round, Cause::Escalated, 1, 2, 9, 5);
        let child = st.start(SpanKind::Escalate, Cause::Escalated, 1, 1, 9, 6);
        // Round 1's child parents under the round-1 span, not round 2's.
        assert_eq!(st.spans()[child.0 as usize].parent, Some(0));
    }

    #[test]
    fn close_all_ends_open_spans_and_none_is_a_noop() {
        let mut st = SpanStore::new();
        let id = st.start(SpanKind::Round, Cause::Detection, 1, 1, 9, 10);
        st.end(SpanId::NONE, 99);
        st.close_all(25);
        assert_eq!(st.spans()[id.0 as usize].end_ns, 25);
        // Re-closing does not move the end.
        st.end(id, 99);
        assert_eq!(st.spans()[id.0 as usize].end_ns, 25);
    }

    #[test]
    fn folded_stacks_aggregate_paths_with_exclusive_weights() {
        let mut st = SpanStore::new();
        let round = st.start(SpanKind::Round, Cause::Detection, 7, 1, 1, 0);
        let hs = st.start(SpanKind::Handshake, Cause::Protocol, 7, 1, 2, 1_000_000);
        st.end(hs, 3_000_000);
        st.end(round, 10_000_000);
        let lines = folded_stacks(st.spans());
        assert_eq!(lines.len(), 2, "{lines:?}");
        // Root exclusive: 10 ms - 2 ms child = 8 ms = 8000 us.
        assert!(
            lines.contains(&"round_1:detection 8000".to_string()),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"round_1:detection;handshake:protocol 2000".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn span_line_renders_closed_and_open_spans() {
        let flow = (0x0A09_0002u64 << 32) | 0x0A01_0002;
        let mut st = SpanStore::new();
        let hs = st.start(
            SpanKind::Handshake,
            Cause::Protocol,
            flow,
            1,
            9,
            105_000_000,
        );
        st.end(hs, 107_500_000);
        st.start(
            SpanKind::Round,
            Cause::TempFilterExpired,
            flow,
            2,
            9,
            2_000_000_000,
        );
        assert_eq!(
            st.spans()[0].line(),
            "t=0.105000s  handshake    round 1  protocol            10.9.0.2 > 10.1.0.2  +2.500ms"
        );
        assert_eq!(
            st.spans()[1].line(),
            "t=2.000000s  round        round 2  temp_filter_expired 10.9.0.2 > 10.1.0.2  open"
        );
    }

    #[test]
    fn span_json_is_shaped() {
        let mut st = SpanStore::new();
        let id = st.start(SpanKind::Round, Cause::Detection, 7, 1, 9, 5);
        st.end(id, 8);
        assert_eq!(
            st.spans()[0].to_json(),
            "{\"id\":0,\"parent\":null,\"kind\":\"round\",\"cause\":\"detection\",\"flow\":7,\"round\":1,\"router\":9,\"start_ns\":5,\"end_ns\":8}"
        );
    }
}
