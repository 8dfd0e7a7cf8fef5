//! Span regressions: the cause chain of one full escalation and the
//! cooperative round-1 order at the attacker's gateway (trace builds only).
//!
//! Runs the paper's Figure 1 world — a malicious flood with every
//! attacker-side gateway non-cooperating, so escalation walks the whole
//! ladder — and pins the recorded span tree: each escalation round opens a
//! `Round` span with the right cause (`detection` for round 1, escalation
//! or temp-filter expiry afterwards), the handshake and filter spans
//! parent under their round even though they happen on *different
//! routers*, and the chain terminates in a disconnect.

#![cfg(feature = "trace")]

use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::{BuiltWorld, HostSel, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};
use aitf_trace::{Cause, SpanKind, SpanRecord};

/// The 1000 pps flood every test here runs.
fn flood() -> TrafficSpec {
    TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 1000, 500)
}

fn fig1_spans(shards: usize) -> Vec<SpanRecord> {
    // The attacker's own gateway shirks, so round 1's request is ignored,
    // the temporary filter expires, and the ladder climbs to round 2 where
    // the next gateway up (B_isp) cooperates: handshake, long filter, and
    // the policing disconnect of the shirking client below it.
    let mut topo = TopologySpec::fig1(HostPolicy::Malicious);
    topo.set_net_policy("B_net", RouterPolicy::non_cooperating());
    let scenario = Scenario::new(topo)
        .duration(SimDuration::from_secs(8))
        .traffic(flood())
        .shards(shards);
    let outcome = scenario.run(42);
    outcome
        .trace
        .expect("trace feature is on; every outcome carries a report")
        .spans
}

/// The cooperative Figure 1 world of `examples/quickstart.rs`, flood armed.
fn cooperative_fig1() -> BuiltWorld {
    let mut f = TopologySpec::fig1(HostPolicy::Compliant).build(42, AitfConfig::default());
    flood().install(&mut f);
    f
}

fn find(spans: &[SpanRecord], kind: SpanKind, cause: Cause, round: u8) -> Option<&SpanRecord> {
    spans
        .iter()
        .find(|s| s.kind == kind && s.cause == cause && s.round == round)
}

#[test]
fn one_full_escalation_pins_its_parent_and_cause_chain() {
    let spans = fig1_spans(1);
    assert!(!spans.is_empty(), "a traced escalation must record spans");

    // Every span is closed (run finished) and well-formed.
    for s in &spans {
        assert!(s.end_ns >= s.start_ns, "open or time-reversed span: {s:?}");
    }

    // Round 1 exists, caused by detection, and is a root span.
    let r1 = find(&spans, SpanKind::Round, Cause::Detection, 1)
        .expect("round 1 opens on the victim's gateway after detection");
    assert_eq!(r1.parent, None, "rounds are roots of the cause chain");

    // Work committed in round 1: the victim-side temporary filter, a
    // child of the round on the same router. (No handshake yet — the
    // shirking B_net gateway ignores the round-1 request.)
    let tmp = find(&spans, SpanKind::TempFilter, Cause::Protocol, 1)
        .expect("temporary filter installs in round 1");
    assert_eq!(tmp.parent, Some(r1.id));
    assert_eq!(tmp.router, r1.router, "temp filter is victim-gateway work");

    // The attack outlives round 1, so round 2 opens — via escalation or
    // temp-filter expiry — and the virtual-time clock orders it strictly
    // after round 1 began.
    let r2 = spans
        .iter()
        .find(|s| {
            s.kind == SpanKind::Round
                && s.round == 2
                && matches!(s.cause, Cause::Escalated | Cause::TempFilterExpired)
        })
        .expect("the flood escalates to round 2");
    assert_eq!(r2.parent, None, "rounds are roots of the cause chain");
    assert_eq!(r2.flow, r1.flow);
    assert!(r2.start_ns > r1.start_ns, "rounds advance in virtual time");

    // Round 2's verification handshake parents under a round-2 Round span
    // — and runs on a *different router* (the attacker-side gateway; the
    // round opened victim-side), which is exactly what merging the
    // routers' logs into one tree exists for.
    let hs = find(&spans, SpanKind::Handshake, Cause::Protocol, 2)
        .expect("verification handshake inside round 2");
    let hs_round = spans
        .iter()
        .find(|s| Some(s.id) == hs.parent)
        .expect("handshake parents under a span");
    assert_eq!(hs_round.kind, SpanKind::Round);
    assert_eq!(hs_round.round, 2);
    assert_eq!(hs.flow, hs_round.flow, "same escalation, same flow key");
    assert_ne!(
        hs.router, hs_round.router,
        "handshake happens on the attacker side, round opened on the victim side"
    );

    // The confirmed handshake commits the attacker-side long filter,
    // parented under the same round-2 span.
    let long = find(&spans, SpanKind::LongFilter, Cause::HandshakeConfirmed, 2)
        .expect("long filter installs once the handshake confirms");
    assert_eq!(long.parent, Some(hs_round.id));
    assert_eq!(long.router, hs.router, "long filter is attacker-side work");

    // The ladder terminates: the shirking client below gets disconnected.
    let disc = spans
        .iter()
        .find(|s| s.kind == SpanKind::Disconnect)
        .expect("Figure 1's endgame with a shirking gateway is a disconnection");
    assert!(disc.round >= 2, "disconnection only after escalation");

    // Determinism: span records are virtual-time data, so a second run of
    // the same seed reproduces the tree exactly.
    assert_eq!(spans, fig1_spans(1));
}

/// The traced run is the shipped run: shard windows execute on threads,
/// and the tree — ids, parents, times — is the single-threaded one.
#[test]
fn spans_are_identical_at_any_shard_count() {
    let single = fig1_spans(1);
    for shards in [2, 4] {
        assert_eq!(fig1_spans(shards), single, "{shards} shards");
    }
}

/// What `examples/quickstart.rs` prints for the attacker's gateway: in the
/// cooperative Figure 1 world, `B_gw1` verifies the round-1 request and
/// only then installs the long filter.
#[test]
fn cooperative_fig1_records_handshake_then_long_filter_at_the_attackers_gateway() {
    let mut f = cooperative_fig1();
    f.world.sim.run_for(SimDuration::from_secs(5));

    let b_gw1 = f.world.router(f.net("B_net")).addr().0;
    let spans = f.world.trace_spans();
    let at_b_gw1: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.router == b_gw1 && s.round == 1)
        .collect();
    let kinds: Vec<SpanKind> = at_b_gw1.iter().map(|s| s.kind).collect();
    assert_eq!(kinds, [SpanKind::Handshake, SpanKind::LongFilter]);
    let (hs, long) = (at_b_gw1[0], at_b_gw1[1]);
    assert_eq!(long.cause, Cause::HandshakeConfirmed);
    assert!(
        hs.start_ns < hs.end_ns && hs.end_ns <= long.start_ns,
        "the filter installs once the handshake has completed: {hs:?} {long:?}"
    );
}

/// Reading spans is a pure read: a mid-run snapshot shows the handshake
/// open (closed at the read time in the returned copy only) and must not
/// freeze it there for the rest of the run.
#[test]
fn a_mid_run_read_does_not_freeze_open_spans() {
    let mut f = cooperative_fig1();
    let quarter = SimDuration::from_millis(250);
    f.world.sim.run_for(quarter);
    let early = f.world.trace_spans();
    let open = |spans: &[SpanRecord]| {
        *find(spans, SpanKind::Handshake, Cause::Protocol, 1).expect("round-1 handshake")
    };
    assert_eq!(
        open(&early).end_ns,
        quarter.as_nanos(),
        "still in flight at the snapshot"
    );
    assert_eq!(early, f.world.trace_spans(), "consecutive reads are equal");

    f.world.sim.run_for(SimDuration::from_millis(4750));
    let spans = f.world.trace_spans();
    let hs = open(&spans);
    assert!(
        hs.end_ns > quarter.as_nanos(),
        "the handshake ends when its reply arrives, not at the earlier read: {hs:?}"
    );
    assert_eq!(hs.start_ns, open(&early).start_ns);
    assert_eq!(spans, f.world.trace_spans(), "consecutive reads are equal");
}
