//! Shard-count equivalence: the sharded conservative-lookahead event loop
//! is a pure execution strategy, so a scenario run at any shard count must
//! produce `RunRecord`s that are `deterministic_eq` to the classic
//! single-threaded loop — every metric f64 bit, every event count.
//!
//! Three representative experiments cover the partitioner's regimes:
//!
//! - **E1** (Figure 1 chain pair): deep chains with rogue (non-cooperating)
//!   gateways, which the shard hints merge into their provider's group;
//! - **E10** (scaling star): many single-host networks around a hub, plus
//!   the pushback backend's hint fallback (no `BorderRouter` to downcast);
//! - **E16** (deployment mix): seed-derived cooperating/legacy assignment,
//!   so group merging changes per point.
//!
//! Every point runs through `harness::run_scenario` / `harness::checked`,
//! so each of these runs — 1, 2 and 4 shards — also ends with
//! `harness::assert_loop_invariants`, in release builds too: the
//! packet-pool identity (`parked == Σ_links (queued + in flight) + pending
//! Deliver events`). Causality is checked where it is defined: a shard
//! that pops an event firing before its own clock — one scheduled into the
//! past — panics in the loop, so every run here also stands for a loop
//! that never ran backwards.
//!
//! Under `--features trace` the same runs also compare their span trees:
//! a traced sharded run executes on threads like an untraced one, and its
//! tree is built from virtual-time data only.

use aitf_engine::{RunRecord, Runner, ScenarioSpec};

fn assert_shard_invariant(spec: &ScenarioSpec) {
    let run = |shards: usize| {
        Runner::new(1)
            .base_seed(aitf_engine::DEFAULT_BASE_SEED)
            .shards(shards)
            .run(spec)
    };
    // `None` on both sides unless the `trace` feature is on.
    let spans = |r: &RunRecord| r.trace.as_ref().map(|t| t.spans.clone());
    let single = run(1);
    #[cfg(feature = "trace")]
    assert!(
        single
            .iter()
            .any(|r| spans(r).is_some_and(|s| !s.is_empty())),
        "{}: a traced sweep records spans",
        spec.id
    );
    for shards in [2, 4] {
        let sharded = run(shards);
        assert_eq!(single.len(), sharded.len());
        for (s, k) in single.iter().zip(&sharded) {
            assert!(
                s.deterministic_eq(k),
                "{} point {} drifted at {} shards:\n  1 shard : {}\n  {} shards: {}",
                spec.id,
                s.index,
                shards,
                s.to_json(),
                shards,
                k.to_json(),
            );
            assert_eq!(k.shards, shards, "record must carry its shard count");
            assert_eq!(
                spans(s),
                spans(k),
                "{} point {}: span tree drifted at {shards} shards",
                spec.id,
                s.index
            );
        }
    }
}

#[test]
fn e1_escalation_is_shard_invariant() {
    assert_shard_invariant(&aitf_bench::e1_escalation::spec(true));
}

#[test]
fn e10_scaling_is_shard_invariant() {
    assert_shard_invariant(&aitf_bench::e10_scaling::spec(true));
}

#[test]
fn e16_deployment_incentive_is_shard_invariant() {
    assert_shard_invariant(&aitf_bench::e16_deployment_incentive::spec(true));
}
