//! Engine determinism over real experiments: the same spec, the same base
//! seed, 1 worker vs 8 workers — every `RunRecord` must be identical
//! (seeds, params, metrics, event counts; wall time is the only field
//! allowed to differ).

use aitf_engine::Runner;

fn assert_thread_invariant(spec: aitf_engine::ScenarioSpec) {
    let one = Runner::new(1).run(&spec);
    let eight = Runner::new(8).run(&spec);
    assert_eq!(one.len(), eight.len(), "{}: record count differs", spec.id);
    assert!(!one.is_empty(), "{}: spec produced no records", spec.id);
    for (a, b) in one.iter().zip(&eight) {
        assert!(
            a.deterministic_eq(b),
            "{}: records diverged across thread counts:\n  1 thread: {a:?}\n  8 threads: {b:?}",
            spec.id
        );
    }
}

#[test]
fn e11_detection_is_thread_count_invariant() {
    assert_thread_invariant(aitf_bench::e11_detection::spec(true));
}

#[test]
fn e6_handshake_is_thread_count_invariant() {
    assert_thread_invariant(aitf_bench::e6_handshake_security::spec(true));
}

#[test]
fn e12_mixed_workload_is_thread_count_invariant() {
    // The declarative-API-native experiment: sampled probes, aggregate
    // rate splits and tree topologies must all stay schedule-independent.
    assert_thread_invariant(aitf_bench::e12_mixed_workload::spec(true));
}

#[test]
fn e13_filter_pressure_is_thread_count_invariant() {
    // Capacity/eviction sweeps: full-table retry dynamics must be a pure
    // function of the derived seed, never of worker scheduling.
    assert_thread_invariant(aitf_bench::e13_filter_pressure::spec(true));
}

#[test]
fn e2_effective_bandwidth_is_thread_count_invariant() {
    // Td, Tr and T rebuild config and topology per point; the grid and
    // the Td x Tr plane must stay bit-identical at any thread count.
    assert_thread_invariant(aitf_bench::e2_effective_bandwidth::spec(true));
}

#[test]
fn e15_host_churn_is_thread_count_invariant() {
    // The dynamic-world experiment: churn events fire at fixed virtual
    // times between event-loop segments, so attach/detach/activate must
    // not introduce any schedule dependence.
    assert_thread_invariant(aitf_bench::e15_host_churn::spec(true));
}

#[test]
fn e16_deployment_incentive_is_thread_count_invariant() {
    // Partial deployment: the seed-derived nested assignment and the
    // deployment-aware escalation paths must be pure functions of the
    // derived seed at any worker count.
    assert_thread_invariant(aitf_bench::e16_deployment_incentive::spec(true));
}

#[test]
fn e17_provider_churn_is_thread_count_invariant() {
    // Network churn: SetRouterPolicy events update the deployment view
    // between event-loop segments; re-escalation must stay
    // schedule-independent.
    assert_thread_invariant(aitf_bench::e17_provider_churn::spec(true));
}

#[test]
fn base_seed_flows_into_every_record() {
    let spec = aitf_bench::e11_detection::spec(true);
    let a = Runner::new(2).base_seed(1).run(&spec);
    let b = Runner::new(2).base_seed(2).run(&spec);
    assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
}
