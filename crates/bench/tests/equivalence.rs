//! Equivalence suite: pins the quick-mode `RunRecord`s of every registered
//! experiment bit-identically against a committed fixture.
//!
//! Every record must reproduce exactly — same params, same metrics (every
//! f64 bit), same seeds, same simulator event counts — at any thread
//! count. `deterministic_eq`'s fields are exactly what the rendered lines
//! contain; wall time is excluded.
//!
//! Every registered point runs through `harness::run_scenario` /
//! `harness::checked`, so each record here also stands for a run that ended
//! with the packet-pool identity holding (`harness::assert_loop_invariants`,
//! asserted in every build) and that never dispatched into a shard's past
//! (the loop panics at such a pop, in every build).
//!
//! Refresh intentionally (for a *semantic* change, never to paper over
//! drift) with:
//!
//! ```text
//! UPDATE_EQUIVALENCE_FIXTURE=1 cargo test -p aitf-bench --test equivalence
//! ```
//!
//! Setting `AITF_EQUIV_SHARDS=K` runs every scenario on a K-shard event
//! loop against the *same* fixture: sharding is a pure execution strategy,
//! so the records must stay byte-identical. CI runs the suite once plain
//! and once each at `AITF_EQUIV_SHARDS=2` and `=4`.

use std::fmt::Write as _;

use aitf_engine::Runner;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/quick_records.tsv"
);

/// Renders the whole quick suite as stable, diff-friendly lines. JSON
/// float rendering is Rust's shortest round-trip form, so equal lines
/// imply bit-equal `f64`s — string equality here is `deterministic_eq`.
fn render_quick_suite(threads: usize) -> String {
    let shards: usize = std::env::var("AITF_EQUIV_SHARDS")
        .ok()
        .map(|v| v.parse().expect("AITF_EQUIV_SHARDS must be an integer"))
        .unwrap_or(1);
    let registry = aitf_bench::registry(true);
    let grouped = Runner::new(threads)
        .base_seed(aitf_engine::DEFAULT_BASE_SEED)
        .shards(shards)
        .run_all(registry.specs());
    let mut out = String::new();
    for records in &grouped {
        for r in records {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                r.experiment,
                r.index,
                r.seed,
                r.events,
                r.params.to_json(),
                r.metrics.to_json(),
            )
            .expect("write to String cannot fail");
        }
    }
    out
}

#[test]
fn quick_suite_records_match_pre_port_baseline() {
    let current = render_quick_suite(2);
    if std::env::var_os("UPDATE_EQUIVALENCE_FIXTURE").is_some() {
        std::fs::write(FIXTURE, &current).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing; regenerate with UPDATE_EQUIVALENCE_FIXTURE=1");
    let expected_lines: Vec<&str> = expected.lines().collect();
    let current_lines: Vec<&str> = current.lines().collect();
    for (i, (want, got)) in expected_lines.iter().zip(&current_lines).enumerate() {
        assert_eq!(
            want,
            got,
            "record {} drifted from the pre-port baseline (fixture line {})",
            i,
            i + 1
        );
    }
    assert_eq!(
        expected_lines.len(),
        current_lines.len(),
        "record count changed vs the pre-port baseline"
    );
}
