//! Runs every experiment in quick mode and checks each produced a table —
//! the experiments' own modules assert the substantive claims; this test
//! guarantees the published driver never bit-rots.

use aitf_engine::Runner;

/// Runs the selected experiments' quick sweeps the way
/// `all_experiments --quick --filter e1 --filter e3 ..` does (`e1` selects
/// exactly `e1_escalation`) and checks every spec rendered a table.
fn run_quick(ids: &[&str]) {
    let registry = aitf_bench::registry(true);
    let filters: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
    assert!(registry.unmatched(&filters).is_empty(), "unknown ids");
    let specs = registry.select(&filters);
    assert_eq!(specs.len(), ids.len());
    let grouped = Runner::default().run_all(&specs);
    for (spec, records) in specs.iter().zip(&grouped) {
        let table = aitf_bench::harness::render_sweep(spec, records);
        assert!(!table.is_empty(), "{} produced no rows", spec.id);
    }
}

#[test]
fn all_experiments_run_quick() {
    run_quick(&[
        "e1", "e3", "e5", "e6", "e7", "e9", "e12", "e15", "e16", "e17",
    ]);
}

#[test]
fn figures_spec_emits_series_metrics() {
    let spec = aitf_bench::figures::spec(true);
    let records = Runner::new(2).run(&spec);
    assert_eq!(records.len(), 2, "defended + undefended");
    for r in &records {
        assert!(r.events > 0, "figures runs must report simulator events");
        let series = r.metrics.f64_list("_series_goodput_mbps");
        assert!(!series.is_empty());
        assert_eq!(series.len(), r.metrics.f64_list("_series_time_s").len());
        // Series are JSON-only: the table keeps the summary columns.
        assert!(r.to_json().contains("\"_series_goodput_mbps\":["));
    }
    // Paired seeds: the defended/undefended rows differ only in the knob.
    assert_eq!(records[0].seed, records[1].seed);
}

#[test]
fn heavy_experiments_run_quick() {
    // Split out so the long sweeps can run in parallel with the rest.
    run_quick(&["e2", "e4", "e8", "e8b", "e10", "e13"]);
}
