//! Every metric the benchmark prints: name, unit, direction and — for the
//! end-to-end ones — the regression bound. `BENCHMARK.json` repeats this
//! table for the driver; a unit test keeps the two identical.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's median each may
/// worsen by. Timings are medians over a run's timed passes, each pass taken
/// to reference host speed first (see [`crate::calib`]).
///
/// The bounds come from sets of ten runs per workload with ten different
/// seeds on the shared 2-core VM. The host's speed moves by 10–40 % for
/// minutes at a time, on every workload at once; the calibration takes out
/// the part of it a single-threaded kernel sees, roughly half. What is left
/// spreads a timing by 3–6 % in a quiet period and by up to 15 % in a
/// contended one, so host times take the widest bound the driver allows.
/// `peak_rss_mb` spreads by 6 % on the 10 MB processes of the small worlds
/// (0.02 % at 440 MB). The `sim_*` values repeat exactly for a given seed
/// (the golden files pin them; a drift is a failed operation); their bounds
/// only have to absorb the seed-to-seed spread (at most 1.8 %, and 3.6 % for
/// the delivery ratio of `megatree_sharded`, whose 32 clients draw their
/// rates from the seed), three times over.
pub const END_TO_END: [(Def, f64); 9] = [
    (lo("setup_s", "s"), 0.25),
    (lo("run_s", "s"), 0.25),
    (hi("events_per_sec", "1/s"), 0.25),
    (lo("pass_wall_s", "s"), 0.25),
    (lo("pass_wall_tail_s", "s"), 0.25),
    (lo("peak_rss_mb", "MB"), 0.2),
    (lo("sim_leak_ratio", "ratio"), 0.06),
    (hi("sim_legit_delivery", "ratio"), 0.12),
    (lo("sim_victim_gw_peak_filters", "entries"), 0.09),
];

/// Per-layer metrics, from the traced run. `*_s` / `*_ns` / `*_us` are host
/// time measured around public calls; plain names are exact counts read
/// from public counters after the pass (a count's direction is nominal:
/// counts must not move at all unless the simulation changed).
pub const PER_LAYER: [Def; 79] = [
    // scenario
    lo("scenario.topology_gen_s", "s"),
    lo("scenario.lower_s", "s"),
    lo("scenario.compile_s", "s"),
    lo("scenario.collect_s", "s"),
    lo("scenario.spec_drop_s", "s"),
    lo("scenario.probe_bytes", "B"),
    // core
    lo("core.world_build_s", "s"),
    lo("core.shard_hints_s", "s"),
    lo("core.teardown_s", "s"),
    lo("core.data_forwarded", "count"),
    lo("core.data_filtered_pkts", "count"),
    lo("core.spoofed_dropped", "count"),
    lo("core.undeliverable", "count"),
    lo("core.requests_received", "count"),
    lo("core.requests_policed", "count"),
    lo("core.requests_accepted", "count"),
    lo("core.requests_unsatisfiable", "count"),
    lo("core.filters_installed", "count"),
    lo("core.handshakes_started", "count"),
    lo("core.handshakes_confirmed", "count"),
    lo("core.escalations_sent", "count"),
    lo("core.reactivations", "count"),
    lo("core.disconnects", "count"),
    lo("core.victim_rx_attack_pkts", "count"),
    hi("core.victim_rx_legit_pkts", "count"),
    lo("core.victim_requests_sent", "count"),
    // netsim
    lo("netsim.run_s", "s"),
    lo("netsim.slice_ns_per_event_p50", "ns"),
    lo("netsim.slice_ns_per_event_hi", "ns"),
    lo("netsim.partition_s", "s"),
    lo("netsim.apply_shards_s", "s"),
    hi("netsim.shard_speedup", "ratio"),
    lo("netsim.queue_cycle_ns", "ns"),
    lo("netsim.link_cycle_ns", "ns"),
    lo("netsim.events", "count"),
    lo("netsim.peak_pending_events", "count"),
    lo("netsim.link_offered_pkts", "count"),
    lo("netsim.link_queue_drop_pkts", "count"),
    lo("netsim.link_admin_drop_pkts", "count"),
    hi("netsim.lookahead_ns", "ns"),
    // packet
    lo("packet.lpm_lookup_ns", "ns"),
    lo("packet.route_record_push_ns", "ns"),
    // filter
    lo("filter.lookup_hit_ns", "ns"),
    lo("filter.lookup_miss_ns", "ns"),
    lo("filter.install_ns", "ns"),
    lo("filter.purge_expired_ns", "ns"),
    lo("filter.shadow_check_ns", "ns"),
    lo("filter.token_bucket_ns", "ns"),
    lo("filter.installs", "count"),
    lo("filter.evictions", "count"),
    lo("filter.expirations", "count"),
    hi("filter.hits", "count"),
    lo("filter.misses", "count"),
    hi("filter.hit_ratio", "ratio"),
    lo("filter.peak_occupancy", "entries"),
    lo("filter.shadow_inserts", "count"),
    // traceback
    lo("traceback.observe_ns", "ns"),
    lo("traceback.attack_path_ns", "ns"),
    // defense (a policy the workload does not run reads 0)
    lo("defense.chain_build_us", "us"),
    lo("defense.run_s.aitf", "s"),
    lo("defense.run_s.pushback", "s"),
    lo("defense.run_s.ingress_ratelimit", "s"),
    lo("defense.run_s.path_stamp", "s"),
    lo("defense.events.aitf", "count"),
    lo("defense.events.pushback", "count"),
    lo("defense.events.ingress_ratelimit", "count"),
    lo("defense.events.path_stamp", "count"),
    lo("defense.footprint", "entries"),
    // attack: the denominators of the sim_* ratios; must never move
    lo("attack.offered_attack_bytes", "B"),
    lo("attack.offered_legit_bytes", "B"),
    // harness: whether the run can be trusted
    lo("harness.warmup_pass_s", "s"),
    lo("harness.trace_overhead_frac", "ratio"),
    lo("harness.phase_gap_frac", "ratio"),
    hi("harness.run_explained_frac", "ratio"),
    lo("harness.loadavg_start", "load"),
    lo("harness.calib_ms", "ms"),
    hi("harness.timed_passes", "count"),
    hi("harness.traced_passes", "count"),
    hi("harness.pass_wall_tail_pct", "%"),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<Def> {
    END_TO_END
        .iter()
        .map(|(d, _)| d)
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn benchmark_json_repeats_this_table_exactly() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).expect("list");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (d, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), d.name);
            assert_eq!(field(entry, "unit"), d.unit, "{}", d.name);
            assert_eq!(field(entry, "better"), d.better.as_str(), "{}", d.name);
            let b = entry.get("bound").and_then(Json::as_f64);
            assert_eq!(b, Some(*bound), "{}", d.name);
            assert!(*bound <= 0.25, "the driver caps bounds at 0.25");
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).expect("list");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, d) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), d.name);
            assert_eq!(field(entry, "unit"), d.unit, "{}", d.name);
            assert_eq!(field(entry, "better"), d.better.as_str(), "{}", d.name);
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_run_length() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("list")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::run::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok), "{}", d.name);
            assert!(
                d.unit.chars().all(|c| ok(c) || "/%".contains(c)),
                "{}",
                d.unit
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
