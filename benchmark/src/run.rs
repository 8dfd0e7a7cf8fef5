//! One run of one workload: warm-up, timed passes, output checks, metrics.
//!
//! Closed loop, one client: a pass starts when the previous one has been
//! dropped. A run is one process, so `VmHWM` is per workload. The first
//! pass is a discarded warm-up (a cold 100k-net build costs 0.5–2.1 s
//! against 0.41 s warm, depending on the VM's memory state); it runs at
//! shards = 1 and doubles as the reference record every later pass — the
//! sharded ones included — must equal bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use aitf_core::{DefensePolicy, WorldBuilder};

use crate::calib::{self, Calib};
use crate::json::{escape, number};
use crate::kernels::{self, Budget, Sizes};
use crate::metrics;
use crate::pass::{self, Pass, TraceDetail};
use crate::procfs;
use crate::record::Record;
use crate::spans::{self, Recorder};
use crate::stats::{median, tail};
use crate::workloads::{generate, LegSpec, Size, Workload};

/// `run_seconds` of `BENCHMARK.json`: how long a run measures when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 30.0;

/// Share of a traced run's `--seconds` spent on passes; the rest is for
/// the world-build replay and the kernels.
const TRACED_PASS_SHARE: f64 = 0.6;

pub struct Opts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub update_golden: bool,
}

/// What a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Untraced passes behind the medians (the warm-up not counted).
    pub timed_passes: usize,
    /// Metric values in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-pass samples behind the timing medians (untraced run).
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// The trace document (traced run).
    pub trace_json: Option<String>,
    /// Self time per span name, seconds and span count (traced run).
    pub span_self: Vec<(&'static str, f64, usize)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, v)| {
                let unit = metrics::def(name).expect("known metric").unit;
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    escape(name),
                    number(v),
                    escape(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The result plus what `compare` and a reader need: samples, failure
    /// messages and where the numbers came from.
    pub fn detail_json(&self, o: &Opts) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, vs)| {
                let vs: Vec<String> = vs.iter().map(|&v| number(v)).collect();
                format!("{}: [{}]", escape(name), vs.join(", "))
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| escape(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
             \"timed_passes\": {}, \"metrics\": {}, \"samples\": {{{}}}}}",
            escape(o.workload.name),
            o.seed,
            number(o.seconds),
            o.trace,
            o.size == Size::Smoke,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            failures.join(", "),
            self.timed_passes,
            self.metrics_json(),
            samples.join(", ")
        )
    }
}

/// Checks every pass against the reference record and the invariants, and
/// counts operations: one per policy leg attempted; all legs of a pass
/// that panicked, differed or broke an identity count as failed.
struct Checker {
    reference: Option<Record>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn fail(&mut self, legs: usize, msg: String) {
        self.failed += legs as u64;
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    /// Runs `f` as one pass of `legs` operations; `None` if it panicked.
    fn pass(&mut self, what: &str, legs: usize, f: impl FnOnce() -> Pass) -> Option<Pass> {
        self.attempted += legs as u64;
        let pass = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(pass) => pass,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                self.fail(legs, format!("{what}: panicked: {msg}"));
                return None;
            }
        };
        let violations: Vec<&String> = pass.legs.iter().flat_map(|l| &l.violations).collect();
        if !violations.is_empty() {
            self.fail(legs, format!("{what}: invariant broken: {violations:?}"));
        }
        let record = whole_record(&pass);
        match &self.reference {
            None => self.reference = Some(record),
            Some(reference) => {
                let diff = record.diff(reference);
                if !diff.is_empty() {
                    self.fail(legs, format!("{what}: record differs: {diff:?}"));
                }
            }
        }
        Some(pass)
    }
}

/// A pass's legs as one record, each entry under `<policy>/`.
fn whole_record(pass: &Pass) -> Record {
    let mut all = Record::default();
    for leg in &pass.legs {
        all.extend_prefixed(leg.policy.name(), leg.record.clone());
    }
    all
}

fn golden_path(o: &Opts) -> String {
    format!("benchmark/golden/{}.seed{}.tsv", o.workload.name, o.seed)
}

/// Warm-up pass plus golden handling; returns the checker primed with the
/// reference and the warm-up's wall time.
fn warm_up(o: &Opts, nproc: usize) -> (Checker, f64) {
    let w = o.workload;
    let mut check = Checker {
        reference: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    // Golden files describe the full-size worlds only.
    let golden = (o.size == Size::Full && !o.update_golden)
        .then(|| std::fs::read_to_string(golden_path(o)).ok())
        .flatten();
    if let Some(text) = golden {
        match Record::from_tsv(&text) {
            Ok(rec) => check.reference = Some(rec),
            Err(e) => check.fail(w.policies.len(), format!("{}: {e}", golden_path(o))),
        }
    }
    let start = Instant::now();
    let warm = check.pass("warm-up", w.policies.len(), || {
        pass::untraced(w.kind, o.size, o.seed, w.policies, nproc, Some(1))
    });
    let warm_s = start.elapsed().as_secs_f64();
    if o.update_golden {
        match (&warm, o.size) {
            (Some(p), Size::Full) if check.failed == 0 => {
                let path = golden_path(o);
                match std::fs::write(&path, whole_record(p).to_tsv()) {
                    Ok(()) => eprintln!("wrote {path}"),
                    Err(e) => check.fail(0, format!("cannot write {path}: {e}")),
                }
            }
            _ => check.fail(0, "--update-golden needs a clean full-size warm-up".into()),
        }
    }
    (check, warm_s)
}

/// Sum over a pass's legs of one record count.
fn count(pass: &Pass, name: &str) -> u64 {
    pass.legs.iter().map(|l| l.record.u(name)).sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The untraced run: every end-to-end metric. Host times are taken to
/// reference speed pass by pass (see [`crate::calib`]).
fn run_untraced(o: &Opts, nproc: usize) -> Report {
    let w = o.workload;
    let (mut check, _) = warm_up(o, nproc);
    let mut cal = Calib::new();
    // Each timed pass with the mean calibration time around it.
    let mut passes: Vec<(Pass, f64)> = Vec::new();
    let mut before = cal.measure();
    let start = Instant::now();
    loop {
        let n = passes.len();
        let pass = check.pass(&format!("pass {n}"), w.policies.len(), || {
            pass::untraced(w.kind, o.size, o.seed, w.policies, nproc, None)
        });
        let after = cal.measure();
        if let Some(p) = pass {
            passes.push((p, (before + after) / 2.0));
        }
        before = after;
        if o.size == Size::Smoke || start.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    let mut report = Report {
        attempted: check.attempted,
        failed: check.failed,
        failures: check.failures,
        timed_passes: passes.len(),
        metrics: Vec::new(),
        samples: Vec::new(),
        trace_json: None,
        span_self: Vec::new(),
    };
    let Some((last, _)) = passes.last() else {
        report.failures.push("no pass completed".into());
        return report;
    };
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> {
        passes
            .iter()
            .map(|(p, calib_s)| f(p) * calib::to_reference(*calib_s))
            .collect()
    };
    let setup = per_pass(&|p| p.sum(|ph| ph.setup_s));
    let run = per_pass(&|p| p.sum(|ph| ph.run_s));
    let rate: Vec<f64> = passes
        .iter()
        .zip(&run)
        .map(|((p, _), run_s)| p.events() as f64 / run_s)
        .collect();
    let wall = per_pass(&|p| p.wall_s);
    let peak_filters = last
        .legs
        .iter()
        .map(|l| l.record.u("sim.victim_gw_peak_filters"))
        .max()
        .unwrap_or(0);
    report.metrics = vec![
        ("setup_s", median(&setup)),
        ("run_s", median(&run)),
        ("events_per_sec", median(&rate)),
        ("pass_wall_s", median(&wall)),
        ("pass_wall_tail_s", tail(&wall).0),
        ("peak_rss_mb", procfs::peak_rss_mb()),
        (
            "sim_leak_ratio",
            ratio(
                count(last, "sim.attack_received_bytes"),
                count(last, "attack.offered_attack_bytes"),
            ),
        ),
        (
            "sim_legit_delivery",
            ratio(
                count(last, "sim.legit_received_bytes"),
                count(last, "attack.offered_legit_bytes"),
            ),
        ),
        ("sim_victim_gw_peak_filters", peak_filters as f64),
    ];
    // `calib_s` takes a sample back to the raw host time: × calib_s /
    // `calib::REFERENCE_S`.
    report.samples = vec![
        ("setup_s", setup),
        ("run_s", run),
        ("events_per_sec", rate),
        ("pass_wall_s", wall),
        ("calib_s", passes.iter().map(|&(_, c)| c).collect()),
    ];
    report
}

/// `WorldBuilder::build` alone, replaying the declarations
/// `TopologySpec::build` makes. Median of `reps`.
fn world_build_replay(leg: &LegSpec, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut b = WorldBuilder::new(leg.run_seed, leg.config.clone());
            b.routing(leg.topology.routing);
            let mut ids = Vec::with_capacity(leg.topology.nets.len());
            for n in &leg.topology.nets {
                let parent = n.parent.map(|p| ids[p]);
                ids.push(b.network_with(&n.name, &n.prefix, parent, n.policy, n.uplink));
            }
            for p in &leg.topology.peerings {
                b.peer(ids[p.a], ids[p.b], p.link);
            }
            for h in &leg.topology.hosts {
                b.host_with(ids[h.net], h.policy, h.link);
            }
            let t = Instant::now();
            let world = b.build();
            let s = t.elapsed().as_secs_f64();
            drop(world);
            s
        })
        .collect();
    median(&times)
}

/// The traced run: every per-layer metric.
fn run_traced(o: &Opts, nproc: usize) -> Report {
    let w = o.workload;
    let smoke = o.size == Size::Smoke;
    let loadavg = procfs::loadavg();
    let (mut check, warmup_s) = warm_up(o, nproc);
    let spec = generate(w.kind, o.size, o.seed, w.policies[0], nproc);
    let sharded = spec.shards > 1;

    let mut rec = Recorder::new();
    let mut cal = Calib::new();
    let mut calib_s: Vec<f64> = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Vec<TraceDetail>)> = Vec::new();
    let mut reference_run_s: Vec<f64> = Vec::new();
    let legs = w.policies.len();
    let start = Instant::now();
    for round in 0u32.. {
        calib_s.push(cal.measure());
        if let Some(p) = check.pass(&format!("untraced pass {round}"), legs, || {
            pass::untraced(w.kind, o.size, o.seed, w.policies, nproc, None)
        }) {
            untraced.push(p);
        }
        rec.set_pass(round);
        let mut details = Vec::new();
        if let Some(p) = check.pass(&format!("traced pass {round}"), legs, || {
            let (p, d) = pass::traced(&mut rec, w.kind, o.size, o.seed, w.policies, nproc);
            details = d;
            p
        }) {
            traced.push((p, details));
        }
        if sharded {
            if let Some(p) = check.pass(&format!("shards=1 pass {round}"), legs, || {
                pass::untraced(w.kind, o.size, o.seed, w.policies, nproc, Some(1))
            }) {
                reference_run_s.push(p.sum(|ph| ph.run_s));
            }
        }
        // At least three rounds — unless passes are failing, in which case
        // more of them prove nothing.
        let enough = traced.len() >= 3 || check.failed > 0;
        let spent = start.elapsed().as_secs_f64() >= o.seconds * TRACED_PASS_SHARE;
        if smoke || (enough && spent) {
            break;
        }
    }
    let trace_json = spans::to_json(w.name, o.seed, rec.spans());
    let mut report = Report {
        attempted: check.attempted,
        failed: check.failed,
        failures: check.failures,
        timed_passes: untraced.len(),
        metrics: Vec::new(),
        samples: Vec::new(),
        trace_json: Some(trace_json),
        span_self: spans::self_time_by_name(rec.spans()),
    };
    let (Some((last, last_detail)), false) = (traced.last(), untraced.is_empty()) else {
        report.failures.push("no traced pass completed".into());
        return report;
    };

    // Medians over the traced passes of a per-leg quantity summed over legs.
    let over_traced = |f: &dyn Fn(&Pass, &[TraceDetail]) -> f64| -> f64 {
        median(&traced.iter().map(|(p, d)| f(p, d)).collect::<Vec<_>>())
    };
    let detail_sum =
        |f: fn(&TraceDetail) -> f64| over_traced(&|_, d: &[TraceDetail]| d.iter().map(f).sum());
    let phase_sum = |f: fn(&pass::Phases) -> f64| over_traced(&|p: &Pass, _| p.sum(f));

    let mut m: Vec<(&'static str, f64)> = vec![
        ("scenario.topology_gen_s", phase_sum(|ph| ph.gen_s)),
        ("scenario.lower_s", detail_sum(|d| d.lower_s)),
        ("scenario.compile_s", detail_sum(|d| d.compile_s)),
        ("scenario.collect_s", phase_sum(|ph| ph.collect_s)),
        ("scenario.spec_drop_s", detail_sum(|d| d.spec_drop_s)),
        (
            "scenario.probe_bytes",
            last.legs.iter().map(|l| l.probe_bytes).sum::<u64>() as f64,
        ),
        (
            "core.world_build_s",
            world_build_replay(&spec, if smoke { 1 } else { 3 }),
        ),
        ("core.shard_hints_s", detail_sum(|d| d.shard_hints_s)),
        ("core.teardown_s", phase_sum(|ph| ph.teardown_s)),
    ];
    // netsim: the loop as a whole, per slice, and sharding's share.
    let per_event: Vec<f64> = traced
        .iter()
        .flat_map(|(_, d)| d.iter().flat_map(|d| &d.slices))
        .filter(|&&(events, _)| events > 0)
        .map(|&(events, ns)| ns as f64 / events as f64)
        .collect();
    let untraced_run_s = median(
        &untraced
            .iter()
            .map(|p| p.sum(|ph| ph.run_s))
            .collect::<Vec<_>>(),
    );
    let peak_pending = last_detail
        .iter()
        .map(|d| d.peak_pending)
        .max()
        .unwrap_or(0);
    let events = last.events();
    m.extend([
        ("netsim.run_s", phase_sum(|ph| ph.run_s)),
        ("netsim.slice_ns_per_event_p50", median(&per_event)),
        ("netsim.slice_ns_per_event_hi", tail(&per_event).0),
        ("netsim.partition_s", detail_sum(|d| d.partition_s)),
        ("netsim.apply_shards_s", detail_sum(|d| d.apply_shards_s)),
        (
            "netsim.shard_speedup",
            if reference_run_s.is_empty() {
                1.0
            } else {
                median(&reference_run_s) / untraced_run_s
            },
        ),
    ]);

    let sizes = Sizes {
        backlog: peak_pending as usize,
        nets: last_detail[0].nets,
        path_len: last_detail[0].path_len,
        filter_occupancy: last
            .legs
            .iter()
            .map(|l| l.record.u("filter.peak_occupancy"))
            .max()
            .unwrap_or(0) as usize,
        shadow_occupancy: (count(last, "filter.shadow_inserts") as usize)
            .min(spec.config.shadow_capacity.min(65_536)),
        eviction: spec.config.eviction,
    };
    let budget = if smoke { Budget::SMOKE } else { Budget::FULL };
    let kernel = kernels::run_all(budget, sizes, w.policies);
    let k = |name: &str| -> f64 {
        kernel
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    m.extend(kernel.iter().copied());
    let (hits, misses) = (count(last, "filter.hits"), count(last, "filter.misses"));
    m.extend([
        ("netsim.events", events as f64),
        ("netsim.peak_pending_events", peak_pending as f64),
        (
            "netsim.lookahead_ns",
            last.legs.iter().map(|l| l.lookahead_ns).max().unwrap_or(0) as f64,
        ),
        ("filter.hit_ratio", ratio(hits, hits + misses)),
        // A peak, not a sum over legs.
        ("filter.peak_occupancy", sizes.filter_occupancy as f64),
    ]);

    // defense: each policy's own loop time and events (0 = not run here).
    let of_policy = |policy: DefensePolicy, f: &dyn Fn(&pass::Leg) -> f64| -> f64 {
        let per_pass: Vec<f64> = traced
            .iter()
            .filter_map(|(p, _)| p.legs.iter().find(|l| l.policy == policy).map(f))
            .collect();
        if per_pass.is_empty() {
            0.0
        } else {
            median(&per_pass)
        }
    };
    let run_s_names = [
        "defense.run_s.aitf",
        "defense.run_s.pushback",
        "defense.run_s.ingress_ratelimit",
        "defense.run_s.path_stamp",
    ];
    let events_names = [
        "defense.events.aitf",
        "defense.events.pushback",
        "defense.events.ingress_ratelimit",
        "defense.events.path_stamp",
    ];
    for (name, policy) in run_s_names.into_iter().zip(DefensePolicy::BAKEOFF) {
        m.push((name, of_policy(policy, &|l| l.phases.run_s)));
    }
    for (name, policy) in events_names.into_iter().zip(DefensePolicy::BAKEOFF) {
        m.push((name, of_policy(policy, &|l| l.record.u("events") as f64)));
    }
    // harness: can the run be trusted?
    let untraced_wall: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|(p, _)| p.wall_s).collect();
    let gaps: Vec<f64> = untraced
        .iter()
        .map(|p| (p.wall_s - p.sum(|ph| ph.sum())) / p.wall_s)
        .collect();
    // What the kernels, multiplied by how often the pass ran them, explain
    // of the loop. `link_cycle_ns` is left out: it contains a queue cycle.
    let explained_ns = k("netsim.queue_cycle_ns") * events as f64
        + (k("packet.lpm_lookup_ns") + k("packet.route_record_push_ns") / sizes.path_len as f64)
            * count(last, "core.data_forwarded") as f64
        + k("filter.lookup_hit_ns") * hits as f64
        + (k("filter.lookup_miss_ns") + k("filter.shadow_check_ns")) * misses as f64
        + k("filter.install_ns") * count(last, "filter.installs") as f64
        + k("filter.token_bucket_ns") * count(last, "core.requests_received") as f64
        + k("traceback.observe_ns")
            * (count(last, "core.victim_rx_attack_pkts") + count(last, "core.victim_rx_legit_pkts"))
                as f64
        + k("traceback.attack_path_ns") * count(last, "core.victim_requests_sent") as f64;
    m.extend([
        ("harness.warmup_pass_s", warmup_s),
        (
            "harness.trace_overhead_frac",
            median(&traced_wall) / median(&untraced_wall) - 1.0,
        ),
        ("harness.phase_gap_frac", median(&gaps)),
        (
            "harness.run_explained_frac",
            explained_ns / 1e9 / untraced_run_s,
        ),
        ("harness.loadavg_start", loadavg),
        ("harness.calib_ms", median(&calib_s) * 1e3),
        ("harness.timed_passes", untraced.len() as f64),
        ("harness.traced_passes", traced.len() as f64),
        ("harness.pass_wall_tail_pct", tail(&untraced_wall).1 * 100.0),
    ]);
    // Every remaining per-layer metric is an exact count the record carries
    // under the same name, summed over the pass's legs.
    for d in &metrics::PER_LAYER {
        let known = m.iter().any(|&(n, _)| n == d.name);
        if !known && last.legs[0].record.get(d.name).is_some() {
            m.push((d.name, count(last, d.name) as f64));
        }
    }
    report.metrics = metrics::PER_LAYER
        .iter()
        .map(|d| {
            let value = m.iter().find(|&&(n, _)| n == d.name);
            *value.unwrap_or_else(|| panic!("per-layer metric {} was not measured", d.name))
        })
        .collect();
    report
}

/// Runs one workload once and checks that the report is complete.
pub fn run(o: &Opts) -> Report {
    let nproc = procfs::nproc();
    let mut report = if o.trace {
        run_traced(o, nproc)
    } else {
        run_untraced(o, nproc)
    };
    if !o.trace && !report.metrics.is_empty() {
        let expected: Vec<&str> = metrics::END_TO_END.iter().map(|(d, _)| d.name).collect();
        let got: Vec<&str> = report.metrics.iter().map(|&(n, _)| n).collect();
        assert_eq!(got, expected, "a run reports every metric, in table order");
    }
    if let Some((name, v)) = report.metrics.iter().find(|(_, v)| !v.is_finite()) {
        report.failures.push(format!("{name} is not finite: {v}"));
    }
    report
}
