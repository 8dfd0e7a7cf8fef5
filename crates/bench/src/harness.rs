//! What every experiment shares: the one place a sweep point is executed
//! ([`run_scenario`]) and the table rendering of finished sweeps — their
//! results ([`render_sweep`]) and, from a build with the `trace` feature,
//! their per-subsystem profile ([`render_profile`]).
//! (Measurement helpers — leak ratios, binned sampling — live in
//! `aitf_scenario::probe`.)

use std::collections::BTreeMap;

use aitf_engine::{tabulate, Outcome, Params, RunCtx, RunRecord, ScenarioSpec};
use aitf_netsim::Simulator;
use aitf_scenario::Scenario;
use aitf_trace::SubsystemProfile;

/// Turns an experiment's `params → Scenario` mapping into its point
/// runner. This is the only place that knows how a sweep point is
/// executed — split into the context's shard count, run under the context's
/// derived seed — so anything every point must do (an invariant check, a
/// claims ledger row, per-stage verdicts) plugs in here once. Only
/// experiments that drive a built world by hand or merge two runs into one
/// record (E8's protocol contrast, E10's pushback column) keep a bespoke
/// closure.
pub fn run_scenario(
    scenario: impl Fn(&Params) -> Scenario + Send + Sync + 'static,
) -> impl Fn(&Params, &RunCtx) -> Outcome + Send + Sync + 'static {
    move |params, ctx| checked(scenario(params).shards(ctx.shards)).run(ctx.seed)
}

/// What the event loop of a finished run must satisfy, checked in every
/// build (the simulator's own pool check is a `debug_assert`, and the
/// at-scale smoke runs are release runs): the packet-pool identity of every
/// shard (`aitf_netsim::event`, *Who owns a parked packet*) — one pass over
/// the links and the pending events, once per point. (Causality needs no check
/// here: the loop panics at the pop of any event that fires before its
/// shard's clock.)
///
/// # Panics
///
/// Panics — failing the point and, through the runner's scoped workers,
/// the process — if a parked packet has no owner or a handle no packet.
pub fn assert_loop_invariants(sim: &Simulator) {
    assert_eq!(
        sim.parked_packets(),
        sim.packets_in_network(),
        "packet pool identity broken: parked packets vs. link entries + pending deliveries, \
         per shard"
    );
}

/// `scenario` with [`assert_loop_invariants`] as its last end probe — what
/// [`run_scenario`] runs, and what a bespoke point closure wraps its
/// scenarios in. The probe writes no metric.
pub fn checked(mut scenario: Scenario) -> Scenario {
    scenario.probes = (scenario.probes).end(|w, _| assert_loop_invariants(&w.world.sim));
    scenario
}

/// A printable results table with aligned columns.
///
/// # Examples
///
/// ```
/// use aitf_bench::Table;
///
/// let mut t = Table::new("demo", &["x", "y"]);
/// t.row(vec!["1".into(), "2.0".into()]);
/// assert!(t.render().starts_with("## demo\n"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Returns `true` if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// Builds a [`Table`] from engine run records: parameter columns first,
/// then metric columns (the engine's [`tabulate()`] projection).
pub fn table_from_records(title: &str, records: &[RunRecord]) -> Table {
    let (headers, rows) = tabulate(records);
    Table {
        title: title.to_string(),
        headers,
        rows,
    }
}

/// Prints a finished sweep (table + expectation) and returns the table.
pub fn render_sweep(spec: &ScenarioSpec, records: &[RunRecord]) -> Table {
    let table = table_from_records(&spec.title, records);
    println!("{}", table.render());
    if !spec.expectation.is_empty() {
        println!("paper expectation: {}\n", spec.expectation);
    }
    table
}

/// Prints the profile of a sweep whose records carry a trace payload (as
/// they do exactly when built with the `trace` feature): events, wall,
/// ns/event and share of loop wall per subsystem, merged over the points
/// (the queue row is [`SubsystemProfile::finalized`]'s residual), then one
/// `shard_load()` line per sharded point. Returns the span trees' folded
/// stacks for `flamegraph.pl`, one `path;to;frame weight` line per stack
/// with weights summed over the points — or `None`, printing nothing, if
/// no record carries a payload.
pub fn render_profile(spec: &ScenarioSpec, records: &[RunRecord]) -> Option<String> {
    let mut merged = SubsystemProfile::default();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut traced = 0usize;
    let mut spans = 0usize;
    for report in records.iter().filter_map(|r| r.trace.as_deref()) {
        traced += 1;
        spans += report.spans.len();
        merged.merge(&report.subsystems);
        for line in report.folded() {
            let (stack, weight) = line.rsplit_once(' ').expect("folded line has a weight");
            *folded.entry(stack.to_string()).or_default() +=
                weight.parse::<u64>().expect("folded weight is an integer");
        }
    }
    if traced == 0 {
        return None;
    }

    let loop_nanos = merged.loop_nanos().max(1);
    let mut table = Table::new(
        &format!(
            "{}: per-subsystem profile, {traced} traced point(s), {spans} span(s)",
            spec.id
        ),
        &["subsystem", "events", "wall_ms", "ns/event", "share"],
    );
    for (sub, bucket) in merged.rows() {
        table.row(vec![
            sub.name().to_string(),
            bucket.events.to_string(),
            format!("{:.3}", bucket.nanos as f64 / 1e6),
            format!("{}", bucket.nanos.checked_div(bucket.events).unwrap_or(0)),
            format!("{:.1}%", 100.0 * bucket.nanos as f64 / loop_nanos as f64),
        ]);
    }
    print!("{}", table.render());
    for rec in records {
        if let Some(t) = rec
            .trace
            .as_deref()
            .filter(|t| t.shard_load.events.len() > 1)
        {
            println!("point {}: {}", rec.index, t.shard_load);
        }
    }
    println!();
    Some(
        folded
            .iter()
            .map(|(stack, weight)| format!("{stack} {weight}\n"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_checked_scenario_reports_what_the_bare_one_does() {
        let scenario =
            || crate::e1_escalation::scenario(1, aitf_netsim::SimDuration::from_secs(2)).shards(2);
        let bare = scenario().run(5);
        let checked = checked(scenario()).run(5);
        assert_eq!(bare.metrics, checked.metrics, "the probe writes no metric");
        assert_eq!(bare.events, checked.events);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t", &["aa", "b"]);
        t.row(vec!["1".into(), "22222".into()]);
        t.row(vec!["333".into(), "4".into()]);
        // Title, header, rule, two rows: every column right-aligned to its
        // widest cell.
        assert_eq!(
            t.render(),
            "## t\n aa      b\n----------\n  1  22222\n333      4\n"
        );
    }

    #[test]
    fn zero_column_table_renders_without_panicking() {
        // A spec with no points tabulates to zero headers; render must not
        // underflow the rule-width arithmetic.
        let t = table_from_records("empty", &[]);
        assert!(t.is_empty());
        assert!(t.render().contains("## empty"));
    }

    #[test]
    fn a_profile_is_rendered_only_from_traced_records_and_sums_their_stacks() {
        use aitf_trace::{Cause, SpanKind, SpanRecord, Subsystem, TraceReport};

        let spec = ScenarioSpec::new("p1", "profile test", "§x");
        let record = |trace: Option<TraceReport>| RunRecord {
            experiment: "p1",
            index: 0,
            seed: 1,
            params: Params::new(),
            metrics: Params::new(),
            events: 1,
            wall_secs: 0.0,
            shards: 1,
            trace: trace.map(Box::new),
            defense: None,
        };
        assert_eq!(render_profile(&spec, &[record(None), record(None)]), None);

        let mut report = TraceReport::default();
        report.subsystems.record(Subsystem::Link, 100);
        report.spans.push(SpanRecord {
            id: 0,
            parent: None,
            kind: SpanKind::Round,
            cause: Cause::Detection,
            flow: 1,
            round: 1,
            router: 1,
            start_ns: 0,
            end_ns: 3_000,
        });
        let line = report.folded().pop().expect("one stack");
        let (stack, _) = line.rsplit_once(' ').expect("weighted");
        let two = [record(Some(report.clone())), record(Some(report))];
        assert_eq!(
            render_profile(&spec, &two).as_deref(),
            Some(format!("{stack} 6\n").as_str()),
            "3 us of exclusive span time per point, summed over two points"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
