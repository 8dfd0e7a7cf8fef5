//! What every experiment shares: the one place a sweep point is executed
//! ([`run_scenario`]) and the table rendering of finished sweeps.
//! (Measurement helpers — leak ratios, binned sampling — live in
//! `aitf_scenario::probe`.)

use aitf_engine::{tabulate, Outcome, Params, RunCtx, RunRecord, ScenarioSpec};
use aitf_netsim::Simulator;
use aitf_scenario::Scenario;

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
/// t.row(&["1", "2.0"]);
/// let s = t.render();
/// assert!(s.contains("demo"));
/// assert!(s.contains("1"));
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
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor (row, column) for tests.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
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

    /// Renders and prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Builds a [`Table`] from engine run records: parameter columns first,
/// then metric columns (the engine's [`tabulate()`] projection).
pub fn table_from_records(title: &str, records: &[RunRecord]) -> Table {
    let (headers, rows) = tabulate(records);
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    for row in rows {
        table.row_owned(row);
    }
    table
}

/// Prints a finished sweep (table + expectation) and returns the table.
pub fn render_sweep(spec: &ScenarioSpec, records: &[RunRecord]) -> Table {
    let table = table_from_records(&spec.title, records);
    table.print();
    if !spec.expectation.is_empty() {
        println!("paper expectation: {}\n", spec.expectation);
    }
    table
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
        t.row(&["1", "22222"]);
        t.row(&["333", "4"]);
        let s = t.render();
        assert!(s.contains("## t"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, rule, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, 1), "22222");
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
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one"]);
    }
}
