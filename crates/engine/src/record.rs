//! Structured run records — the engine's unit of telemetry.

use crate::params::{json_string, Params};

/// One completed sweep point: parameters in, metrics out, plus provenance.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The experiment id this record belongs to.
    pub experiment: &'static str,
    /// Index of the point in the spec's sweep order.
    pub index: usize,
    /// The derived RNG seed the point ran with.
    pub seed: u64,
    /// The point's parameters.
    pub params: Params,
    /// The measured metrics.
    pub metrics: Params,
    /// Simulator events dispatched (0 when not applicable).
    pub events: u64,
    /// Wall-clock seconds the whole point took — world build, partition,
    /// event loop and probe collection together, so not a divisor for
    /// event-loop throughput. Excluded from
    /// [`RunRecord::deterministic_eq`] — it is the one legitimately
    /// nondeterministic field.
    pub wall_secs: f64,
    /// Event-loop shards the point's simulations ran as. Execution
    /// strategy, not an input: excluded from
    /// [`RunRecord::deterministic_eq`] (sharded and single runs of the
    /// same point must compare equal), and emitted in JSON only when > 1
    /// so single-loop records keep the historical shape.
    pub shards: usize,
    /// Optional observability payload from a trace-enabled build. Wall
    /// buckets inside are nondeterministic, so (like `wall_secs`) it is
    /// excluded from [`RunRecord::deterministic_eq`].
    pub trace: Option<Box<aitf_trace::TraceReport>>,
    /// Name of the non-default defense policy the point's routers ran.
    /// Emitted in JSON only when set, so AITF records keep the historical
    /// shape; a label derived from the params, hence not an independent
    /// input to [`RunRecord::deterministic_eq`].
    pub defense: Option<&'static str>,
}

impl RunRecord {
    /// Structural equality over everything except wall time: two runs of
    /// the same sweep (at any thread counts) must satisfy this.
    pub fn deterministic_eq(&self, other: &RunRecord) -> bool {
        self.experiment == other.experiment
            && self.index == other.index
            && self.seed == other.seed
            && self.params == other.params
            && self.metrics == other.metrics
            && self.events == other.events
    }

    /// Renders the record as one JSON object. Trace-enabled runs gain a
    /// `subsystems` block (per-subsystem event counts and wall nanos);
    /// ordinary runs emit exactly the historical shape.
    pub fn to_json(&self) -> String {
        let subsystems = match &self.trace {
            Some(t) => format!(",\"subsystems\":{}", t.subsystems.finalized().to_json()),
            None => String::new(),
        };
        let shards = if self.shards > 1 {
            format!(",\"shards\":{}", self.shards)
        } else {
            String::new()
        };
        let defense = match self.defense {
            Some(name) => format!(",\"defense\":{}", json_string(name)),
            None => String::new(),
        };
        format!(
            "{{\"experiment\":{},\"index\":{},\"seed\":{},\"params\":{},\"metrics\":{},\"events\":{},\"wall_secs\":{}{}{}{}}}",
            json_string(self.experiment),
            self.index,
            self.seed,
            self.params.to_json(),
            self.metrics.to_json(),
            self.events,
            if self.wall_secs.is_finite() {
                format!("{}", self.wall_secs)
            } else {
                "null".to_string()
            },
            shards,
            defense,
            subsystems,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(wall: f64) -> RunRecord {
        RunRecord {
            experiment: "e0",
            index: 1,
            seed: 7,
            params: Params::new().with("x", 2u64),
            metrics: Params::new().with("y", 0.5),
            events: 10,
            wall_secs: wall,
            shards: 1,
            trace: None,
            defense: None,
        }
    }

    #[test]
    fn deterministic_eq_ignores_wall_time() {
        let a = record(0.1);
        let b = record(99.0);
        assert!(a.deterministic_eq(&b));
        let mut c = record(0.1);
        c.seed = 8;
        assert!(!a.deterministic_eq(&c));
    }

    #[test]
    fn json_shape() {
        let j = record(0.25).to_json();
        assert_eq!(
            j,
            r#"{"experiment":"e0","index":1,"seed":7,"params":{"x":2},"metrics":{"y":0.5},"events":10,"wall_secs":0.25}"#
        );
    }

    #[test]
    fn subsystems_block_appears_only_with_a_trace_payload() {
        let mut r = record(0.25);
        assert!(!r.to_json().contains("subsystems"));
        let mut report = aitf_trace::TraceReport::default();
        report.subsystems.record(aitf_trace::Subsystem::Link, 100);
        r.trace = Some(Box::new(report));
        let j = r.to_json();
        assert!(j.contains("\"subsystems\":{"), "{j}");
        assert!(j.contains("\"link\""), "{j}");
        // And the payload never disturbs determinism comparisons.
        assert!(r.deterministic_eq(&record(0.25)));
    }

    #[test]
    fn shards_field_appears_only_when_sharded() {
        let mut r = record(0.25);
        assert!(!r.to_json().contains("shards"));
        r.shards = 4;
        assert!(r.to_json().contains("\"shards\":4"), "{}", r.to_json());
        // Execution strategy never disturbs determinism comparisons.
        assert!(r.deterministic_eq(&record(0.25)));
    }

    #[test]
    fn defense_field_appears_only_when_labeled() {
        let mut r = record(0.25);
        assert!(!r.to_json().contains("defense"));
        r.defense = Some("pushback");
        assert!(
            r.to_json().contains("\"defense\":\"pushback\""),
            "{}",
            r.to_json()
        );
        assert!(r.deterministic_eq(&record(0.25)));
    }
}
