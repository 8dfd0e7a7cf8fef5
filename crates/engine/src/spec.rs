//! Scenario specifications: a named, parameterized sweep plus the closure
//! that runs one point of it.

use std::sync::Arc;

use crate::params::{Params, Value};

/// Context handed to a scenario's point runner.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    /// The derived RNG seed for this point. Depends only on the sweep's
    /// base seed, the experiment id and the point index — never on thread
    /// scheduling — so results are bit-identical at any thread count.
    pub seed: u64,
    /// Event-loop shards each scenario should split into (1 = classic
    /// single-threaded loop). Pure execution strategy: results are
    /// bit-identical at any value.
    pub shards: usize,
}

/// What one sweep point produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Named metric values, in declaration order.
    pub metrics: Params,
    /// Simulator events dispatched during the run (0 when not applicable).
    pub events: u64,
    /// Optional observability payload (subsystem profile + spans). `None`
    /// in ordinary builds; populated by scenarios compiled with their
    /// `trace` feature. Never part of determinism comparisons.
    pub trace: Option<Box<aitf_trace::TraceReport>>,
    /// Name of the non-default defense policy the run's routers executed
    /// (`None` for the historical AITF datapath, keeping those records'
    /// JSON shape unchanged).
    pub defense: Option<&'static str>,
}

impl Outcome {
    /// An outcome with the given metrics and no event count.
    pub fn new(metrics: Params) -> Self {
        Outcome {
            metrics,
            events: 0,
            trace: None,
            defense: None,
        }
    }

    /// Attaches the simulator event count.
    pub fn with_events(mut self, events: u64) -> Self {
        self.events = events;
        self
    }

    /// Attaches an observability payload.
    pub fn with_trace(mut self, trace: aitf_trace::TraceReport) -> Self {
        self.trace = Some(Box::new(trace));
        self
    }

    /// Labels the run with the (non-default) defense policy it executed.
    pub fn with_defense(mut self, name: &'static str) -> Self {
        self.defense = Some(name);
        self
    }
}

/// The point-runner closure type: pure function of `(params, ctx)`.
pub type RunFn = Arc<dyn Fn(&Params, &RunCtx) -> Outcome + Send + Sync>;

/// A named, parameterized scenario sweep.
///
/// # Examples
///
/// ```
/// use aitf_engine::{Outcome, Params, ScenarioSpec};
///
/// let spec = ScenarioSpec::new("demo", "a demo sweep", "§0")
///     .expectation("doubling in, doubling out")
///     .point(Params::new().with("x", 1u64))
///     .point(Params::new().with("x", 2u64))
///     .runner(|params, _ctx| {
///         Outcome::new(Params::new().with("y", params.u64("x") * 2))
///     });
/// assert_eq!(spec.points.len(), 2);
/// ```
#[derive(Clone)]
pub struct ScenarioSpec {
    /// Stable machine-readable id (`e1_escalation`); names the JSON file.
    pub id: &'static str,
    /// Human-readable table title.
    pub title: String,
    /// Paper section / figure the scenario reproduces.
    pub paper: &'static str,
    /// The "paper expectation" prose printed after the table.
    pub expectation: String,
    /// The sweep points, one parameter set each.
    pub points: Vec<Params>,
    /// Runs one point.
    pub run: RunFn,
}

impl ScenarioSpec {
    /// Creates a spec with no points and a panicking runner; chain
    /// [`ScenarioSpec::point`]/[`ScenarioSpec::points`] and
    /// [`ScenarioSpec::runner`] to finish it.
    pub fn new(id: &'static str, title: impl Into<String>, paper: &'static str) -> Self {
        ScenarioSpec {
            id,
            title: title.into(),
            paper,
            expectation: String::new(),
            points: Vec::new(),
            run: Arc::new(|_, _| panic!("ScenarioSpec::runner was never set")),
        }
    }

    /// Sets the post-table expectation prose.
    pub fn expectation(mut self, text: impl Into<String>) -> Self {
        self.expectation = text.into();
        self
    }

    /// Appends one sweep point.
    pub fn point(mut self, params: Params) -> Self {
        self.points.push(params);
        self
    }

    /// Appends many sweep points.
    pub fn points(mut self, params: impl IntoIterator<Item = Params>) -> Self {
        self.points.extend(params);
        self
    }

    /// Sets the point runner.
    pub fn runner(
        mut self,
        f: impl Fn(&Params, &RunCtx) -> Outcome + Send + Sync + 'static,
    ) -> Self {
        self.run = Arc::new(f);
        self
    }

    /// The seed for point `index` under `base_seed` — a SplitMix64 chain
    /// over `(base_seed, fnv1a(id), group)`, where `group` defaults to the
    /// point index.
    ///
    /// A point may override the group by declaring a `_seed_group`
    /// parameter (`U64`): points sharing a group run with the **same**
    /// seed. Sweeps that compare an on/off knob across adjacent rows
    /// ("assists on vs off", "shadow on vs off") put the knob outside the
    /// group so the pair differs only in the knob, never in RNG noise.
    pub fn seed_for(&self, base_seed: u64, index: usize) -> u64 {
        let group = match self.points.get(index).and_then(|p| p.get("_seed_group")) {
            Some(Value::U64(g)) => *g,
            _ => index as u64,
        };
        let mut h = fnv1a(self.id.as_bytes());
        h = splitmix(h ^ base_seed);
        splitmix(h ^ group)
    }
}

impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioSpec")
            .field("id", &self.id)
            .field("title", &self.title)
            .field("paper", &self.paper)
            .field("points", &self.points.len())
            .finish()
    }
}

/// FNV-1a over bytes — stable across platforms and runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — bijective, well-mixed. Public because it is the
/// engine family's standard dependency-free mixer: derived sweep seeds
/// here, seed-derived deployment assignment in `aitf-scenario`.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = ScenarioSpec::new("e1", "t", "p");
        let b = ScenarioSpec::new("e2", "t", "p");
        assert_eq!(a.seed_for(42, 0), a.seed_for(42, 0));
        assert_ne!(a.seed_for(42, 0), a.seed_for(42, 1));
        assert_ne!(a.seed_for(42, 0), a.seed_for(43, 0));
        assert_ne!(a.seed_for(42, 0), b.seed_for(42, 0));
    }

    #[test]
    fn seed_groups_pair_points() {
        let spec = ScenarioSpec::new("paired", "t", "p")
            .point(Params::new().with("on", false).with("_seed_group", 0u64))
            .point(Params::new().with("on", true).with("_seed_group", 0u64))
            .point(Params::new().with("on", false).with("_seed_group", 1u64));
        assert_eq!(spec.seed_for(42, 0), spec.seed_for(42, 1));
        assert_ne!(spec.seed_for(42, 0), spec.seed_for(42, 2));
    }

    #[test]
    #[should_panic(expected = "runner was never set")]
    fn missing_runner_fails_loudly() {
        let spec = ScenarioSpec::new("x", "t", "p").point(Params::new());
        let ctx = RunCtx { seed: 1, shards: 1 };
        let _ = (spec.run)(&spec.points[0], &ctx);
    }
}
