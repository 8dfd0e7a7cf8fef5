//! The top-level `Scenario`: topology × workload × probes × config, run
//! end-to-end into an [`aitf_engine::Outcome`].
//!
//! A scenario is the declarative unit the experiment registry's runner
//! closures construct per sweep point:
//!
//! ```
//! use aitf_core::{AitfConfig, HostPolicy};
//! use aitf_engine::Params;
//! use aitf_netsim::SimDuration;
//! use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};
//!
//! let outcome = Scenario::new(TopologySpec::fig1(HostPolicy::Malicious))
//!     .config(AitfConfig::default())
//!     .duration(SimDuration::from_secs(2))
//!     .traffic(TrafficSpec::flood(
//!         HostSel::Role(Role::Attacker),
//!         TargetSel::Victim,
//!         500,
//!         500,
//!     ))
//!     .probes(ProbeSet::new().leak_ratio("leak_r"))
//!     .run(42);
//! assert!(outcome.metrics.f64("leak_r") < 1.0);
//! assert!(outcome.events > 0);
//! ```

use aitf_core::{AitfConfig, DefensePolicy, DetectionMode, NetId, RouterPolicy, World};
// The seed-derived rank of a partial deployment's draw is the engine
// family's SplitMix64 mixer, shared with derived sweep seeds.
use aitf_engine::{splitmix, Outcome, Params};
use aitf_netsim::{NodeId, PartitionError, SimDuration};

use crate::churn::{ChurnAction, ChurnSpec};
use crate::probe::{ProbeSet, SeriesStore};
use crate::topology::{BuiltWorld, HostDecl, Side, TopologySpec};
use crate::workload::{TrafficSpec, WorkloadSpec};

/// A scenario-specification error, detected by [`Scenario::validate`]
/// before any world is built or simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

/// What every agent's constructor would otherwise assert on, starting
/// with the throwaway victim agent of `WorldBuilder::build`: a contract's
/// token bucket needs a burst of at least one and a finite, non-negative
/// rate; a rate detector a positive, finite threshold and a window.
fn check_config(cfg: &AitfConfig) -> Result<(), ScenarioError> {
    for (field, c) in [
        ("client_contract", cfg.client_contract),
        ("peer_contract", cfg.peer_contract),
    ] {
        if c.burst == 0 {
            return Err(ScenarioError(format!(
                "config.{field}.burst is 0: a contract's token bucket holds at \
                 least one request (rate {} req/s)",
                c.rate
            )));
        }
        if !(c.rate.is_finite() && c.rate >= 0.0) {
            return Err(ScenarioError(format!(
                "config.{field}.rate is {} req/s; it must be finite and not negative",
                c.rate
            )));
        }
    }
    if let DetectionMode::RateThreshold {
        bytes_per_sec,
        window,
    } = cfg.detection
    {
        if !(bytes_per_sec.is_finite() && bytes_per_sec > 0.0) {
            return Err(ScenarioError(format!(
                "config.detection: rate threshold bytes_per_sec is \
                 {bytes_per_sec}; it must be positive and finite"
            )));
        }
        if window.is_zero() {
            return Err(ScenarioError(
                "config.detection: rate threshold window is zero; the \
                 detector smooths over a positive duration"
                    .into(),
            ));
        }
    }
    Ok(())
}

/// What `TrafficSpec::install` and the churn actions would otherwise
/// assert on: every workload entry's and every churn event's host
/// selection, paired target and aggregate rate, checked against the
/// declared hosts (see `TrafficSpec::check`).
fn check_selections(
    hosts: &[HostDecl],
    workload: &WorkloadSpec,
    churn: &ChurnSpec,
) -> Result<(), ScenarioError> {
    for (i, spec) in workload.traffic.iter().enumerate() {
        if let Err(e) = spec.check(hosts) {
            return Err(ScenarioError(format!("workload entry #{i}: {e}")));
        }
    }
    for event in &churn.events {
        let (what, checked) = match &event.action {
            ChurnAction::StartTraffic(spec) => ("StartTraffic", spec.check(hosts)),
            ChurnAction::Detach(sel) => ("Detach", sel.check(hosts).map(drop)),
            ChurnAction::Attach(sel) => ("Attach", sel.check(hosts).map(drop)),
            ChurnAction::SetRouterPolicy(..) => continue,
        };
        if let Err(e) = checked {
            return Err(ScenarioError(format!(
                "churn {what} event at {:?}: {e}",
                event.at
            )));
        }
    }
    Ok(())
}

/// A complete declarative experiment point.
pub struct Scenario {
    /// Protocol configuration shared by every node.
    pub config: AitfConfig,
    /// The world's shape, with each network's declared router policy.
    pub topology: TopologySpec,
    /// The share of the eligible networks that runs AITF; 1 (the default)
    /// builds every network as declared. See the `aitf_fraction` setter.
    pub aitf_fraction: f64,
    /// The traffic driving it.
    pub workload: WorkloadSpec,
    /// Scheduled mid-run world mutations (empty = a static world).
    pub churn: ChurnSpec,
    /// What to measure.
    pub probes: ProbeSet,
    /// How long to simulate.
    pub duration: SimDuration,
    /// Event-loop shards the world is split into (1 = the classic
    /// single-threaded loop). Sharding is bit-transparent: any value
    /// produces identical results, larger worlds just run on more threads.
    pub shards: usize,
}

impl Scenario {
    /// A scenario over `topology` with default config, an empty workload,
    /// no probes and a 10 s horizon.
    pub fn new(topology: TopologySpec) -> Self {
        Scenario {
            config: AitfConfig::default(),
            topology,
            aitf_fraction: 1.0,
            workload: WorkloadSpec::new(),
            churn: ChurnSpec::new(),
            probes: ProbeSet::new(),
            duration: SimDuration::from_secs(10),
            shards: 1,
        }
    }

    /// Sets the protocol configuration: the one place a scenario sets a
    /// protocol parameter (`Td`, table sizes, eviction, the defense).
    pub fn config(mut self, cfg: AitfConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Replaces the workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Appends one traffic entry.
    pub fn traffic(mut self, spec: TrafficSpec) -> Self {
        self.workload.push(spec);
        self
    }

    /// Replaces the churn timeline.
    pub fn churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = churn;
        self
    }

    /// Appends one churn event at `at` (relative to the scenario start).
    pub fn event(mut self, at: SimDuration, action: ChurnAction) -> Self {
        self.churn.push(at, action);
        self
    }

    /// Sets the partial-deployment axis (§III — the incentive E16
    /// sweeps): a seed-drawn `fraction` of the eligible networks, those
    /// off the victim's side and declared AITF-enabled, runs AITF, and the
    /// rest are built [`RouterPolicy::legacy`]. The draw is nested: for a
    /// fixed seed, the networks deployed at a lower fraction are a subset
    /// of those deployed at any higher one. The fraction must lie in
    /// `[0, 1]` ([`Scenario::validate`]).
    pub fn aitf_fraction(mut self, fraction: f64) -> Self {
        self.aitf_fraction = fraction;
        self
    }

    /// Sets the probe set.
    pub fn probes(mut self, probes: ProbeSet) -> Self {
        self.probes = probes;
        self
    }

    /// Sets the simulated horizon.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Splits the event loop into (at most) `shards` conservative-lookahead
    /// shards along the network tree (see
    /// [`aitf_netsim::Simulator::apply_shards`]). Results are bit-identical
    /// at any shard count; 1 (the default) keeps the classic loop.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Checks the scenario for specification errors before anything is
    /// built or simulated; [`Scenario::build`] runs it first. The topology
    /// is checked by the build itself ([`aitf_core::World::try_build`]),
    /// which reports it as an invalid scenario before any event runs.
    /// Validated here:
    ///
    /// - the deployment fraction lies in `[0, 1]` — a fraction above 1
    ///   would silently mean full deployment;
    /// - every churn event must fire strictly before the scenario horizon
    ///   — an event at or past it could never take effect, and a silent
    ///   no-op would masquerade as "the late wave changed nothing";
    /// - a sample bin, when set, must be positive and no larger than the
    ///   horizon — a zero bin would spin forever without advancing the
    ///   clock, and a bin past the horizon would silently clamp to a
    ///   single end-of-run sample, turning "per-bin series" into one
    ///   point without complaint;
    /// - both contracts need a burst of at least one request and a finite,
    ///   non-negative rate, and a rate detector a positive, finite
    ///   threshold and a non-zero window — what the build's first victim
    ///   agent would otherwise panic on;
    /// - every host selection of a workload entry or a churn event picks
    ///   at least one declared host and a role slice stays within its
    ///   role's pool, a paired target's pool covers every source, and an
    ///   aggregate flood gives every source at least one packet per
    ///   second — what installing the traffic or applying the churn event
    ///   would otherwise panic on, possibly mid-run.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if !(0.0..=1.0).contains(&self.aitf_fraction) {
            return Err(ScenarioError(format!(
                "aitf_fraction is {}; a deployment fraction must be in [0, 1]",
                self.aitf_fraction
            )));
        }
        check_config(&self.config)?;
        check_selections(&self.topology.hosts, &self.workload, &self.churn)?;
        if let Some(event) = self.churn.events.iter().find(|e| e.at >= self.duration) {
            return Err(ScenarioError(format!(
                "churn event {:?} at {:?} is at or past the scenario horizon \
                 {:?}; events must fire strictly before the horizon",
                event.action, event.at, self.duration
            )));
        }
        if let Some(bin) = self.probes.sample_bin {
            if bin == SimDuration::ZERO {
                return Err(ScenarioError(
                    "sample bin is zero: the sampling loop could never \
                     advance the clock; ProbeSet::bin needs a positive \
                     duration"
                        .into(),
                ));
            }
            if bin > self.duration {
                return Err(ScenarioError(format!(
                    "sample bin {:?} is larger than the scenario horizon \
                     {:?}; a per-bin series needs at least one full bin",
                    bin, self.duration
                )));
            }
        }
        Ok(())
    }

    /// Builds the world and installs the workload without running it —
    /// the escape hatch for experiments that drive the simulation in
    /// custom phases (mid-run snapshots, incremental sampling). Under an
    /// `aitf_fraction` below 1 the drawn networks are made legacy through
    /// [`World::set_router_policy`] before the workload is installed or
    /// the world is sharded, so no event sees them participate.
    ///
    /// # Panics
    ///
    /// Panics with `invalid scenario: …` if [`Scenario::validate`] rejects
    /// the spec, or if the topology does not make a world, naming the
    /// offender as [`aitf_core::WorldError`] does.
    pub fn build(&self, seed: u64) -> BuiltWorld {
        if let Err(e) = self.validate() {
            panic!("invalid scenario: {e}");
        }
        let built = self.topology.try_build(seed, self.config.clone());
        let mut world = built.unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        if self.aitf_fraction < 1.0 {
            for net in legacy_draw(&self.topology, self.aitf_fraction, seed) {
                world
                    .world
                    .set_router_policy(NetId(net), RouterPolicy::legacy());
            }
        }
        self.workload.compile(&mut world);
        if self.shards > 1 {
            let hints = world.world.shard_hints();
            if let Err(e) = world.world.sim.apply_shards(self.shards, &hints) {
                panic!("world shard partition: {}", describe(&world.world, &e));
            }
        }
        world
    }

    /// Builds, runs and measures the scenario: the declarative path from
    /// spec to [`Outcome`]. Metrics appear in probe declaration order
    /// (end probes, summarizers, then emitted series); the simulator's
    /// dispatched-event count is attached for the engine's telemetry.
    ///
    /// Churn events fire at their declared virtual times, between event-
    /// loop segments: the run advances to the earlier of the next sample
    /// boundary and the next churn instant, samples (if at a boundary —
    /// a sample coinciding with churn reads the pre-mutation world), then
    /// applies every event due at that instant in declaration order.
    /// Events at `t = 0` apply before the simulation starts.
    ///
    /// # Panics
    ///
    /// Panics as [`Scenario::build`] does: if [`Scenario::validate`]
    /// rejects the spec — e.g. a churn event scheduled at or past the
    /// scenario duration: no simulated time would remain for it to take
    /// effect, and probes and churn must not extend the declared horizon —
    /// or if the topology does not build.
    pub fn run(self, seed: u64) -> Outcome {
        let mut world = self.build(seed);
        let ProbeSet {
            setup,
            end,
            sample_bin,
            mut sampled,
            summarizers,
        } = self.probes;
        // Setup hooks (streaming taps) install before any simulated
        // event, including churn scheduled at t = 0.
        for hook in setup {
            hook(&mut world);
        }
        if sample_bin.is_none() {
            assert!(
                sampled.is_empty() && summarizers.is_empty(),
                "sampled probes/summarizers need ProbeSet::bin"
            );
        }

        let mut store = SeriesStore::default();
        for probe in &sampled {
            store.series.push((probe.name, Vec::new()));
        }
        // The horizon check ran in `build`'s `validate`, before the world
        // was built — a bad spec fails at compile time, not mid-run.
        let schedule = self.churn.into_schedule();
        let mut churn = schedule.into_iter().peekable();
        let mut elapsed = SimDuration::ZERO;
        let mut next_sample = sample_bin.map(|bin| {
            if bin < self.duration {
                bin
            } else {
                self.duration
            }
        });
        loop {
            // Apply every event due at the current instant, in declaration
            // order (events at ZERO run before the simulation starts, so
            // hosts detached at zero begin the run offline).
            while churn.peek().is_some_and(|e| e.at <= elapsed) {
                let event = churn.next().expect("peeked event exists");
                assert!(
                    event.at == elapsed,
                    "churn schedule fell behind the clock (event at {:?}, now {:?})",
                    event.at,
                    elapsed
                );
                event.action.apply(&mut world);
            }
            if elapsed >= self.duration {
                debug_assert!(
                    churn.peek().is_none(),
                    "events validated against the horizon"
                );
                break;
            }
            // Next stop: the earlier of the next sample boundary (or the
            // horizon when not sampling) and the next churn instant. The
            // final bin clamps to the horizon either way: probes and churn
            // measure/mutate, they must not change how long is simulated.
            let sample_at = next_sample.unwrap_or(self.duration);
            let stop = match churn.peek() {
                Some(e) if e.at < sample_at => e.at,
                _ => sample_at,
            };
            world.world.sim.run_for(stop - elapsed);
            elapsed = stop;
            if Some(stop) == next_sample {
                store.time_s.push(world.world.sim.now().as_secs_f64());
                for (probe, (_, values)) in sampled.iter_mut().zip(&mut store.series) {
                    values.push((probe.sample)(&world));
                }
                next_sample = sample_bin.map(|bin| {
                    let next = stop + bin;
                    if next < self.duration {
                        next
                    } else {
                        self.duration
                    }
                });
            }
        }

        let mut metrics = Params::new();
        for probe in end {
            probe(&world, &mut metrics);
        }
        for summarize in summarizers {
            summarize(&store, &mut metrics);
        }
        if !store.time_s.is_empty() && sampled.iter().any(|p| p.emit) {
            metrics.set("_series_time_s", store.time_s.clone());
            for (probe, (name, values)) in sampled.iter().zip(&store.series) {
                if probe.emit {
                    metrics.set(name, values.clone());
                }
            }
        }
        let outcome = Outcome::new(metrics).with_events(world.world.sim.dispatched_events());
        // Label non-default policies only: AITF records keep their
        // historical JSON shape byte-for-byte.
        let outcome = match self.config.defense {
            DefensePolicy::Aitf => outcome,
            other => outcome.with_defense(other.name()),
        };
        #[cfg(feature = "trace")]
        let outcome = outcome.with_trace(aitf_trace::TraceReport {
            subsystems: world.world.sim.subsystem_profile(),
            spans: world.world.trace_spans(),
            shard_load: world.world.sim.shard_load(),
        });
        outcome
    }
}

/// The networks a partial deployment at `fraction` leaves legacy, for
/// `seed`. Eligible are the networks off the victim's side that the
/// topology declares AITF-enabled (the victim's own provider is the first
/// adopter, the paper's incentive ordering). Ranked by a seed-derived key,
/// the first `round(fraction · eligible)` participate, so for a fixed seed
/// the deployed set grows by inclusion with the fraction.
fn legacy_draw(topology: &TopologySpec, fraction: f64, seed: u64) -> Vec<usize> {
    let mut ranked: Vec<usize> = topology
        .nets
        .iter()
        .enumerate()
        .filter(|(_, n)| n.side != Side::Victim && n.policy.aitf_enabled)
        .map(|(i, _)| i)
        .collect();
    let deployed = (fraction * ranked.len() as f64).round() as usize;
    ranked.sort_by_key(|&i| (splitmix(seed ^ (i as u64 + 1)), i));
    ranked.split_off(deployed.min(ranked.len()))
}

/// A partition error in the world's terms: a zero-delay cut names the two
/// networks whose link it is (the partitioner only knows the link id).
fn describe(world: &World, e: &PartitionError) -> String {
    let PartitionError::ZeroDelayCut(link) = *e else {
        return e.to_string();
    };
    let (a, b) = world.sim.link_endpoints(link);
    // Node `i` is network `i`'s router; the hosts follow the routers.
    let net_of = |node: NodeId| match node.0 < world.net_count() {
        true => world.net_label(NetId(node.0)).to_string(),
        false => "?".to_string(),
    };
    format!(
        "the zero-delay link between networks {} and {} would cross shards \
         ({e}); give it a propagation delay or make one the other's provider",
        net_of(a),
        net_of(b)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Role;
    use crate::workload::{HostSel, TargetSel};
    use aitf_core::HostPolicy;

    fn flood_scenario() -> Scenario {
        Scenario::new(TopologySpec::fig1(HostPolicy::Malicious))
            .duration(SimDuration::from_secs(3))
            .traffic(TrafficSpec::flood(
                HostSel::Role(Role::Attacker),
                TargetSel::Victim,
                500,
                500,
            ))
    }

    #[test]
    fn run_reports_probe_metrics_in_declaration_order() {
        let outcome = flood_scenario()
            .probes(
                ProbeSet::new()
                    .leak_ratio("leak_r")
                    .end(|w, m| m.set("filters", w.world.router(w.net("B_net")).filters().len())),
            )
            .run(11);
        let names: Vec<&str> = outcome.metrics.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["leak_r", "filters"]);
        assert!(outcome.events > 0);
    }

    /// hub → {left, right}, one flooding host each (so the loads put the
    /// two networks in different shards), `right` on `uplink`.
    fn two_spokes(uplink: aitf_netsim::LinkParams) -> TopologySpec {
        let mut t = TopologySpec::new();
        let hub = t.net("hub", "10.0.0.0/16", None);
        let left = t.net("left", "10.1.0.0/16", Some(hub));
        let right = t.net_with(
            "right",
            "10.2.0.0/16",
            Some(hub),
            aitf_core::RouterPolicy::default(),
            uplink,
            crate::topology::Side::Neutral,
        );
        t.host(left, Role::Victim);
        t.host_with(
            right,
            Role::Attacker,
            HostPolicy::Malicious,
            aitf_core::WorldBuilder::default_host_link(),
        );
        t
    }

    fn zero_delay() -> aitf_netsim::LinkParams {
        aitf_netsim::LinkParams {
            delay: SimDuration::ZERO,
            ..aitf_core::WorldBuilder::default_net_link()
        }
    }

    #[test]
    fn a_zero_delay_uplink_still_builds_sharded() {
        let world = Scenario::new(two_spokes(zero_delay()))
            .traffic(TrafficSpec::flood(
                HostSel::Role(Role::Attacker),
                TargetSel::Victim,
                100,
                100,
            ))
            .shards(2)
            .build(1);
        let sim = &world.world.sim;
        assert_eq!(sim.shard_count(), 2);
        let node = |name| world.world.router_node(world.net(name));
        assert_eq!(sim.shard_of(node("right")), sim.shard_of(node("hub")));
        assert_ne!(sim.shard_of(node("left")), sim.shard_of(node("hub")));
    }

    #[test]
    #[should_panic(expected = "zero-delay link between networks \"left\" and \"right\"")]
    fn a_zero_delay_peering_cut_names_its_two_networks() {
        let mut t = two_spokes(aitf_core::WorldBuilder::default_net_link());
        t.peer(t.net_index("left"), t.net_index("right"), zero_delay());
        Scenario::new(t)
            .traffic(TrafficSpec::flood(
                HostSel::Role(Role::Attacker),
                TargetSel::Victim,
                100,
                100,
            ))
            .shards(3)
            .build(1);
    }

    #[test]
    fn identical_scenarios_are_bit_identical() {
        let probe = || ProbeSet::new().leak_ratio("leak_r");
        let a = flood_scenario().probes(probe()).run(5);
        let b = flood_scenario().probes(probe()).run(5);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn sampled_probes_accumulate_series_and_summaries() {
        let bin = SimDuration::from_millis(500);
        let outcome = flood_scenario()
            .probes(
                ProbeSet::new()
                    .bin(bin)
                    .sampled_filter_occupancy("_series_bnet_filters", "B_net", true)
                    .time_to_block("t_block_s", "_series_bnet_filters", 0.0),
            )
            .run(9);
        let series = outcome.metrics.f64_list("_series_bnet_filters");
        assert_eq!(series.len(), 6, "3 s / 500 ms bins");
        assert_eq!(
            outcome.metrics.f64_list("_series_time_s").len(),
            series.len()
        );
        // The flood is blocked at the attacker's gateway quickly.
        assert!(outcome.metrics.f64("t_block_s") >= 0.0);
    }

    #[test]
    fn sampling_never_extends_the_horizon() {
        // 3 s horizon, 700 ms bins: the last bin clamps to 200 ms, so the
        // sampled run simulates exactly what the unsampled one does.
        let plain = flood_scenario().run(13);
        let sampled = flood_scenario()
            .probes(ProbeSet::new().bin(SimDuration::from_millis(700)).sampled(
                "_series_zero",
                false,
                |_| 0.0,
            ))
            .run(13);
        assert_eq!(plain.events, sampled.events);
    }

    #[test]
    fn streaming_victim_probe_matches_exact_counters() {
        use crate::probe::{StreamProbeConfig, VictimStreamTap};
        let run = |cfg: StreamProbeConfig| {
            flood_scenario()
                .probes(ProbeSet::new().streaming_victim(cfg).end(|w, m| {
                    let c = w.world.host(w.victim()).counters();
                    m.set("exact_pkts", c.rx_attack_pkts + c.rx_legit_pkts);
                    m.set("exact_attack", c.rx_attack_pkts);
                    let tap = w
                        .world
                        .host(w.victim())
                        .rx_tap()
                        .and_then(|t| t.as_any().downcast_ref::<VictimStreamTap>())
                        .expect("tap installed");
                    m.set("tap_pkts", tap.total_pkts());
                    m.set("tap_attack", tap.total_attack_pkts());
                }))
                .run(21)
        };
        let outcome = run(StreamProbeConfig::default());
        // The sketch totals are exact — only per-key estimates carry
        // error — so the tap must agree with the victim's counters.
        assert_eq!(
            outcome.metrics.u64("tap_pkts"),
            outcome.metrics.u64("exact_pkts")
        );
        assert_eq!(
            outcome.metrics.u64("tap_attack"),
            outcome.metrics.u64("exact_attack")
        );
        assert!(outcome.metrics.u64("exact_pkts") > 0, "flood delivered");
        // A pure flood: the heavy hitters are all attack traffic.
        assert!(outcome.metrics.f64("hh_attack_frac") > 0.9, "{outcome:?}");
        let srcs = outcome.metrics.u64_list("hh_srcs");
        let pkts = outcome.metrics.u64_list("hh_pkts");
        let attack = outcome.metrics.u64_list("hh_attack_pkts");
        assert!(!srcs.is_empty());
        assert_eq!(srcs.len(), pkts.len());
        assert_eq!(srcs.len(), attack.len());
        for (p, a) in pkts.iter().zip(attack) {
            assert!(a <= p, "shared hash layout: attack est ≤ total est");
        }
        // O(config) memory: the footprint is set by the config alone,
        // not by traffic — rerunning with the same config pins it.
        let again = run(StreamProbeConfig::default());
        assert_eq!(
            outcome.metrics.u64("probe_bytes"),
            again.metrics.u64("probe_bytes")
        );
        assert!(outcome.metrics.u64("probe_bytes") > 0);
    }

    #[test]
    #[should_panic(expected = "need ProbeSet::bin")]
    fn sampled_probes_without_a_bin_fail_loudly() {
        let _ = flood_scenario()
            .probes(ProbeSet::new().sampled("_series_x", true, |_| 0.0))
            .run(1);
    }

    // ------------------------------------------------------------------
    // Dynamic worlds.
    // ------------------------------------------------------------------

    use crate::churn::ChurnAction;
    use crate::topology::Side;

    fn churn_star() -> Scenario {
        Scenario::new(TopologySpec::star(4, 1, HostPolicy::Malicious, 10_000_000))
            .duration(SimDuration::from_secs(4))
            .traffic(TrafficSpec::flood(
                HostSel::RoleSlice(Role::Attacker, 0, 2),
                TargetSel::Victim,
                200,
                500,
            ))
    }

    #[test]
    fn detach_at_zero_keeps_hosts_offline_until_attached() {
        // Hosts 2..4 are declared but detached at t=0 and never attached:
        // they must contribute nothing, and the world must behave exactly
        // like one where they were never selected by any workload.
        let outcome = churn_star()
            .event(
                SimDuration::ZERO,
                ChurnAction::Detach(HostSel::RoleSlice(Role::Attacker, 2, 2)),
            )
            .probes(
                ProbeSet::new()
                    .leak_ratio("leak_r")
                    .filters_installed_on("blocked", Side::Attacker),
            )
            .run(3);
        // Only the two flooding zombies get blocked; the detached pair
        // never sent a packet, so never triggered a filter.
        assert_eq!(outcome.metrics.u64("blocked"), 2, "{outcome:?}");
    }

    #[test]
    fn churn_wave_restarts_detection_and_recovers() {
        // Wave 1 floods from t=0; at t=2 s it retires and wave 2 (fresh
        // hosts, fresh flows) joins. Every zombie must end up blocked.
        let outcome = churn_star()
            .event(
                SimDuration::from_secs(2),
                ChurnAction::Detach(HostSel::RoleSlice(Role::Attacker, 0, 2)),
            )
            .event(
                SimDuration::from_secs(2),
                ChurnAction::StartTraffic(TrafficSpec::flood(
                    HostSel::RoleSlice(Role::Attacker, 2, 2),
                    TargetSel::Victim,
                    200,
                    500,
                )),
            )
            .probes(
                ProbeSet::new()
                    .leak_ratio("leak_r")
                    .filters_installed_on("blocked", Side::Attacker),
            )
            .run(5);
        assert_eq!(outcome.metrics.u64("blocked"), 4, "{outcome:?}");
        assert!(outcome.metrics.f64("leak_r") < 0.2, "{outcome:?}");
    }

    #[test]
    fn churning_scenarios_are_bit_identical_across_runs() {
        let build = || {
            churn_star()
                .event(
                    SimDuration::from_secs(2),
                    ChurnAction::Detach(HostSel::RoleSlice(Role::Attacker, 0, 2)),
                )
                .event(
                    SimDuration::from_secs(2),
                    ChurnAction::StartTraffic(TrafficSpec::flood(
                        HostSel::RoleSlice(Role::Attacker, 2, 2),
                        TargetSel::Victim,
                        200,
                        500,
                    )),
                )
                .probes(ProbeSet::new().leak_ratio("leak_r"))
        };
        let a = build().run(11);
        let b = build().run(11);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn churn_events_do_not_disturb_bin_alignment() {
        // A churn event mid-bin must split the run segment without moving
        // the sample boundaries: the series still has one sample per bin.
        let outcome = churn_star()
            .event(
                SimDuration::from_millis(700),
                ChurnAction::Detach(HostSel::RoleSlice(Role::Attacker, 2, 2)),
            )
            .probes(ProbeSet::new().bin(SimDuration::from_millis(500)).sampled(
                "_series_x",
                true,
                |_| 1.0,
            ))
            .run(2);
        assert_eq!(
            outcome.metrics.f64_list("_series_x").len(),
            8,
            "4 s / 500 ms"
        );
    }

    #[test]
    #[should_panic(expected = "past the scenario horizon")]
    fn churn_past_the_horizon_fails_loudly() {
        let _ = churn_star()
            .event(
                SimDuration::from_secs(10),
                ChurnAction::Detach(HostSel::RoleSlice(Role::Attacker, 0, 1)),
            )
            .run(1);
    }

    #[test]
    #[should_panic(expected = "sample bin is zero")]
    fn zero_sample_bin_fails_loudly() {
        let _ = flood_scenario()
            .probes(
                ProbeSet::new()
                    .bin(SimDuration::ZERO)
                    .sampled("_series_x", false, |_| 0.0),
            )
            .run(1);
    }

    #[test]
    fn validate_rejects_sample_bins_past_the_horizon() {
        // 3 s horizon, 5 s bin: would silently clamp to one end sample.
        let bad = flood_scenario().probes(ProbeSet::new().bin(SimDuration::from_secs(5)).sampled(
            "_series_x",
            false,
            |_| 0.0,
        ));
        let err = bad.validate().expect_err("bin past horizon").to_string();
        assert!(err.contains("5s"), "names the bin: {err}");
        assert!(err.contains("3s"), "names the horizon: {err}");
        // A bin equal to the horizon is one full bin — still legal.
        let edge = flood_scenario().probes(ProbeSet::new().bin(SimDuration::from_secs(3)).sampled(
            "_series_x",
            false,
            |_| 0.0,
        ));
        assert!(edge.validate().is_ok());
    }

    #[test]
    fn validate_names_the_offending_event_and_the_horizon() {
        let bad = churn_star().event(
            SimDuration::from_secs(10),
            ChurnAction::Detach(HostSel::RoleSlice(Role::Attacker, 0, 1)),
        );
        let err = bad.validate().expect_err("event past horizon").to_string();
        assert!(err.contains("Detach"), "names the action: {err}");
        assert!(err.contains("10s"), "names the event time: {err}");
        assert!(err.contains("4s"), "names the horizon: {err}");
        assert!(churn_star().validate().is_ok());
    }

    /// What the build reports once `edit` has made `flood_scenario`'s
    /// topology unbuildable; the scenario itself still validates.
    fn topology_error(edit: impl FnOnce(&mut TopologySpec)) -> String {
        let mut bad = flood_scenario();
        edit(&mut bad.topology);
        assert_eq!(bad.validate(), Ok(()));
        let built = bad.topology.try_build(1, bad.config.clone());
        built.err().expect("unbuildable topology").to_string()
    }

    #[test]
    fn the_build_names_both_networks_of_an_overlapping_pair() {
        let err = topology_error(|t| {
            t.net("inside", "10.1.7.0/24", Some(0));
            t.net("beside", "10.250.0.0/16", Some(0));
        });
        assert!(err.contains("\"inside\" (10.1.7.0/24) overlaps"), "{err}");
        assert!(err.contains("10.1.0.0/16"), "names the other side: {err}");
        assert!(!err.contains("beside"), "a disjoint network is fine: {err}");
    }

    #[test]
    fn the_build_names_a_network_declared_before_its_parent() {
        let err = topology_error(|t| {
            let n = t.nets.len();
            t.net("orphan", "10.250.0.0/16", Some(n + 1));
        });
        assert!(err.contains("\"orphan\""), "{err}");
        assert!(err.contains("before its parent"), "{err}");
    }

    #[test]
    fn the_build_names_a_peering_with_an_undeclared_network() {
        let err = topology_error(|t| {
            let n = t.nets.len();
            t.peer(1, n, aitf_core::WorldBuilder::default_net_link());
        });
        let (k, n) = {
            let t = flood_scenario().topology;
            (t.peerings.len(), t.nets.len())
        };
        assert!(err.contains(&format!("peering #{k}")), "{err}");
        assert!(err.contains(&format!("network #{n}")), "{err}");
        assert!(err.contains(&format!("only {n} networks")), "{err}");
    }

    #[test]
    fn the_build_names_a_network_peered_with_itself() {
        let err = topology_error(|t| t.peer(2, 2, aitf_core::WorldBuilder::default_net_link()));
        let name = &flood_scenario().topology.nets[2].name;
        assert!(err.contains(name), "names the network: {err}");
        assert!(err.contains("to itself"), "{err}");
    }

    #[test]
    fn the_build_names_a_network_with_more_than_250_hosts() {
        let err = topology_error(|t| {
            // The victim's network: one host declared, 250 more.
            for _ in 0..250 {
                t.host(2, Role::Legit);
            }
        });
        let name = &flood_scenario().topology.nets[2].name;
        assert!(err.contains(name), "names the network: {err}");
        assert!(err.contains("at most 250"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid scenario: network #7 (10.1.7.0/24) has 251 hosts")]
    fn a_run_names_an_anonymous_network_by_index_and_prefix() {
        let mut s = Scenario::new(TopologySpec::power_law(&crate::PowerLawSpec {
            n_nets: 20,
            ..crate::PowerLawSpec::default()
        }));
        assert!(s.topology.nets[7].name.is_empty(), "a generated network");
        for _ in 0..251 {
            s.topology.host(7, Role::Legit);
        }
        assert_eq!(s.validate(), Ok(()));
        s.run(1);
    }

    /// The error a scenario reports once `edit` has had its way with its
    /// configuration.
    fn config_error(edit: impl FnOnce(&mut AitfConfig)) -> String {
        let mut s = flood_scenario();
        edit(&mut s.config);
        s.validate().expect_err("a malformed config").to_string()
    }

    #[test]
    fn validate_names_a_contract_with_a_zero_burst() {
        let err = config_error(|c| c.peer_contract = aitf_core::Contract::new(2.5, 0));
        assert!(err.contains("peer_contract.burst is 0"), "{err}");
        assert!(err.contains("2.5 req/s"), "names the contract: {err}");
        let err = config_error(|c| c.client_contract.burst = 0);
        assert!(err.contains("client_contract.burst is 0"), "{err}");
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let err = config_error(|c| c.client_contract.rate = bad);
            let named = format!("client_contract.rate is {bad} req/s");
            assert!(err.contains(&named), "{err}");
        }
    }

    #[test]
    fn validate_names_a_rate_detector_threshold_that_is_not_positive_and_finite() {
        for bad in [0.0, -125_000.0, f64::NAN, f64::INFINITY] {
            let err = config_error(|c| {
                c.detection = DetectionMode::RateThreshold {
                    bytes_per_sec: bad,
                    window: SimDuration::from_millis(100),
                }
            });
            assert!(err.contains("config.detection"), "{err}");
            assert!(
                err.contains(&format!("is {bad};")),
                "names the value: {err}"
            );
        }
        let err = config_error(|c| {
            c.detection = DetectionMode::RateThreshold {
                bytes_per_sec: 125_000.0,
                window: SimDuration::ZERO,
            }
        });
        assert!(err.contains("window is zero"), "{err}");
        let mut ok = flood_scenario();
        ok.config.detection = DetectionMode::RateThreshold {
            bytes_per_sec: 125_000.0,
            window: SimDuration::from_millis(100),
        };
        assert_eq!(ok.validate(), Ok(()));
    }

    /// The error `churn_star` (4 attackers, 1 victim) reports with `spec`
    /// as a workload entry and, separately, as a churn-installed entry.
    fn selection_errors(spec: impl Fn() -> TrafficSpec) -> (String, String) {
        let entry = churn_star().traffic(spec());
        let wave = churn_star().event(SimDuration::from_secs(1), ChurnAction::StartTraffic(spec()));
        let err = |s: Scenario| s.validate().expect_err("a bad selection").to_string();
        (err(entry), err(wave))
    }

    #[test]
    fn validate_names_a_host_selection_that_selects_no_host() {
        let flood =
            |on: HostSel| move || TrafficSpec::flood(on.clone(), TargetSel::Victim, 100, 500);
        let (entry, wave) = selection_errors(flood(HostSel::Index(40)));
        assert!(entry.starts_with("workload entry #1: Index(40)"), "{entry}");
        assert!(entry.contains("selects no host (of 5 declared)"), "{entry}");
        assert!(
            wave.starts_with("churn StartTraffic event at 1s: Index(40)"),
            "{wave}"
        );
        let (entry, _) = selection_errors(flood(HostSel::RoleFirst(Role::Attacker, 0)));
        assert!(
            entry.contains("RoleFirst(Attacker, 0) selects no host"),
            "{entry}"
        );
        let detach = churn_star().event(
            SimDuration::from_secs(1),
            ChurnAction::Detach(HostSel::Role(Role::Legit)),
        );
        let err = detach.validate().expect_err("an empty detach").to_string();
        assert!(
            err.contains("churn Detach event at 1s: Role(Legit) selects no host"),
            "{err}"
        );
    }

    #[test]
    fn validate_names_a_role_slice_past_its_pool() {
        let slice = || {
            let on = HostSel::RoleSlice(Role::Attacker, 3, 2);
            TrafficSpec::flood(on, TargetSel::Victim, 100, 500)
        };
        let (entry, wave) = selection_errors(slice);
        let named = "RoleSlice(Attacker, 3, 2) reaches past the 4 Attacker hosts declared";
        assert!(entry.contains(named), "{entry}");
        assert!(wave.contains(named), "{wave}");
        let fits = churn_star().traffic(TrafficSpec::flood(
            HostSel::RoleSlice(Role::Attacker, 2, 2),
            TargetSel::Victim,
            100,
            500,
        ));
        assert_eq!(fits.validate(), Ok(()));
    }

    #[test]
    fn validate_names_a_paired_target_pool_smaller_than_the_sources() {
        let paired = || {
            let on = HostSel::Role(Role::Attacker);
            TrafficSpec::flood(on, TargetSel::Paired(Role::Victim), 100, 500)
        };
        let (entry, wave) = selection_errors(paired);
        let named = "Paired(Victim) pairs 4 sources with only 1 Victim hosts";
        assert!(entry.contains(named), "{entry}");
        assert!(wave.contains(named), "{wave}");
    }

    #[test]
    fn validate_names_an_aggregate_rate_below_one_pps_per_host() {
        let thin = || {
            TrafficSpec::flood_aggregate(HostSel::Role(Role::Attacker), TargetSel::Victim, 3, 500)
        };
        let (entry, wave) = selection_errors(thin);
        let named = "aggregate flood of 3 pps cannot give each of its 4 sources";
        assert!(entry.contains(named), "{entry}");
        assert!(wave.contains(named), "{wave}");
        let enough = churn_star().traffic(TrafficSpec::flood_aggregate(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            4,
            500,
        ));
        assert_eq!(enough.validate(), Ok(()));
    }

    #[test]
    fn validate_names_a_custom_entry_with_a_start_window() {
        let custom = |on: HostSel| {
            TrafficSpec::custom(on, |w, _| {
                let victim = w.world.host_addr(w.victim());
                Box::new(aitf_core::Source::flood(victim, 100, 500))
            })
        };
        let staggered =
            || custom(HostSel::Role(Role::Attacker)).staggered(SimDuration::from_millis(10));
        let (entry, wave) = selection_errors(staggered);
        let named = "custom traffic on Role(Attacker) cannot take a start window \
                     (start_after 0s, stagger 10ms)";
        assert!(entry.starts_with("workload entry #1: "), "{entry}");
        assert!(entry.contains(named), "{entry}");
        assert!(wave.contains(named), "{wave}");
        let late = churn_star()
            .traffic(custom(HostSel::Index(1)).starting_after(SimDuration::from_secs(1)));
        let err = late
            .validate()
            .expect_err("a delayed custom entry")
            .to_string();
        assert!(err.contains("(start_after 1s, stagger 0s)"), "{err}");
        let bare = churn_star().traffic(custom(HostSel::Role(Role::Attacker)));
        assert_eq!(bare.validate(), Ok(()));
    }

    #[test]
    fn onoff_and_legit_entries_take_start_windows() {
        let mut topology = TopologySpec::star(4, 1, HostPolicy::Malicious, 10_000_000);
        let zombies: Vec<usize> = (0..topology.hosts.len())
            .filter(|&i| topology.hosts[i].role == Role::Attacker)
            .collect();
        for &i in &zombies[2..] {
            topology.hosts[i].role = Role::Legit;
        }
        let ms = SimDuration::from_millis;
        let onoff = TrafficSpec::onoff(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            200,
            500,
            ms(300),
            ms(300),
        );
        let scenario = Scenario::new(topology)
            .duration(SimDuration::from_secs(2))
            .traffic(onoff.starting_after(ms(500)).staggered(ms(100)))
            .traffic(
                TrafficSpec::legit(HostSel::Role(Role::Legit), TargetSel::Victim, 100, 500)
                    .staggered(ms(250)),
            );
        assert_eq!(scenario.validate(), Ok(()));
        let mut built = scenario.build(1);
        built
            .world
            .sim
            .run_until(aitf_netsim::SimTime::ZERO + ms(552));
        let tx = |role| -> Vec<u64> {
            let hosts = built.hosts_with(role);
            hosts
                .iter()
                .map(|&h| built.world.host(h).counters().tx_pkts)
                .collect()
        };
        // On-off zombies start at 500 and 600 ms, sending every 5 ms;
        // clients start at 0 and 250 ms, sending every 10 ms one period in.
        assert_eq!(tx(Role::Attacker), vec![11, 0]);
        assert_eq!(tx(Role::Legit), vec![55, 30]);
    }

    // ------------------------------------------------------------------
    // Partial deployment & provider churn.
    // ------------------------------------------------------------------

    use crate::topology::NetSel;
    use aitf_core::RouterPolicy;

    #[test]
    fn set_router_policy_event_flips_a_provider_mid_run() {
        let outcome = churn_star()
            .event(
                SimDuration::from_secs(1),
                ChurnAction::SetRouterPolicy(
                    NetSel::Name("zombie_net_0".into()),
                    RouterPolicy::legacy(),
                ),
            )
            .probes(ProbeSet::new().leak_ratio("leak_r").end(|w, m| {
                m.set(
                    "z0_aitf",
                    w.world.router_policy(w.net("zombie_net_0")).aitf_enabled,
                );
                m.set("hub_aitf", w.world.router_policy(w.net("hub")).aitf_enabled);
            }))
            .run(5);
        assert!(!outcome.metrics.bool("z0_aitf"));
        assert!(outcome.metrics.bool("hub_aitf"));
    }

    /// The networks running AITF once `scenario` is built at `seed`.
    fn aitf_nets(scenario: &Scenario, seed: u64) -> Vec<usize> {
        let w = scenario.build(seed);
        (0..w.world.net_count())
            .filter(|&i| w.world.router_policy(NetId(i)).aitf_enabled)
            .collect()
    }

    #[test]
    fn a_declared_legacy_net_is_legacy_from_the_start() {
        let mut s = churn_star();
        s.topology
            .set_net_policy("zombie_net_1", RouterPolicy::legacy());
        // star(4, ..): hub + victim_net + 4 zombie nets = 6, one legacy.
        let legacy = s.topology.net_index("zombie_net_1");
        let aitf = aitf_nets(&s, 5);
        assert_eq!(aitf.len(), 5);
        assert!(!aitf.contains(&legacy));
    }

    fn tree() -> TopologySpec {
        TopologySpec::tree(2, 3, 2, HostPolicy::Malicious, 10_000_000)
    }

    #[test]
    fn the_legacy_draw_is_nested_across_fractions_and_spares_the_victim_side() {
        let topo = tree();
        let seed = 42;
        let mut previous: Option<std::collections::HashSet<usize>> = None;
        for f in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let legacy: std::collections::HashSet<usize> =
                legacy_draw(&topo, f, seed).into_iter().collect();
            for &i in &legacy {
                assert_ne!(
                    topo.nets[i].side,
                    Side::Victim,
                    "victim side always deploys"
                );
            }
            if let Some(prev) = &previous {
                // Higher fraction ⇒ fewer legacy nets, and a subset of the
                // previous legacy set (nested deployment).
                assert!(legacy.is_subset(prev), "assignment must be nested");
            }
            previous = Some(legacy);
        }
        // f = 1 means everyone deploys; f = 0 means every eligible net is
        // legacy (13 of the 14 tree nets — all but victim_net).
        assert!(previous.expect("loop ran").is_empty());
        assert_eq!(legacy_draw(&topo, 0.0, seed).len(), topo.nets.len() - 1);
        // The build applies the draw, and nothing else.
        let s = Scenario::new(tree()).aitf_fraction(0.5);
        let drawn = legacy_draw(&s.topology, 0.5, seed);
        let aitf = aitf_nets(&s, seed);
        assert_eq!(aitf.len() + drawn.len(), topo.nets.len());
        assert!(drawn.iter().all(|i| !aitf.contains(i)));
    }

    #[test]
    fn the_legacy_draw_depends_on_the_seed() {
        let topo = tree();
        let a = legacy_draw(&topo, 0.5, 1);
        assert_eq!(a, legacy_draw(&topo, 0.5, 1));
        assert_ne!(
            a,
            legacy_draw(&topo, 0.5, 2),
            "different seeds should shuffle the assignment"
        );
    }

    #[test]
    fn validate_names_an_aitf_fraction_outside_zero_one() {
        for bad in [1.5, -0.25, f64::NAN] {
            let err = flood_scenario().aitf_fraction(bad).validate();
            let err = err.expect_err("a fraction outside [0, 1]").to_string();
            assert!(err.contains("aitf_fraction"), "{err}");
            assert!(err.contains(&bad.to_string()), "names the value: {err}");
        }
        for edge in [0.0, 1.0] {
            assert_eq!(flood_scenario().aitf_fraction(edge).validate(), Ok(()));
        }
    }

    #[test]
    #[should_panic(expected = "invalid scenario: aitf_fraction is 1.5")]
    fn build_rejects_an_aitf_fraction_above_one() {
        let _ = flood_scenario().aitf_fraction(1.5).build(1);
    }
}
