//! E2 — Section IV-A.1: effective bandwidth of an undesired flow.
//!
//! The paper's central effectiveness formula:
//!
//! ```text
//! r ≈ n (Td + Tr) / T
//! ```
//!
//! where `n` is the number of non-cooperating AITF nodes on the attack
//! path (counting the attacker itself), `Td` the detection time, `Tr` the
//! one-way victim→gateway delay and `T` the request horizon. The paper's
//! worked example: `n = 1`, `Tr = 50 ms`, `T = 1 min`, `Td ≈ 0` →
//! `r ≈ 0.00083`.
//!
//! E2 is this claim's one experiment. On the paper's Figure 1 world it
//! sweeps an `(n, T, Tr)` grid at `Td = 100 ms`, then the worked example,
//! then the `Td × Tr` plane at `n = 1`, `T = 10 s` (a plane cell the grid
//! already runs is not run twice).
//!
//! The formula models a *conservative* deployment where each failed round
//! costs the victim a fresh detection: we measure that mode (shadow assist
//! off) against the formula, and also the default deployment (shadow
//! assist on) which does strictly better because reactivations are caught
//! at the gateway before the victim sees a packet.
//!
//! What the simulation measures is not the formula, even at `n = 1`: in
//! the formula's mode every `(Td, Tr, T)` cell reads
//! `r·T = Td + 2·Tr + ≈ 2.5 ms`, so the victim pays `Tr` twice per round
//! where the formula charges it once. Which side is right, the simulated
//! handshake's accounting or the paper's formula, is ROADMAP item 13's
//! "explain the rest"; until then E2 reports `r_formula` beside
//! `r_measured`, and its tests pin the measured relation.

use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::{LinkParams, SimDuration};
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// Parameters of one measurement point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Non-cooperating nodes on the attack path (1 = just the attacker).
    pub n: usize,
    /// Detection delay `Td`.
    pub td: SimDuration,
    /// Victim→gateway one-way delay `Tr`.
    pub tr: SimDuration,
    /// Request horizon `T`.
    pub t: SimDuration,
}

impl Point {
    /// The paper's predicted reduction factor `n(Td+Tr)/T`.
    pub fn formula(&self) -> f64 {
        self.n as f64 * (self.td.as_secs_f64() + self.tr.as_secs_f64()) / self.t.as_secs_f64()
    }
}

/// The declarative E2 scenario: Figure 1 with the victim's tail circuit
/// delayed by `Tr` and `n - 1` non-cooperating attacker-side gateways.
/// `assists` enables [`AitfConfig::fast_reblock`], shadow reactivation
/// and fast re-detection (the default deployment); disabling them reproduces the
/// formula's conservative model where every failed round costs the victim
/// a fresh `Td + Tr`.
pub fn scenario(p: Point, assists: bool, periods: u64) -> Scenario {
    let cfg = AitfConfig {
        t_long: p.t,
        detection_delay: p.td,
        fast_reblock: assists,
        grace: p.t * (periods + 2),
        ..AitfConfig::default()
    };
    let mut topo = TopologySpec::fig1_with_victim_link(
        HostPolicy::Malicious,
        LinkParams::ethernet(10_000_000, p.tr),
    );
    for net in ["B_net", "B_isp"].iter().take(p.n.saturating_sub(1)) {
        topo.set_net_policy(net, RouterPolicy::non_cooperating());
    }
    let formula = p.formula();
    Scenario::new(topo)
        .config(cfg)
        .duration(p.t * periods)
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            400,
            500,
        ))
        .probes(
            ProbeSet::new()
                .end(move |_, m| m.set("r_formula", formula))
                .leak_ratio("r_measured"),
        )
}

/// `Td` of the `(n, T, Tr, assists)` grid.
const GRID_TD_MS: u64 = 100;

/// The E2 scenario spec: the `(n, T, Tr, assists)` grid at
/// `Td = GRID_TD_MS`, the paper's worked example (`Td ≈ 0, Tr = 50 ms,
/// T = 60 s, n = 1` → `r ≈ 0.00083`), then the `Td × Tr` plane at `n = 1`,
/// `T = 10 s` in the formula's mode. Each block takes fresh seed groups
/// after the last, so appending a block leaves earlier points' seeds alone.
pub fn spec(quick: bool) -> ScenarioSpec {
    let periods: u64 = if quick { 2 } else { 3 };
    let t_values: &[u64] = if quick { &[10, 30] } else { &[10, 30, 60] };
    let tr_values: &[u64] = if quick { &[50] } else { &[10, 50, 100] };
    let plane_td: &[u64] = if quick { &[0, 100] } else { &[0, 50, 100, 200] };
    let plane_tr: &[u64] = if quick { &[10, 100] } else { &[10, 50, 100] };
    let point = |n: u64, td: u64, tr: u64, t: u64, assists: bool, periods: u64, group: u64| {
        Params::new()
            .with("n", n)
            .with("td_ms", td)
            .with("tr_ms", tr)
            .with("t_s", t)
            .with("assists", assists)
            .with("_periods", periods)
            .with("_seed_group", group)
    };
    let mut points = Vec::new();
    let mut group = 0u64;
    for n in [1u64, 2, 3] {
        for &t in t_values {
            for &tr in tr_values {
                // The assists-on/off pair shares a seed group so the two
                // rows differ only in the knob, never in RNG noise — the
                // expectation compares them directly.
                for assists in [false, true] {
                    points.push(point(n, GRID_TD_MS, tr, t, assists, periods, group));
                }
                group += 1;
            }
        }
    }
    // The paper's worked example.
    let example_periods = if quick { 1 } else { 3 };
    points.push(point(1, 0, 50, 60, false, example_periods, group));
    // The plane; the grid above already ran its `Td = GRID_TD_MS` cells.
    for &td in plane_td {
        for &tr in plane_tr {
            if td != GRID_TD_MS || !tr_values.contains(&tr) {
                group += 1;
                points.push(point(1, td, tr, 10, false, periods, group));
            }
        }
    }
    ScenarioSpec::new(
        "e2_effective_bandwidth",
        "E2 (§IV-A.1): effective-bandwidth reduction r vs formula n(Td+Tr)/T",
        "§IV-A.1",
    )
    .expectation(
        "r grows with Td and Tr and shrinks with T, but does not track the \
         formula n(Td+Tr)/T: with assists off every n = 1 row reads \
         r*T = Td + 2*Tr + ~2.5 ms, and in the full sweep n = 3 leaks \
         what n = 2 does (ROADMAP item 13). The assisted deployment does no worse, \
         strictly better at n >= 2. The row after the (n, T, Tr) grid is \
         the paper's worked example (formula r = 0.00083); the rows after \
         it complete the Td x Tr plane at n = 1, T = 10 s.",
    )
    .points(points)
    .runner(run_scenario(|p| {
        let point = Point {
            n: p.usize("n"),
            td: SimDuration::from_millis(p.u64("td_ms")),
            tr: SimDuration::from_millis(p.u64("tr_ms")),
            t: SimDuration::from_secs(p.u64("t_s")),
        };
        scenario(point, p.bool("assists"), p.u64("_periods"))
    }))
}

#[cfg(test)]
mod tests {
    use aitf_engine::Runner;

    use super::*;

    fn leak(p: Point, assists: bool, periods: u64, seed: u64) -> f64 {
        scenario(p, assists, periods)
            .run(seed)
            .metrics
            .f64("r_measured")
    }

    #[test]
    fn measured_r_tracks_formula_for_n1() {
        let p = Point {
            n: 1,
            td: SimDuration::from_millis(100),
            tr: SimDuration::from_millis(50),
            t: SimDuration::from_secs(10),
        };
        let r = leak(p, false, 2, 22);
        let formula = p.formula();
        // Same order of magnitude, never worse than 3x the bound.
        assert!(r > 0.0, "some leak must exist");
        assert!(r < formula * 3.0, "r = {r}, formula = {formula}");
    }

    #[test]
    fn r_t_is_td_plus_two_tr_plus_a_constant_on_the_n1_plane() {
        // Every n = 1 cell in the formula's mode, at the seeds the quick
        // suite runs them with. A fixed excess over Td + 2·Tr also means r
        // grows along both plane axes.
        let mut plane = spec(true);
        plane
            .points
            .retain(|p| p.usize("n") == 1 && !p.bool("assists"));
        assert_eq!(plane.points.len(), 7);
        for r in Runner::new(1).run(&plane) {
            let secs = |name| r.params.u64(name) as f64 / 1e3;
            let t = r.params.u64("t_s") as f64;
            let excess = r.metrics.f64("r_measured") * t - (secs("td_ms") + 2.0 * secs("tr_ms"));
            assert!(
                (0.002..=0.003).contains(&excess),
                "{}: r·T - (Td + 2·Tr) = {excess} s",
                r.params.to_json()
            );
        }
    }

    #[test]
    fn assists_strictly_improve_on_the_formula_mode() {
        let p = Point {
            n: 2,
            td: SimDuration::from_millis(100),
            tr: SimDuration::from_millis(50),
            t: SimDuration::from_secs(10),
        };
        let plain = leak(p, false, 2, 23);
        let assisted = leak(p, true, 2, 23);
        assert!(
            assisted <= plain,
            "assists must not hurt: plain = {plain}, assisted = {assisted}"
        );
    }

    #[test]
    fn r_grows_with_n() {
        let mk = |n| Point {
            n,
            td: SimDuration::from_millis(100),
            tr: SimDuration::from_millis(50),
            t: SimDuration::from_secs(10),
        };
        let r1 = leak(mk(1), false, 2, 22);
        let r2 = leak(mk(2), false, 2, 23);
        assert!(
            r2 > r1,
            "more rogue nodes must leak more: r1 = {r1}, r2 = {r2}"
        );
    }

    #[test]
    fn r_shrinks_with_t() {
        let mk = |t| Point {
            n: 1,
            td: SimDuration::from_millis(100),
            tr: SimDuration::from_millis(50),
            t: SimDuration::from_secs(t),
        };
        let r_short = leak(mk(5), false, 2, 22);
        let r_long = leak(mk(20), false, 2, 22);
        assert!(
            r_long < r_short,
            "longer T must leak proportionally less: {r_short} vs {r_long}"
        );
    }
}
