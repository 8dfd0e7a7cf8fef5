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
//! The formula models a *conservative* deployment where each failed round
//! costs the victim a fresh detection: we measure that mode (shadow assist
//! off) against the formula, and also the default deployment (shadow
//! assist on) which does strictly better because reactivations are caught
//! at the gateway before the victim sees a packet.

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

/// The E2 scenario spec: `(n, T, Tr, assists)` grid, `Td` fixed at 100 ms.
/// The final point is the paper's worked example (`Td ≈ 0, Tr = 50 ms,
/// T = 60 s, n = 1` → `r ≈ 0.00083`).
pub fn spec(quick: bool) -> ScenarioSpec {
    let periods: u64 = if quick { 2 } else { 3 };
    let t_values: &[u64] = if quick { &[10, 30] } else { &[10, 30, 60] };
    let tr_values: &[u64] = if quick { &[50] } else { &[10, 50, 100] };
    let mut points = Vec::new();
    let mut group = 0u64;
    for n in [1u64, 2, 3] {
        for &t in t_values {
            for &tr in tr_values {
                // The assists-on/off pair shares a seed group so the two
                // rows differ only in the knob, never in RNG noise — the
                // expectation compares them directly.
                for assists in [false, true] {
                    points.push(
                        Params::new()
                            .with("n", n)
                            .with("td_ms", 100u64)
                            .with("tr_ms", tr)
                            .with("t_s", t)
                            .with("assists", assists)
                            .with("_periods", periods)
                            .with("_seed_group", group),
                    );
                }
                group += 1;
            }
        }
    }
    // The paper's worked example rides along as the last sweep point.
    points.push(
        Params::new()
            .with("n", 1u64)
            .with("td_ms", 0u64)
            .with("tr_ms", 50u64)
            .with("t_s", 60u64)
            .with("assists", false)
            .with("_periods", if quick { 1u64 } else { 3 })
            .with("_seed_group", group),
    );
    ScenarioSpec::new(
        "e2_effective_bandwidth",
        "E2 (§IV-A.1): effective-bandwidth reduction r vs formula n(Td+Tr)/T",
        "§IV-A.1",
    )
    .expectation(
        "measured r tracks the formula n(Td+Tr)/T; the assisted deployment \
         does strictly better. Final row is the paper's worked example \
         (formula r = 0.00083).",
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
