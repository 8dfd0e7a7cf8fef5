//! E14 — the `Td × Tr` grid behind `r ≈ n(Td+Tr)/T`.
//!
//! E2 sweeps the formula's `n` and `T` with `Td` pinned at 100 ms; E14
//! completes the picture by sweeping the remaining two quantities — the
//! detection delay `Td` and the victim→gateway delay `Tr` — as a full 2-D
//! grid at fixed `n = 1`, `T`. Both knobs are first-class scenario axes
//! now ([`Scenario::td`] / [`Scenario::tr`]), so each grid point is the
//! paper's Figure 1 world with exactly one quantity moved at a time.
//!
//! Run in the formula's conservative mode (shadow assist and fast
//! re-detection off), the measured effective-bandwidth ratio must grow
//! along both axes and track `(Td + Tr)/T`.

use aitf_core::{AitfConfig, HostPolicy};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// The declarative E14 scenario: Figure 1 in conservative (formula) mode
/// with `Td` and `Tr` applied through the first-class sweep axes.
pub fn scenario(td: SimDuration, tr: SimDuration, t: SimDuration, periods: u64) -> Scenario {
    let cfg = AitfConfig {
        t_long: t,
        fast_reblock: false,
        grace: t * (periods + 2),
        ..AitfConfig::default()
    };
    let formula = (td.as_secs_f64() + tr.as_secs_f64()) / t.as_secs_f64();
    Scenario::new(TopologySpec::fig1(HostPolicy::Malicious))
        .config(cfg)
        .td(td)
        .tr(tr)
        .duration(t * periods)
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

/// The E14 scenario spec: the full `Td × Tr` grid at `n = 1`, `T` fixed.
pub fn spec(quick: bool) -> ScenarioSpec {
    let td_values: &[u64] = if quick { &[0, 100] } else { &[0, 50, 100, 200] };
    let tr_values: &[u64] = if quick { &[10, 100] } else { &[10, 50, 100] };
    let t_s: u64 = 10;
    let periods: u64 = if quick { 2 } else { 3 };
    let mut points = Vec::new();
    for &td in td_values {
        for &tr in tr_values {
            points.push(
                Params::new()
                    .with("td_ms", td)
                    .with("tr_ms", tr)
                    .with("t_s", t_s)
                    .with("_periods", periods),
            );
        }
    }
    ScenarioSpec::new(
        "e14_td_tr_grid",
        "E14 (§IV-A.1): Td x Tr grid on effective bandwidth, n = 1",
        "§IV-A.1",
    )
    .expectation(
        "r_measured grows along both grid axes and tracks the formula \
         (Td+Tr)/T — the two remaining quantities of r = n(Td+Tr)/T, \
         swept as first-class scenario axes.",
    )
    .points(points)
    .runner(run_scenario(|p| {
        scenario(
            SimDuration::from_millis(p.u64("td_ms")),
            SimDuration::from_millis(p.u64("tr_ms")),
            SimDuration::from_secs(p.u64("t_s")),
            p.u64("_periods"),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak(td_ms: u64, tr_ms: u64, seed: u64) -> f64 {
        scenario(
            SimDuration::from_millis(td_ms),
            SimDuration::from_millis(tr_ms),
            SimDuration::from_secs(10),
            2,
        )
        .run(seed)
        .metrics
        .f64("r_measured")
    }

    #[test]
    fn r_grows_along_the_td_axis() {
        let low = leak(0, 50, 41);
        let high = leak(200, 50, 41);
        assert!(
            high > low,
            "larger Td must leak more: td=0 -> {low}, td=200ms -> {high}"
        );
    }

    #[test]
    fn r_grows_along_the_tr_axis() {
        let near = leak(100, 10, 42);
        let far = leak(100, 100, 42);
        assert!(
            far > near,
            "larger Tr must leak more: tr=10ms -> {near}, tr=100ms -> {far}"
        );
    }

    #[test]
    fn r_tracks_the_formula_order_of_magnitude() {
        let r = leak(100, 50, 43);
        let formula = 0.150 / 10.0;
        assert!(r > 0.0, "some leak must exist");
        assert!(r < formula * 3.0, "r = {r}, formula = {formula}");
    }
}
