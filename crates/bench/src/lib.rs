//! Experiment harness: regenerates every table and figure of the AITF
//! paper's evaluation (Section IV plus the Figure 1 / Section II-D
//! scenario and the Section V pushback comparison).
//!
//! Each experiment is a library module exposing its `spec(quick)`; the
//! `all_experiments` driver runs any selection of them from the
//! [`registry`] (`--filter e1`). `quick = true` shrinks durations and
//! sweeps so the whole suite doubles as an integration test; without it
//! the driver runs the full-size versions. Every experiment prints
//! *paper-expected* and *measured* values side by side; EXPERIMENTS.md
//! records the outcomes.
//!
//! | experiment | paper source | claim |
//! |------------|--------------|-------|
//! | [`e1_escalation`] | Fig. 1, §II-D | rounds push filtering to the attacker's side, then disconnect |
//! | [`e2_effective_bandwidth`] | §IV-A.1 | `r ≈ n(Td+Tr)/T`, over `(n, T, Tr)` and the `Td × Tr` plane |
//! | [`e3_protection_capacity`] | §IV-A.2 | `Nv = R1·T` |
//! | [`e4_victim_gw_resources`] | §IV-B | `nv = R1·Ttmp`, `mv = R1·T` |
//! | [`e5_attacker_gw_resources`] | §IV-C/D | `na = R2·T` |
//! | [`e6_handshake_security`] | §II-E, §III-B | forgery fails off-path, succeeds only on-path |
//! | [`e7_onoff_attacks`] | §II-B fn.2 | the shadow cache defeats on-off games |
//! | [`e8_vs_pushback`] | §V | 4 nodes/round vs hop-by-hop; disconnection vs good will |
//! | [`e9_ingress_incentive`] | §III-A | ingress filtering pays for itself |
//! | [`e10_scaling`] | §III-C | per-provider load follows its own clients |
//! | [`e11_detection`] | §V (detection boundary) | a real rate detector reproduces the assumed `Td` |
//! | [`e12_mixed_workload`] | §I threat model | mixed legit/attack host ratios at constant load |
//! | [`e13_filter_pressure`] | §IV-B sizing, stressed | leak degrades once capacity drops below filter demand |
//! | [`e15_host_churn`] | §III-C under churn | leak recovers after every mid-attack host wave |
//! | [`e16_deployment_incentive`] | §III, §IV-B | every additional AITF provider pays off for the victim |
//! | [`e17_provider_churn`] | §III under network churn | leak recovers as providers leave/rejoin AITF mid-attack |
//! | [`e18_megatree`] | §III-C at scale | a 105,800-host tree behaves like E10's world, 100× larger |
//! | [`e19_defense_bakeoff`] | §V, generalized | four defense policies ranked on one world, one seed |
//! | [`e20_flash_crowd`] | §I threat model, Internet shape | flash crowd vs spoofed DDoS discrimination on a 100k-net power-law world |

pub mod e10_scaling;
pub mod e11_detection;
pub mod e12_mixed_workload;
pub mod e13_filter_pressure;
pub mod e15_host_churn;
pub mod e16_deployment_incentive;
pub mod e17_provider_churn;
pub mod e18_megatree;
pub mod e19_defense_bakeoff;
pub mod e1_escalation;
pub mod e20_flash_crowd;
pub mod e2_effective_bandwidth;
pub mod e3_protection_capacity;
pub mod e4_victim_gw_resources;
pub mod e5_attacker_gw_resources;
pub mod e6_handshake_security;
pub mod e7_onoff_attacks;
pub mod e8_vs_pushback;
pub mod e9_ingress_incentive;
pub mod figures;
pub mod harness;

pub use harness::Table;

/// Builds the full experiment registry, in paper order. Every experiment
/// registers its [`aitf_engine::ScenarioSpec`] here; the `all_experiments`
/// driver selects from it with `--filter`.
pub fn registry(quick: bool) -> aitf_engine::Registry {
    let mut r = aitf_engine::Registry::new();
    r.register(e1_escalation::spec(quick));
    r.register(e2_effective_bandwidth::spec(quick));
    r.register(e3_protection_capacity::spec(quick));
    r.register(e4_victim_gw_resources::spec(quick));
    r.register(e5_attacker_gw_resources::spec(quick));
    r.register(e6_handshake_security::spec(quick));
    r.register(e7_onoff_attacks::spec(quick));
    r.register(e8_vs_pushback::spec(quick));
    r.register(e8_vs_pushback::spec_rogue(quick));
    r.register(e9_ingress_incentive::spec(quick));
    r.register(e10_scaling::spec(quick));
    r.register(e11_detection::spec(quick));
    r.register(e12_mixed_workload::spec(quick));
    r.register(e13_filter_pressure::spec(quick));
    r.register(e15_host_churn::spec(quick));
    r.register(e16_deployment_incentive::spec(quick));
    r.register(e17_provider_churn::spec(quick));
    r.register(e18_megatree::spec(quick));
    r.register(e19_defense_bakeoff::spec(quick));
    r.register(e20_flash_crowd::spec(quick));
    r.register(figures::spec(quick));
    r
}
