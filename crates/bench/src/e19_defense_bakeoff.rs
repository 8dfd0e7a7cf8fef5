//! E19 — the defense bake-off: four policies, one world, one seed.
//!
//! The hook-pipeline router (`aitf_core::pipeline`) makes the defense a
//! configuration axis, so the paper's qualitative §V comparison becomes a
//! quantitative N-way table: AITF, hop-by-hop pushback, per-prefix
//! ingress rate-limiting, and capability-style path stamping all run the
//! same star world, the same flood, the same legitimate client pool and
//! the **same derived seed** (one `_seed_group`), differing only in the
//! `DefensePolicy` their routers execute.
//!
//! Four columns rank them:
//!
//! - `leak_r` — attack bytes delivered / offered (lower is better);
//! - `legit_frac` — legitimate bytes delivered / offered (higher is
//!   better; this is where the blunt defenses pay: rate-limiting polices
//!   the shared /16, path stamping revokes a whole origin router);
//! - `quell_s` — time until the victim's attack bandwidth falls (and
//!   stays, for the first observed bin) under `QUELL_MBPS`; 0 when it
//!   never exceeded it, −1 when it never recovers;
//! - `footprint` — peak per-router defense state left at the end (filter
//!   entries + path-stamp blocks + rate-limiter buckets), summed over
//!   all routers.
//!
//! Expectation: AITF and pushback both quell the flood in a cooperative
//! world (pushback's failure mode needs a rogue hop — that is E8b's
//! story), but AITF keeps `legit_frac` high where the two local defenses
//! sacrifice the attacker-side legitimate clients.

use aitf_core::{AitfConfig, DefensePolicy, HostPolicy, NetId};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, ProbeSet, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

use crate::harness::run_scenario;

/// Zombie networks around the hub (quick mode halves this).
const NETS_FULL: usize = 8;
const NETS_QUICK: usize = 4;

/// Per-zombie flood rate (packets/second) and packet size: with 4+ nets
/// the aggregate comfortably exceeds the victim's 10 Mbit/s tail.
const FLOOD_PPS: u64 = 1000;
const FLOOD_SIZE: u32 = 500;

/// Legitimate client rate (packets/second) and packet size
/// (≈ 0.8 Mbit/s per client).
const LEGIT_PPS: u64 = 100;
const LEGIT_SIZE: u32 = 1000;

/// Attack bandwidth at the victim under which the flood counts as
/// quelled.
const QUELL_MBPS: f64 = 0.5;

/// The shared bake-off world: an `n_nets`-spoke star, each spoke holding
/// one flooding zombie and one legitimate client — so a defense that
/// punishes the zombie's whole network (prefix policing, origin
/// revocation) visibly taxes `legit_frac`.
pub fn scenario(n_nets: usize, duration: SimDuration, policy: DefensePolicy) -> Scenario {
    let mut topo = TopologySpec::star(n_nets, 2, HostPolicy::Malicious, 10_000_000);
    // Second host of every spoke becomes the legitimate client.
    let zombies: Vec<usize> = (0..topo.hosts.len())
        .filter(|&i| topo.hosts[i].role == Role::Attacker)
        .collect();
    for pair in zombies.chunks(2) {
        let &i = pair.last().expect("two hosts per spoke");
        topo.hosts[i].policy = HostPolicy::Compliant;
        topo.hosts[i].role = Role::Legit;
    }
    let cfg = AitfConfig {
        t_long: SimDuration::from_secs(30),
        defense: policy,
        ..AitfConfig::default()
    };
    Scenario::new(topo)
        .config(cfg)
        .duration(duration)
        .traffic(TrafficSpec::legit(
            HostSel::Role(Role::Legit),
            TargetSel::Victim,
            LEGIT_PPS,
            LEGIT_SIZE,
        ))
        .traffic(
            TrafficSpec::flood(
                HostSel::Role(Role::Attacker),
                TargetSel::Victim,
                FLOOD_PPS,
                FLOOD_SIZE,
            )
            .staggered(SimDuration::from_millis(10)),
        )
        .probes(
            ProbeSet::new()
                .leak_ratio("leak_r")
                .legit_delivery("legit_frac")
                .end(|w, m| {
                    let footprint: usize = (0..w.world.net_count())
                        .map(|i| w.world.router(NetId(i)).defense_footprint())
                        .sum();
                    m.set("footprint", footprint as u64);
                })
                .bin(SimDuration::from_millis(100))
                .sampled_victim_mbps("_series_attack_mbps", false, |w| {
                    w.world.host(w.victim()).counters().rx_attack_bytes
                })
                .summarize(|store, m| {
                    let series = store.series("_series_attack_mbps");
                    let mut spiked = false;
                    let mut quell = 0.0;
                    for (&t, &v) in store.time_s.iter().zip(series) {
                        if v > QUELL_MBPS {
                            spiked = true;
                            quell = -1.0;
                        } else if spiked {
                            quell = t;
                            break;
                        }
                    }
                    m.set("quell_s", quell);
                }),
        )
}

/// The E19 scenario spec: one point per [`DefensePolicy::BAKEOFF`]
/// entry, all sharing one seed group so the rows differ only in the
/// policy.
pub fn spec(quick: bool) -> ScenarioSpec {
    let (n_nets, secs) = if quick {
        (NETS_QUICK, 6)
    } else {
        (NETS_FULL, 10)
    };
    ScenarioSpec::new(
        "e19_defense_bakeoff",
        "E19 (defense bake-off): four policies ranked on one world, one seed",
        "§V, generalized",
    )
    .expectation(
        "AITF and pushback both quell the cooperative-world flood with \
         per-flow filters and near-full legitimate delivery; ingress \
         rate-limiting and path stamping also cap the attack but tax the \
         attacker-side legitimate clients (shared prefix / revoked \
         origin), so their legit_frac drops — the bake-off quantifies \
         the collateral-damage axis the paper argues qualitatively.",
    )
    .points(DefensePolicy::BAKEOFF.iter().map(|&p| {
        Params::new()
            .with("defense", p.name())
            .with("_seed_group", 0u64)
    }))
    .runner(run_scenario(move |p| {
        let policy = DefensePolicy::from_name(p.str("defense")).expect("bake-off policy name");
        scenario(n_nets, SimDuration::from_secs(secs), policy)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitf_engine::Outcome;

    fn point(policy: DefensePolicy) -> Outcome {
        scenario(NETS_QUICK, SimDuration::from_secs(6), policy).run(7)
    }

    #[test]
    fn every_policy_caps_the_cooperative_flood() {
        for policy in DefensePolicy::BAKEOFF {
            let o = point(policy);
            assert!(
                o.metrics.f64("leak_r") < 0.25,
                "{} must cap the flood: {o:?}",
                policy.name()
            );
            assert!(o.events > 0);
        }
    }

    #[test]
    fn filtering_policies_quell_but_rate_limiting_only_caps() {
        // Per-flow/per-origin blocking drives the attack bandwidth to
        // (near) zero; the token bucket admits its contract forever, so
        // the residual trickle never falls under QUELL_MBPS.
        for policy in [
            DefensePolicy::Aitf,
            DefensePolicy::Pushback,
            DefensePolicy::PathStamp,
        ] {
            let o = point(policy);
            assert!(
                o.metrics.f64("quell_s") >= 0.0,
                "{} must quell within the run: {o:?}",
                policy.name()
            );
        }
        let rl = point(DefensePolicy::ingress_ratelimit());
        assert_eq!(
            rl.metrics.f64("quell_s"),
            -1.0,
            "the admitted trickle never quells: {rl:?}"
        );
    }

    #[test]
    fn aitf_keeps_legit_delivery_where_blunt_defenses_pay() {
        let aitf = point(DefensePolicy::Aitf);
        let ratelimit = point(DefensePolicy::ingress_ratelimit());
        let stamp = point(DefensePolicy::PathStamp);
        assert!(
            aitf.metrics.f64("legit_frac") > 0.9,
            "per-flow filters spare the legitimate clients: {aitf:?}"
        );
        for (name, o) in [("ingress_ratelimit", &ratelimit), ("path_stamp", &stamp)] {
            assert!(
                o.metrics.f64("legit_frac") < aitf.metrics.f64("legit_frac"),
                "{name} must show collateral damage vs AITF: {o:?} vs {aitf:?}"
            );
        }
    }

    #[test]
    fn footprints_are_nonzero_and_policy_shaped() {
        for policy in DefensePolicy::BAKEOFF {
            let o = point(policy);
            assert!(
                o.metrics.u64("footprint") > 0,
                "{} leaves defense state behind: {o:?}",
                policy.name()
            );
        }
    }

    #[test]
    fn bakeoff_rows_share_one_seed() {
        let s = spec(true);
        assert_eq!(s.points.len(), 4);
        let seeds: Vec<u64> = (0..4).map(|i| s.seed_for(42, i)).collect();
        assert!(seeds.windows(2).all(|w| w[0] == w[1]), "{seeds:?}");
    }
}
